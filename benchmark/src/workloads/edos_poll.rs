//! `edos_poll` — experiment E14's replica network kept running: a 10⁴-peer
//! uniform WAN, 8 mirrors, 192 clients with LAN home routes, Zipf(1.1)
//! polls (80 % `catalog@any` fetches, 20 % `names@any` service calls)
//! under 2 % drops plus outage windows recurring on the hottest route
//! for the whole virtual span, retry and failover on.
//!
//! *Why it exists:* the engine pump, pick/retry/failover, the simulator's
//! scheduler and its fault gate dominate; there is no optimizer and the
//! query work is trivial. This is the workload on which a scheduler or
//! engine change must show, and an optimizer change must not.

use crate::gen::{apportion, catalog, stratified_order, Zipf};
use crate::harness::{
    forest_fingerprint, OpOutcome, SetupClock, Size, SpanKind, Tracer, Variant, Workload,
};
use axml_core::prelude::*;
use axml_prng::SplitMix64;
use axml_xml::tree::Tree;
use std::time::Instant;

/// Peers in the network.
pub const PEERS: usize = 10_000;
/// Catalog mirrors.
pub const MIRRORS: usize = 8;
/// Polling clients.
pub const CLIENTS: usize = 192;
/// Packages per mirrored catalog.
pub const PACKAGES: usize = 40;
/// Polls per epoch at full size.
pub const EPOCH_OPS: usize = 60_000;
/// Warm-up polls per set-up at full size.
const WARMUP_OPS: usize = 200;
/// Background drop probability.
const DROP: f64 = 0.02;
/// Zipf exponent of client popularity.
const ZIPF_S: f64 = 1.1;
/// An outage of `OUTAGE_MS` opens on the hottest route every
/// `OUTAGE_PERIOD_MS` of virtual time. (The fault gate scans the window
/// list on every send, so the period keeps the list under ~100 windows
/// for one epoch's virtual span.)
const OUTAGE_PERIOD_MS: f64 = 5_000.0;
const OUTAGE_MS: f64 = 350.0;
/// Generous virtual ms per poll, to size the window list to the span.
const VIRTUAL_MS_PER_POLL: f64 = 6.0;

const NAMES_SRC: &str = r#"doc("catalog")//pkg/@name"#;

/// Seed-derived inputs and expectations.
pub struct Plan {
    seed: u64,
    catalog: String,
    /// `(client rank, is service call)` per poll.
    polls: Vec<(u16, bool)>,
    warmup_ops: usize,
    expect_doc: u64,
    expect_names: u64,
}

fn fetch() -> Expr {
    Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::Any,
    }
}

fn names() -> Expr {
    Expr::Sc {
        provider: PeerRef::Any,
        service: "names".into(),
        params: vec![],
        forward: vec![],
    }
}

/// The replica network of E14 at `n` peers. O(n + mirrors + clients):
/// the uniform topology is a rule, only home routes are link overrides.
fn build(plan: &Plan, n: usize, polls: usize) -> Result<(AxmlSystem, Vec<PeerId>, PeerId), String> {
    let mirrors: Vec<PeerId> = (0..MIRRORS)
        .map(|j| PeerId((j * n / MIRRORS) as u32))
        .collect();
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut idx = ((i + 1) * n / (CLIENTS + 1)) as u32;
        while mirrors.iter().any(|m| m.0 == idx) {
            idx += 1;
        }
        clients.push(PeerId(idx));
    }
    let mut faults = FaultPlan::new(plan.seed).drop_prob(DROP);
    let span_ms = polls as f64 * VIRTUAL_MS_PER_POLL;
    let mut start = 50.0;
    while start < span_ms {
        faults = faults.outage_directed(clients[0], mirrors[0], start, start + OUTAGE_MS);
        start += OUTAGE_PERIOD_MS;
    }
    let mut sys = AxmlSystem::builder()
        .topology(&Topology::Uniform {
            n,
            cost: LinkCost::wan(),
        })
        .seed(plan.seed)
        .pick_policy(PickPolicy::Closest)
        .retry(RetryPolicy::standard())
        .failover(true)
        .fault_plan(faults)
        .build()
        .map_err(|e| format!("edos_poll build: {e}"))?;
    let tree = Tree::parse(&plan.catalog).map_err(|e| format!("edos_poll catalog: {e}"))?;
    for &m in &mirrors {
        sys.install_replica(m, "catalog", "catalog", tree.clone())
            .and_then(|()| sys.register_declarative_service(m, "names", NAMES_SRC))
            .map_err(|e| format!("edos_poll mirror {m}: {e}"))?;
        sys.catalog_mut().add_service_replica("names", m, "names");
    }
    // Home routes: client rank r lives on mirror r mod k's LAN, so
    // `Closest` resolves both @any classes there — until churn takes the
    // route down and failover re-picks a WAN mirror.
    for (r, &c) in clients.iter().enumerate() {
        sys.net_mut()
            .set_link(c, mirrors[r % MIRRORS], LinkCost::lan());
    }
    Ok((sys, clients, mirrors[0]))
}

/// The workload's state.
pub struct EdosPoll {
    sys: AxmlSystem,
    clients: Vec<PeerId>,
    mirror: PeerId,
    fetch: Expr,
    names: Expr,
    names_query: Query,
}

impl EdosPoll {
    fn poll(&mut self, plan: &Plan, (rank, is_call): (u16, bool), tr: &mut Tracer) -> OpOutcome {
        let client = self.clients[rank as usize];
        let (expr, want) = if is_call {
            (&self.names, plan.expect_names)
        } else {
            (&self.fetch, plan.expect_doc)
        };
        let t0 = Instant::now();
        let result = tr.call(SpanKind::Eval, 1, || self.sys.eval(client, expr));
        let latency = t0.elapsed();
        let ok = match &result {
            Ok(forest) => forest_fingerprint(forest) == want,
            Err(e) => {
                eprintln!("edos_poll poll from {client}: {e}");
                false
            }
        };
        if tr.on() && is_call {
            let peer = self.sys.peer(self.mirror);
            let nodes = peer
                .docs
                .get(&"catalog".into())
                .map_or(0, |d| d.tree().live_len());
            tr.probe(nodes as u32, || {
                std::hint::black_box(
                    self.names_query
                        .eval_with_docs(&[], peer)
                        .map_or(0, |f| f.len()),
                )
            });
        }
        OpOutcome { latency, ok }
    }
}

impl Workload for EdosPoll {
    const NAME: &'static str = "edos_poll";
    type Plan = Plan;

    fn plan(seed: u64, size: Size) -> Result<Plan, String> {
        let mut rng = SplitMix64::new(seed ^ 0xED05_9011_0000_0002);
        let catalog = catalog(PACKAGES, 0.1, &mut rng).xml;
        let n_polls = size.scale(EPOCH_OPS, 400);
        let kinds = stratified_order(&apportion(n_polls, &[80, 20]), &mut rng);
        let zipf = Zipf::new(CLIENTS, ZIPF_S);
        let polls = kinds
            .iter()
            .map(|&k| (zipf.sample(&mut rng) as u16, k == 1))
            .collect();
        let mut plan = Plan {
            seed,
            catalog,
            polls,
            warmup_ops: size.scale(WARMUP_OPS, 20),
            expect_doc: 0,
            expect_names: 0,
        };
        // Expected results from a miniature, fault-free twin.
        let (mut twin, clients, _) = build(&plan, 2 * (CLIENTS + MIRRORS), 0)?;
        twin.net_mut().clear_fault_plan();
        let eval = |twin: &mut AxmlSystem, e: &Expr| {
            twin.eval(clients[1], e)
                .map(|f| forest_fingerprint(&f))
                .map_err(|e| format!("edos_poll twin: {e}"))
        };
        plan.expect_doc = eval(&mut twin, &fetch())?;
        plan.expect_names = eval(&mut twin, &names())?;
        Ok(plan)
    }

    fn epoch_len(plan: &Plan) -> usize {
        plan.polls.len()
    }

    fn setup(plan: &Plan, variant: Variant, clock: &mut SetupClock) -> Result<Self, String> {
        let (mut sys, clients, mirror) = build(plan, PEERS, plan.warmup_ops + plan.polls.len())?;
        variant.apply(&mut sys);
        clock.tick();
        let mut w = EdosPoll {
            sys,
            clients,
            mirror,
            fetch: fetch(),
            names: names(),
            names_query: Query::parse("names", NAMES_SRC).map_err(|e| e.to_string())?,
        };
        let mut off = Tracer::new(false);
        for k in 0..plan.warmup_ops {
            // Warm-up polls may fail only by giving a wrong answer; the
            // timed section counts failures, set-up refuses them.
            if !w.poll(plan, plan.polls[k % plan.polls.len()], &mut off).ok {
                return Err(format!("edos_poll warm-up poll {k} failed"));
            }
            clock.tick();
        }
        w.sys.reset_stats();
        Ok(w)
    }

    fn op(&mut self, plan: &Plan, i: usize, tr: &mut Tracer) -> OpOutcome {
        self.poll(plan, plan.polls[i], tr)
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
        NAMES_SRC
    }
}
