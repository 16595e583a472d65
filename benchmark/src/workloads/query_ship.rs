//! `query_ship` — the paper's core path: cost model, optimizer search
//! (rules 10–16) and evaluation of the chosen plan on a 6-peer WAN.
//!
//! *Why it exists:* optimizer search and query evaluation do nearly all
//! the work here; scheduler, matcher and frame codec almost none. An
//! optimizer or query-evaluator change must show on this workload and
//! must not on `edos_poll`.
//!
//! One op = `CostModel::from_system` + `Optimizer::standard()
//! .optimize_with` + `eval` of the chosen plan, for one of seven naive
//! plan shapes taken from experiments E1–E8. The mix is fixed (every
//! shape equally often); the seed draws the catalogs and the op order.

use crate::gen::{apportion, catalog, stratified_order, BIG_THRESHOLD};
use crate::harness::{
    forest_fingerprint, OpOutcome, SetupClock, Size, SpanKind, Tracer, Variant, Workload,
};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_prng::SplitMix64;
use axml_xml::tree::Tree;
use std::time::Instant;

/// Packages per catalog. (The issue sized this at 10 000; the cost
/// model walks every hosted document per call, so 10 000-package
/// catalogs put one op at ~60 ms and an epoch far past the run-time
/// cap. See the README's sizing section.)
pub const PACKAGES: usize = 1_000;
/// Ops per epoch at full size.
pub const EPOCH_OPS: usize = 105;
/// Warm-up ops per set-up at full size (two per shape).
const WARMUP_OPS: usize = 14;

const CLIENT: PeerId = PeerId(0);
const DATA_1: PeerId = PeerId(1);
const GATEWAY: PeerId = PeerId(3);

/// What a correct result looks like for one shape.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// The op returns this forest (order-insensitive fingerprint).
    Forest(u64),
    /// The op appends this many trees under the gateway's vault.
    Forwarded(usize),
}

/// One naive plan shape.
struct Shape {
    name: &'static str,
    naive: Expr,
    expect: Expect,
    /// The query evaluation the plan performs, for the layer probe:
    /// `(query, parameter documents at data-1)`.
    probe: (Query, Vec<&'static str>),
}

/// Seed-derived inputs and expectations.
pub struct Plan {
    catalogs: [(&'static str, String); 3],
    wanted: String,
    shapes: Vec<Shape>,
    order: Vec<u8>,
    warmup_ops: usize,
}

const SELECT_SRC: &str = r#"for $p in $0//pkg where $p/size/text() > 100000
    return <big name="{$p/@name}">{$p/size}</big>"#;

fn doc_at(name: &str, at: PeerId) -> Expr {
    Expr::Doc {
        name: name.into(),
        at: PeerRef::At(at),
    }
}

fn shapes() -> Result<Vec<Shape>, String> {
    let q = |name: &str, src: &str| Query::parse(name, src).map_err(|e| format!("{name}: {e}"));
    let select = q("select-big", SELECT_SRC)?;
    let remote = |name: &'static str, doc: &'static str| -> Shape {
        Shape {
            name,
            naive: Expr::Apply {
                query: LocatedQuery::new(select.clone(), CLIENT),
                args: vec![doc_at(doc, DATA_1)],
            },
            expect: Expect::Forest(0),
            probe: (select.clone(), vec![doc]),
        }
    };
    let over_sc = q(
        "fmt",
        &format!(
            r#"for $t in $0 where $t/size/text() > {BIG_THRESHOLD} return <w>{{$t/@name}}</w>"#
        ),
    )?;
    let pair = q(
        "pair",
        &format!(
            r#"for $x in $0//pkg[size > {BIG_THRESHOLD}] for $y in $1//pkg[size > {BIG_THRESHOLD}]
               where $x/@name = $y/@name return <p>{{$x/@name}}</p>"#
        ),
    )?;
    Ok(vec![
        remote("remote-selection-1", "cat-1"),
        remote("remote-selection-10", "cat-10"),
        remote("remote-selection-50", "cat-50"),
        Shape {
            name: "query-over-sc",
            naive: Expr::Apply {
                query: LocatedQuery::new(over_sc, CLIENT),
                args: vec![Expr::Sc {
                    provider: PeerRef::At(DATA_1),
                    service: "all-pkgs".into(),
                    params: vec![],
                    forward: vec![],
                }],
            },
            expect: Expect::Forest(0),
            probe: (q("all-pkgs", ALL_PKGS_SRC)?, vec![]),
        },
        Shape {
            name: "generic-doc-selection",
            naive: Expr::Apply {
                query: LocatedQuery::new(select.clone(), CLIENT),
                args: vec![Expr::Doc {
                    name: "cat-any".into(),
                    at: PeerRef::Any,
                }],
            },
            expect: Expect::Forest(0),
            probe: (select.clone(), vec!["cat-10"]),
        },
        Shape {
            name: "double-use",
            naive: Expr::Apply {
                query: LocatedQuery::new(pair.clone(), CLIENT),
                args: vec![doc_at("cat-10", DATA_1), doc_at("cat-10", DATA_1)],
            },
            expect: Expect::Forest(0),
            probe: (pair, vec!["cat-10", "cat-10"]),
        },
        Shape {
            name: "sc-forward",
            // The vault's root is node 0 of a freshly parsed `<vault/>`.
            naive: Expr::Sc {
                provider: PeerRef::At(DATA_1),
                service: "resolve".into(),
                params: vec![doc_at("wanted", DATA_1)],
                forward: vec![NodeAddr::new(GATEWAY, "vault", Tree::new("vault").root())],
            },
            expect: Expect::Forwarded(0),
            probe: (q("resolve", RESOLVE_SRC)?, vec!["wanted"]),
        },
    ])
}

const ALL_PKGS_SRC: &str = r#"for $p in doc("cat-10")//pkg return {$p}"#;
const RESOLVE_SRC: &str = r#"for $p in doc("cat-10")//pkg for $w in $0/name
    where $p/@name = $w/text() and $p/size/text() > 100000
    return <hit>{$p/@name}</hit>"#;

fn build(plan_docs: &Plan) -> Result<AxmlSystem, String> {
    let [c1, c10, c50] = &plan_docs.catalogs;
    AxmlSystem::builder()
        .peers([
            "client", "data-1", "data-2", "gateway", "mirror-1", "mirror-2",
        ])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .link("client", "gateway", LinkCost::wan())
        .link("gateway", "data-1", LinkCost::wan())
        .link("gateway", "data-2", LinkCost::wan())
        .link("client", "mirror-1", LinkCost::wan())
        .link("client", "mirror-2", LinkCost::slow())
        .link("mirror-1", "data-1", LinkCost::wan())
        .link("mirror-2", "data-1", LinkCost::wan())
        .doc("data-1", c1.0, c1.1.as_str())
        .replica("data-1", "cat-any", c10.0, c10.1.as_str())
        .doc("data-1", c50.0, c50.1.as_str())
        .doc("data-1", "wanted", plan_docs.wanted.as_str())
        .replica("data-2", "cat-any", "catalog", c10.1.as_str())
        .replica("mirror-1", "cat-any", "catalog", c10.1.as_str())
        .replica("mirror-2", "cat-any", "catalog", c10.1.as_str())
        .service("data-1", "all-pkgs", ALL_PKGS_SRC)
        .service("data-1", "resolve", RESOLVE_SRC)
        .doc("gateway", "vault", "<vault/>")
        .build()
        .map_err(|e| format!("query_ship build: {e}"))
}

fn vault_len(sys: &AxmlSystem) -> usize {
    sys.peer(GATEWAY)
        .docs
        .get(&"vault".into())
        .map_or(0, |d| d.tree().children(d.tree().root()).len())
}

/// The workload's state: one freshly built system.
pub struct QueryShip {
    sys: AxmlSystem,
}

impl QueryShip {
    /// Model + search + evaluation for one shape; returns the latency
    /// and whether the result matched.
    fn run_shape(&mut self, shape: &Shape, tr: &mut Tracer) -> OpOutcome {
        let before = vault_len(&self.sys);
        let t0 = Instant::now();
        let model = tr.call(SpanKind::CostModel, 1, || CostModel::from_system(&self.sys));
        let chosen = tr.call(SpanKind::Optimize, 1, || {
            Optimizer::standard().optimize_with(&model, CLIENT, &shape.naive, self.sys.obs_mut())
        });
        let result = tr.call(SpanKind::Eval, 1, || self.sys.eval(CLIENT, &chosen.expr));
        let latency = t0.elapsed();
        let ok = match (&result, shape.expect) {
            (Ok(forest), Expect::Forest(want)) => forest_fingerprint(forest) == want,
            (Ok(_), Expect::Forwarded(n)) => vault_len(&self.sys) == before + n,
            (Err(e), _) => {
                eprintln!("query_ship {}: {e}", shape.name);
                false
            }
        };
        if tr.on() {
            self.probe(shape, tr);
        }
        OpOutcome { latency, ok }
    }

    /// Layer probe: the shape's query through axml-query's evaluator,
    /// over the same documents the plan reads at data-1.
    fn probe(&self, shape: &Shape, tr: &mut Tracer) {
        let peer = self.sys.peer(DATA_1);
        let (query, params) = &shape.probe;
        let mut nodes = 0;
        let inputs: Vec<Vec<Tree>> = params
            .iter()
            .filter_map(|&d| peer.docs.get(&d.into()))
            .map(|d| {
                nodes += d.tree().live_len();
                vec![d.tree().clone()]
            })
            .collect();
        if params.is_empty() {
            nodes = peer
                .docs
                .get(&"cat-10".into())
                .map_or(0, |d| d.tree().live_len());
        }
        tr.probe(nodes as u32, || {
            std::hint::black_box(query.eval_with_docs(&inputs, peer).map_or(0, |f| f.len()))
        });
    }
}

impl Workload for QueryShip {
    const NAME: &'static str = "query_ship";
    type Plan = Plan;

    fn plan(seed: u64, size: Size) -> Result<Plan, String> {
        let mut rng = SplitMix64::new(seed ^ 0x5153_4849_5000_0001);
        let cat_10 = catalog(PACKAGES, 0.10, &mut rng);
        let mut wanted = String::from("<want>");
        for _ in 0..40 {
            let name = &cat_10.names[rng.gen_range(0..PACKAGES)];
            wanted.push_str(&format!("<name>{name}</name>"));
        }
        wanted.push_str("</want>");
        let catalogs = [
            ("cat-1", catalog(PACKAGES, 0.01, &mut rng).xml),
            ("cat-10", cat_10.xml),
            ("cat-50", catalog(PACKAGES, 0.50, &mut rng).xml),
        ];
        let mut shapes = shapes()?;
        let counts = apportion(size.scale(EPOCH_OPS, shapes.len()), &vec![1; shapes.len()]);
        let order = stratified_order(&counts, &mut rng);
        let mut plan = Plan {
            catalogs,
            wanted,
            shapes: Vec::new(),
            order,
            warmup_ops: size.scale(WARMUP_OPS, WARMUP_OPS / 2),
        };
        // Expected results come from the *naive* plan on a twin system:
        // every optimized op is compared against them.
        let mut twin = build(&plan)?;
        for shape in &mut shapes {
            let before = vault_len(&twin);
            let forest = twin
                .eval(CLIENT, &shape.naive)
                .map_err(|e| format!("naive {}: {e}", shape.name))?;
            shape.expect = match shape.expect {
                Expect::Forest(_) => Expect::Forest(forest_fingerprint(&forest)),
                Expect::Forwarded(_) => Expect::Forwarded(vault_len(&twin) - before),
            };
        }
        plan.shapes = shapes;
        Ok(plan)
    }

    fn epoch_len(plan: &Plan) -> usize {
        plan.order.len()
    }

    fn setup(plan: &Plan, variant: Variant, clock: &mut SetupClock) -> Result<Self, String> {
        let mut sys = build(plan)?;
        variant.apply(&mut sys);
        clock.tick();
        let mut w = QueryShip { sys };
        let mut off = Tracer::new(false);
        for k in 0..plan.warmup_ops {
            if !w
                .run_shape(&plan.shapes[k % plan.shapes.len()], &mut off)
                .ok
            {
                return Err(format!("query_ship warm-up op {k} failed"));
            }
            clock.tick();
        }
        w.sys.reset_stats();
        Ok(w)
    }

    fn op(&mut self, plan: &Plan, i: usize, tr: &mut Tracer) -> OpOutcome {
        self.run_shape(&plan.shapes[plan.order[i] as usize], tr)
    }

    fn sys(&self) -> &AxmlSystem {
        &self.sys
    }

    fn sys_mut(&mut self) -> &mut AxmlSystem {
        &mut self.sys
    }

    fn probe_doc(plan: &Plan) -> &str {
        &plan.catalogs[1].1
    }

    fn probe_query(_plan: &Plan) -> &str {
        SELECT_SRC
    }
}
