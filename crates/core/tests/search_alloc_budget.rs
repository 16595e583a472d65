//! The optimizer search's allocation budget: a candidate plan costs what
//! the rewrite that made it changed — its own nodes, a copy of the spine
//! above them — and nothing for being keyed, priced or remembered; a
//! search the system already made costs a copy of the plan it chose; and
//! the cost-model snapshot both start from shares the system's tables.
//! Counted here, per explored candidate, per reuse and per snapshot,
//! with an allocator of this test binary's own, on
//! `tests/optimizer_golden.rs`'s `query_ship` deployment and on uniform
//! networks.

use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_prng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // A thread that is shutting down has no counter left; it is not one
    // that measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const CLIENT: PeerId = PeerId(0);
const DATA_1: PeerId = PeerId(1);

/// A catalog of 200 packages, a `selectivity` share of them big.
fn catalog(selectivity: f64, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut xml = String::from("<catalog>");
    for i in 0..200 {
        let size = if rng.next_f64() < selectivity {
            100_001 + rng.gen_range(0..10_000u32)
        } else {
            10_000 + rng.gen_range(0..40_000u32)
        };
        let tag = rng.gen_range(0..4096u32);
        write!(
            xml,
            r#"<pkg name="pkg-{i:04}-{tag:x}"><size>{size}</size><desc>package {i}</desc></pkg>"#
        )
        .unwrap();
    }
    xml.push_str("</catalog>");
    xml
}

/// What the two selections see of the `query_ship` deployment: its six
/// peers and links, a catalog at data-1, the four-member generic class.
fn system() -> AxmlSystem {
    let c10 = catalog(0.10, 10);
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
        .doc("data-1", "cat-1", catalog(0.01, 1).as_str())
        .replica("data-1", "cat-any", "cat-10", c10.as_str())
        .replica("data-2", "cat-any", "catalog", c10.as_str())
        .replica("mirror-1", "cat-any", "catalog", c10.as_str())
        .replica("mirror-2", "cat-any", "catalog", c10.as_str())
        .build()
        .unwrap()
}

/// `select-big` over `doc`: the `remote-selection` and
/// `generic-doc-selection` shapes, by what `doc` is.
fn selection(doc: Expr) -> Expr {
    let select = Query::parse(
        "select-big",
        r#"for $p in $0//pkg where $p/size/text() > 100000
           return <big name="{$p/@name}">{$p/size}</big>"#,
    )
    .unwrap();
    Expr::Apply {
        query: LocatedQuery::new(select, CLIENT),
        args: vec![doc],
    }
}

/// The two shapes whose searches are counted.
fn shapes() -> [(&'static str, Expr); 2] {
    [
        (
            "remote-selection",
            selection(Expr::Doc {
                name: "cat-1".into(),
                at: PeerRef::At(DATA_1),
            }),
        ),
        (
            "generic-doc-selection",
            selection(Expr::Doc {
                name: "cat-any".into(),
                at: PeerRef::Any,
            }),
        ),
    ]
}

#[test]
fn a_search_allocates_for_the_plans_it_builds_and_little_else() {
    for (name, naive) in shapes() {
        // the first search on its system: cold by construction
        let sys = system();
        let model = CostModel::from_system(&sys);
        let optimizer = Optimizer::standard();
        let before = ALLOCATIONS.get();
        let plan = optimizer.optimize(&model, CLIENT, &naive);
        let allocations = ALLOCATIONS.get() - before;
        // Enough candidates to average over: 365 and 386 since the model
        // prices a value the same however a plan spells it (the search
        // finds its plan in the first round and stops after the stale
        // rounds; it explored 694 and 603 while misestimates kept
        // improving on each other).
        assert!(plan.explored > 300, "{name}: {plan}");
        let per_candidate = allocations as f64 / plan.explored as f64;
        // 16.8 and 15.0 when this was written (plans of ~11 nodes: about
        // ten allocations are the candidate itself, the rest the rules'
        // result lists and the model's statistics lookups); the pin is
        // the larger + 10 %. Formatting the text of every candidate,
        // cloning it to relocate its definitions and cloning its rule
        // trace — what the search did before — was 75.
        assert!(
            per_candidate < 18.5,
            "{name}: {allocations} allocations for {} candidates, {per_candidate:.1} each",
            plan.explored
        );
    }
}

/// The same search again on the same system is O(plan): it allocates
/// what a copy of the chosen plan takes, and a few more for the key.
#[test]
fn a_reuse_allocates_a_copy_of_the_plan_and_little_else() {
    for (name, naive) in shapes() {
        let sys = system();
        let optimizer = Optimizer::standard();
        let cold = optimizer.optimize(&CostModel::from_system(&sys), CLIENT, &naive);
        let model = CostModel::from_system(&sys);
        let mut obs = Obs::new();
        let before = ALLOCATIONS.get();
        let warm = optimizer.optimize_with(&model, CLIENT, &naive, &mut obs);
        let allocations = ALLOCATIONS.get() - before;
        assert_eq!(obs.metrics.explored, 0, "{name}: searched again");
        assert_eq!(warm.explored, cold.explored);
        let before = ALLOCATIONS.get();
        let copy = warm.clone();
        let copying = ALLOCATIONS.get() - before;
        drop(copy);
        // one more when this was written: the key's list of rule names
        assert!(
            allocations <= copying + 2,
            "{name}: a reuse allocated {allocations}, a copy of the plan {copying}"
        );
    }
}

/// A snapshot shares the link table, the catalog's member tables and the
/// (warm) per-peer statistics with the system: it costs O(peers) `Arc`
/// clones, and its allocations do not grow with the peer count.
#[test]
fn a_snapshot_costs_o_peers() {
    let snapshot = |n: usize| {
        let sys = AxmlSystem::with_topology(&Topology::Uniform {
            n,
            cost: LinkCost::wan(),
        });
        // the first snapshot collects every peer's statistics
        drop(CostModel::from_system(&sys));
        let before = ALLOCATIONS.get();
        let model = CostModel::from_system(&sys);
        let allocations = ALLOCATIONS.get() - before;
        assert_eq!(model.peer_count(), n);
        allocations
    };
    let (small, large) = (snapshot(64), snapshot(512));
    assert_eq!(small, large, "64 peers: {small} allocations, 512: {large}");
}
