//! The engine's allocation budget per message: once a system has run a
//! few sessions, moving a message — popping it off the network, ordering
//! it among its instant's arrivals, handing its payload to the receiver,
//! filling the slot that waits for it — allocates nothing, and neither
//! does resolving a generic reference. What an evaluation still allocates
//! is what it answers. Counted here with an allocator of this test
//! binary's own, on a `catalog@any` fetch like `edos_poll`'s and on the
//! members of one continuous call like `sub_churn`'s.

use axml_core::prelude::*;
use axml_xml::tree::Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The allocations `f` makes on this thread, and its value.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

#[test]
fn a_generic_fetch_allocates_for_its_answer() {
    // 64 peers on a uniform WAN, four replicas of `catalog`, polled from
    // a peer that hosts none: definition (9) picks the closest replica,
    // a request goes out, the catalog comes back.
    let mut sys = AxmlSystem::with_topology(&Topology::Uniform {
        n: 64,
        cost: LinkCost::wan(),
    });
    let catalog = Tree::parse(
        r#"<catalog><pkg name="vim"><size>4000</size></pkg><pkg name="gcc"><size>90000</size></pkg></catalog>"#,
    )
    .unwrap();
    for p in [8, 24, 40, 56] {
        sys.install_replica(PeerId(p), "catalog", "catalog", catalog.clone())
            .unwrap();
    }
    let fetch = Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::Any,
    };
    let client = PeerId(3);
    // Warm: the kept session's buffers, the scheduler's heap and the
    // pick's cursor have grown to what a fetch needs.
    for _ in 0..4 {
        sys.eval(client, &fetch).unwrap();
    }
    let (n, out) = allocations(|| sys.eval(client, &fetch).unwrap());
    assert_eq!(out.len(), 1);
    // The answer's forest is one block, and a debug build checks the
    // request's measured length by rendering it into a second. What a
    // session once spent on the message's own path — a batch, a map node
    // and a queue per arrival, a part list per slot, a list of gathered
    // parts per resume, a forest list per delivery, the pick's candidate
    // list — is gone: 2 allocations, where the engine before read 17.
    assert!(n <= 3, "{n} allocations for one steady-state fetch");
}

/// A server whose `board` is watched by `members` subscriptions of one
/// call, each in an inbox of its own on the client; fed twice to warm.
fn watched(members: usize) -> (AxmlSystem, PeerId) {
    let watch = r#"for $i in doc("board")/item[@topic = $0/text()] return {$i}"#;
    let mut b = AxmlSystem::builder()
        .peers(["client", "server"])
        .doc(
            "server",
            "board",
            r#"<board><item topic="db">v0</item></board>"#,
        )
        .service("server", "watch", watch);
    for k in 0..members {
        let sc = "<sc><peer>p1</peer><service>watch</service><param1><t>db</t></param1></sc>";
        b = b.doc(
            "client",
            format!("inbox{k}"),
            format!("<in>{sc}</in>").as_str(),
        );
    }
    let mut sys = b.build().unwrap();
    let (client, server) = (PeerId(0), PeerId(1));
    for k in 0..members {
        sys.activate_document(client, &format!("inbox{k}").into())
            .unwrap();
    }
    for text in ["w1", "w2"] {
        sys.feed(server, "board", item(text)).unwrap();
    }
    (sys, server)
}

fn item(text: &str) -> Tree {
    Tree::parse(&format!(r#"<item topic="db">{text}</item>"#)).unwrap()
}

/// The allocations of one feed of a call with `members` members.
fn fed(members: usize) -> u64 {
    let (mut sys, server) = watched(members);
    let tree = item("v1");
    let (n, delivered) = allocations(|| sys.feed(server, "board", tree).unwrap());
    assert_eq!(delivered, members);
    n
}

#[test]
fn a_call_member_costs_its_delivery() {
    // The call's query runs over the appended child once, its one result
    // is measured and digested once, and every member's message shares
    // that body: what a member adds is its own delivery — the graft into
    // its inbox and its share of the session's and the network's
    // buffers. (61 − 20) / 19 ≈ 2.2, where the engine before read
    // (204 − 27) / 19 ≈ 9.3.
    let (one, twenty) = (fed(1), fed(20));
    let per_member = (twenty - one) as f64 / 19.0;
    assert!(
        per_member <= 3.0,
        "{per_member:.2} allocations per member ({one} for one, {twenty} for twenty)"
    );
}
