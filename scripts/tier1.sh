#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must keep green, in one shot.
#
#   scripts/tier1.sh           # lint + build + tests + docs
#
# Runs entirely offline (the workspace has zero external dependencies).
#
# Mechanical gates, beyond fmt/clippy/build/tests/doc:
#   - twenty-five grep gates, one per "one of each" claim (wire-format
#     writer, trace format, rendered payloads, byte codec, blocking
#     session, strategy picker, send path, plans priced in place, one
#     evaluation per call, one scan memo, one clock, a view is a handle,
#     Σ is left as found, a member walks no tree, one collapse path, one
#     scheduler and one driver, the runtime spawns no thread, one query
#     printer, one composition, one count per event, library crates
#     print nothing, a service's type is its plan, an intent holds only
#     what the wire lacks, a message's effect has one writer, an
#     evaluation builds its answers in one arena) — each explained where
#     it runs;
#   - crates/core/tests/prop_expr.rs::a_reused_plan_is_the_plan_a_cold_
#     search_chooses (swept by `cargo test --workspace`): searches
#     interleaved with mutations of documents, links, outages, services,
#     replica classes and the pick policy; every plan the system hands
#     back equals a cold search on a rebuilt system, to the cost bit;
#   - crates/query/tests/alloc_budget.rs (swept by `cargo test --workspace`):
#     the evaluator allocates for what it answers, not per input item, and
#     walks a closed scan once — counted with the test binary's own
#     allocator, so "O(scan + answer)" fails a test when it stops holding;
#     a_join_probes_instead_of_rescanning pins that a join's inner scan
#     growing 1 000 → 4 000 items costs exactly its list's two doublings,
#     and a_repeated_closed_scan_reads_the_arena that a second select-big
#     over an unchanged 1 000- or 4 000-package catalog allocates the same
#     count, for its answers only; ten answers built side by side in one
#     arena cost at most 16 blocks beyond views of the packages
#     (a_template_answer_costs_its_handle_slots_and_new_strings), exactly
#     16 and 7 for two templates with literals (a_template_literal_is_
#     shared_not_copied), none of them for a string an input or the plan
#     already holds;
#   - crates/query/tests/scan_memo.rs (same sweep): a closed scan an arena
#     keeps answers as a fresh walk — over random catalogs and closed-scan
#     queries, every answer equals the evaluation over freshly parsed
#     inputs, twice on one handle, across every public mutator, for a
#     copy-on-write copy and its original, subtree views and two threads;
#     under either Delta the memo is neither read nor filled, and a step
#     predicate reading a second source is never kept;
#   - crates/query/tests/prop_query.rs::evaluator_equals_the_materialising_
#     reference (same sweep): the evaluator ≡ a nested-loop reference on
#     4 000 seeded plans, of which at least 300 take a join's index;
#   - crates/query/tests/deep_chain.rs and crates/xml/tests/deep_chain.rs
#     (same sweep, each alone in its binary): 200 000-deep chains through
#     the evaluator, and through the delta filter, equivalence, the
#     canonical hash, Tree ==, serialize_into (walk and bytes memo),
#     serialize_node, Debug, serialized_size and serialized_sizes, on a
#     64 KiB stack, and through graft and pretty (a 4 000-deep chain:
#     the pretty form grows with the square of the depth), so a walk that
#     recurses per tree level aborts the run;
#   - crates/xml/tests/bytes_memo.rs (same sweep): the bytes memo is a
#     render — over random trees and random sequences of every public
#     mutator, serialize_into gives the bytes of a fresh walk, for the
#     tree, a mutated copy-on-write copy and its original, subtree views,
#     and two threads rendering one handle at once;
#   - xml's serialize::tests::a_document_is_walked_twice_then_copied and
#     crates/xml/tests/render_alloc_budget.rs (same sweep, the latter
#     with its own allocator): a document's first two renders since it
#     last changed walk it and the rest copy, and rendering a 2 000-package
#     catalog into a buffer with room allocates 0 times, except exactly
#     once (the kept copy) on the second render;
#   - crates/core/tests/search_alloc_budget.rs (same sweep, same kind of
#     allocator): an optimizer search allocates for the candidate plans it
#     builds, under a pinned count per explored candidate — formatting a
#     candidate's text, or copying it to price it, fails a test — a
#     reused plan costs a copy of it (a_reuse_allocates_a_copy_of_the_
#     plan_and_little_else), and a cost-model snapshot allocates as much
#     for 512 peers as for 64 (a_snapshot_costs_o_peers);
#   - crates/core/tests/session_alloc_budget.rs (same sweep, same kind of
#     allocator): moving a message through a session allocates nothing
#     once the system's kept session has grown — a steady-state
#     catalog@any fetch on a 64-peer WAN allocates at most 3 times, and a
#     feed of one call costs at most 3 allocations per member beyond the
#     first;
#   - crates/xml/tests/digest_alloc_budget.rs (same sweep, same kind of
#     allocator): a canonical digest allocates nothing, so counting a tree
#     already delivered allocates nothing and a batch admitted to the
#     delta filter costs it only the growth of its map;
#   - engine determinism / transport / matcher differential suites, chaos
#     seeds, the trace round trip, E13/E14 smokes and benchmark/ci.sh,
#     below.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo clippy (warnings are errors, redundant clones denied) =="
# redundant_clone is denied explicitly: the zero-copy substrate makes
# Tree::clone O(1), so a stray .clone() is cheap at runtime but hides a
# handle that should have moved — keep the discipline mechanical.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone

echo "== tier-1: one wire-format writer (no to_xml/write_xml under crates/{core,query}/src) =="
# Shipped text, wire sizes and memo keys come from the streaming emitter
# (Expr::fingerprint / wire_size, Query::wire_xml); from_xml reads that
# text back once it is parsed. Outside comments and `#[cfg(test)]`
# modules, a builder of the same document as a tree is the format
# described a second time.
for f in $(find crates/core/src crates/query/src -name '*.rs'); do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" \
        | grep -nE '\b(to|write)_xml\b'; then
        echo "tier-1: $f builds the wire form as a tree; use the emitter" >&2
        exit 1
    fi
done

echo "== tier-1: one trace format (no Jsonl/TraceFormat/from_json under crates/*/src) =="
# A trace is AXTR (obs/src/codec.rs): BinSink writes it, to a file or
# a socket, and the Splitter in obs/src/reader.rs reads it. Outside
# comments and `#[cfg(test)]` modules, a second encoding, a format enum
# to tell them apart or a JSON event decoder is the twin coming back.
for f in $(find crates/*/src -name '*.rs'); do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" \
        | grep -nE 'Jsonl|TraceFormat|from_json'; then
        echo "tier-1: $f brings back a second trace encoding; AXTR is the one" >&2
        exit 1
    fi
done

echo "== tier-1: payloads are measured, not rendered (no serialize on the engine's send paths) =="
# A message body is tree handles plus a length (message.rs's Body); bytes
# exist only where a socket asks for them, through Body's one emitter.
# Outside comments and `#[cfg(test)]` modules, the engine, the continuous
# and replication paths and the message codec build no string out of a
# tree, nor out of a shipped expression (a request carries the
# expression, measured by Expr::wire_size).
for f in crates/core/src/engine/*.rs crates/core/src/continuous.rs \
    crates/core/src/replication.rs crates/core/src/message.rs; do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" \
        | grep -nE '\.serialize\(\)|serialize_node\(|serialize_forest|\.fingerprint\(\)'; then
        echo "tier-1: $f renders a tree to a string; carry a Body instead" >&2
        exit 1
    fi
done

echo "== tier-1: one byte codec (to_le_bytes/from_le_bytes only in net/src/bytes.rs) =="
# Every wire shape is built from axml_net::bytes (PutBytes + Cursor).
# Outside comments and `#[cfg(test)]` modules, a crate spelling the
# little-endian conversions itself is a fifth hand-rolled primitive set.
for f in $(find crates/*/src -name '*.rs' ! -path crates/net/src/bytes.rs); do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" \
        | grep -nE '(to|from)_le_bytes'; then
        echo "tier-1: $f hand-rolls a little-endian field; use axml_net::bytes" >&2
        exit 1
    fi
done

echo "== tier-1: one blocking-session wrapper (new_session() only in core/src/engine/, an EvalSession built only there) =="
# Every blocking entry point opens its session through
# AxmlSystem::blocking (engine/pump.rs), which also owns the
# clear-in-flight-on-error rule and hands the finished session back for
# the next one to reuse. Outside comments and `#[cfg(test)]` modules,
# an `EvalSession { … }` literal appears once, in new_session, so no
# session is built beside the reused one.
for f in $(find crates/core/src -name '*.rs' ! -path 'crates/core/src/engine/*'); do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" | grep -n 'new_session()'; then
        echo "tier-1: $f opens an EvalSession itself; go through AxmlSystem::blocking" >&2
        exit 1
    fi
done
built() { grep -E '\bEvalSession *\{' | grep -cvE '(struct|impl|->) +EvalSession' || true; }
for f in $(find crates/core/src -name '*.rs'); do
    made=$(sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f" | built)
    case "$f" in
        crates/core/src/engine/pump.rs) want=1 ;; # new_session's
        *) want=0 ;;
    esac
    if [ "$made" -ne "$want" ]; then
        echo "tier-1: $f builds an EvalSession $made times; new_session builds the one" >&2
        exit 1
    fi
done
if [ "$(sed -e '/#\[cfg(test)\]/,$d' crates/core/src/engine/pump.rs \
    | sed -n '/^    fn new_session(/,/^    }$/p' | built)" -ne 1 ]; then
    echo "tier-1: engine/pump.rs must build its EvalSession in new_session" >&2
    exit 1
fi

echo "== tier-1: one strategy picker (DeltaStrategy made only in query/src/delta.rs) =="
# A pump finds what is new either from the appended child alone or by
# re-evaluating in full and filtering; delta.rs's pick_strategy decides
# which is sound. Outside comments and `#[cfg(test)]` modules nothing but
# pick_strategy makes a DeltaStrategy (match arms and `==` comparisons
# only read one). (That the engine evaluates at one site per arm is the
# ninth gate's, below.)
code() { sed -e '/#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$1"; }
for f in $(find crates/*/src -name '*.rs'); do
    made=$(code "$f" | grep -E 'DeltaStrategy::(SemiNaive|Difference)' \
        | grep -cvE '=>|[=!]= *DeltaStrategy::' || true)
    case "$f" in
        crates/query/src/delta.rs) want=2 ;; # pick_strategy's two outcomes
        *) want=0 ;;
    esac
    if [ "$made" -ne "$want" ]; then
        echo "tier-1: $f constructs a DeltaStrategy outside pick_strategy" >&2
        exit 1
    fi
done

echo "== tier-1: one send path (send_attempt, fault_gate, enqueue only in net/src/sim.rs) =="
# The network model gates a send, shows it to the attached wire and
# queues the delivery, in that order, in one function. Outside comments
# and `#[cfg(test)]` modules, a second `fn send_attempt`, or a caller of
# the gate or the queue from another file, is a wire re-spelling that
# order for itself — what Transport::ship exists to prevent.
if [ "$(code crates/net/src/sim.rs | grep -c 'fn send_attempt')" -ne 1 ]; then
    echo "tier-1: net/src/sim.rs must define send_attempt exactly once" >&2
    exit 1
fi
for f in $(find crates/*/src -name '*.rs' ! -path crates/net/src/sim.rs); do
    if code "$f" | grep -nE 'fn send_attempt|fault_gate\(|enqueue\('; then
        echo "tier-1: $f gates or queues a send itself; implement Transport::ship instead" >&2
        exit 1
    fi
done

echo "== tier-1: plans are priced in place (relocate_query_defs only in engine/defs.rs, no write! in the emitter) =="
# The optimizer keys and prices hundreds of candidate plans per search.
# The engine really ships a plan, so it relocates the copy it ships; the
# cost model prices the same transfer by handing the new site down its
# walk (cost.rs, `est`). Outside comments, `#[cfg(test)]` modules and the
# method's own definition, a second caller is a deep copy per candidate
# coming back. And Expr::write_wire, which runs for every key and every
# priced transfer, writes string pieces and stack-buffered digits: a
# `write!`/`format!` there is the formatting machinery coming back.
for f in $(find crates/*/src -name '*.rs' ! -path crates/core/src/engine/defs.rs); do
    if code "$f" | sed -e '/pub fn relocate_query_defs(/,/^    }$/d' \
        | grep -n 'relocate_query_defs('; then
        echo "tier-1: $f relocates a copy of a plan; hand the site down instead (cost.rs)" >&2
        exit 1
    fi
done
emitter() {
    code crates/core/src/expr.rs | sed -n \
        -e '/^    fn write_wire</,/^    }$/p' \
        -e '/^fn write_wrapped</,/^}$/p' \
        -e '/^fn write_forwards</,/^}$/p'
}
if [ "$(emitter | grep -cE '^ *fn write_(wire|wrapped|forwards)<')" -ne 3 ]; then
    echo "tier-1: expr.rs no longer has write_wire/write_wrapped/write_forwards where this gate looks" >&2
    exit 1
fi
if emitter | grep -nE '(write|format)!\('; then
    echo "tier-1: the expression emitter formats; write str pieces and write_number" >&2
    exit 1
fi

echo "== tier-1: one evaluation per call (.eval_with_docs( and .eval_ctx( once each in core/src/continuous.rs) =="
# Subscriptions that make the same call share what its query computes:
# the full answer is scanned by the first member that needs it and taken
# by the rest, the results over an appended child are computed for the
# first hit member and handed to the rest. Both happen in new_results —
# outside comments and `#[cfg(test)]` modules one place evaluates a
# subscription's query in full and one over a delta, so that a new call
# site cannot walk past the shared answer.
for call in '.eval_with_docs(' '.eval_ctx('; do
    if [ "$(code crates/core/src/continuous.rs | grep -cF "$call")" -ne 1 ]; then
        echo "tier-1: continuous.rs must call $call at exactly one site" >&2
        exit 1
    fi
done

echo "== tier-1: a member walks no tree (emitted.record( once in core/src/continuous.rs, the multiset's map folds) =="
# What a feed computes for a hit call is digested once, beside the
# results, and every member records those digests: outside comments and
# `#[cfg(test)]` modules continuous.rs hands fresh trees to a member's
# multiset at one site, the arm of a subscription that shares no call.
# The multiset's map hashes its keys, already keyed digests, by folding
# them (FoldDigest in xml/src/equiv.rs), not by SipHashing them again.
if [ "$(code crates/core/src/continuous.rs | grep -cF 'emitted.record(')" -ne 1 ]; then
    echo "tier-1: continuous.rs must record trees at one site; a member records its call's digests" >&2
    exit 1
fi
if [ "$(code crates/xml/src/equiv.rs | sed -n '/^pub struct CanonMultiset {/,/^}/p' \
    | grep -cE 'HashMap<u128, *Copies, *FoldDigest>')" -ne 1 ]; then
    echo "tier-1: CanonMultiset's map must hash its digests with FoldDigest" >&2
    exit 1
fi

echo "== tier-1: one scan memo (memo_scan( only in query/src/eval.rs's closed-scan path) =="
# An arena keeps a closed scan's filtered nodes under a key only the
# evaluator knows how to build and check: the scan's steps and own
# conjuncts, compared by `==`, read and filled only with no Delta in
# force. Outside comments, `#[cfg(test)]` modules and the method's own
# definition in xml/src/tree.rs, one call site — Eval::scan — so that
# nothing else keeps a scan under a key that does not name all it read.
for f in $(find crates/*/src -name '*.rs' ! -path crates/xml/src/tree.rs); do
    calls=$(code "$f" | grep -c 'memo_scan(' || true)
    case "$f" in
        crates/query/src/eval.rs) want=1 ;;
        *) want=0 ;;
    esac
    if [ "$calls" -ne "$want" ]; then
        echo "tier-1: $f calls memo_scan( $calls times; only Eval::scan keeps scans" >&2
        exit 1
    fi
done
if [ "$(code crates/query/src/eval.rs | sed -n '/^    fn scan(/,/^    }$/p' | grep -c 'memo_scan(')" -ne 1 ]; then
    echo "tier-1: eval.rs calls memo_scan( outside Eval::scan" >&2
    exit 1
fi
if code crates/xml/src/tree.rs | sed -e '/pub fn memo_scan/,/^    }$/d' | grep -n 'memo_scan('; then
    echo "tier-1: xml/src/tree.rs calls memo_scan( itself" >&2
    exit 1
fi

echo "== tier-1: one clock (stamps drawn only by the doors of Σ|p, the link table and the catalog) =="
# Σ|p stamps itself: every mutable door of a DocStore and the service
# table's one door draw from the process-wide counter. So does the rest
# of what the cost model reads: the network's link table (set_link,
# set_link_directed, fail_link, restore_link, install_topology) and the
# catalog's member tables (add_doc_replica, add_service_replica). Every
# cache of a function of them compares stamps. Outside comments and
# `#[cfg(test)]` modules, a per-system epoch beside them (state_epochs,
# touch_peer) is a second clock that callers must remember to move, and
# a draw anywhere but inside those doors is a door the state does not
# own. The cost model shares those tables instead of copying them: a
# digest of copies (facts_digest), a copy of the catalog (catalog_view)
# or a link matrix in cost.rs is the per-snapshot copy coming back.
for f in $(find crates -name '*.rs'); do
    if code "$f" | grep -nE 'state_epochs|touch_peer'; then
        echo "tier-1: $f keeps a second clock for Σ|p; read PeerState::stamp()" >&2
        exit 1
    fi
done
for f in $(find crates/*/src -name '*.rs' ! -path crates/xml/src/store.rs); do
    draws=$(code "$f" | grep -cE 'fresh_stamp\(|NEXT_STAMP' || true)
    case "$f" in
        crates/core/src/peer.rs) want=1 ;; # register_service
        crates/core/src/pick.rs) want=2 ;; # the catalog's two doors
        crates/net/src/sim.rs) want=5 ;;   # the link table's five doors
        *) want=0 ;;
    esac
    if [ "$draws" -ne "$want" ]; then
        echo "tier-1: $f draws a stamp $draws times; only the doors of the state do" >&2
        exit 1
    fi
done
# each door draws once, so with the counts above every draw is in a door
for door in core/src/peer.rs:register_service \
    core/src/pick.rs:add_doc_replica core/src/pick.rs:add_service_replica \
    net/src/sim.rs:set_link net/src/sim.rs:set_link_directed \
    net/src/sim.rs:fail_link net/src/sim.rs:restore_link \
    net/src/sim.rs:install_topology; do
    f="crates/${door%%:*}"
    fn="${door#*:}"
    if [ "$(code "$f" | sed -n "/^    pub fn $fn(/,/^    }\$/p" | grep -c 'fresh_stamp(')" -ne 1 ]; then
        echo "tier-1: $f: $fn must draw exactly one stamp" >&2
        exit 1
    fi
done
if grep -rnE 'facts_digest|catalog_view' crates/core/src; then
    echo "tier-1: crates/core/src digests or copies the model's facts; share them and compare stamps" >&2
    exit 1
fi
if code crates/core/src/cost.rs | grep -nE 'Vec<Vec<(LinkCost|bool)>>'; then
    echo "tier-1: core/src/cost.rs copies the links into a matrix; read the shared LinkTable" >&2
    exit 1
fi

echo "== tier-1: a view is a handle (Tree::subtree walks nothing, graft borrows the arena once) =="
# A subtree view is a bounds check, an Arc clone and one counter bump:
# crediting CopyStats with its size would walk it. A graft copies on one
# borrow of the arena, and its vectors grow push by push as building the
# copy node by node grows them — an exact-capacity copy moves the heap
# shape of every workload, which the benchmark's reference kernel reads
# (ROADMAP item 2(a)). Outside comments and `#[cfg(test)]` modules of
# xml/src/tree.rs: subtree's body has no loop and no walk, graft's calls
# nodes_mut() once, graft and push_copy reserve nothing, and the
# view-sizing walk and the graft's pre-walk do not come back.
# a method of Tree, or a free function
body() {
    code crates/xml/src/tree.rs | sed -n \
        -e "/^    pub fn $1(/,/^    }\$/p" -e "/^fn $1(/,/^}\$/p"
}
for f in subtree graft push_copy; do
    if [ "$(body "$f" | grep -cE "fn $f\(")" -ne 1 ]; then
        echo "tier-1: xml/src/tree.rs no longer has one fn $f where this gate looks" >&2
        exit 1
    fi
done
if body subtree | grep -nE '\b(for|while|loop)\b|descendants'; then
    echo "tier-1: Tree::subtree walks its subtree; a view is O(1)" >&2
    exit 1
fi
if [ "$(body graft | grep -c 'nodes_mut()')" -ne 1 ]; then
    echo "tier-1: Tree::graft must borrow the arena (nodes_mut()) exactly once" >&2
    exit 1
fi
if { body graft; body push_copy; } | grep -nE 'with_capacity|reserve'; then
    echo "tier-1: a graft reserves; grow the copy push by push, as building it does" >&2
    exit 1
fi
if code crates/xml/src/tree.rs | grep -nE 'credit_subtree_share|subtree_heap_bytes'; then
    echo "tier-1: xml/src/tree.rs sizes a subtree to credit CopyStats; count a view as an event" >&2
    exit 1
fi

echo "== tier-1: Σ is left as found (no rule writes a document, no temporary names) =="
# Every equivalence rule leaves Σ as it found it: rule (13) shares a
# transfer through one query parameter (Query::share_param), not through
# a temporary document stored at the site. What only such a document
# needed — a per-search name counter, a probe for a free name, a flag
# excusing a rule from Σ equality and the context that carried them —
# is gone from code, tests and examples. Outside comments and
# `#[cfg(test)]` modules rules.rs builds no document-creating send and no
# sequence (match arms and the `Expr::Seq(_)` pattern only read one).
if grep -rnE 'fresh_tmp|tmp_counter|preserves_sigma|OptContext' \
    crates/*/src crates/*/tests tests examples; then
    echo "tier-1: the temporary-document machinery is back; every rule leaves Σ as found" >&2
    exit 1
fi
if code crates/core/src/rules.rs | grep -E 'SendDest::NewDoc|Expr::Seq' \
    | grep -vE '=>|Expr::Seq\(_\)'; then
    echo "tier-1: core/src/rules.rs builds a plan that writes Σ; share through a query parameter" >&2
    exit 1
fi

echo "== tier-1: one collapse path (identical service calls reuse one answer in engine/defs.rs) =="
# By definition (6) a service's answer is a function of its parameters
# and the provider's state, so the provider-side evaluation
# (service_results in engine/defs.rs) reuses an answer kept at the
# provider's current stamp. A second cache of answers — a session
# cache, an in-wave dedup of identical calls, a rendered parameter key —
# is a twin of that memo. Outside comments and `#[cfg(test)]` modules
# core/src names none of them.
for f in $(find crates/core/src -name '*.rs'); do
    if code "$f" | grep -nE 'svc_cache|collapse_key|params_key|dedup_hits'; then
        echo "tier-1: $f keeps a second service-call cache; reuse answers through the provider's memo" >&2
        exit 1
    fi
done

echo "== tier-1: one scheduler, one driver (one heap in net/src/wheel.rs, one session loop, no worker pool) =="
# The simulator delivers from one binary heap ordered by (at, seq)
# (net/src/wheel.rs), and every session runs the engine's one FIFO loop
# (drain in engine/pump.rs). Outside comments and `#[cfg(test)]`
# modules, a second scheduler backend (an EventWheel, a Backend
# dispatch, a tick resolution) in net/src, or a worker pool beside the
# loop (a thread::scope, a precomputed value, a value staged on the
# session) in core/src, is a twin coming back. DriverKind and
# SchedulerKind select nothing: they are named only by their
# definitions, Scheduler::new, the two no-op setters and the prelude.
for f in $(find crates/net/src -name '*.rs'); do
    if code "$f" | grep -nE 'EventWheel|Backend::|RESOLUTION_MS'; then
        echo "tier-1: $f brings back a second scheduler; the heap is the one" >&2
        exit 1
    fi
done
for f in $(find crates/core/src -name '*.rs'); do
    if code "$f" | grep -nE 'thread::scope|Precomp|staged'; then
        echo "tier-1: $f runs work beside the session loop; the one loop is the driver" >&2
        exit 1
    fi
done
for f in $(find crates/*/src -name '*.rs'); do
    named=$(code "$f" | grep -cE '\b(DriverKind|SchedulerKind)\b' || true)
    case "$f" in
        crates/net/src/wheel.rs) want=2 ;;   # the enum, Scheduler::new
        crates/core/src/system.rs) want=3 ;; # the enum, the two setters
        crates/core/src/lib.rs) want=2 ;;    # the prelude
        *) want=0 ;;
    esac
    if [ "$named" -ne "$want" ]; then
        echo "tier-1: $f names DriverKind/SchedulerKind $named times; they select nothing" >&2
        exit 1
    fi
done
if [ "$(code crates/core/src/system.rs \
    | grep -cE '^    pub fn set_(driver|scheduler)\(&mut self, _[a-z]+: [A-Za-z_:]+\) \{\}$')" -ne 2 ]; then
    echo "tier-1: AxmlSystem::set_driver/set_scheduler must stay empty" >&2
    exit 1
fi
if [ "$(code crates/net/src/wheel.rs | grep -cE '^    pub fn new\(_kind: SchedulerKind\) -> Self \{$')" -ne 1 ]; then
    echo "tier-1: Scheduler::new must ignore its SchedulerKind" >&2
    exit 1
fi

echo "== tier-1: the runtime spawns no thread (thread spawns only in net/src/socket.rs's spawn_endpoint_thread) =="
# Every session runs on the calling thread, and a trace leaves the
# process through BinSink on that thread too, to a file or a socket.
# Outside comments and `#[cfg(test)]` modules, the one thread under
# crates/*/src is the loopback endpoint SocketTransport serves a peer
# from when no peerd process was registered for it
# (spawn_endpoint_thread); a thread::spawn, thread::Builder or
# thread::scope anywhere else is a writer thread, a worker pool or a
# background loop coming back. The threaded socket sink's names, and
# the reconnect helper only it called, are gone from code, tests and
# examples.
spawns='thread::(spawn|Builder|scope)'
for f in $(find crates/*/src -name '*.rs'); do
    spawned=$(code "$f" | grep -cE "$spawns" || true)
    case "$f" in
        crates/net/src/socket.rs) want=1 ;; # spawn_endpoint_thread
        *) want=0 ;;
    esac
    if [ "$spawned" -ne "$want" ]; then
        echo "tier-1: $f spawns a thread $spawned times; the runtime runs on the calling thread" >&2
        exit 1
    fi
done
if [ "$(code crates/net/src/socket.rs | sed -n '/^pub fn spawn_endpoint_thread(/,/^}$/p' \
    | grep -cE "$spawns")" -ne 1 ]; then
    echo "tier-1: net/src/socket.rs spawns its thread outside spawn_endpoint_thread" >&2
    exit 1
fi
if grep -rnE 'SocketSink|socket_sink|connect_with_backoff' crates src tests examples; then
    echo "tier-1: the threaded socket sink is back; a live trace is BinSink::connect" >&2
    exit 1
fi

echo "== tier-1: one query printer (no <compiled> marker, no stored query source) =="
# A leaf query is its plan: it ships as the text Plan's Display prints,
# which parser::parse_plan reads back, whether the plan was parsed or
# made by a rewrite. Outside comments and `#[cfg(test)]` modules, a
# `<compiled>` marker under crates/*/src, or a `source:` field or an
# `fn source(` in query/src/query.rs, is a second text kept beside the
# plan.
for f in $(find crates/*/src -name '*.rs'); do
    if code "$f" | grep -n '<compiled>'; then
        echo "tier-1: $f marks a query text as compiled; ship the printed plan" >&2
        exit 1
    fi
done
if code crates/query/src/query.rs | grep -nE '\bsource:|fn source\('; then
    echo "tier-1: query/src/query.rs keeps a query's source beside its plan; the plan prints it" >&2
    exit 1
fi

echo "== tier-1: one composition (a query is its plan; q1(q2) is a nested Apply) =="
# Composition belongs to the algebra: rules (11) and (16) build
# q1(q2(…)) as an Expr::Apply whose argument is an Expr::Apply, priced
# and evaluated through definitions (2)/(7). Outside comments and
# `#[cfg(test)]` modules, a `Composed` kind, an `fn compose`, a
# `leaf_plans` or `composition(` accessor, or a `<compose>` wire element
# under crates/*/src is a second composition inside axml-query, and a
# `Query::compose` call anywhere under crates/, tests/, examples/ or
# src/ one more.
for f in $(find crates/*/src -name '*.rs'); do
    if code "$f" | grep -nE 'Composed|fn compose\b|leaf_plans|composition\(|<compose>'; then
        echo "tier-1: $f keeps a second query composition; build an Apply over an Apply" >&2
        exit 1
    fi
done
if grep -rn 'Query::compose' crates tests examples src --include='*.rs'; then
    echo "tier-1: Query::compose is gone; build an Apply over an Apply" >&2
    exit 1
fi

echo "== tier-1: one count per event (a counted occurrence is recorded once, through Obs::record) =="
# A counter that has a trace event is the fold of that event: the engine
# records the occurrence (Obs::record, which folds it with
# EvalMetrics::fold before any sink sees it), and LiveStats applies the
# same fold to a decoded stream. Outside comments and `#[cfg(test)]`
# modules, under crates/*/src but not crates/obs/src, a metrics.record_
# call, an update of a counter an event carries, or a lazy emit of a
# counted kind is a second derivation of the metrics coming back.
counted='Definition|Delegation|MessageSent|RuleAttempted|ServiceCall|SubscriptionDelta|MessageDropped|RetryScheduled|Failover'
for f in $(find crates/*/src -name '*.rs' ! -path 'crates/obs/src/*'); do
    if code "$f" | grep -nE "metrics\.record_|metrics\.(delegations|service_calls|delta_fresh|delta_suppressed|retries|failovers) *[-+*]?=[^=]|emit\((move )?\|\| *TraceEvent::($counted)\b"; then
        echo "tier-1: $f counts an event beside its emission; record it with Obs::record" >&2
        exit 1
    fi
done

echo "== tier-1: library crates print nothing (no print!/eprint!/dbg! in the runtime) =="
# A library reports through its return values and the trace, never on
# the console: a failed trace flush at a quiescence point is kept by
# Obs and returned by clear_trace_sink. Outside comments and
# `#[cfg(test)]` modules, no println!, eprintln!, print!, eprint! or
# dbg! under the runtime crates' src/ (binaries live in axml-bench and
# examples/).
for f in $(find crates/{xml,types,query,net,core,obs,prng}/src -name '*.rs'); do
    if code "$f" | grep -nE '\b(e?println|e?print|dbg)!'; then
        echo "tier-1: $f prints from a library crate; return the error or trace it" >&2
        exit 1
    fi
done

echo "== tier-1: a service's type is its plan (no declared signature under crates/*/src, src/, examples/) =="
# A declarative service's statement is visible (§2.1), so what it can
# answer is read off its plan (Plan::answers in query/src/shape.rs), and
# lazy activation compares that with the query's footprint. Outside
# comments and `#[cfg(test)]` modules, a Signature or TreeType type, a
# with_signature setter or a service_obj door for a service built with
# one is a declared τout coming back beside the plan — a second answer
# to the same question, which nothing checks against the first.
for f in $(find crates/*/src src examples -name '*.rs'); do
    if code "$f" | grep -nE '\b(Signature|TreeType|with_signature|service_obj)\b'; then
        echo "tier-1: $f declares a service's type; read it off the plan (Plan::answers)" >&2
        exit 1
    fi
done

echo "== tier-1: an intent holds only what the wire lacks (one receiver reads the message) =="
# A message's receiver (engine/pump.rs's receive) takes from the message
# everything the message carries: a request's expression, an Invoke's
# service, forward list and call id, a new document's name, a deployed
# query, and the sender as caller and reply peer. Outside comments and
# `#[cfg(test)]` modules, a field of `enum Intent` naming one of those is
# a second copy of a fact the frame already holds, which the receiver
# would read instead of the message; and the retired second path
# (Cargo, into_cargo, into_shipped, Intent::open, apply_intent) stays
# gone from crates/core/src.
for f in $(find crates/core/src -name '*.rs'); do
    if code "$f" | sed -n '/enum Intent\b/,/^}/p' \
        | grep -nE '\b(caller|service|forward|call_id|as_service|query|name|reply_to) *:'; then
        echo "tier-1: $f gives Intent a field the message carries; read it off the AxmlMessage" >&2
        exit 1
    fi
    if code "$f" | sed -n '/impl Intent\b/,/^}/p' | grep -nE '\bfn open\b' \
        || code "$f" | grep -nE '\bCargo\b|\binto_cargo\b|\binto_shipped\b|Intent::open\b|\bapply_intent\b'; then
        echo "tier-1: $f brings back a second receiver path; use receive in engine/pump.rs" >&2
        exit 1
    fi
done

echo "== tier-1: a message's effect has one writer (the receiver runs it, local sends too) =="
# send_wire hands a send whose sender is its receiver to receive at once,
# so no step writes a message's effect in a local branch of its own.
# Outside comments and `#[cfg(test)]` modules, each effect helper under
# crates/core/src/engine is called once, by engine/pump.rs's receive; a
# second call is a local twin of the message. And a remote definition is
# applied from the query its Data(QueryDef) carries, parked on the
# argument slot: enum Cont has no `skip` over a gate part.
for fn in 'graft_at' 'install_new_doc' 'run_service_at' 'Service::declarative'; do
    calls=""
    for f in $(find crates/core/src/engine -name '*.rs'); do
        n=$(code "$f" | grep -E "(^|[^[:alnum:]_])${fn}\(" | grep -cvE "fn ${fn}\(" || true)
        if [ "$n" -gt 0 ]; then calls="$calls $f:$n"; fi
    done
    if [ "$calls" != " crates/core/src/engine/pump.rs:1" ]; then
        echo "tier-1: ${fn}( is called at${calls:- no site}, not once in engine/pump.rs's receive; send the message instead" >&2
        exit 1
    fi
done
if code crates/core/src/engine/pump.rs | sed -n '/enum Cont\b/,/^}/p' | grep -nE '\bskip\b'; then
    echo "tier-1: Cont skips a gate part; the receiver of a Data(QueryDef) parks ApplyFinish on the argument slot" >&2
    exit 1
fi

echo "== tier-1: an evaluation builds its answers in one arena (Tree::new( once in query/src/eval.rs) =="
# An element template's answers are built side by side in one arena
# (axml_xml::tree::Builder), frozen when the evaluation ends: each answer
# is an O(1) handle onto it, and the copy counters move once. Outside
# comments and `#[cfg(test)]` modules, query/src/eval.rs calls
# Tree::new( once, for the <text> wrapper of an atom answer (ROADMAP item
# 27 deletes it); another call is an answer in an arena of its own.
n=$(code crates/query/src/eval.rs | grep -oE 'Tree::new\(' | wc -l)
if [ "$n" -ne 1 ]; then
    echo "tier-1: query/src/eval.rs calls Tree::new( $n times, not once (the atom wrapper); build answers with a Builder" >&2
    exit 1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: cargo test --workspace -q =="
cargo test --workspace -q

echo "== tier-1: cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: engine determinism (two fresh builds from one seed, bit-for-bit) =="
RUST_BACKTRACE=1 cargo test --release -q -p axml-bench --test engine_determinism
RUST_BACKTRACE=1 cargo test --release -q -p axml-bench --test engine_determinism -- --ignored

echo "== tier-1: chaos matrix under two extra pinned fault seeds =="
# tests/chaos.rs always covers its three built-in seeds; AXML_CHAOS_SEED
# appends one more per run. Any non-reconciling report, seed-replay
# divergence, or fault-transparency violation fails the test.
AXML_CHAOS_SEED=0x7E570001 \
    RUST_BACKTRACE=1 cargo test --release -q --test chaos
AXML_CHAOS_SEED=0x7E570002 \
    RUST_BACKTRACE=1 cargo test --release -q --test chaos

echo "== tier-1: socket transport smoke (real peerd processes, hard timeout) =="
# The sim-vs-socket differential oracle (topology × seed matrix,
# every socket row against real endpoint processes), then the runnable
# 3-peer loopback cluster demo, each under a hard timeout so a wedged
# endpoint process can never hang the gate.
timeout 300 env RUST_BACKTRACE=1 \
    cargo test --release -q -p axml-bench --test transport_equivalence
timeout 120 cargo run --release -q -p axml-bench --bin axml-cluster \
    > /dev/null

echo "== tier-1: trace pipeline round-trip + timeline render smoke =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
# quickstart with an AXTR trace file tee'd in; it asserts the decoded
# file carries every in-memory event before exiting.
AXML_TRACE_OUT="$TRACE_TMP/quickstart.trc" \
    cargo run --release -q --example quickstart > "$TRACE_TMP/quickstart.out"
grep -q "trace file" "$TRACE_TMP/quickstart.out"
# replay it: ASCII timeline on stdout, SVG on disk.
cargo run --release -q -p axml-bench --bin axml-trace -- \
    "$TRACE_TMP/quickstart.trc" --stats --svg "$TRACE_TMP/quickstart.svg" \
    > "$TRACE_TMP/render.out"
grep -q "binary trace" "$TRACE_TMP/render.out"
grep -q "max concurrent flights" "$TRACE_TMP/render.out"
grep -q "<svg" "$TRACE_TMP/quickstart.svg"
# live dashboard snapshot over the same trace: --once must be
# byte-deterministic (two runs, compared exactly) and carry the rolling
# latency/goodput summary the histogram engine folds from the stream.
cargo run --release -q -p axml-bench --bin axml-top -- \
    "$TRACE_TMP/quickstart.trc" --once > "$TRACE_TMP/top1.out"
cargo run --release -q -p axml-bench --bin axml-top -- \
    "$TRACE_TMP/quickstart.trc" --once > "$TRACE_TMP/top2.out"
cmp "$TRACE_TMP/top1.out" "$TRACE_TMP/top2.out"
grep -q "axml-top" "$TRACE_TMP/top1.out"
grep -q "latency" "$TRACE_TMP/top1.out"

echo "== tier-1: shared matcher differential (churn suite) =="
# Shared vs naive matcher modes must deliver bit-identical results under
# interleaved activation/unsubscription/feed churn at 1k+ subscriptions.
timeout 300 env RUST_BACKTRACE=1 \
    cargo test --release -q --test continuous_churn

echo "== tier-1: E13 smoke (shared matcher beats the naive loop) =="
timeout 300 cargo run --release -q -p axml-bench --bin experiments -- e13 \
    > "$TRACE_TMP/e13.out"
grep -q "E13" "$TRACE_TMP/e13.out"
grep -q "skipped" "$TRACE_TMP/e13.out"

echo "== tier-1: E14 smoke (EDOS-scale peak-RSS budget) =="
# The 10⁴-peer replica network under churn. In --smoke mode the
# experiment asserts that peak RSS stays inside the budget and prints the
# rss-budget-ok marker we require below. (That two runs from one seed
# agree at this scale is tests/scale_stress.rs's job, run by `cargo test`
# above.) The hard timeout keeps a wedged scheduler from hanging the
# gate.
timeout 300 cargo run --release -q -p axml-bench --bin experiments -- \
    e14 --smoke > "$TRACE_TMP/e14.out"
grep -q "E14" "$TRACE_TMP/e14.out"
grep -q "rss-budget-ok" "$TRACE_TMP/e14.out"

echo "== tier-1: benchmark package (fmt, clippy, tests, 8-run smoke) =="
# benchmark/ is a package outside this workspace that compiles against
# the public items of crates/*; a change that breaks that surface must
# fail here, not in the pipeline that runs BENCHMARK.json.
timeout 600 bash benchmark/ci.sh

echo "tier-1: all green"
