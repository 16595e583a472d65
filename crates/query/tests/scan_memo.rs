//! The scan memo is a walk: whatever a catalog went through, evaluating a
//! query whose closed scans an arena may keep answers exactly what the
//! same evaluation over freshly parsed copies of its inputs answers — the
//! same trees, in the same order, byte for byte. Checked twice on one
//! handle, across random sequences of every public mutator, for a
//! copy-on-write copy and its original, for subtree views, for two
//! threads evaluating over one handle at once, and under both `Delta`
//! arms, which neither read nor fill the memo.

use axml_prng::SplitMix64;
use axml_query::eval::{Ctx, Delta};
use axml_query::Query;
use axml_xml::ids::DocName;
use axml_xml::tree::{NodeId, ScanKey, Tree};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Barrier;

const LABELS: [&str; 5] = ["pkg", "size", "deps", "dep", "group"];
const NAMES: [&str; 5] = ["a", "b", "ab", "c", "vim"];
const TEXTS: [&str; 6] = ["5", "50", "150", "1e3", "a", "b&c"];

/// Closed scans over `$0` and `doc("d")`: with and without own conjuncts,
/// step predicates, joins, `let`s, and one whose step predicate reads a
/// second source (which no arena may keep).
const QUERIES: [&str; 9] = [
    r#"for $p in $0//pkg where $p/size/text() > 100 return <big name="{$p/@name}">{$p/size}</big>"#,
    r#"for $p in doc("d")//pkg[size > 40] return {$p/@name}"#,
    r#"for $p in $0/pkg where $p/@name = "a" or $p/size/text() < 30 return {$p}"#,
    r#"for $x in $0//pkg for $y in doc("d")//pkg where $x/@name = $y/@name and $y/size/text() > 10
       return <p>{$x/@name}{$y/size/text()}</p>"#,
    r#"for $p in $0//*[exists(@name)] where not(exists($p/deps)) return {$p/@name}"#,
    r#"let $all := doc("d")//pkg for $p in $0//pkg where count($all) > 2 and $p/@name != "b"
       return <n>{$p/@name}</n>"#,
    r#"for $p in doc("d")//pkg where contains($p/@name, "a") and $p/deps/dep = "c" return {$p}"#,
    r#"for $g in $0//group for $p in $0//pkg[exists(deps/dep)] where $p/@name = $g//pkg/@name return {$g}"#,
    r#"for $i in doc("d")//pkg[@name = $0//pkg/@name] return {$i/@name}"#,
];

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    *rng.choose(xs).expect("never empty")
}

/// A random catalog: packages with a name, a size and sometimes deps,
/// some of them inside groups.
fn catalog(rng: &mut SplitMix64) -> Tree {
    let mut t = Tree::new("catalog");
    let root = t.root();
    for _ in 0..rng.gen_range(1usize..10) {
        let at = match rng.gen_bool(0.2) {
            true => t.add_element(root, "group"),
            false => root,
        };
        for _ in 0..rng.gen_range(1usize..3) {
            let p = t.add_element(at, "pkg");
            t.set_attr(p, "name", pick(rng, &NAMES)).unwrap();
            let size = rng.gen_range(0u32..200).to_string();
            t.add_text_element(p, "size", size);
            if rng.gen_bool(0.4) {
                let deps = t.add_element(p, "deps");
                t.add_text_element(deps, "dep", pick(rng, &NAMES));
            }
        }
    }
    t
}

/// The nodes reachable from the root, in preorder.
fn live(t: &Tree) -> Vec<NodeId> {
    t.descendants_with_self(t.root()).collect()
}

/// The elements reachable from the root, in preorder.
fn elements(t: &Tree) -> Vec<NodeId> {
    let mut live = live(t);
    live.retain(|&n| t.node(n).is_element());
    live
}

/// One of the public mutators, on random live nodes.
fn mutate(t: &mut Tree, rng: &mut SplitMix64, donor: &Tree) {
    let at = pick(rng, &elements(t));
    match rng.gen_range(0u32..7) {
        0 => {
            t.add_element(at, pick(rng, &LABELS));
        }
        1 => {
            t.add_text(at, pick(rng, &TEXTS));
        }
        2 => {
            t.add_text_element(at, pick(rng, &LABELS), pick(rng, &TEXTS));
        }
        3 => t.set_attr(at, "name", pick(rng, &NAMES)).unwrap(),
        4 => match live(t).get(1..).filter(|below| !below.is_empty()) {
            Some(below) => t.detach(pick(rng, below)).unwrap(),
            None => t.set_attr(at, "name", "c").unwrap(),
        },
        5 => {
            t.graft(at, donor, pick(rng, &live(donor))).unwrap();
        }
        _ => {
            // from a snapshot of itself: the graft copies out of a shared arena
            let snapshot = t.clone();
            t.graft(at, &snapshot, pick(rng, &live(&snapshot))).unwrap();
        }
    }
}

fn queries() -> Vec<Query> {
    QUERIES
        .iter()
        .map(|src| Query::parse("q", src).unwrap_or_else(|e| panic!("{src}: {e}")))
        .collect()
}

fn docs(doc: &Tree) -> HashMap<DocName, Tree> {
    [("d".into(), doc.clone())].into()
}

fn serialized(answers: Vec<Tree>) -> Vec<String> {
    answers.iter().map(Tree::serialize).collect()
}

/// The answers of `q` with `param` as `$0` and `doc` as `doc("d")`.
fn answers(q: &Query, param: &Tree, doc: &Tree) -> Vec<String> {
    serialized(
        q.eval_with_docs(&[vec![param.clone()]], &docs(doc))
            .unwrap(),
    )
}

/// A copy of `t` in an arena of its own, which has kept nothing.
fn fresh(t: &Tree) -> Tree {
    Tree::parse(&t.serialize()).unwrap()
}

/// Each query, twice, answers what it answers over fresh copies.
fn all_fresh(qs: &[Query], param: &Tree, doc: &Tree, what: &str) {
    for (i, q) in qs.iter().enumerate() {
        let want = answers(q, &fresh(param), &fresh(doc));
        for round in 0..2 {
            assert_eq!(
                answers(q, param, doc),
                want,
                "{what}: query {i}, round {round}"
            );
        }
    }
}

#[test]
fn every_kept_scan_answers_as_a_fresh_walk() {
    let qs = queries();
    for seed in 0..120 {
        let mut rng = SplitMix64::new(seed);
        let donor = catalog(&mut rng);
        let (mut param, mut doc) = (catalog(&mut rng), catalog(&mut rng));
        // the same tree as both sources, so its scans meet on one arena
        all_fresh(&qs, &param, &param, &format!("seed {seed}: one tree"));
        for step in 0..rng.gen_range(1u32..8) {
            let what = format!("seed {seed} step {step}");
            all_fresh(&qs, &param, &doc, &what);
            match rng.gen_bool(0.5) {
                true => mutate(&mut param, &mut rng, &donor),
                false => mutate(&mut doc, &mut rng, &donor),
            }
            all_fresh(&qs, &param, &doc, &format!("{what}: mutated"));

            // a copy-on-write copy, mutated: each answers over its own nodes
            let mut copy = doc.clone();
            all_fresh(&qs, &param, &copy, &format!("{what}: copy"));
            mutate(&mut copy, &mut rng, &donor);
            all_fresh(&qs, &param, &copy, &format!("{what}: mutated copy"));
            all_fresh(&qs, &param, &doc, &format!("{what}: original"));

            // views start their scans below the arena's root
            let view = param.subtree(pick(&mut rng, &elements(&param))).unwrap();
            let doc_view = doc.subtree(pick(&mut rng, &elements(&doc))).unwrap();
            all_fresh(&qs, &view, &doc_view, &format!("{what}: views"));
            all_fresh(&qs, &param, &doc, &format!("{what}: after views"));
        }

        // two threads evaluating over one handle of a just-changed arena
        mutate(&mut param, &mut rng, &donor);
        let want: Vec<Vec<String>> = qs
            .iter()
            .map(|q| answers(q, &fresh(&param), &fresh(&doc)))
            .collect();
        let (shared, start) = ((&param, &doc), Barrier::new(2));
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..2)
                            .flat_map(|_| qs.iter().map(|q| answers(q, shared.0, shared.1)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for thread in threads {
                for (i, got) in thread.join().unwrap().into_iter().enumerate() {
                    let i = i % qs.len();
                    assert_eq!(got, want[i], "seed {seed}: query {i} in a racing thread");
                }
            }
        });
    }
}

/// The answers of `q` under `delta`, `$0` holding `param` and `doc("d")`
/// holding `doc`.
fn under(q: &Query, param: &Tree, doc: &Tree, delta: Delta<'_>) -> Vec<String> {
    let (inputs, docs) = ([vec![param.clone()]], docs(doc));
    serialized(
        q.plan()
            .eval_ctx(&Ctx::with_delta(&inputs, &docs, delta))
            .unwrap(),
    )
}

#[test]
fn a_delta_neither_reads_nor_fills_the_memo() {
    let qs = queries();
    let d = DocName::new("d");
    for seed in 0..60 {
        let mut rng = SplitMix64::new(0xDE17A + seed);
        let (param, doc, arrival) = (catalog(&mut rng), catalog(&mut rng), catalog(&mut rng));
        let child = *doc.children(doc.root()).last().unwrap();
        // the document holding that child alone, and the arrival in an
        // arena of their own
        let mut alone = Tree::new("catalog");
        let root = alone.root();
        alone.graft(root, &doc, child).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let what = format!("seed {seed}: query {i}");
            let by_child = answers(q, &fresh(&param), &alone);
            let by_arrival = answers(q, &fresh(&arrival), &fresh(&doc));
            let whole = answers(q, &fresh(&param), &fresh(&doc));
            let by_doc = Delta::DocChild { doc: &d, child };
            let arrived = [arrival.clone()];
            let by_param = Delta::Param {
                param: 0,
                trees: &arrived,
            };
            // a delta first: it keeps nothing a plain evaluation then reads
            assert_eq!(under(q, &param, &doc, by_doc), by_child, "{what}");
            assert_eq!(under(q, &param, &doc, by_param), by_arrival, "{what}");
            assert_eq!(answers(q, &param, &doc), whole, "{what}: plain after");
            // a plain evaluation first: the delta reads nothing it kept
            assert_eq!(
                under(q, &param, &doc, by_doc),
                by_child,
                "{what}: delta after"
            );
            assert_eq!(answers(q, &arrival, &doc), by_arrival, "{what}: arrival");
            assert_eq!(under(q, &param, &doc, by_param), by_arrival, "{what}");
        }
    }
}

/// A key no query makes, to see whether an arena still keeps its scan.
struct Probe;

impl ScanKey for Probe {
    fn is(&self, kept: &(dyn Any + Send + Sync)) -> bool {
        kept.is::<Probe>()
    }

    fn keep(&self) -> Box<dyn Any + Send + Sync> {
        Box::new(Probe)
    }
}

/// Whether the probe's scan is still kept on `t`'s arena.
fn probe_kept(t: &Tree) -> bool {
    let mut kept = true;
    let found = t.memo_scan(&Probe, || {
        kept = false;
        Ok::<_, ()>([t.root()].into())
    });
    assert_eq!(found.unwrap()[..], [t.root()]);
    kept
}

#[test]
fn a_delta_does_not_evict_what_an_arena_keeps() {
    // Twenty scans with distinct own conjuncts: kept by plain evaluations,
    // they evict the probe; evaluated under either delta, they must not.
    let distinct: Vec<Query> = (0..20)
        .map(|k| {
            let src =
                format!(r#"for $p in $0//pkg where $p/size/text() > {k} return {{$p/@name}}"#);
            Query::parse("q", &src).unwrap()
        })
        .collect();
    let mut rng = SplitMix64::new(7);
    let t = catalog(&mut rng);
    let d = DocName::new("d");
    let child = *t.children(t.root()).last().unwrap();
    let arrived = [t.clone()];
    assert!(!probe_kept(&t) && probe_kept(&t), "the probe is kept");
    for q in &distinct {
        under(q, &t, &t, Delta::DocChild { doc: &d, child });
        let by_param = Delta::Param {
            param: 0,
            trees: &arrived,
        };
        under(q, &t, &t, by_param);
    }
    assert!(probe_kept(&t), "a delta filled the memo");
    for q in &distinct {
        answers(q, &t, &t);
    }
    assert!(!probe_kept(&t), "plain evaluations evict the probe");
}

/// The case that keying a scan by its own tree alone gets wrong: its step
/// predicate reads a second source, which changes while the first does not.
#[test]
fn a_step_predicate_reading_a_second_source_is_not_kept() {
    let q = Query::parse(
        "watch",
        r#"for $i in doc("d")/pkg[@name = $0/pkg/@name] return {$i/@name}"#,
    )
    .unwrap();
    let doc = Tree::parse(r#"<c><pkg name="a"/><pkg name="b"/><pkg name="c"/></c>"#).unwrap();
    let mut param = Tree::parse(r#"<w><pkg name="a"/></w>"#).unwrap();
    assert_eq!(answers(&q, &param, &doc), ["<text>a</text>"]);
    let pkg = param.children(param.root())[0];
    param.set_attr(pkg, "name", "b").unwrap();
    assert_eq!(answers(&q, &param, &doc), ["<text>b</text>"]);
}
