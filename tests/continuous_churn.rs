//! Churn suite for the shared subscription matcher: activations and
//! unsubscriptions interleaved with feeds at 1k+ subscriptions,
//! differentially comparing [`MatcherMode::Shared`] against
//! [`MatcherMode::Naive`] across seeds. The two
//! modes must deliver *bit-identical* results in the same order — the
//! matcher may only skip work, never change it. The same holds for the
//! default mode's other shortcut, evaluating a feed's hits over the
//! appended child alone, and its third, evaluating once for all the
//! subscriptions that make the same call: the second property drives both
//! over random plan shapes, inboxes that collide on a call, duplicate
//! items, services redefined under their subscribers and mutations of the
//! fed document that no feed made, against the same reference.

use axml::prelude::*;
use axml::xml::store::Document;
use axml::xml::tree::Tree;
use axml_prng::SplitMix64;
use std::collections::BTreeMap;

/// Distinct topics; each subscription watches one.
const TOPICS: usize = 20;

/// Churn steps per run (each step = one feed + random churn).
const STEPS: usize = 40;

/// Subscription batches: in release 12 × 100 = 1 200 subscriptions, in
/// debug (the plain `cargo test` tier) 6 × 50 = 300 so the naive arm
/// stays quick.
fn shape() -> (usize, usize) {
    if cfg!(debug_assertions) {
        (6, 50)
    } else {
        (12, 100)
    }
}

/// Provider with `TOPICS` watch services plus `batches` client documents
/// of `per_batch` subscriptions each, topics round-robin.
fn build(mode: MatcherMode) -> AxmlSystem {
    let (batches, per_batch) = shape();
    let mut b = AxmlSystem::builder()
        .peers(["provider", "client"])
        .link("provider", "client", LinkCost::lan())
        .doc("provider", "board", "<board/>");
    for t in 0..TOPICS {
        b = b.service(
            "provider",
            format!("watch-{t}"),
            &format!(r#"for $i in doc("board")/item where $i/@topic = "t{t}" return {{$i}}"#),
        );
    }
    for d in 0..batches {
        let mut xml = format!("<batch{d}>");
        for k in 0..per_batch {
            let t = (d * per_batch + k) % TOPICS;
            xml.push_str(&format!(
                r#"<sc><peer>p0</peer><service>watch-{t}</service></sc>"#
            ));
        }
        xml.push_str(&format!("</batch{d}>"));
        b = b.doc("client", format!("batch{d}"), xml.as_str());
    }
    let mut sys = b.build().unwrap();
    sys.set_matcher_mode(mode);
    sys
}

/// Drive one seeded churn schedule: activate half the batches up front,
/// then interleave feeds with random unsubscriptions and late
/// activations. Returns the per-step delivery counts and the final
/// serialized state of every batch document.
fn churn(sys: &mut AxmlSystem, seed: u64) -> (Vec<usize>, Vec<String>) {
    let (batches, _) = shape();
    let provider = sys.peer_id("provider").unwrap();
    let client = sys.peer_id("client").unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<u64> = Vec::new();
    for d in 0..batches / 2 {
        live.extend(
            sys.activate_document(client, &format!("batch{d}").into())
                .unwrap(),
        );
    }
    let mut next_batch = batches / 2;
    let mut delivered = Vec::new();
    for step in 0..STEPS {
        let t = rng.gen_range(0..TOPICS);
        let n = sys
            .feed(
                provider,
                "board",
                Tree::parse(&format!(r#"<item topic="t{t}">s{step}</item>"#)).unwrap(),
            )
            .unwrap();
        delivered.push(n);
        if !live.is_empty() && rng.gen_bool(0.3) {
            let i = rng.gen_range(0..live.len());
            assert!(sys.unsubscribe(live.swap_remove(i)));
        }
        if next_batch < batches && rng.gen_bool(0.25) {
            live.extend(
                sys.activate_document(client, &format!("batch{next_batch}").into())
                    .unwrap(),
            );
            next_batch += 1;
        }
    }
    delivered.push(sys.subscriptions().len());
    let snaps = (0..batches)
        .map(|d| {
            sys.peer(client)
                .docs
                .get(&format!("batch{d}").into())
                .unwrap()
                .tree()
                .serialize()
        })
        .collect();
    (delivered, snaps)
}

#[test]
fn shared_matcher_is_equivalent_under_churn() {
    for seed in [0xC0FF_EE01u64, 0xC0FF_EE02] {
        let mut shared = build(MatcherMode::Shared);
        let mut naive = build(MatcherMode::Naive);
        let (d_shared, s_shared) = churn(&mut shared, seed);
        let (d_naive, s_naive) = churn(&mut naive, seed);
        assert_eq!(
            d_shared, d_naive,
            "delivery counts diverged (seed {seed:#x})"
        );
        assert_eq!(s_shared, s_naive, "inbox bytes diverged (seed {seed:#x})");
        let m = shared.metrics();
        assert!(m.matcher_skips > 0, "churn must exercise the skip path");
        assert!(m.matcher_consistent());
        assert_eq!(naive.metrics().matcher_probes, 0);
        assert!(
            shared.run_report("churn").reconciled,
            "shared-mode run must reconcile"
        );
    }
}

/// Service bodies over `doc("board")`, `{t}` being a topic. The first
/// seven are shapes a feed may answer from the appended child alone (the
/// sixth reads only what `echo` forwards into the board, so the probe of
/// a fed item skips it; the seventh copies its parameter as written, so
/// two spellings of one parameter show in the bytes delivered); the
/// picker must refuse the rest (second reference to the board, `let`,
/// the root's own value, an outer loop, a second document).
const SHAPES: [&str; 15] = [
    r#"for $i in doc("board")/item where $i/@topic = "{t}" return {$i}"#,
    r#"for $i in doc("board")//item where $i/@topic = "{t}" return <hit>{$i/text()}</hit>"#,
    r#"doc("board")/item[@topic = "{t}"]"#,
    r#"for $i in doc("board")/*[item/@topic = "{t}"] return <in>{$i/item}</in>"#,
    r#"for $i in doc("board")/item[@topic = $0/text()] for $w in $0 return <w t="{$w/text()}">{$i/text()}</w>"#,
    r#"for $e in doc("board")/echo where $e/@topic = "{t}" return <saw>{$e/text()}</saw>"#,
    r#"for $i in doc("board")/item[@topic = $0/text()] return <for>{$0}{$i/text()}</for>"#,
    r#"for $a in doc("board")/item for $b in doc("board")/item where $a/@topic = "{t}" and $a/text() = $b/text() return <pair>{$a/text()}</pair>"#,
    r#"let $all := doc("board")/item[@topic = "{t}"] where exists($all) return <all>{$all}</all>"#,
    r#"for $i in doc("board")/item where $i/@topic = "{t}" and count(doc("board")/item) < 12 return {$i}"#,
    r#"for $i in doc("board")/item where $i/@topic = "{t}" return <r>{$i/text()}<n>{doc("board")/box}</n></r>"#,
    r#"doc("board")/text()"#,
    r#"doc("board")"#,
    r#"for $w in $0 for $i in doc("board")/item where $i/@topic = $w/text() return {$i}"#,
    r#"for $i in doc("board")/item for $m in doc("side")/item where $i/@topic = "{t}" and $i/@topic = $m/@topic return <m>{$i/text()}</m>"#,
];

const PROP_TOPICS: usize = 4;
const PROP_INBOXES: usize = 12;

/// A service call as the generator and its model of who shares what see
/// it: service name and the parameter as written.
type PropCall = (String, String);

/// Four spellings of a parameter naming topic `w` (`text()` is the
/// string value, so the second child carries none): plain, with a second
/// child, with the two children the other way round (equal up to sibling
/// order: one key, two calls), and with one value of the second changed.
fn prop_param(w: usize, spelling: usize) -> String {
    match spelling {
        0 => format!("<w>t{w}</w>"),
        1 => format!(r#"<w>t{w}<x n="1"/></w>"#),
        2 => format!(r#"<w><x n="1"/>t{w}</w>"#),
        _ => format!(r#"<w>t{w}<x n="2"/></w>"#),
    }
}

/// The shape whose answer shows how its parameter was spelled.
const COPIES_ITS_PARAM: usize = 6;

/// The calls of each inbox. Half are drawn from those drawn before —
/// a third of these with the parameter spelled anew — so that inboxes,
/// and `sc`s within one, collide on a (service, parameter) pair; a fifth
/// of the fresh draws go to the shape that tells spellings apart.
fn prop_calls(seed: u64) -> Vec<Vec<PropCall>> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0B0A);
    let mut drawn: Vec<(String, usize, usize)> = Vec::new();
    (0..PROP_INBOXES)
        .map(|_| {
            (0..rng.gen_range(2..7usize))
                .map(|_| {
                    let (service, w, spelling) = if !drawn.is_empty() && rng.gen_bool(0.5) {
                        let (service, w, spelling) = drawn[rng.gen_range(0..drawn.len())].clone();
                        match rng.gen_range(0..3u32) {
                            0 => (service, w, rng.gen_range(0..4)),
                            _ => (service, w, spelling),
                        }
                    } else {
                        let k = match rng.gen_range(0..5u32) {
                            0 => COPIES_ITS_PARAM,
                            _ => rng.gen_range(0..SHAPES.len()),
                        };
                        let (t, w) = (rng.gen_range(0..PROP_TOPICS), rng.gen_range(0..PROP_TOPICS));
                        (format!("s{k}-{t}"), w, rng.gen_range(0..4))
                    };
                    drawn.push((service.clone(), w, spelling));
                    (service, prop_param(w, spelling))
                })
                .collect()
        })
        .collect()
}

/// A provider hosting `board` (what is fed), `side` (read by the last
/// shape and by `relay`) and every shape × topic as a service; a client
/// with `PROP_INBOXES` documents of random calls, plus two whose call
/// forwards *into the board*: `relay` sends `side`'s items there — a
/// delivery no feed of the board made — and `echo` the board's own, in
/// the middle of the feed that pumps it.
fn prop_build(mode: MatcherMode, seed: u64) -> AxmlSystem {
    let mut b = AxmlSystem::builder()
        .peers(["provider", "client"])
        .link("provider", "client", LinkCost::lan())
        .doc(
            "provider",
            "board",
            r#"<board><item topic="t0">seed</item></board>"#,
        )
        .doc("provider", "side", "<side/>")
        .service("provider", "relay", r#"doc("side")/item"#)
        .service(
            "provider",
            "echo",
            r#"for $i in doc("board")/item where $i/@topic != "t0" return <echo topic="{$i/@topic}">{$i/text()}</echo>"#,
        );
    for (k, shape) in SHAPES.iter().enumerate() {
        for t in 0..PROP_TOPICS {
            b = b.service(
                "provider",
                format!("s{k}-{t}"),
                &shape.replace("{t}", &format!("t{t}")),
            );
        }
    }
    for (d, calls) in prop_calls(seed).iter().enumerate() {
        let mut xml = format!("<inbox{d}>");
        for (service, param) in calls {
            xml.push_str(&format!(
                "<sc><peer>p0</peer><service>{service}</service><param1>{param}</param1></sc>"
            ));
        }
        xml.push_str(&format!("</inbox{d}>"));
        b = b.doc("client", format!("inbox{d}"), xml.as_str());
    }
    let mut sys = b.build().unwrap();
    let provider = sys.peer_id("provider").unwrap();
    let client = sys.peer_id("client").unwrap();
    let board = sys.peer(provider).doc(&"board".into(), provider).unwrap();
    let root = board.root().index();
    for name in ["relay", "echo"] {
        let xml = format!(
            "<{name}><sc><peer>p0</peer><service>{name}</service><forw>board#{root}@p0</forw></sc></{name}>"
        );
        sys.install_doc(client, name, Tree::parse(&xml).unwrap())
            .unwrap();
    }
    sys.set_matcher_mode(mode);
    sys
}

/// The test's own book of who shares a call: the live subscriptions per
/// (service, how often it was redefined before they activated,
/// parameter as written).
#[derive(Default)]
struct CallBook {
    redefined: BTreeMap<String, usize>,
    members: BTreeMap<(String, usize, String), Vec<u64>>,
    /// Activations between feeds that found their call already live.
    joins: usize,
}

impl CallBook {
    fn activated(&mut self, ids: &[u64], calls: &[PropCall], between_feeds: bool) {
        for (&id, (service, param)) in ids.iter().zip(calls) {
            let redefined = self.redefined.get(service).copied().unwrap_or(0);
            let key = (service.clone(), redefined, param.clone());
            let members = self.members.entry(key).or_default();
            self.joins += usize::from(between_feeds && !members.is_empty());
            members.push(id);
        }
    }

    fn unsubscribed(&mut self, id: u64) {
        self.members.retain(|_, m| {
            m.retain(|i| *i != id);
            !m.is_empty()
        });
    }
}

/// One seeded schedule of feeds (some repeating the previous item, some
/// nested), foreign mutations of the board, activations (many onto a
/// call that is already live), unsubscriptions (one subscription, or
/// every member of a call) and redefinitions of a service. Returns the
/// transcript of per-step outcomes, the final bytes of every document
/// that received anything, and how many activations joined a live call.
fn prop_run(sys: &mut AxmlSystem, seed: u64) -> (Vec<String>, Vec<String>, usize) {
    let provider = sys.peer_id("provider").unwrap();
    let client = sys.peer_id("client").unwrap();
    let board: DocName = "board".into();
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut book = CallBook::default();
    let calls = prop_calls(seed);
    let calls_of = |doc: &str| match doc.strip_prefix("inbox") {
        Some(d) => calls[d.parse::<usize>().unwrap()].clone(),
        None => vec![(doc.to_string(), String::new())],
    };
    let mut pending: Vec<String> = (0..PROP_INBOXES).map(|d| format!("inbox{d}")).collect();
    for forwarder in ["relay", "echo"] {
        pending.insert(rng.gen_range(0..4usize), forwarder.into());
    }
    pending.reverse();
    let activate = |sys: &mut AxmlSystem, doc: String, live: &mut Vec<u64>| {
        let ids = sys.activate_document(client, &doc.as_str().into());
        live.extend(ids.as_ref().unwrap());
        (
            format!("activate {doc} -> {ids:?}"),
            ids.unwrap(),
            calls_of(&doc),
        )
    };
    let mut last_item = String::from(r#"<item topic="t0">seed</item>"#);
    let mut log = Vec::new();
    for _ in 0..3 {
        let (line, ids, calls) = activate(sys, pending.pop().unwrap(), &mut live);
        book.activated(&ids, &calls, false);
        log.push(line);
    }
    for step in 0..80 {
        let item = format!(
            r#"<item topic="t{}">s{step}</item>"#,
            rng.gen_range(0..PROP_TOPICS)
        );
        match rng.gen_range(0..24u32) {
            0..=10 => {
                let xml = match rng.gen_range(0..4u32) {
                    0 => last_item.clone(),
                    1 => format!("<box>{item}<box>{last_item}</box></box>"),
                    _ => item,
                };
                let n = sys.feed(provider, "board", Tree::parse(&xml).unwrap());
                log.push(format!("feed {xml} -> {n:?}"));
                if xml.starts_with("<item") {
                    last_item = xml;
                }
            }
            11 | 12 => {
                // Lands in the board through `relay`, once that is live.
                let n = sys.feed(provider, "side", Tree::parse(&item).unwrap());
                log.push(format!("side {n:?}"));
            }
            13 | 14 => {
                // An edit by hand: one more item, or the newest child gone
                // (often the item the next feed repeats).
                let doc = sys.peer_mut(provider).docs.require_mut(&board).unwrap();
                let root = doc.tree().root();
                match doc.tree().children(root).last().copied() {
                    Some(newest) if rng.gen_bool(0.4) => doc.tree_mut().detach(newest).unwrap(),
                    _ => {
                        let t = Tree::parse(&item).unwrap();
                        doc.tree_mut().graft(root, &t, t.root()).unwrap();
                    }
                }
                log.push("edit".into());
            }
            15 => {
                // The document replaced: in one step, or removed and
                // installed again — with one more item than it had.
                let docs = &mut sys.peer_mut(provider).docs;
                let mut tree = docs.require(&board).unwrap().tree().clone();
                let (root, t) = (tree.root(), Tree::parse(&item).unwrap());
                tree.graft(root, &t, t.root()).unwrap();
                if rng.gen_bool(0.5) {
                    docs.insert_or_replace(Document::new(board.clone(), tree));
                } else {
                    docs.remove(&board).unwrap();
                    docs.insert(Document::new(board.clone(), tree)).unwrap();
                }
                log.push("replace".into());
            }
            16..=18 => {
                if let Some(doc) = pending.pop() {
                    let (line, ids, calls) = activate(sys, doc, &mut live);
                    book.activated(&ids, &calls, true);
                    log.push(line);
                }
            }
            19 => {
                // A service redefined under whoever subscribes to it: they
                // keep the query they activated, later callers get this one.
                let (k, t) = (
                    rng.gen_range(0..SHAPES.len()),
                    rng.gen_range(0..PROP_TOPICS),
                );
                let body = SHAPES[rng.gen_range(0..SHAPES.len())].replace("{t}", &format!("t{t}"));
                let name = format!("s{k}-{t}");
                sys.register_declarative_service(provider, name.as_str(), &body)
                    .unwrap();
                log.push(format!("redefine {name}"));
                *book.redefined.entry(name).or_default() += 1;
            }
            20 => {
                // A whole call gone; a pending inbox may bring it back.
                let calls = book.members.len();
                let gone = (calls > 0).then(|| rng.gen_range(0..calls));
                let gone = gone.and_then(|n| book.members.values().nth(n).cloned());
                for id in gone.unwrap_or_default() {
                    assert!(sys.unsubscribe(id));
                    live.retain(|i| *i != id);
                    book.unsubscribed(id);
                    log.push(format!("unsubscribe {id}"));
                }
            }
            _ => {
                if !live.is_empty() {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(sys.unsubscribe(id));
                    book.unsubscribed(id);
                    log.push(format!("unsubscribe {id}"));
                }
            }
        }
    }
    let deliveries: Vec<_> = sys.subscriptions().map(|s| (s.id, s.delivered)).collect();
    log.push(format!("delivered {deliveries:?}"));
    let mut docs: Vec<String> = (0..PROP_INBOXES)
        .map(|d| (client, format!("inbox{d}")))
        .chain([(provider, "board".to_string())])
        .map(|(at, name)| {
            let tree = sys.peer(at).doc(&name.as_str().into(), at).unwrap();
            tree.serialize()
        })
        .collect();
    docs.push(format!("{}", sys.stats().total_bytes()));
    (log, docs, book.joins)
}

#[test]
fn delta_pumps_are_equivalent_to_full_re_evaluation() {
    let (mut on_delta, mut in_full, mut joined) = (0, 0, 0);
    for seed in 0..24u64 {
        let seed = 0xD_E17A_0000 + seed;
        let mut shared = prop_build(MatcherMode::Shared, seed);
        let mut naive = prop_build(MatcherMode::Naive, seed);
        let (log_shared, docs_shared, joins) = prop_run(&mut shared, seed);
        let (log_naive, docs_naive, _) = prop_run(&mut naive, seed);
        joined += usize::from(joins > 0);
        assert_eq!(
            log_shared, log_naive,
            "transcripts diverged (seed {seed:#x})"
        );
        assert_eq!(
            docs_shared, docs_naive,
            "documents diverged (seed {seed:#x})"
        );
        let (m, n) = (shared.metrics(), naive.metrics());
        assert_eq!(m.delta_fresh, n.delta_fresh, "seed {seed:#x}");
        assert!(m.matcher_consistent());
        on_delta += n.delta_suppressed - m.delta_suppressed;
        in_full += m.delta_suppressed;
    }
    // Both arms ran: trees the reference re-derived and the default mode
    // never looked at, and trees the default mode re-derived as well.
    assert!(on_delta > 0 && in_full > 0, "{on_delta} / {in_full}");
    // And the third shortcut had calls to share: in at least half the
    // schedules an activation between feeds found its call already live.
    assert!(
        joined >= 12,
        "activations joined a live call in {joined} of 24 seeds"
    );
}
