//! `sub_churn` — one provider with 8 boards preloaded to 1 000 items,
//! 50 topic services per board, 8 000 live subscriptions; 90 % `feed` of
//! a one-item delta, 5 % `activate_document` of a fresh 10-`sc` inbox,
//! 5 % `unsubscribe` of the 10 oldest subscriptions.
//!
//! *Why it exists:* the shared matcher's probe, subscription
//! re-evaluation and delta suppression dominate. The activate and
//! unsubscribe ops *write* the same matching index the feeds *read*, so
//! a probe gain paid for by slower registration shows here. The live
//! population stays at 8 000; boards grow by under 1.2× over an epoch,
//! and identically in every epoch, so latency is near-stationary.

use crate::gen::{apportion, stratified_order};
use crate::harness::{OpOutcome, SetupClock, Size, SpanKind, Tracer, Variant, Workload};
use axml_core::prelude::*;
use axml_prng::SplitMix64;
use axml_xml::tree::Tree;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// Boards hosted by the provider.
pub const BOARDS: usize = 8;
/// Topic services per board.
pub const TOPICS: usize = 50;
/// Items preloaded on each board.
pub const PRELOAD: usize = 1_000;
/// Live subscriptions at full size (kept constant by the op mix).
pub const SUBSCRIPTIONS: usize = 8_000;
/// Subscriptions per activate / unsubscribe op.
pub const BATCH: usize = 10;
/// Ops per epoch at full size.
pub const EPOCH_OPS: usize = 600;
/// Warm-up feeds per set-up at full size.
const WARMUP_OPS: usize = 20;

const PROVIDER: PeerId = PeerId(0);
const CLIENT: PeerId = PeerId(1);

type Topic = (u8, u8);

/// One op of the stream.
enum Op {
    /// Feed a one-item delta; `delivered` subscriptions must receive it.
    Feed { at: Topic, delivered: usize },
    /// Install and activate a fresh inbox of `BATCH` service calls.
    Activate { inbox: String, xml: String },
    /// Cancel the `BATCH` oldest subscriptions.
    Unsubscribe,
}

/// Seed-derived inputs and expectations.
pub struct Plan {
    boards: Vec<String>,
    inbox: String,
    ops: Vec<Op>,
    /// Warm-up feeds: where, and how many subscriptions each reaches.
    warmup: Vec<(Topic, usize)>,
    /// Subscriptions the initial inbox activates.
    population: usize,
    probe_query: String,
}

impl Plan {
    /// The watch service of `(board, topic)`: name and query source.
    pub fn service(board: usize, topic: usize) -> (String, String) {
        (
            format!("watch-{board}-{topic}"),
            format!(
                r#"for $i in doc("board-{board}")/item where $i/@topic = "t{topic}" return {{$i}}"#
            ),
        )
    }
}

fn item_xml(topic: u8, text: &str) -> String {
    format!(r#"<item topic="t{topic}">{text}</item>"#)
}

fn inbox_xml(calls: &[Topic]) -> String {
    let mut xml = String::from("<inbox>");
    for (b, t) in calls {
        let _ = write!(
            xml,
            "<sc><peer>p0</peer><service>watch-{b}-{t}</service></sc>"
        );
    }
    xml.push_str("</inbox>");
    xml
}

/// The workload's state.
pub struct SubChurn {
    sys: AxmlSystem,
    /// Live subscription ids, oldest first.
    live: VecDeque<u64>,
}

impl SubChurn {
    fn feed(&mut self, (b, t): Topic, text: &str, delivered: usize, tr: &mut Tracer) -> OpOutcome {
        // Parsing the delta is the application's work, not the engine's.
        let delta = Tree::parse(&item_xml(t, text)).expect("generated item parses");
        let board = format!("board-{b}");
        let t0 = Instant::now();
        let result = tr.call(SpanKind::Feed, 1, || {
            self.sys.feed(PROVIDER, board.as_str(), delta)
        });
        let latency = t0.elapsed();
        let ok = match result {
            Ok(n) => n == delivered,
            Err(e) => {
                eprintln!("sub_churn feed {board}: {e}");
                false
            }
        };
        if tr.on() {
            // Layer probe: a feed re-evaluates every touched subscription's
            // service query over the whole board.
            let peer = self.sys.peer(PROVIDER);
            let svc = Plan::service(b as usize, t as usize).0;
            if let (Ok(svc), Some(doc)) = (
                peer.service(&svc.as_str().into(), PROVIDER),
                peer.docs.get(&board.as_str().into()),
            ) {
                let nodes = doc.tree().live_len() * delivered;
                tr.probe(nodes as u32, || {
                    for _ in 0..delivered {
                        std::hint::black_box(
                            svc.query.eval_with_docs(&[], peer).map_or(0, |f| f.len()),
                        );
                    }
                });
            }
        }
        OpOutcome { latency, ok }
    }
}

impl Workload for SubChurn {
    const NAME: &'static str = "sub_churn";
    type Plan = Plan;

    fn plan(seed: u64, size: Size) -> Result<Plan, String> {
        let mut rng = SplitMix64::new(seed ^ 0x5B_C4E2_0000_0003);
        let boards = (0..BOARDS)
            .map(|b| {
                let mut xml = String::with_capacity(PRELOAD * 48);
                xml.push_str("<board>");
                for i in 0..PRELOAD {
                    let topic = rng.gen_range(0..TOPICS) as u8;
                    xml.push_str(&item_xml(
                        topic,
                        &format!("b{b}-{i:04}-{:08x}", rng.next_u32()),
                    ));
                }
                xml.push_str("</board>");
                xml
            })
            .collect();
        // Initial population: every (board, topic) equally watched.
        let population = size.scale(SUBSCRIPTIONS, BOARDS * TOPICS);
        let mut fifo: VecDeque<Topic> = (0..population)
            .map(|k| ((k % BOARDS) as u8, ((k / BOARDS) % TOPICS) as u8))
            .collect();
        let inbox = inbox_xml(fifo.make_contiguous());
        let mut watchers = vec![[0usize; TOPICS]; BOARDS];
        for &(b, t) in &fifo {
            watchers[b as usize][t as usize] += 1;
        }
        let topic = |rng: &mut SplitMix64| -> Topic {
            (
                rng.gen_range(0..BOARDS) as u8,
                rng.gen_range(0..TOPICS) as u8,
            )
        };
        let warmup = (0..size.scale(WARMUP_OPS, 4))
            .map(|_| {
                let at = topic(&mut rng);
                (at, watchers[at.0 as usize][at.1 as usize])
            })
            .collect();
        // The op stream, with the benchmark's own model of who watches
        // what: it says how many subscriptions each feed must reach.
        let kinds = stratified_order(&apportion(size.scale(EPOCH_OPS, 40), &[90, 5, 5]), &mut rng);
        let mut ops = Vec::with_capacity(kinds.len());
        for (i, kind) in kinds.into_iter().enumerate() {
            ops.push(match kind {
                0 => {
                    let at = topic(&mut rng);
                    Op::Feed {
                        at,
                        delivered: watchers[at.0 as usize][at.1 as usize],
                    }
                }
                1 => {
                    let calls: Vec<Topic> = (0..BATCH).map(|_| topic(&mut rng)).collect();
                    for &(b, t) in &calls {
                        watchers[b as usize][t as usize] += 1;
                        fifo.push_back((b, t));
                    }
                    Op::Activate {
                        inbox: format!("inbox-{i}"),
                        xml: inbox_xml(&calls),
                    }
                }
                _ => {
                    for (b, t) in fifo.drain(..BATCH) {
                        watchers[b as usize][t as usize] -= 1;
                    }
                    Op::Unsubscribe
                }
            });
        }
        Ok(Plan {
            boards,
            inbox,
            ops,
            warmup,
            population,
            probe_query: Plan::service(0, 0).1,
        })
    }

    fn epoch_len(plan: &Plan) -> usize {
        plan.ops.len()
    }

    fn setup(plan: &Plan, variant: Variant, clock: &mut SetupClock) -> Result<Self, String> {
        let mut b = AxmlSystem::builder().peers(["provider", "client"]).link(
            "provider",
            "client",
            LinkCost::lan(),
        );
        for (board, xml) in plan.boards.iter().enumerate() {
            b = b.doc("provider", format!("board-{board}"), xml.as_str());
            for topic in 0..TOPICS {
                let (name, src) = Plan::service(board, topic);
                b = b.service("provider", name, &src);
            }
        }
        let mut sys = b
            .doc("client", "inbox", plan.inbox.as_str())
            .build()
            .map_err(|e| format!("sub_churn build: {e}"))?;
        variant.apply(&mut sys);
        clock.tick();
        let ids = sys
            .activate_document(CLIENT, &"inbox".into())
            .map_err(|e| format!("sub_churn activate: {e}"))?;
        if ids.len() != plan.population {
            return Err(format!("sub_churn: {} subscriptions activated", ids.len()));
        }
        clock.tick();
        let mut w = SubChurn {
            sys,
            live: ids.into(),
        };
        let mut off = Tracer::new(false);
        for (k, &(at, delivered)) in plan.warmup.iter().enumerate() {
            if !w.feed(at, &format!("w{k}"), delivered, &mut off).ok {
                return Err(format!("sub_churn warm-up feed {k} failed"));
            }
            clock.tick();
        }
        w.sys.reset_stats();
        Ok(w)
    }

    fn op(&mut self, plan: &Plan, i: usize, tr: &mut Tracer) -> OpOutcome {
        match &plan.ops[i] {
            Op::Feed { at, delivered } => self.feed(*at, &format!("e{i}"), *delivered, tr),
            Op::Activate { inbox, xml } => {
                let tree = Tree::parse(xml).expect("generated inbox parses");
                let t0 = Instant::now();
                let result = tr.call(SpanKind::Activate, BATCH as u32, || {
                    self.sys
                        .install_doc(CLIENT, inbox.as_str(), tree)
                        .and_then(|()| self.sys.activate_document(CLIENT, &inbox.as_str().into()))
                });
                let latency = t0.elapsed();
                let ok = match result {
                    Ok(ids) => {
                        let ok = ids.len() == BATCH;
                        self.live.extend(ids);
                        ok
                    }
                    Err(e) => {
                        eprintln!("sub_churn activate {inbox}: {e}");
                        false
                    }
                };
                OpOutcome { latency, ok }
            }
            Op::Unsubscribe => {
                let ids: Vec<u64> = self.live.drain(..BATCH.min(self.live.len())).collect();
                let t0 = Instant::now();
                let removed = tr.call(SpanKind::Unsubscribe, ids.len() as u32, || {
                    ids.iter().filter(|&&id| self.sys.unsubscribe(id)).count()
                });
                OpOutcome {
                    latency: t0.elapsed(),
                    ok: removed == BATCH,
                }
            }
        }
    }

    fn sys(&self) -> &AxmlSystem {
        &self.sys
    }

    fn sys_mut(&mut self) -> &mut AxmlSystem {
        &mut self.sys
    }

    fn probe_doc(plan: &Plan) -> &str {
        &plan.boards[0]
    }

    fn probe_query(plan: &Plan) -> &str {
        &plan.probe_query
    }

    fn finish(self, _plan: &Plan, _ops_done: usize) -> Result<(), String> {
        // The engine's live set must agree with the benchmark's own book.
        if self.sys.subscriptions().len() == self.live.len() {
            Ok(())
        } else {
            Err(format!(
                "{} subscriptions live at the end, expected {}",
                self.sys.subscriptions().len(),
                self.live.len()
            ))
        }
    }
}
