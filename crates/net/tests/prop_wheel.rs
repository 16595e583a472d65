//! Property tests for the event scheduler: every pop is the earliest
//! pending delivery by `(at, seq)`.
//!
//! The simulator's determinism rests on this order — the earliest
//! arrival first, ties at one virtual instant in send order. These
//! tests drive [`Scheduler`] and a sorted oracle (a plain `Vec` searched
//! for its minimum) through the same randomized push / tie-push / pop /
//! clear interleavings — exact timestamp ties, spacings below 0.25 ms,
//! far-future jumps — and assert the popped `(at, seq, item)` streams
//! match exactly (`f64` bits included), that the push/pop/clear ledger
//! balances after every step, and that `cleared` counts what `clear`
//! dropped.

use axml_net::wheel::{SchedStats, Scheduler};
use axml_prng::SplitMix64;
use proptest::prelude::*;

/// The reference: pending entries in a `Vec`; a pop removes the least
/// `(at, seq)`.
#[derive(Default)]
struct Oracle {
    pending: Vec<(f64, u64, u64)>,
}

impl Oracle {
    fn pop(&mut self) -> Option<(f64, u64, u64)> {
        let i = (0..self.pending.len()).min_by(|&a, &b| {
            let (x, y) = (self.pending[a], self.pending[b]);
            x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1))
        })?;
        Some(self.pending.swap_remove(i))
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push { delay: f64 },
    PushTie { index: usize },
    Pop,
    Clear,
}

/// Drive a scheduler and the oracle through the same steps and assert
/// every pop, peek and ledger agrees.
///
/// A push is never earlier than the arrival time of the last pop, as in
/// the simulator (a send starts at the current clock).
fn drive_and_compare(ops: &[Op]) {
    let mut sched: Scheduler<u64> = Scheduler::default();
    let mut oracle = Oracle::default();
    let mut clock = 0.0f64; // arrival time of the last pop
    let mut seq = 0u64;
    let mut want = SchedStats::default();
    for op in ops {
        match *op {
            Op::Push { delay } => {
                let at = clock + delay;
                sched.push(at, seq, seq);
                oracle.pending.push((at, seq, seq));
                seq += 1;
                want.scheduled += 1;
            }
            Op::PushTie { index } => {
                // Re-push at an `at` already pending: an exact timestamp
                // tie, broken only by seq.
                if oracle.pending.is_empty() {
                    continue;
                }
                let at = oracle.pending[index % oracle.pending.len()].0;
                sched.push(at, seq, seq);
                oracle.pending.push((at, seq, seq));
                seq += 1;
                want.scheduled += 1;
            }
            Op::Pop => match (sched.pop(), oracle.pop()) {
                (None, None) => {}
                (Some((at, s, item)), Some((oat, os, oitem))) => {
                    assert_eq!(at.to_bits(), oat.to_bits(), "arrival time diverged");
                    assert_eq!((s, item), (os, oitem), "sequence diverged");
                    clock = at;
                    want.delivered += 1;
                }
                (a, b) => panic!("scheduler and oracle disagree on emptiness: {a:?} vs {b:?}"),
            },
            Op::Clear => {
                want.cleared += oracle.pending.len() as u64;
                oracle.pending.clear();
                sched.clear();
            }
        }
        want.pending = oracle.pending.len() as u64;
        want.peak_pending = want.peak_pending.max(want.pending);
        let got = sched.stats();
        assert!(got.consistent(), "ledger does not balance: {got:?}");
        assert_eq!(got, want, "ledger diverged from the oracle");
        assert_eq!(sched.len(), oracle.pending.len());
        let least = oracle.pending.iter().map(|e| e.0).min_by(f64::total_cmp);
        assert_eq!(sched.peek_at().map(f64::to_bits), least.map(f64::to_bits));
    }
    // Drain both to the end: the full tail must match too.
    loop {
        let (a, b) = (sched.pop(), oracle.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert!(sched.is_empty() && sched.stats().consistent());
}

/// A seeded random schedule mixing near-term pushes, exact ties,
/// sub-0.25 ms spacings, far-future jumps, pops and the odd clear.
fn random_schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.next_u64() % 100;
        let op = if roll < 40 {
            // Near-term: delays spanning sub-0.25 ms to hours.
            let scale = match rng.next_u64() % 4 {
                0 => 0.1,
                1 => 10.0,
                2 => 10_000.0,
                _ => 10_000_000.0,
            };
            Op::Push {
                delay: rng.next_f64() * scale,
            }
        } else if roll < 50 {
            // Far future: weeks of virtual time ahead.
            Op::Push {
                delay: 1.5e9 + rng.next_f64() * 3.0e9,
            }
        } else if roll < 65 {
            Op::PushTie {
                index: rng.next_u64() as usize,
            }
        } else if roll < 99 {
            Op::Pop
        } else {
            Op::Clear
        };
        ops.push(op);
    }
    ops
}

#[test]
fn scheduler_matches_the_oracle_across_seeds() {
    // Fixed seeds × a long mixed schedule each; a failure names the
    // seed so a regression is replayable.
    for seed in [1u64, 2, 3, 0xDEAD_BEEF, 0xA11C_E5ED, 42, 1_000_003] {
        let ops = random_schedule(seed, 4_000);
        let run = std::panic::catch_unwind(|| drive_and_compare(&ops));
        assert!(run.is_ok(), "seed {seed:#x} diverged");
    }
}

#[test]
fn all_ties_at_one_instant_pop_in_seq_order() {
    // Pure tie storm: everything lands on the same timestamp, so the
    // order is decided entirely by the seq tiebreaker.
    let mut ops = vec![Op::Push { delay: 123.456 }];
    ops.extend(std::iter::repeat_n(Op::PushTie { index: 0 }, 512));
    ops.extend(std::iter::repeat_n(Op::Pop, 513));
    drive_and_compare(&ops);
}

#[test]
fn far_future_jumps_interleaved_with_pops() {
    let mut ops = Vec::new();
    for i in 0..64 {
        ops.push(Op::Push {
            delay: if i % 2 == 0 {
                0.01 * i as f64
            } else {
                2.0e9 * i as f64
            },
        });
        if i % 3 == 0 {
            ops.push(Op::Pop);
        }
    }
    drive_and_compare(&ops);
}

/// Pop everything.
fn drain(s: &mut Scheduler<u32>) -> Vec<u32> {
    std::iter::from_fn(|| s.pop().map(|e| e.2)).collect()
}

#[test]
fn ties_break_by_send_order_and_spreads_by_time() {
    let mut s = Scheduler::default();
    s.push(5.0, 0, 10);
    s.push(1.0, 1, 11);
    s.push(5.0, 2, 12); // tie with seq 0 at the same instant
    s.push(1.0 + 1e-9, 3, 13); // a hair after 1.0
    s.push(10_000.0, 4, 14);
    assert_eq!(drain(&mut s), vec![11, 13, 10, 12, 14]);
}

#[test]
fn absurd_times_still_order_exactly() {
    let huge = f64::MAX / 4.0;
    let mut s = Scheduler::default();
    s.push(huge, 0, 1);
    s.push(huge / 2.0, 1, 2);
    s.push(huge, 2, 3);
    assert_eq!(drain(&mut s), vec![2, 1, 3]);
}

#[test]
fn stats_ledger_balances_across_pop_and_clear() {
    let mut s = Scheduler::default();
    for i in 0..10u64 {
        s.push(i as f64, i, i as u32);
    }
    for _ in 0..4 {
        s.pop();
    }
    s.clear();
    let st = s.stats();
    assert_eq!(
        (st.scheduled, st.delivered, st.cleared, st.pending),
        (10, 4, 6, 0)
    );
    assert!(st.consistent());
    assert_eq!((st.peak_pending, st.cascades), (10, 0));
}

#[test]
fn empty_scheduler_behaves() {
    let mut s: Scheduler<u32> = Scheduler::default();
    assert!(s.is_empty());
    assert_eq!(s.pop(), None);
    assert_eq!(s.peek_at(), None);
    s.clear();
    assert_eq!(s.stats(), SchedStats::default());
}

proptest! {
    /// Arbitrary interleavings: proptest shrinks any divergence to a
    /// minimal schedule.
    #[test]
    fn scheduler_matches_the_oracle_on_arbitrary_schedules(
        raw in proptest::collection::vec((0u8..8, 0.0f64..4.0e9, 0usize..64), 1..200),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, delay, index)| match kind {
                0 | 1 => Op::Push { delay },
                2 => Op::Push { delay: delay * 1e-10 },
                3 => Op::PushTie { index },
                7 => Op::Clear,
                _ => Op::Pop,
            })
            .collect();
        drive_and_compare(&ops);
    }
}
