//! Rolling statistics primitives: log₂-bucket latency histograms and
//! sliding virtual-time rate windows.
//!
//! Both are dependency-free, O(1)-per-sample, and deterministic — the
//! same event stream always produces the same quantiles and the same
//! sparkline, which is what lets `axml-top --once` snapshots be
//! byte-compared in CI.
//!
//! # Histogram semantics
//!
//! [`LatencyHistogram`] quantizes each sample (a latency in virtual
//! milliseconds) to an **integer count of microseconds** and drops it
//! into one of 65 log₂ buckets: bucket 0 holds exactly 0 µs, bucket
//! `b ≥ 1` holds the half-open range `[2^(b-1), 2^b)` µs. A quantile
//! query walks the cumulative counts and reports the covering bucket's
//! *upper bound* (clipped to the exact observed maximum), so a reported
//! quantile is never below the true value and at most 2× above it —
//! the classic HdrHistogram-style bounded relative error, with the
//! bound documented rather than tuned away.

use std::fmt;

/// Number of buckets: one for zero plus one per bit of a `u64` count of
/// microseconds.
pub const BUCKETS: usize = 65;

/// A fixed-size log₂-bucket histogram over latencies in milliseconds.
///
/// ```
/// use axml_obs::hist::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for ms in [1.0, 2.0, 3.0, 50.0] {
///     h.record_ms(ms);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max_ms(), 50.0);
/// assert!(h.quantile_ms(0.99) >= 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    /// Exact observed maximum in microseconds (quantiles clip to it).
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample of `us` microseconds.
#[inline]
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        64 - us.leading_zeros() as usize
    }
}

/// Upper bound (inclusive end, in µs) of bucket `b`.
#[inline]
fn bucket_upper_us(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b).saturating_sub(1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            max_us: 0,
        }
    }

    /// Record one latency sample in (virtual) milliseconds. Negative or
    /// non-finite samples are clamped to zero — the clock is virtual and
    /// monotone, so they indicate a producer bug, not a measurement.
    pub fn record_ms(&mut self, ms: f64) {
        let us = if ms.is_finite() && ms > 0.0 {
            // round-to-nearest microsecond, saturating
            (ms * 1000.0).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.counts[bucket_of(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact observed maximum, in milliseconds (0 when empty).
    pub fn max_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max_us as f64 / 1000.0
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in milliseconds: the upper bound
    /// of the first bucket whose cumulative count reaches `ceil(q · n)`,
    /// clipped to the exact observed maximum. Returns 0 when empty.
    ///
    /// Guarantee: `true_quantile ≤ reported ≤ 2 · true_quantile` (and
    /// `reported ≤ max`), because each bucket spans one power of two.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank is 1-based: the k-th smallest sample with k = ceil(q·n),
        // at least 1 so q=0 means the minimum bucket.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (bucket_upper_us(b).min(self.max_us)) as f64 / 1000.0;
            }
        }
        self.max_ms() // unreachable: counts sum to self.count
    }

    /// Median (p50), in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    /// 95th percentile, in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.quantile_ms(0.95)
    }

    /// 99th percentile, in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }

    /// Merge another histogram into this one (bucket-wise sum; the
    /// maximum combines exactly). Commutative and associative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Raw bucket counts (index = the sample's log₂ bucket).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.2}ms p95={:.2}ms p99={:.2}ms max={:.2}ms",
            self.count,
            self.p50_ms(),
            self.p95_ms(),
            self.p99_ms(),
            self.max_ms()
        )
    }
}

/// Default rate-window slot width, in virtual milliseconds.
pub const DEFAULT_SLOT_MS: f64 = 100.0;

/// Default number of live slots in a rate window.
pub const DEFAULT_SLOTS: usize = 16;

/// A sliding window over **virtual time**, accumulating a quantity
/// (bytes, deliveries, …) into fixed-width slots.
///
/// The window keeps the most recent [`RateWindow::slots`] slots; older
/// slots are *evicted* into a running total so the conservation law
///
/// > `evicted + Σ live slots == Σ all recorded amounts`
///
/// always holds exactly ([`RateWindow::conserves`], used by the
/// reconciliation tests). Rates are computed over the live span only.
///
/// Time never runs backwards: a sample stamped earlier than the current
/// slot is folded into the current slot (virtual clocks are monotone
/// per run; cross-peer interleavings may deliver equal stamps in any
/// order, which lands in the same slot regardless).
#[derive(Debug, Clone, PartialEq)]
pub struct RateWindow {
    slot_ms: f64,
    /// Ring of live slots; `ring[i]` holds slot `base_slot + i`'s total.
    ring: Vec<u64>,
    /// Absolute index of the oldest live slot.
    base_slot: u64,
    /// Absolute index of the newest slot written so far.
    head_slot: u64,
    /// Sum of all amounts that have been rotated out of the ring.
    evicted: u64,
    /// Sum of every amount ever recorded.
    total: u64,
    /// Whether anything has been recorded yet.
    touched: bool,
}

impl Default for RateWindow {
    fn default() -> Self {
        Self::new(DEFAULT_SLOT_MS, DEFAULT_SLOTS)
    }
}

impl RateWindow {
    /// A window of `slots` slots, each `slot_ms` virtual ms wide.
    pub fn new(slot_ms: f64, slots: usize) -> Self {
        assert!(slot_ms > 0.0, "slot width must be positive");
        assert!(slots >= 1, "need at least one slot");
        Self {
            slot_ms,
            ring: vec![0; slots],
            base_slot: 0,
            head_slot: 0,
            evicted: 0,
            total: 0,
            touched: false,
        }
    }

    /// Number of live slots.
    pub fn slots(&self) -> usize {
        self.ring.len()
    }

    /// Slot width in virtual milliseconds.
    pub fn slot_ms(&self) -> f64 {
        self.slot_ms
    }

    fn slot_index(&self, at_ms: f64) -> u64 {
        if !at_ms.is_finite() || at_ms <= 0.0 {
            0
        } else {
            (at_ms / self.slot_ms) as u64
        }
    }

    /// Record `amount` at virtual time `at_ms`. Sums saturate at
    /// `u64::MAX` — a decoded stream may carry any amount — and a
    /// saturated window still conserves.
    pub fn record(&mut self, at_ms: f64, amount: u64) {
        let slot = self.slot_index(at_ms).max(self.head_slot);
        self.advance_to(slot);
        let idx = (slot % self.ring.len() as u64) as usize;
        self.ring[idx] = self.ring[idx].saturating_add(amount);
        self.total = self.total.saturating_add(amount);
        self.touched = true;
    }

    /// Advance the window head to cover `slot`, evicting slots that
    /// fall off the back. O(slots) even for arbitrarily large jumps.
    fn advance_to(&mut self, slot: u64) {
        let n = self.ring.len() as u64;
        if slot <= self.head_slot {
            return;
        }
        if slot - self.base_slot >= n {
            let new_base = slot - n + 1;
            if new_base - self.base_slot >= n {
                // the whole live window falls off at once
                self.evicted = self.evicted.saturating_add(self.live_total());
                self.ring.iter_mut().for_each(|v| *v = 0);
            } else {
                for s in self.base_slot..new_base {
                    let idx = (s % n) as usize;
                    self.evicted = self.evicted.saturating_add(self.ring[idx]);
                    self.ring[idx] = 0;
                }
            }
            self.base_slot = new_base;
        }
        self.head_slot = slot;
    }

    /// Sum of all amounts ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum over the live slots only.
    fn live_total(&self) -> u64 {
        self.ring.iter().fold(0, |sum, &v| sum.saturating_add(v))
    }

    /// The conservation law: evicted + live == total. Exact by
    /// construction; the reconciliation tests assert it anyway.
    pub fn conserves(&self) -> bool {
        self.evicted.saturating_add(self.live_total()) == self.total
    }

    /// Average rate over the live window, per second of virtual time
    /// (0 before anything is recorded).
    pub fn rate_per_sec(&self) -> f64 {
        if !self.touched {
            return 0.0;
        }
        let live_slots = ((self.head_slot - self.base_slot) + 1) as f64;
        let span_ms = live_slots * self.slot_ms;
        self.live_total() as f64 * 1000.0 / span_ms
    }

    /// The live slots oldest-to-newest (for sparklines).
    fn slot_values(&self) -> Vec<u64> {
        let n = self.ring.len() as u64;
        let live = (self.head_slot - self.base_slot) + 1;
        (0..live.min(n))
            .map(|i| {
                let slot = self.base_slot + i;
                self.ring[(slot % n) as usize]
            })
            .collect()
    }

    /// A Unicode sparkline of the live slots, oldest on the left. Empty
    /// window renders as all-blank ticks. Deterministic: same stream →
    /// same string.
    pub fn sparkline(&self) -> String {
        const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let vals = self.slot_values();
        let max = vals.iter().copied().max().unwrap_or(0);
        let mut out = String::with_capacity(self.ring.len() * 3);
        // left-pad so the sparkline has constant width from the start
        for _ in vals.len()..self.ring.len() {
            out.push(' ');
        }
        for v in vals {
            if max == 0 {
                out.push(TICKS[0]);
            } else {
                // top bucket only for the max itself; scale the rest
                let i = ((v as f64 / max as f64) * (TICKS.len() - 1) as f64).round() as usize;
                out.push(TICKS[i.min(TICKS.len() - 1)]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ms(), 0.0);
        assert_eq!(h.p99_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_us(0), 0);
        assert_eq!(bucket_upper_us(1), 1);
        assert_eq!(bucket_upper_us(2), 3);
        assert_eq!(bucket_upper_us(10), 1023);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        use axml_prng::SplitMix64;
        let mut rng = SplitMix64::new(0x1157);
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<f64> = Vec::new();
        for _ in 0..10_000 {
            // latencies spanning 0.001 ms .. ~16 s
            let ms = (rng.next_f64() * 14.0).exp2() / 1000.0;
            samples.push(ms);
            h.record_ms(ms);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let est = h.quantile_ms(q);
            assert!(
                est >= exact * 0.999,
                "q={q}: estimate {est} below exact {exact}"
            );
            assert!(
                est <= exact * 2.0 + 0.001,
                "q={q}: estimate {est} above 2x exact {exact}"
            );
        }
        assert!(h.quantile_ms(1.0) == h.max_ms(), "p100 is the exact max");
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record_ms(7.5);
        // one sample: every quantile clips to the exact max
        assert_eq!(h.p50_ms(), 7.5);
        assert_eq!(h.p99_ms(), 7.5);
        assert_eq!(h.max_ms(), 7.5);
    }

    #[test]
    fn pathological_samples_clamp() {
        let mut h = LatencyHistogram::new();
        h.record_ms(f64::NAN);
        h.record_ms(-3.0);
        h.record_ms(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.p99_ms(), 0.0, "clamped to zero, not garbage");
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..100 {
            let ms = (i * 7 % 41) as f64;
            if i % 2 == 0 {
                a.record_ms(ms);
            } else {
                b.record_ms(ms);
            }
            both.record_ms(ms);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
    }

    #[test]
    fn a_saturated_window_conserves() {
        let mut w = RateWindow::new(10.0, 2);
        for at_ms in [0.0, 5.0, 25.0, 1e6] {
            w.record(at_ms, u64::MAX);
        }
        assert_eq!(w.total(), u64::MAX);
        assert!(w.conserves());
    }

    #[test]
    fn window_conservation_under_rotation() {
        let mut w = RateWindow::new(10.0, 4);
        let mut expect_total = 0u64;
        for i in 0..200u64 {
            let at = i as f64 * 7.3; // crosses many slot boundaries
            w.record(at, i);
            expect_total += i;
            assert!(w.conserves(), "at record {i}");
        }
        assert_eq!(w.total(), expect_total);
        assert!(w.live_total() < expect_total, "old slots were evicted");
    }

    #[test]
    fn window_rate_is_per_virtual_second() {
        let mut w = RateWindow::new(100.0, 10);
        // 500 bytes per 100 ms slot for 10 slots = 5000 bytes/s
        for slot in 0..10u64 {
            w.record(slot as f64 * 100.0, 500);
        }
        let r = w.rate_per_sec();
        assert!((r - 5000.0).abs() < 1e-6, "rate {r}");
    }

    #[test]
    fn window_tolerates_out_of_order_stamps() {
        let mut w = RateWindow::new(10.0, 4);
        w.record(100.0, 5);
        w.record(3.0, 7); // earlier stamp: folds into the current slot
        assert_eq!(w.total(), 12);
        assert!(w.conserves());
        assert_eq!(w.live_total(), 12, "nothing evicted by a stale stamp");
    }

    #[test]
    fn sparkline_is_deterministic_and_fixed_width() {
        let mut w = RateWindow::new(10.0, 8);
        assert_eq!(w.sparkline().chars().count(), 8);
        for i in 0..30u64 {
            w.record(i as f64 * 10.0, i % 5);
        }
        let s1 = w.sparkline();
        let s2 = w.sparkline();
        assert_eq!(s1, s2);
        assert_eq!(s1.chars().count(), 8);
        // a fresh window fed the same stream renders identically
        let mut w2 = RateWindow::new(10.0, 8);
        for i in 0..30u64 {
            w2.record(i as f64 * 10.0, i % 5);
        }
        assert_eq!(w2.sparkline(), s1);
    }

    #[test]
    fn huge_time_jump_evicts_everything() {
        let mut w = RateWindow::new(10.0, 4);
        w.record(0.0, 100);
        w.record(1e12, 1);
        assert!(w.conserves());
        assert_eq!(w.evicted, 100);
        assert_eq!(w.live_total(), 1);
    }
}
