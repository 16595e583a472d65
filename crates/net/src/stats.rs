//! Transfer statistics: the measured quantities of every experiment.

use axml_xml::ids::PeerId;
use std::collections::BTreeMap;
use std::fmt;

/// Counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages sent over the link.
    pub messages: u64,
    /// Bytes charged (payload + per-message overhead).
    pub bytes: u64,
}

/// Send/receive totals for one peer, derived from the per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Messages this peer sent over the network.
    pub sent_messages: u64,
    /// Charged bytes this peer sent.
    pub sent_bytes: u64,
    /// Messages this peer received.
    pub recv_messages: u64,
    /// Charged bytes this peer received.
    pub recv_bytes: u64,
}

/// Aggregated statistics of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    per_link: BTreeMap<(PeerId, PeerId), LinkStats>,
    /// Messages lost to injected faults, per directed link. Kept apart
    /// from [`LinkStats`] so delivered-traffic counters still reconcile
    /// one-to-one with the engine's metrics.
    dropped: BTreeMap<(PeerId, PeerId), u64>,
    makespan_ms: f64,
    weighted_cost_ms: f64,
}

impl NetStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `charged` bytes taking `transfer_ms` on the
    /// link `from → to`, arriving at absolute time `arrival_ms`.
    pub fn record(
        &mut self,
        from: PeerId,
        to: PeerId,
        charged: usize,
        transfer_ms: f64,
        arrival_ms: f64,
    ) {
        // Local deliveries are free and not counted as network traffic.
        if from != to {
            let e = self.per_link.entry((from, to)).or_default();
            e.messages += 1;
            e.bytes += charged as u64;
            self.weighted_cost_ms += transfer_ms;
        }
        if arrival_ms > self.makespan_ms {
            self.makespan_ms = arrival_ms;
        }
    }

    /// Record one message lost to fault injection on `from → to`.
    /// Dropped messages never occupy the link and are charged no bytes;
    /// they count only here.
    pub fn record_drop(&mut self, from: PeerId, to: PeerId) {
        if from != to {
            *self.dropped.entry((from, to)).or_default() += 1;
        }
    }

    /// Total messages lost to fault injection.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Iterate per-link drop counters in deterministic order.
    pub fn dropped_links(&self) -> impl Iterator<Item = (PeerId, PeerId, u64)> + '_ {
        self.dropped.iter().map(|(&(a, b), &n)| (a, b, n))
    }

    /// Counters of one directed link.
    pub fn link(&self, from: PeerId, to: PeerId) -> LinkStats {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total messages over all links.
    pub fn total_messages(&self) -> u64 {
        self.per_link.values().map(|s| s.messages).sum()
    }

    /// Total charged bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        self.per_link.values().map(|s| s.bytes).sum()
    }

    /// Sum of all individual transfer times (a bandwidth-cost proxy that
    /// ignores overlap).
    pub fn weighted_cost_ms(&self) -> f64 {
        self.weighted_cost_ms
    }

    /// Latest arrival time seen — the simulated completion time.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Iterate per-link counters in deterministic order.
    pub fn links(&self) -> impl Iterator<Item = (PeerId, PeerId, LinkStats)> + '_ {
        self.per_link.iter().map(|(&(a, b), &s)| (a, b, s))
    }

    /// Aggregate the per-link counters into a per-peer send/receive
    /// breakdown, in peer-id order. Peers with no traffic are absent.
    pub fn per_peer(&self) -> Vec<(PeerId, PeerTraffic)> {
        let mut acc: BTreeMap<PeerId, PeerTraffic> = BTreeMap::new();
        for (&(from, to), s) in &self.per_link {
            let f = acc.entry(from).or_default();
            f.sent_messages += s.messages;
            f.sent_bytes += s.bytes;
            let t = acc.entry(to).or_default();
            t.recv_messages += s.messages;
            t.recv_bytes += s.bytes;
        }
        acc.into_iter().collect()
    }

    /// Reset all counters (e.g. between benchmark phases).
    pub fn reset(&mut self) {
        self.per_link.clear();
        self.dropped.clear();
        self.makespan_ms = 0.0;
        self.weighted_cost_ms = 0.0;
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} msgs, {} bytes, makespan {:.2} ms",
            self.total_messages(),
            self.total_bytes(),
            self.makespan_ms
        )?;
        for (a, b, s) in self.links() {
            writeln!(f, "  {a} → {b}: {} msgs, {} bytes", s.messages, s.bytes)?;
        }
        if self.total_dropped() > 0 {
            writeln!(
                f,
                "  dropped: {} msgs (injected faults)",
                self.total_dropped()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 100, 5.0, 5.0);
        s.record(PeerId(0), PeerId(1), 50, 2.0, 7.0);
        s.record(PeerId(1), PeerId(2), 10, 1.0, 8.0);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.link(PeerId(0), PeerId(1)).messages, 2);
        assert_eq!(s.link(PeerId(0), PeerId(1)).bytes, 150);
        assert_eq!(s.link(PeerId(2), PeerId(0)), LinkStats::default());
        assert!((s.makespan_ms() - 8.0).abs() < 1e-12);
        assert!((s.weighted_cost_ms() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn local_delivery_not_counted() {
        let mut s = NetStats::new();
        s.record(PeerId(3), PeerId(3), 1000, 0.0, 1.0);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert!((s.makespan_ms() - 1.0).abs() < 1e-12, "time still advances");
    }

    #[test]
    fn reset_zeroes() {
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 100, 5.0, 5.0);
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.makespan_ms(), 0.0);
        assert_eq!(s.weighted_cost_ms(), 0.0);
    }

    #[test]
    fn display_lists_links() {
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 100, 5.0, 5.0);
        let out = s.to_string();
        assert!(out.contains("p0 → p1"), "{out}");
        assert!(out.contains("1 msgs"), "{out}");
    }

    #[test]
    fn per_peer_aggregates_links() {
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 100, 5.0, 5.0);
        s.record(PeerId(0), PeerId(2), 10, 1.0, 6.0);
        s.record(PeerId(1), PeerId(0), 7, 0.5, 6.5);
        let pp = s.per_peer();
        assert_eq!(pp.len(), 3);
        let p0 = pp[0].1;
        assert_eq!(pp[0].0, PeerId(0));
        assert_eq!(p0.sent_messages, 2);
        assert_eq!(p0.sent_bytes, 110);
        assert_eq!(p0.recv_messages, 1);
        assert_eq!(p0.recv_bytes, 7);
        let p2 = pp[2].1;
        assert_eq!(
            p2,
            PeerTraffic {
                recv_messages: 1,
                recv_bytes: 10,
                ..Default::default()
            }
        );
    }

    #[test]
    fn drops_counted_apart_from_traffic() {
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 100, 5.0, 5.0);
        s.record_drop(PeerId(0), PeerId(1));
        s.record_drop(PeerId(1), PeerId(0));
        s.record_drop(PeerId(2), PeerId(2)); // local: ignored
        assert_eq!(s.total_dropped(), 2);
        assert_eq!(s.total_messages(), 1, "drops never count as traffic");
        let order: Vec<_> = s.dropped_links().map(|(a, b, n)| (a.0, b.0, n)).collect();
        assert_eq!(order, [(0, 1, 1), (1, 0, 1)]);
        assert!(s.to_string().contains("dropped: 2 msgs"));
        s.reset();
        assert_eq!(s.total_dropped(), 0);
    }

    #[test]
    fn links_iterates_deterministically() {
        let mut s = NetStats::new();
        s.record(PeerId(2), PeerId(0), 1, 0.1, 0.1);
        s.record(PeerId(0), PeerId(1), 1, 0.1, 0.1);
        let order: Vec<_> = s.links().map(|(a, b, _)| (a.0, b.0)).collect();
        assert_eq!(order, [(0, 1), (2, 0)]);
    }
}
