//! Link cost models and topology builders.
//!
//! Every ordered peer pair has a [`LinkCost`]: fixed latency, bandwidth and
//! per-message byte overhead. The transfer time of a message of `n` bytes
//! is `latency_ms + (n + per_msg_bytes) / bytes_per_ms`, and the *charged*
//! bytes are `n + per_msg_bytes` — so chatty strategies pay for their
//! message count, exactly the trade-off behind the paper's rules (12)/(13).

use crate::error::{NetError, NetResult};

/// Cost parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCost {
    /// Fixed one-way latency in milliseconds.
    pub latency_ms: f64,
    /// Bandwidth in bytes per millisecond.
    pub bytes_per_ms: f64,
    /// Framing/header overhead charged per message, in bytes.
    pub per_msg_bytes: usize,
}

impl LinkCost {
    /// Validate the parameters.
    pub fn checked(self) -> NetResult<Self> {
        // NaN-safe: NaN fails both conditions and is rejected.
        if !(self.latency_ms >= 0.0 && self.bytes_per_ms > 0.0) {
            return Err(NetError::BadConfig(format!(
                "latency must be ≥ 0 and bandwidth > 0, got {self:?}"
            )));
        }
        Ok(self)
    }

    /// Same-process "link": zero latency, effectively infinite bandwidth,
    /// no overhead. Local evaluation is free — the paper's cost model only
    /// charges communication.
    pub fn local() -> Self {
        LinkCost {
            latency_ms: 0.0,
            bytes_per_ms: f64::INFINITY,
            per_msg_bytes: 0,
        }
    }

    /// A LAN-class link: 0.2 ms latency, ~12.5 MB/s, 64 B overhead.
    pub fn lan() -> Self {
        LinkCost {
            latency_ms: 0.2,
            bytes_per_ms: 12_500.0,
            per_msg_bytes: 64,
        }
    }

    /// A WAN-class link: 40 ms latency, ~1.25 MB/s, 256 B overhead.
    pub fn wan() -> Self {
        LinkCost {
            latency_ms: 40.0,
            bytes_per_ms: 1_250.0,
            per_msg_bytes: 256,
        }
    }

    /// A slow, high-latency link (intercontinental / constrained edge):
    /// 150 ms latency, ~125 KB/s, 256 B overhead.
    pub fn slow() -> Self {
        LinkCost {
            latency_ms: 150.0,
            bytes_per_ms: 125.0,
            per_msg_bytes: 256,
        }
    }

    /// Transfer time in milliseconds of an `n`-byte message.
    pub fn transfer_ms(&self, n: usize) -> f64 {
        let total = (n + self.per_msg_bytes) as f64;
        if self.bytes_per_ms.is_infinite() {
            self.latency_ms
        } else {
            self.latency_ms + total / self.bytes_per_ms
        }
    }

    /// Bytes charged for an `n`-byte message.
    pub fn charged_bytes(&self, n: usize) -> usize {
        n + self.per_msg_bytes
    }

    /// [`LinkCost::charged_bytes`] as a `u64` counter increment, saturating
    /// instead of wrapping: engine statistics must never wrap on an
    /// adversarially huge payload. The sum is formed in `u128` so even
    /// `usize::MAX + per_msg_bytes` clamps cleanly.
    pub fn charged_bytes_u64(&self, n: usize) -> u64 {
        let total = n as u128 + self.per_msg_bytes as u128;
        u64::try_from(total).unwrap_or(u64::MAX)
    }
}

/// Convert an estimated payload size in (possibly non-finite) `f64` bytes
/// to a `usize` without the UB-adjacent surprises of a bare `as` cast:
/// NaN and negatives clamp to 0, values beyond `usize::MAX` saturate.
pub fn saturating_bytes_f64(x: f64) -> usize {
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= usize::MAX as f64 {
        usize::MAX
    } else {
        x as usize
    }
}

impl Default for LinkCost {
    fn default() -> Self {
        LinkCost::lan()
    }
}

/// Declarative topology descriptions, laid down by
/// [`SimTransport::with_topology`](crate::sim::SimTransport::with_topology)
/// or [`install_topology`](crate::sim::SimTransport::install_topology).
#[derive(Debug, Clone)]
pub enum Topology {
    /// Every pair of distinct peers connected with the same cost.
    Uniform {
        /// Number of peers.
        n: usize,
        /// Cost of every link.
        cost: LinkCost,
    },
    /// Peer 0 is the hub; spokes reach each other through double-cost
    /// links (modelled directly as a link of twice the spoke cost).
    Star {
        /// Number of peers (hub included).
        n: usize,
        /// Hub↔spoke cost.
        spoke: LinkCost,
    },
    /// Peers partitioned into clusters; cheap links inside a cluster,
    /// expensive ones across.
    Clustered {
        /// Cluster sizes (sum = peer count).
        clusters: Vec<usize>,
        /// Intra-cluster link cost.
        intra: LinkCost,
        /// Inter-cluster link cost.
        inter: LinkCost,
    },
}

impl Topology {
    /// Total number of peers described.
    pub fn peer_count(&self) -> usize {
        match self {
            Topology::Uniform { n, .. } | Topology::Star { n, .. } => *n,
            Topology::Clustered { clusters, .. } => clusters.iter().sum(),
        }
    }

    /// The cost of the directed link `a → b` (indices into the peer list).
    pub fn link(&self, a: usize, b: usize) -> LinkCost {
        if a == b {
            return LinkCost::local();
        }
        match self {
            Topology::Uniform { cost, .. } => *cost,
            Topology::Star { spoke, .. } => {
                if a == 0 || b == 0 {
                    *spoke
                } else {
                    // spoke → hub → spoke
                    LinkCost {
                        latency_ms: spoke.latency_ms * 2.0,
                        bytes_per_ms: spoke.bytes_per_ms,
                        per_msg_bytes: spoke.per_msg_bytes,
                    }
                }
            }
            Topology::Clustered {
                clusters,
                intra,
                inter,
            } => {
                let cluster_of = |mut i: usize| -> usize {
                    for (c, &size) in clusters.iter().enumerate() {
                        if i < size {
                            return c;
                        }
                        i -= size;
                    }
                    usize::MAX
                };
                if cluster_of(a) == cluster_of(b) {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_math() {
        let l = LinkCost {
            latency_ms: 10.0,
            bytes_per_ms: 100.0,
            per_msg_bytes: 50,
        };
        assert!((l.transfer_ms(150) - 12.0).abs() < 1e-9);
        assert_eq!(l.charged_bytes(150), 200);
    }

    #[test]
    fn local_is_free_and_instant() {
        let l = LinkCost::local();
        assert_eq!(l.transfer_ms(1_000_000), 0.0);
        assert_eq!(l.charged_bytes(10), 10);
    }

    #[test]
    fn presets_ordered_by_speed() {
        let n = 100_000;
        assert!(LinkCost::lan().transfer_ms(n) < LinkCost::wan().transfer_ms(n));
        assert!(LinkCost::wan().transfer_ms(n) < LinkCost::slow().transfer_ms(n));
    }

    #[test]
    fn charged_bytes_u64_saturates_instead_of_wrapping() {
        let link = LinkCost {
            per_msg_bytes: usize::MAX,
            ..LinkCost::lan()
        };
        // usize::MAX + usize::MAX overflows u64 on 64-bit targets; the
        // counter increment must clamp, not wrap or panic.
        assert_eq!(link.charged_bytes_u64(usize::MAX), u64::MAX);
        assert_eq!(LinkCost::wan().charged_bytes_u64(100), 356);
        assert_eq!(LinkCost::local().charged_bytes_u64(0), 0);
    }

    #[test]
    fn saturating_bytes_f64_handles_nan_and_extremes() {
        assert_eq!(saturating_bytes_f64(f64::NAN), 0);
        assert_eq!(saturating_bytes_f64(-5.3), 0);
        assert_eq!(saturating_bytes_f64(-0.0), 0);
        assert_eq!(saturating_bytes_f64(0.0), 0);
        assert_eq!(saturating_bytes_f64(42.9), 42);
        assert_eq!(saturating_bytes_f64(1e300), usize::MAX);
        assert_eq!(saturating_bytes_f64(f64::INFINITY), usize::MAX);
        assert_eq!(saturating_bytes_f64(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn checked_rejects_garbage() {
        assert!(LinkCost {
            latency_ms: -1.0,
            ..LinkCost::lan()
        }
        .checked()
        .is_err());
        assert!(LinkCost {
            bytes_per_ms: 0.0,
            ..LinkCost::lan()
        }
        .checked()
        .is_err());
        assert!(LinkCost::wan().checked().is_ok());
    }

    #[test]
    fn uniform_topology() {
        let t = Topology::Uniform {
            n: 4,
            cost: LinkCost::wan(),
        };
        assert_eq!(t.peer_count(), 4);
        assert_eq!(t.link(1, 2), LinkCost::wan());
        assert_eq!(t.link(2, 2), LinkCost::local());
    }

    #[test]
    fn star_topology_doubles_spoke_to_spoke() {
        let t = Topology::Star {
            n: 3,
            spoke: LinkCost::lan(),
        };
        assert_eq!(t.link(0, 1), LinkCost::lan());
        assert_eq!(t.link(1, 0), LinkCost::lan());
        let ss = t.link(1, 2);
        assert!((ss.latency_ms - 2.0 * LinkCost::lan().latency_ms).abs() < 1e-12);
    }

    #[test]
    fn clustered_topology() {
        let t = Topology::Clustered {
            clusters: vec![2, 3],
            intra: LinkCost::lan(),
            inter: LinkCost::wan(),
        };
        assert_eq!(t.peer_count(), 5);
        assert_eq!(t.link(0, 1), LinkCost::lan());
        assert_eq!(t.link(2, 4), LinkCost::lan());
        assert_eq!(t.link(1, 2), LinkCost::wan());
        assert_eq!(t.link(4, 0), LinkCost::wan());
    }
}
