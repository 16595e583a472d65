#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-net — the peer network: one model, an optional wire
//!
//! The paper assumes *"a finite set of peers"*, each a context of
//! computation hosting documents and services (§2), exchanging service
//! calls, responses, data trees and shipped queries. Its §3 optimizations
//! trade **messages × bytes × link costs** against each other; to measure
//! them reproducibly there is one network, and underneath it whatever
//! moves the bytes:
//!
//! * [`sim::SimTransport`] — the **deterministic model** the engine
//!   holds: peers, a virtual clock, and an event queue delivering
//!   messages in timestamp order (deterministic tie-breaking);
//! * [`transport::Transport`] — the **wire** that may be attached under
//!   it ([`sim::SimTransport::over`]): it is shown each new peer and
//!   each accepted cross-peer message, and nothing else;
//! * [`socket::SocketTransport`] — the one real wire: every accepted
//!   message is additionally shipped as AXTR frames ([`frame`]) over
//!   kernel TCP to a per-peer endpoint process and digest-acknowledged,
//!   while the model keeps governing time, faults and statistics so sim
//!   and socket runs stay bit-identical (see `TRANSPORT.md`).
//!
//! Around the model:
//!
//! * [`link::LinkCost`] — per-link latency, bandwidth and per-message
//!   overhead; [`link::Topology`] builders for uniform, star and
//!   clustered-WAN shapes;
//! * [`stats::NetStats`] — per-link and global bytes/message counters and
//!   the simulated makespan: exactly the quantities every experiment in
//!   `EXPERIMENTS.md` reports;
//! * [`sim::FaultPlan`] — seeded drops, jitter, outages and crashes.
//!
//! The model is generic over the message type (anything implementing
//! [`Payload`]; the socket wire also wants
//! [`transport::FramedPayload`] to put bytes on the wire), so this crate
//! stays independent of the AXML semantics — `axml-core` instantiates it
//! with its own message enum.
//!
//! ```
//! use axml_net::sim::SimTransport;
//! use axml_net::link::LinkCost;
//! use axml_net::Payload;
//!
//! struct Msg(&'static str);
//! impl Payload for Msg {
//!     fn wire_size(&self) -> usize { self.0.len() }
//! }
//!
//! let mut net: SimTransport<Msg> = SimTransport::new();
//! let a = net.add_peer("a");
//! let b = net.add_peer("b");
//! net.set_link(a, b, LinkCost::wan());
//! net.send(a, b, Msg("hello"));
//! let (to, msg, at) = net.recv().unwrap();
//! assert_eq!(to, b);
//! assert_eq!(msg.0, "hello");
//! assert!(at > 0.0);
//! assert_eq!(net.stats().total_bytes(), 5 + LinkCost::wan().per_msg_bytes as u64);
//! ```

pub mod bytes;
pub mod error;
pub mod frame;
pub mod link;
pub mod sim;
pub mod socket;
pub mod stats;
pub mod transport;
pub mod wheel;

pub use error::{NetError, NetResult};
pub use link::{LinkCost, Topology};
pub use sim::{CrashSchedule, FaultPlan, LinkTable, Outage, SimTransport};
pub use socket::SocketTransport;
pub use stats::{LinkStats, NetStats, PeerTraffic};
pub use transport::{FramedPayload, Transport};
pub use wheel::{SchedStats, Scheduler};

/// Anything that can cross a link: reports its own wire size in bytes.
pub trait Payload {
    /// Serialized size in bytes (headers excluded; links add their own
    /// per-message overhead).
    fn wire_size(&self) -> usize;
}

impl Payload for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Payload for &str {
    fn wire_size(&self) -> usize {
        self.len()
    }
}
