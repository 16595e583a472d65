//! Property tests for the network model: conservation of bytes,
//! monotone clock, deterministic delivery, per-link FIFO, and what an
//! attached wire is shown.

use axml_net::link::LinkCost;
use axml_net::sim::{FaultPlan, SimTransport};
use axml_net::transport::Transport;
use axml_net::{NetError, NetResult};
use axml_xml::ids::PeerId;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// What a [`Recorder`] was shown, in order.
#[derive(Default)]
struct Shown {
    peers: Vec<(PeerId, String)>,
    msgs: Vec<(PeerId, PeerId, String)>,
}

/// A wire that records what it is shown and refuses messages that
/// start with `!`.
struct Recorder(Arc<Mutex<Shown>>);

impl Transport<String> for Recorder {
    fn label(&self) -> &'static str {
        "recorder"
    }

    fn connect(&mut self, peer: PeerId, name: &str) {
        self.0.lock().unwrap().peers.push((peer, name.to_string()));
    }

    fn ship(&mut self, from: PeerId, to: PeerId, msg: &String) -> NetResult<()> {
        self.0.lock().unwrap().msgs.push((from, to, msg.clone()));
        if msg.starts_with('!') {
            return Err(NetError::Wire {
                peer: to,
                detail: "refused".into(),
            });
        }
        Ok(())
    }
}

fn arb_link() -> impl Strategy<Value = LinkCost> {
    (0.0f64..100.0, 1.0f64..10_000.0, 0usize..512).prop_map(
        |(latency_ms, bytes_per_ms, per_msg_bytes)| LinkCost {
            latency_ms,
            bytes_per_ms,
            per_msg_bytes,
        },
    )
}

proptest! {
    /// Every sent message is delivered exactly once, bytes charged equal
    /// payload + overhead, and deliveries are time-ordered.
    #[test]
    fn conservation_and_ordering(
        link in arb_link(),
        msgs in proptest::collection::vec(("[a-z]{0,64}", 0u8..3, 0u8..3), 1..40),
    ) {
        let mut net: SimTransport<String> = SimTransport::new();
        let peers: Vec<PeerId> = (0..3).map(|i| net.add_peer(format!("p{i}"))).collect();
        for a in 0..3 {
            for b in (a + 1)..3 {
                net.set_link(peers[a], peers[b], link);
            }
        }
        let mut sent_payload = 0u64;
        let mut cross_peer = 0u64;
        for (body, from, to) in &msgs {
            let from = peers[*from as usize];
            let to = peers[*to as usize];
            if from != to {
                sent_payload += body.len() as u64 + link.per_msg_bytes as u64;
                cross_peer += 1;
            }
            net.send(from, to, body.clone());
        }
        prop_assert_eq!(net.stats().total_bytes(), sent_payload);
        prop_assert_eq!(net.stats().total_messages(), cross_peer);
        let mut delivered = 0;
        let mut last_t = -1.0f64;
        while let Some((_, _, t)) = net.recv() {
            prop_assert!(t >= last_t, "deliveries must be time-ordered");
            last_t = t;
            delivered += 1;
        }
        prop_assert_eq!(delivered, msgs.len());
        prop_assert!(net.now_ms() >= last_t.max(0.0));
        prop_assert!((net.stats().makespan_ms() - net.now_ms()).abs() < 1e-6
            || net.stats().makespan_ms() <= net.now_ms());
    }

    /// Two messages on the same link preserve send order (FIFO), whatever
    /// the link parameters.
    #[test]
    fn per_link_fifo(link in arb_link(), n in 1usize..20) {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, link);
        for i in 0..n {
            net.send(a, b, format!("m{i}"));
        }
        for i in 0..n {
            let (_, msg, _) = net.recv().unwrap();
            prop_assert_eq!(msg, format!("m{i}"));
        }
    }

    /// Runs are deterministic: same sends → same delivery transcript.
    #[test]
    fn determinism(
        link in arb_link(),
        msgs in proptest::collection::vec(("[a-z]{0,16}", 0u8..4, 0u8..4), 0..30),
    ) {
        let run = || {
            let mut net: SimTransport<String> = SimTransport::new();
            let peers: Vec<PeerId> = (0..4).map(|i| net.add_peer(format!("p{i}"))).collect();
            for x in 0..4 {
                for y in (x + 1)..4 {
                    net.set_link(peers[x], peers[y], link);
                }
            }
            for (body, from, to) in &msgs {
                net.send(peers[*from as usize], peers[*to as usize], body.clone());
            }
            let mut transcript = Vec::new();
            while let Some((to, msg, t)) = net.recv() {
                transcript.push((to, msg, (t * 1e6) as u64));
            }
            transcript
        };
        prop_assert_eq!(run(), run());
    }

    /// Under drops, outages and crashes the wire is shown exactly the
    /// cross-peer messages the fault gate accepted, in send order, each
    /// before its delivery is queued; a wire refusal hands the message
    /// back and charges nothing.
    #[test]
    fn the_wire_sees_accepted_cross_peer_traffic_only(
        seed in 0u64..1_000,
        msgs in proptest::collection::vec(("!?[a-z]{0,12}", 0u8..3, 0u8..3, 0.0f64..4.0), 1..60),
    ) {
        let shown = Arc::new(Mutex::new(Shown::default()));
        let mut net: SimTransport<String> =
            SimTransport::over(Box::new(Recorder(Arc::clone(&shown))));
        prop_assert_eq!(net.backend(), "recorder");
        let peers: Vec<PeerId> = (0..3).map(|i| net.add_peer(format!("p{i}"))).collect();
        prop_assert_eq!(
            &shown.lock().unwrap().peers,
            &peers.iter().map(|p| (*p, p.to_string())).collect::<Vec<_>>()
        );
        net.set_fault_plan(
            FaultPlan::new(seed)
                .drop_prob(0.3)
                .outage(peers[0], peers[1], 10.0, 30.0)
                .crash(peers[2], 20.0, 10.0, 40.0),
        );
        let ledger = |net: &SimTransport<String>| {
            let s = net.stats();
            (
                (s.total_messages(), s.total_bytes(), s.total_dropped()),
                (s.makespan_ms().to_bits(), net.now_ms().to_bits()),
                net.pending_len(),
            )
        };
        let mut accepted = Vec::new();
        for (body, from, to, wait_ms) in &msgs {
            let (from, to) = (peers[*from as usize], peers[*to as usize]);
            net.advance(*wait_ms);
            let before = ledger(&net);
            match net.send_attempt(from, to, body.clone()) {
                Ok(_) => {
                    prop_assert_eq!(net.pending_len(), before.2 + 1);
                    if from != to {
                        prop_assert!(!body.starts_with('!'), "a refused message was queued");
                        accepted.push((from, to, body.clone()));
                    }
                }
                Err((NetError::Wire { peer, .. }, back)) => {
                    // Shown, then refused: so the wire came before the queue.
                    accepted.push((from, to, body.clone()));
                    prop_assert_eq!((peer, &back), (to, body));
                    prop_assert_eq!(ledger(&net), before, "a wire refusal charges nothing");
                }
                Err((e, back)) => {
                    prop_assert!(
                        matches!(e, NetError::Dropped(..) | NetError::LinkDown(..) | NetError::PeerDown(_)),
                        "{e}"
                    );
                    prop_assert_eq!(&back, body);
                    prop_assert_eq!(net.pending_len(), before.2);
                }
            }
            // Nothing the gate refused, and nothing local, reached the wire.
            prop_assert_eq!(&shown.lock().unwrap().msgs, &accepted);
        }
    }
}
