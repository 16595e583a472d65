//! Property tests for the simulator: conservation of bytes, monotone
//! clock, deterministic delivery, and per-link FIFO.

use axml_net::link::LinkCost;
use axml_net::sim::SimTransport;
use axml_xml::ids::PeerId;
use proptest::prelude::*;

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
}
