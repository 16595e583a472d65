//! The out-of-process trace pipeline, end to end: a real workload
//! streamed through the file sink, decoded back with [`TraceReader`],
//! and compared event-for-event against the in-memory [`VecSink`] —
//! the same writer over a socket, decoded live by a [`FollowReader`] —
//! plus the flush-at-quiescence and in-flight-window guarantees the
//! timeline renderer builds on.

use axml::obs::{ReadError, TraceEvent, TraceReader};
use axml::prelude::*;
use axml::xml::tree::Tree;
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn catalog(n: usize) -> Tree {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        xml.push_str(&format!(
            r#"<pkg name="pkg-{i}"><size>{}</size></pkg>"#,
            (i * 37) % 10_000
        ));
    }
    xml.push_str("</catalog>");
    Tree::parse(&xml).unwrap()
}

/// A 1-hub fan-out: the gateway queries three mirror peers, so several
/// transfers are in flight at once.
fn fanout() -> (AxmlSystem, PeerId, Vec<PeerId>) {
    let mut b = AxmlSystem::builder().peers(["hub", "m0", "m1", "m2"]);
    for m in ["m0", "m1", "m2"] {
        b = b.link("hub", m, LinkCost::wan());
    }
    let sys = b
        .doc("m0", "t0", catalog(30))
        .doc("m1", "t1", catalog(40))
        .doc("m2", "t2", catalog(50))
        .build()
        .unwrap();
    let hub = sys.peer_id("hub").unwrap();
    let mirrors = ["m0", "m1", "m2"]
        .iter()
        .map(|m| sys.peer_id(m).unwrap())
        .collect();
    (sys, hub, mirrors)
}

fn fanout_expr(hub: PeerId, mirrors: &[PeerId]) -> Expr {
    let q = Query::parse(
        "q",
        "for $a in $0//pkg for $b in $1//pkg for $c in $2//pkg \
         where $a/@name = $b/@name where $b/@name = $c/@name \
         return {$a}",
    )
    .unwrap();
    Expr::Apply {
        query: LocatedQuery::new(q, hub),
        args: mirrors
            .iter()
            .enumerate()
            .map(|(i, &m)| Expr::Doc {
                name: format!("t{i}").into(),
                at: PeerRef::At(m),
            })
            .collect(),
    }
}

/// Run the fan-out workload with `sink` installed; return result size.
fn run_traced(sink: Box<dyn TraceSink>) -> usize {
    let (mut sys, hub, mirrors) = fanout();
    sys.set_trace_sink(sink);
    let out = sys.eval(hub, &fanout_expr(hub, &mirrors)).unwrap();
    sys.clear_trace_sink().unwrap();
    out.len()
}

#[test]
fn file_sinks_agree_with_vec_sink() {
    // Reference stream.
    let vec_sink = VecSink::new();
    let n_ref = run_traced(Box::new(vec_sink.clone()));
    let reference = vec_sink.take();
    assert!(!reference.is_empty());

    // Same deterministic workload through the file format.
    let buf = SharedBuf::new();
    let n = run_traced(Box::new(BinSink::new(buf.clone())));
    assert_eq!(n, n_ref, "same workload, same results");
    let bytes = buf.bytes();
    let decoded: Vec<TraceEvent> = TraceReader::new(&bytes[..])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(decoded, reference, "decoded stream == in-memory stream");
}

#[test]
fn quiescence_flushes_without_explicit_flush() {
    let (mut sys, hub, mirrors) = fanout();
    let buf = SharedBuf::new();
    sys.set_trace_sink(Box::new(BinSink::new(buf.clone())));
    sys.eval(hub, &fanout_expr(hub, &mirrors)).unwrap();
    // No clear_trace_sink, no flush_trace: the engine flushed at
    // session quiescence, so the file already decodes completely.
    let decoded: Vec<TraceEvent> = TraceReader::new(&buf.bytes()[..])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let sent = decoded
        .iter()
        .filter(|e| matches!(e, TraceEvent::MessageSent { .. }))
        .count();
    assert!(sent >= 6, "fan-out makes at least 6 transfers, saw {sent}");
}

#[test]
fn in_flight_windows_overlap_on_fanout() {
    let vec_sink = VecSink::new();
    run_traced(Box::new(vec_sink.clone()));
    let events = vec_sink.take();
    let windows: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MessageSent { sent_ms, at_ms, .. } => Some((*sent_ms, *at_ms)),
            _ => None,
        })
        .collect();
    assert!(windows.len() >= 6);
    for (sent, arrive) in &windows {
        assert!(
            sent < arrive,
            "a WAN transfer takes time: sent {sent} arrive {arrive}"
        );
    }
    // The three fetch requests leave the hub at the same instant and
    // are all in flight together: concurrency is visible in the trace.
    let max_overlap = windows
        .iter()
        .map(|&(s, _)| {
            windows
                .iter()
                .filter(|&&(s2, a2)| s2 <= s && s < a2)
                .count()
        })
        .max()
        .unwrap();
    assert!(
        max_overlap >= 3,
        "fan-out transfers must overlap, max concurrency {max_overlap}"
    );
}

#[test]
fn truncated_trace_of_real_run_decodes_prefix() {
    let buf = SharedBuf::new();
    run_traced(Box::new(BinSink::new(buf.clone())));
    let bytes = buf.bytes();
    let n_full = TraceReader::new(&bytes[..]).unwrap().count();
    // Kill the "writer" mid-record.
    let cut = bytes.len() - 7;
    let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
    let n_ok = items.iter().filter(|i| i.is_ok()).count();
    assert!(n_ok >= n_full - 2, "lost at most the cut record");
    assert!(matches!(
        items.last(),
        Some(Err(ReadError::Truncated { .. }))
    ));
}

#[test]
fn live_trace_over_tcp_decodes_and_reconciles() {
    // The consumer: one accepted connection followed to EOF, the way
    // `axml-top --listen` follows it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let consumer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut reader = FollowReader::new(stream);
        let mut events = Vec::new();
        loop {
            match reader.poll().expect("no fatal error on a live stream") {
                FollowStep::Event(e) => events.push(e),
                FollowStep::Malformed { record, detail } => panic!("record {record}: {detail}"),
                FollowStep::Pending if reader.hit_eof() => break,
                FollowStep::Pending => assert!(Instant::now() < deadline, "live stream hung"),
            }
        }
        (events, reader.finish())
    });

    // The producer: an optimized evaluation and a subscription feed,
    // teed into memory and onto the socket.
    let vec_sink = VecSink::new();
    let (metrics, stats) = {
        let mut sys = AxmlSystem::builder()
            .peers(["client", "server"])
            .link("client", "server", LinkCost::wan())
            .doc("server", "catalog", catalog(200))
            .doc("server", "wire", "<wire/>")
            .service(
                "server",
                "big",
                r#"for $p in doc("wire")/pkg where $p/size/text() > 5000 return {$p}"#,
            )
            .build()
            .unwrap();
        let client = sys.peer_id("client").unwrap();
        let server = sys.peer_id("server").unwrap();
        sys.set_trace_sink(Box::new(
            FanoutSink::new()
                .with(vec_sink.clone())
                .with(BinSink::connect(addr).unwrap()),
        ));
        let q = Query::parse(
            "find-big",
            r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        )
        .unwrap();
        let naive = Expr::Apply {
            query: LocatedQuery::new(q, client),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(server),
            }],
        };
        let model = CostModel::from_system(&sys);
        let plan = Optimizer::standard().optimize_with(&model, client, &naive, sys.obs_mut());
        assert!(!sys.eval(client, &plan.expr).unwrap().is_empty());
        let watch = Tree::parse("<watch><sc><peer>p1</peer><service>big</service></sc></watch>");
        sys.install_doc(client, "watch", watch.unwrap()).unwrap();
        sys.activate_document(client, &"watch".into()).unwrap();
        for size in [9000, 10, 7000] {
            let item = format!(r#"<pkg name="n{size}"><size>{size}</size></pkg>"#);
            sys.feed(server, "wire", Tree::parse(&item).unwrap())
                .unwrap();
        }
        (sys.metrics().clone(), sys.stats().clone())
    }; // dropping the system flushes the sink and closes the socket

    let (events, tail) = consumer.join().unwrap();
    tail.expect("the stream ends on a record boundary");
    let reference = vec_sink.take();
    assert!(reference
        .iter()
        .any(|e| matches!(e, TraceEvent::RuleAttempted { accepted: true, .. })));
    assert!(reference
        .iter()
        .any(|e| matches!(e, TraceEvent::SubscriptionDelta { .. })));
    assert_eq!(events, reference, "live stream == in-memory stream");
    let mut live = LiveStats::new();
    for e in &events {
        live.fold(e);
    }
    if let Err(why) = live.reconcile(&metrics, &stats) {
        panic!("the live stream diverged from the run's books: {why}");
    }
}
