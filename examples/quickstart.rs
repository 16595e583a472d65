//! Quickstart: two peers, one catalog, one query — naive vs. optimized,
//! with the observability layer turned on.
//!
//! Run with: `cargo run --example quickstart`
//!
//! A client peer queries a package catalog hosted on a server across a
//! WAN link. The naive strategy (definition (7) of the paper) ships the
//! whole catalog to the client; the optimizer applies the equivalence
//! rules of §3.3 (query delegation / pushed selections) and ships only
//! the selected subset.
//!
//! Everything the engine does is recorded twice over: a [`VecSink`]
//! receives structured [`TraceEvent`]s (definitions fired, rules tried,
//! messages sent), and the system's [`EvalMetrics`] aggregate them into a
//! [`RunReport`] that reconciles exactly with the network statistics —
//! printed at the end as both text and JSON.
//!
//! Set `AXML_TRACE_OUT=run.trc` to additionally stream the whole trace
//! to a binary file (via a [`FanoutSink`] tee) and replay it with
//! `cargo run -p axml-bench --bin axml-trace -- run.trc`.
//!
//! Set `AXML_TRACE_TCP=127.0.0.1:PORT` to *also* stream the trace live
//! over TCP, through the same binary writer connected to a socket
//! ([`BinSink::connect`]) — start
//! `cargo run -p axml-bench --bin axml-top -- --listen 127.0.0.1:PORT`
//! first and watch the run as it happens. If either binary sink fails —
//! the disk fills, the consumer leaves — the run exits with status 1
//! when it detaches the tee at the end.

use axml::prelude::*;
use axml::xml::tree::Tree;

fn main() {
    // A catalog with 500 packages, of which only a handful are large.
    let mut xml = String::from("<catalog>");
    for i in 0..500 {
        let size = if i % 100 == 0 { 50_000 + i } else { i % 1000 };
        xml.push_str(&format!(
            r#"<pkg name="package-{i}"><size>{size}</size><summary>example package number {i}</summary></pkg>"#
        ));
    }
    xml.push_str("</catalog>");
    let catalog = Tree::parse(&xml).expect("well-formed catalog");
    println!(
        "catalog: 500 packages, {} bytes serialized",
        catalog.serialized_size()
    );

    // ---- build the system --------------------------------------------
    // Tracing on from the start: keep one sink handle, give the builder
    // its clone. With AXML_TRACE_OUT set, tee the same stream into a
    // binary trace file for offline replay with `axml-trace`; with
    // AXML_TRACE_TCP set, into a socket `axml-top --listen` reads live.
    let sink = VecSink::new();
    let trace_out = std::env::var("AXML_TRACE_OUT").ok();
    let trace_tcp = std::env::var("AXML_TRACE_TCP").ok();
    let teed = trace_out.is_some() || trace_tcp.is_some();
    let tee: Box<dyn TraceSink> = if teed {
        let mut fan = FanoutSink::new().with(sink.clone());
        if let Some(path) = &trace_out {
            fan = fan.with(BinSink::create(path).expect("create trace file"));
        }
        if let Some(addr) = &trace_tcp {
            let addr = addr.parse().expect("AXML_TRACE_TCP is host:port");
            fan = fan.with(BinSink::connect(addr).expect("trace consumer listening"));
        }
        Box::new(fan)
    } else {
        Box::new(sink.clone())
    };
    let mut sys = AxmlSystem::builder()
        .peers(["client", "server"])
        .link("client", "server", LinkCost::wan())
        .doc("server", "catalog", catalog)
        .trace(tee)
        .build()
        .unwrap();
    let client = sys.peer_id("client").unwrap();
    let server = sys.peer_id("server").unwrap();

    // ---- the query -----------------------------------------------------
    let q = Query::parse(
        "find-big",
        r#"for $p in $0//pkg where $p/size/text() > 10000
           return <big name="{$p/@name}">{$p/size}</big>"#,
    )
    .unwrap();
    println!("query: {}", q.plan());

    // ---- naive evaluation ----------------------------------------------
    let naive = Expr::Apply {
        query: LocatedQuery::new(q, client),
        args: vec![Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(server),
        }],
    };
    let results = sys.eval(client, &naive).unwrap();
    println!("\n== naive strategy (ship the catalog, filter locally) ==");
    println!("results: {} packages", results.len());
    println!("traffic: {}", sys.stats());
    println!("trace:");
    let events = sink.take();
    let mut traced = events.len();
    for e in events {
        println!("  {e}");
    }

    // ---- optimized evaluation -------------------------------------------
    let naive_bytes = sys.stats().total_bytes();
    sys.reset_stats(); // resets net stats AND metrics together
    let model = CostModel::from_system(&sys);
    let plan = Optimizer::standard().optimize_with(&model, client, &naive, sys.obs_mut());
    println!("\n== optimizer ==");
    println!("{plan}");
    let results2 = sys.eval(client, &plan.expr).unwrap();
    println!("\n== optimized strategy ==");
    println!("results: {} packages", results2.len());
    println!("traffic: {}", sys.stats());
    // The beam search attempts ~100 candidates; the structured events make
    // it trivial to filter — show only the accepted rewrites and execution.
    println!("trace (accepted rewrites + execution):");
    let events = sink.take();
    traced += events.len();
    for e in events {
        if matches!(
            e,
            TraceEvent::RuleAttempted {
                accepted: false,
                ..
            }
        ) {
            continue;
        }
        println!("  {e}");
    }

    assert!(forest_equiv(&results, &results2), "same answers");
    let opt_bytes = sys.stats().total_bytes();
    println!(
        "\nbytes shipped: naive {naive_bytes} → optimized {opt_bytes} ({:.1}x less)",
        naive_bytes as f64 / opt_bytes as f64
    );

    // ---- the run report ---------------------------------------------------
    // Metrics cover everything since reset_stats: the optimizer search and
    // the optimized plan's execution. They must reconcile exactly with the
    // network layer's own accounting.
    let report = sys.run_report("quickstart: optimized plan");
    println!("\n{report}");
    println!("as JSON:\n{}", report.to_json());
    assert!(report.reconciled, "metrics reconcile with NetStats exactly");

    // ---- the tee -----------------------------------------------------------
    // Detaching flushes the tee. A binary sink that failed — a full disk,
    // a trace consumer that left — reports it here, and fails the run.
    if teed {
        if let Err(e) = sys.clear_trace_sink() {
            eprintln!("trace sink failed: {e}");
            std::process::exit(1);
        }
    }
    // The tee'd binary file holds the same stream the VecSink saw:
    // decoding it back gives event parity.
    if let Some(path) = trace_out {
        traced += sink.len();
        let mut n_file = 0usize;
        for record in TraceReader::open(&path).expect("trace file readable") {
            record.expect("every record decodes");
            n_file += 1;
        }
        assert_eq!(n_file, traced, "file trace has every in-memory event");
        println!("\ntrace file {path}: {n_file} events");
        println!("replay: cargo run -p axml-bench --bin axml-trace -- {path}");
    }
}
