//! Criterion micro-benchmarks of the substrates: XML parsing and
//! serialization, canonical equivalence, content-model matching, query
//! evaluation (batch and incremental), and optimizer search.

use axml_bench::workload::{catalog, selective_query};
use axml_query::eval::NoDocs;
use axml_types::content::{Content, Item};
use axml_xml::equiv::canonical_hash;
use axml_xml::tree::Tree;
use axml_xml::Label;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_xml(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml");
    for n in [100usize, 1000] {
        let tree = catalog(n, 0.1, 1);
        let text = tree.serialize();
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_with_input(BenchmarkId::new("parse", n), &text, |b, t| {
            b.iter(|| Tree::parse(black_box(t)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("serialize", n), &tree, |b, t| {
            b.iter(|| black_box(t).serialize())
        });
        g.bench_with_input(BenchmarkId::new("canonical_hash", n), &tree, |b, t| {
            b.iter(|| canonical_hash(black_box(t), t.root()))
        });
    }
    g.finish();
}

fn bench_content_model(c: &mut Criterion) {
    let model = Content::seq([
        Content::star(Content::choice([
            Content::elem("a", "T"),
            Content::elem("b", "T"),
        ])),
        Content::interleave([Content::elem("x", "T"), Content::elem("y", "T")]),
        Content::opt(Content::Text),
    ]);
    let items: Vec<Item> = "ababbaab"
        .chars()
        .map(|ch| Item::Elem(Label::new(&ch.to_string())))
        .chain([
            Item::Elem(Label::new("y")),
            Item::Elem(Label::new("x")),
            Item::Text,
        ])
        .collect();
    c.bench_function("content_model/deriv_match", |b| {
        b.iter(|| black_box(&model).matches(black_box(&items)))
    });
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    let q = selective_query();
    for n in [100usize, 1000] {
        let input = vec![catalog(n, 0.1, 2)];
        g.bench_with_input(BenchmarkId::new("batch_eval", n), &input, |b, input| {
            b.iter(|| {
                q.eval_batch(std::slice::from_ref(black_box(input)))
                    .unwrap()
                    .len()
            })
        });
    }
    // incremental: cost of one push into an existing 200-tree state
    let mut cont = q.continuous(&NoDocs).unwrap();
    for i in 0..200 {
        cont.push(0, catalog(5, 0.1, i)).unwrap();
    }
    let fresh = catalog(5, 0.1, 999);
    g.bench_function("delta_push", |b| {
        b.iter(|| {
            let mut c2 = q.continuous(&NoDocs).unwrap();
            c2.push(0, black_box(fresh.clone())).unwrap().len()
        })
    });
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    use axml_bench::workload::{naive_apply, two_peer};
    use axml_core::cost::CostModel;
    use axml_core::optimizer::Optimizer;
    let (sys, client, server) = two_peer(catalog(300, 0.05, 3));
    let model = CostModel::from_system(&sys);
    let naive = naive_apply(selective_query(), client, server);
    c.bench_function("optimizer/standard_search", |b| {
        b.iter(|| {
            Optimizer::standard()
                .optimize(black_box(&model), client, black_box(&naive))
                .cost
        })
    });
    // The pieces of one search step: a snapshot over unchanged documents
    // (statistics come from the system's cache), and the emitter's byte
    // count and text for a plan the search produced.
    c.bench_function("cost_model/from_system_warm", |b| {
        b.iter(|| CostModel::from_system(black_box(&sys)).peer_count())
    });
    let plan = Optimizer::standard().optimize(&model, client, &naive).expr;
    c.bench_function("expr/wire_size", |b| {
        b.iter(|| black_box(&plan).wire_size())
    });
    c.bench_function("expr/fingerprint", |b| {
        b.iter(|| black_box(&plan).fingerprint())
    });
}

fn bench_observability(c: &mut Criterion) {
    use axml_bench::workload::{naive_apply, two_peer};
    use axml_core::prelude::VecSink;

    // The acceptance bar for the tracing layer: with no sink installed
    // the `Obs::emit(|| …)` closures must be dead weight (< 2 % vs. the
    // same instrumented code path — compare these two numbers).
    let naive = |sys: &mut axml_core::AxmlSystem, client, server| {
        let e = naive_apply(selective_query(), client, server);
        sys.eval(client, &e).unwrap()
    };
    let mut g = c.benchmark_group("observability");
    g.bench_function("eval/no_sink", |b| {
        let (mut sys, client, server) = two_peer(catalog(200, 0.05, 4));
        b.iter(|| {
            sys.reset_stats();
            naive(&mut sys, client, server).len()
        })
    });
    g.bench_function("eval/vec_sink", |b| {
        let (mut sys, client, server) = two_peer(catalog(200, 0.05, 4));
        let sink = VecSink::new();
        sys.set_trace_sink(Box::new(sink.clone()));
        b.iter(|| {
            sys.reset_stats();
            let n = naive(&mut sys, client, server).len();
            black_box(sink.take());
            n
        })
    });
    // Streaming sinks: same workload, events encoded and written to a
    // discarding writer — the serialization cost without disk noise.
    g.bench_function("eval/jsonl_sink", |b| {
        use axml_core::prelude::JsonlSink;
        let (mut sys, client, server) = two_peer(catalog(200, 0.05, 4));
        sys.set_trace_sink(Box::new(JsonlSink::new(std::io::sink())));
        b.iter(|| {
            sys.reset_stats();
            naive(&mut sys, client, server).len()
        })
    });
    g.bench_function("eval/bin_sink", |b| {
        use axml_core::prelude::BinSink;
        let (mut sys, client, server) = two_peer(catalog(200, 0.05, 4));
        sys.set_trace_sink(Box::new(BinSink::new(std::io::sink())));
        b.iter(|| {
            sys.reset_stats();
            naive(&mut sys, client, server).len()
        })
    });
    // The live streaming path: frames over a real TCP socket to a local
    // discard listener, encoded off-thread by the sink's writer. The
    // hot path only clones the event into a bounded channel, so this
    // must sit within the same < 2 % band as the in-process sinks.
    g.bench_function("eval/socket_sink", |b| {
        use axml_core::prelude::SocketSink;
        use std::io::Read as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            // discard everything the sink streams at us
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 64 * 1024];
                    while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
                });
            }
        });
        let (mut sys, client, server) = two_peer(catalog(200, 0.05, 4));
        sys.set_trace_sink(Box::new(SocketSink::connect(addr).unwrap()));
        b.iter(|| {
            sys.reset_stats();
            naive(&mut sys, client, server).len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_xml,
    bench_content_model,
    bench_query,
    bench_optimizer,
    bench_observability
);
criterion_main!(benches);
