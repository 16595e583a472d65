//! `axml-trace` — replay a trace file as a per-peer timeline.
//!
//! ```text
//! axml-trace FILE [--width N] [--svg OUT.svg] [--stats]
//! ```
//!
//! `FILE` is an `AXTR` trace, as `BinSink` writes it (a file that does
//! not start with that header is refused). A truncated or partially
//! corrupt file is not fatal: the decodable prefix is rendered and the tail
//! error goes to stderr (exit status stays 0 — a killed writer is an
//! expected way for a trace to end).

use axml_bench::timeline::Timeline;
use axml_obs::{TraceEvent, TraceReader};
use std::process::ExitCode;

struct Args {
    file: String,
    width: usize,
    svg: Option<String>,
    stats: bool,
}

const USAGE: &str = "usage: axml-trace FILE [--width N] [--svg OUT.svg] [--stats]";

fn parse_args() -> Result<Args, String> {
    let mut file = None;
    let mut width = 100usize;
    let mut svg = None;
    let mut stats = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => {
                let v = it.next().ok_or("--width needs a value")?;
                width = v.parse().map_err(|_| format!("bad --width {v:?}"))?;
            }
            "--svg" => svg = Some(it.next().ok_or("--svg needs a path")?),
            "--stats" => stats = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}\n{USAGE}")),
            _ if file.is_none() => file = Some(a),
            _ => return Err(format!("unexpected argument {a:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        file: file.ok_or(USAGE)?,
        width,
        svg,
        stats,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let reader = match TraceReader::open(&args.file) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("axml-trace: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    // Decode the longest good prefix; report tail errors without dying.
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut tail_errors = 0usize;
    for item in reader {
        match item {
            Ok(e) => events.push(e),
            Err(e) => {
                eprintln!("axml-trace: {}: {e}", args.file);
                tail_errors += 1;
            }
        }
    }
    println!(
        "{}: binary trace, {} events{}",
        args.file,
        events.len(),
        if tail_errors > 0 {
            format!(" ({tail_errors} undecodable, see stderr)")
        } else {
            String::new()
        }
    );
    let tl = Timeline::from_events(&events);
    print!("{}", tl.render_ascii(args.width));
    if args.stats {
        let mut by_kind: Vec<(&str, usize)> = Vec::new();
        for e in &events {
            match by_kind.iter_mut().find(|(k, _)| *k == e.kind()) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((e.kind(), 1)),
            }
        }
        println!("event counts:");
        for (k, n) in &by_kind {
            println!("  {k:<14} {n}");
        }
        println!(
            "flights: {}  deliveries: {}  peers: {}",
            tl.flights.len(),
            tl.delivered,
            tl.peers
        );
    }
    if let Some(path) = &args.svg {
        if let Err(e) = std::fs::write(path, tl.render_svg()) {
            eprintln!("axml-trace: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
