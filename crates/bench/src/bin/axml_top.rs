//! `axml-top` — a live dashboard over a trace stream.
//!
//! ```text
//! axml-top FILE [--follow] [--interval MS] [--duration SECS]
//! axml-top FILE --once
//! axml-top --listen ADDR [--interval MS] [--duration SECS]
//! ```
//!
//! Three sources, one rendering:
//!
//! * `FILE --once` reads the trace up to its current end and prints a
//!   single **deterministic** plain snapshot — no ANSI, no wall clock —
//!   so two runs over the same file are byte-identical (tier1.sh
//!   byte-compares them).
//! * `FILE --follow` tails a growing file with
//!   [`axml_obs::FollowReader`], redrawing every `--interval` ms
//!   (default 200) until interrupted or `--duration` elapses.
//! * `--listen ADDR` accepts one TCP connection from a producer's
//!   [`axml_obs::BinSink::connect`] and renders live until the producer
//!   closes the socket.
//!
//! Stream damage is never fatal to the dashboard: malformed records are
//! counted on the `stream :` line and a truncated tail is reported on
//! stderr with exit status 0 — a killed writer is an expected way for a
//! trace to end.

use axml_bench::dashboard::Dashboard;
use axml_obs::{FollowReader, FollowStep};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    file: Option<String>,
    listen: Option<String>,
    once: bool,
    interval_ms: u64,
    duration_s: Option<u64>,
}

const USAGE: &str = "usage: axml-top FILE [--once | --follow] [--interval MS] [--duration SECS]\n       axml-top --listen ADDR [--interval MS] [--duration SECS]";

fn parse_args() -> Result<Args, String> {
    let mut file = None;
    let mut listen = None;
    let mut once = false;
    let mut interval_ms = 200u64;
    let mut duration_s = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => once = true,
            "--follow" => {} // following is the default for FILE mode
            "--listen" => listen = Some(it.next().ok_or("--listen needs an address")?),
            "--interval" => {
                let v = it.next().ok_or("--interval needs a value (ms)")?;
                interval_ms = v.parse().map_err(|_| format!("bad --interval {v:?}"))?;
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs a value (seconds)")?;
                duration_s = Some(v.parse().map_err(|_| format!("bad --duration {v:?}"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}\n{USAGE}")),
            _ if file.is_none() => file = Some(a),
            _ => return Err(format!("unexpected argument {a:?}\n{USAGE}")),
        }
    }
    if file.is_none() && listen.is_none() {
        return Err(USAGE.to_string());
    }
    if file.is_some() && listen.is_some() {
        return Err(format!("FILE and --listen are mutually exclusive\n{USAGE}"));
    }
    if once && listen.is_some() {
        return Err(format!("--once needs a FILE, not --listen\n{USAGE}"));
    }
    Ok(Args {
        file,
        listen,
        once,
        interval_ms,
        duration_s,
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
    match (&args.file, &args.listen) {
        (Some(path), None) if args.once => snapshot_once(path),
        (Some(path), None) => follow_file(path, &args),
        (None, Some(addr)) => listen_socket(addr, &args),
        _ => unreachable!("parse_args enforces exactly one source"),
    }
}

/// `FILE --once`: fold everything currently in the file, print one
/// plain snapshot, account for the tail. Byte-deterministic.
fn snapshot_once(path: &str) -> ExitCode {
    let mut reader = match FollowReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("axml-top: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dash = Dashboard::new();
    loop {
        match reader.poll() {
            Ok(FollowStep::Pending) => break, // caught up with EOF
            Ok(step) => {
                dash.fold_step(&step);
            }
            Err(e) => {
                eprintln!("axml-top: {path}: {e}");
                dash.tail_errors += 1;
                break;
            }
        }
    }
    settle_tail(reader, &mut dash, path);
    print!("{}", dash.render_plain(path));
    ExitCode::SUCCESS
}

/// Drain every decodable record currently available; returns `false`
/// when the stream died (fatal decode error).
fn drain(reader: &mut FollowReader<impl Read>, dash: &mut Dashboard, source: &str) -> bool {
    loop {
        match reader.poll() {
            Ok(FollowStep::Pending) => return true,
            Ok(step) => {
                dash.fold_step(&step);
            }
            Err(e) => {
                eprintln!("axml-top: {source}: {e}");
                dash.tail_errors += 1;
                return false;
            }
        }
    }
}

/// The stream is over: a record the writer left half-written is a tail
/// error, reported and counted.
fn settle_tail(reader: FollowReader<impl Read>, dash: &mut Dashboard, source: &str) {
    if let Err(e) = reader.finish() {
        eprintln!("axml-top: {source}: {e}");
        dash.tail_errors += 1;
    }
}

fn redraw(dash: &Dashboard, source: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(dash.render_ansi(source).as_bytes());
    let _ = out.flush();
}

/// The deadline implied by `--duration`, if any.
fn deadline(args: &Args) -> Option<Instant> {
    args.duration_s
        .map(|s| Instant::now() + Duration::from_secs(s))
}

/// `FILE [--follow]`: tail a growing trace file, redraw per interval.
fn follow_file(path: &str, args: &Args) -> ExitCode {
    let mut reader = match FollowReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("axml-top: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dash = Dashboard::new();
    let stop = deadline(args);
    loop {
        let alive = drain(&mut reader, &mut dash, path);
        redraw(&dash, path);
        if !alive || stop.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
    settle_tail(reader, &mut dash, path);
    // Final plain snapshot so the last state survives in scrollback.
    print!("\n{}", dash.render_plain(path));
    ExitCode::SUCCESS
}

/// `--listen ADDR`: accept one `BinSink::connect` connection and render
/// until the producer closes it (or `--duration` elapses). Leaving early
/// closes the socket, and the producer's next trace flush reports it.
fn listen_socket(addr: &str, args: &Args) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("axml-top: cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    eprintln!("axml-top: listening on {local} — waiting for a trace (BinSink::connect)");
    let (stream, peer) = match listener.accept() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("axml-top: accept on {local} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A short read timeout keeps the redraw loop live between frames;
    // FollowReader absorbs the TimedOut as Pending.
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(args.interval_ms.max(1)))) {
        eprintln!("axml-top: set_read_timeout: {e}");
        return ExitCode::FAILURE;
    }
    let source = format!("{peer}");
    let mut reader = FollowReader::new(stream);
    let mut dash = Dashboard::new();
    let stop = deadline(args);
    loop {
        let alive = drain(&mut reader, &mut dash, &source);
        redraw(&dash, &source);
        if !alive || stop.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        if reader.hit_eof() {
            // The producer closed the socket: account for the tail.
            settle_tail(reader, &mut dash, &source);
            break;
        }
    }
    print!("\n{}", dash.render_plain(&source));
    ExitCode::SUCCESS
}
