//! Command line: `run` (one workload, one process — what the driver
//! calls), `bench` (every workload, each in its own process, into a
//! ledger file) and `diff` (two ledger files against the bounds).

use crate::harness::{run_end_to_end, EndToEnd, Size, Workload};
use crate::layers::trace_run;
use crate::refkernel::NOMINAL_US;
use crate::results::{diff, Ledger, RunResult, Series, WorkloadLedger};
use crate::spec::{Spec, END_TO_END, PER_LAYER};
use crate::workloads::edos_poll::EdosPoll;
use crate::workloads::query_ship::QueryShip;
use crate::workloads::socket_ship::SocketShip;
use crate::workloads::sub_churn::SubChurn;
use crate::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  axml-perf [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  axml-perf bench [--repeat <n>] [--seed <n>] [--seconds <s>] [--workload <name>]... [--smoke] [--out <file>]
  axml-perf diff <base.json> <new.json>
workloads: query_ship edos_poll sub_churn socket_ship
run from the repository root (the directory holding BENCHMARK.json)";

/// Parsed `--key value` options.
struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

impl Opts {
    /// Measuring time: `--seconds`, else one epoch for `--smoke`, else
    /// the `run_seconds` of `BENCHMARK.json`.
    fn seconds_or(&self, run_seconds: impl FnOnce() -> Result<u64, String>) -> Result<f64, String> {
        match self.seconds {
            Some(s) => Ok(s),
            None if self.smoke => Ok(0.0),
            None => Ok(run_seconds()? as f64),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                o.workloads.push(w);
            }
            "--seed" => {
                o.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                o.repeat = value("a whole number")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat must be between 1 and 100")?
            }
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// The repository root: the current directory, which must hold
/// `BENCHMARK.json` and the crates the per-layer metrics weigh.
fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    if cwd.join("BENCHMARK.json").is_file() && cwd.join("crates").is_dir() {
        Ok(cwd)
    } else {
        Err(format!(
            "{} is not the repository root (no BENCHMARK.json + crates/)",
            cwd.display()
        ))
    }
}

fn end_to_end_result(e: &EndToEnd) -> RunResult {
    let value = |name: &str| match name {
        "setup_s" => e.setup_s.median,
        "ops_per_s" => e.ops_per_s,
        "op_latency_p50_us" => e.latency_us.median,
        "op_latency_p95_us" => e.latency_p95_us,
        "wire_bytes_per_op" => e.wire_bytes_per_op,
        "virtual_ms_per_op" => e.virtual_ms_per_op,
        "peak_rss_mb" => e.peak_rss_mb,
        other => unreachable!("end-to-end metric `{other}` has no source"),
    };
    RunResult {
        correct: e.correct,
        attempted: e.attempted,
        failed: e.failed,
        metrics: END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), value(name), unit.to_string()))
            .collect(),
    }
}

/// One workload, in this process. Prints every metric by name with its
/// unit, then the result line.
fn run_one<W: Workload>(o: &Opts, seconds: f64, root: &Path) -> Result<RunResult, String> {
    let size = if o.smoke { Size::SMOKE } else { Size::FULL };
    let result = if o.trace {
        let (metrics, attempted, failed, correct) = trace_run::<W>(o.seed, size, root)?;
        RunResult {
            correct,
            attempted,
            failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = metrics
                        .get(name)
                        .copied()
                        .ok_or_else(|| format!("traced run produced no `{name}`"))?;
                    Ok((name.to_string(), value, unit.to_string()))
                })
                .collect::<Result<_, String>>()?,
        }
    } else {
        let plan = W::plan(o.seed, size)?;
        let e = run_end_to_end::<W>(&plan, seconds)?;
        println!(
            "{}: seed {} · {} epochs of {} ops · closed loop, 1 client, nproc {}",
            W::NAME,
            o.seed,
            e.epochs,
            W::epoch_len(&plan),
            nproc()
        );
        println!(
            "  set-up        n={} q1={:.4} median={:.4} q3={:.4} s",
            e.setup_s.n, e.setup_s.q1, e.setup_s.median, e.setup_s.q3
        );
        println!(
            "  op latency    n={} ops x {} epochs q1={:.2} median={:.2} q3={:.2} p95={:.2} us",
            e.latency_us.n,
            e.epochs,
            e.latency_us.q1,
            e.latency_us.median,
            e.latency_us.q3,
            e.latency_p95_us
        );
        println!(
            "  failed_op_ratio {} ({} of {})   check_ok {}",
            e.failed as f64 / e.attempted as f64,
            e.failed,
            e.attempted,
            u8::from(e.correct)
        );
        println!(
            "  raw wall      set-up median={:.4} s · epoch mean op {:.2?} us",
            e.raw.setup_s.median, e.raw.epoch_mean_us
        );
        println!(
            "  ref kernel    n={} q1={:.1} median={:.1} q3={:.1} us (nominal {NOMINAL_US}) · epoch mean {:.1?} us",
            e.raw.ref_us.n, e.raw.ref_us.q1, e.raw.ref_us.median, e.raw.ref_us.q3, e.raw.epoch_ref_us
        );
        let l = &e.ledger;
        println!(
            "  per epoch     {} msgs · {} dropped · {} retries · {} failovers · matcher {}/{} hit · reconciled {}",
            l.messages, l.dropped, l.retries, l.failovers, l.matcher_hits, l.matcher_probes, l.reconciled
        );
        end_to_end_result(&e)
    };
    for (name, value, unit) in &result.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    Ok(result)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cmd_run(o: &Opts) -> Result<RunResult, String> {
    let root = repo_root()?;
    let [workload] = o.workloads.as_slice() else {
        return Err("run takes exactly one --workload".into());
    };
    let seconds = o.seconds_or(|| Ok(Spec::load(&root)?.run_seconds))?;
    match workload.as_str() {
        "query_ship" => run_one::<QueryShip>(o, seconds, &root),
        "edos_poll" => run_one::<EdosPoll>(o, seconds, &root),
        "sub_churn" => run_one::<SubChurn>(o, seconds, &root),
        "socket_ship" => run_one::<SocketShip>(o, seconds, &root),
        other => unreachable!("parse_opts admitted workload `{other}`"),
    }
}

/// Run one workload in a child process of this executable and parse the
/// result line it prints last.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            out.status
        ));
    }
    RunResult::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// `git rev-parse HEAD`, with `-dirty` appended when the work tree has
/// uncommitted changes; `unknown` outside a repository.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(root)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
            format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
        }
        None => "unknown".into(),
    }
}

fn machine_note() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown kernel".into(), |s| s.trim().to_string());
    format!(
        "{cpu}; {} logical cores; linux {kernel}; shared sandbox; wall times normalised to a {NOMINAL_US} us reference kernel",
        nproc()
    )
}

fn cmd_bench(o: &Opts) -> Result<(), String> {
    let root = repo_root()?;
    let spec = Spec::load(&root)?;
    let seconds = o.seconds_or(|| Ok(spec.run_seconds))?;
    let workloads: Vec<&str> = if o.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        o.workloads.iter().map(String::as_str).collect()
    };
    let seeds: Vec<u64> = (0..o.repeat as u64).map(|i| o.seed + i).collect();
    let mut ledger = Ledger {
        git_rev: git_rev(&root),
        nproc: nproc(),
        machine: machine_note(),
        run_seconds: seconds,
        seeds: seeds.clone(),
        workloads: Default::default(),
    };
    for workload in workloads {
        let mut section = WorkloadLedger {
            correct: true,
            ..WorkloadLedger::default()
        };
        let absorb = |section: &mut WorkloadLedger, r: &RunResult| {
            section.attempted += r.attempted;
            section.failed += r.failed;
            section.correct &= r.correct;
        };
        for &seed in &seeds {
            let r = run_child(workload, seed, seconds, false, o.smoke)?;
            absorb(&mut section, &r);
            for (name, value, unit) in r.metrics {
                section
                    .end_to_end
                    .entry(name)
                    .or_insert_with(|| Series {
                        unit,
                        values: Vec::new(),
                    })
                    .values
                    .push(value);
            }
        }
        let traced = run_child(workload, o.seed, seconds, true, o.smoke)?;
        absorb(&mut section, &traced);
        for (name, value, unit) in traced.metrics {
            section.per_layer.insert(name, (value, unit));
        }
        ledger.workloads.insert(workload.to_string(), section);
    }

    println!(
        "\n== end to end: median over {} run(s), spread = IQR / median ==",
        seeds.len()
    );
    for (name, w) in &ledger.workloads {
        println!(
            "{name}: check_ok {} · failed_op_ratio {} ({} of {})",
            u8::from(w.correct),
            w.failed_op_ratio(),
            w.failed,
            w.attempted
        );
        for &(metric, _) in &END_TO_END {
            if let Some(s) = w.end_to_end.get(metric) {
                println!(
                    "  {metric:<22} {:>14.4} {:<5} spread {:>6.2}%  bound {:>5.1}%",
                    s.median(),
                    s.unit,
                    s.spread() * 100.0,
                    spec.bounded(metric).map_or(0.0, |b| b.bound * 100.0)
                );
            }
        }
    }
    if let Some(path) = &o.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, ledger.to_json(&spec))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let broken: Vec<&String> = ledger
        .workloads
        .iter()
        .filter(|(_, w)| !w.correct || w.failed > 0)
        .map(|(n, _)| n)
        .collect();
    if !broken.is_empty() {
        return Err(format!("check_ok = 0 on {broken:?}"));
    }
    let over = ledger.spreads_over_bound(&spec);
    for (w, m, s, b) in &over {
        eprintln!(
            "{w} {m}: spread {:.2}% exceeds its bound {:.2}%",
            s * 100.0,
            b * 100.0
        );
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} end-to-end spread(s) exceed their bound",
            over.len()
        ))
    }
}

fn cmd_diff(o: &Opts) -> Result<bool, String> {
    let [base, new] = o.positional.as_slice() else {
        return Err("diff takes two ledger files".into());
    };
    let spec = Spec::load(&repo_root()?)?;
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Ledger::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (base, new) = (read(base)?, read(new)?);
    println!(
        "base {} ({} runs) · new {} ({} runs)",
        base.git_rev,
        base.seeds.len(),
        new.git_rev,
        new.seeds.len()
    );
    let d = diff(&spec, &base, &new);
    print!("{}", d.table);
    println!(
        "{} regression(s), {} workload(s) broken",
        d.regressions, d.broken
    );
    Ok(!d.failed())
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "bench" | "diff")) => (c, &args[1..]),
        // The driver appends its options straight after the command.
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("axml-perf: {e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = match command {
        "run" => cmd_run(&opts).map(|r| {
            // The result line is the last line of standard output.
            println!("{}", r.to_json_line());
            true
        }),
        "bench" => cmd_bench(&opts).map(|()| true),
        _ => cmd_diff(&opts),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("axml-perf: {e}");
            1
        }
    }
}
