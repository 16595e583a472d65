//! Process-level readings from `/proc`: peak RSS (this process plus the
//! `peerd` children it launches) and CPU seconds. Linux only; every
//! reading is 0 where `/proc` is missing.

use std::sync::atomic::{AtomicU64, Ordering};

/// Largest summed `VmHWM` (KiB) seen over this process's live children.
/// A statistic, published with no other data: `Relaxed`.
static CHILDREN_PEAK_KB: AtomicU64 = AtomicU64::new(0);

fn status_field_kb(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Sum the `VmHWM` of every live child of this process and remember the
/// largest sum. Call while the children are still running (a reaped
/// child's `/proc` entry is gone).
pub fn note_children_rss() {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return;
    };
    let mut sum_kb = 0;
    for entry in entries.flatten() {
        if !entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.bytes().all(|b| b.is_ascii_digit()))
        {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        let is_child = status
            .lines()
            .find_map(|l| l.strip_prefix("PPid:"))
            .is_some_and(|p| p.trim() == me);
        if is_child {
            sum_kb += status_field_kb(&status, "VmHWM:");
        }
    }
    CHILDREN_PEAK_KB.fetch_max(sum_kb, Ordering::Relaxed);
}

/// `VmHWM` of this process (`MemStats`) plus the largest children sum
/// noted, MiB.
pub fn peak_rss_mb() -> f64 {
    let children_kb = CHILDREN_PEAK_KB.load(Ordering::Relaxed);
    axml_obs::MemStats::snapshot().peak_rss_mb() + children_kb as f64 / 1024.0
}

/// `(user, system)` CPU seconds of this process plus its reaped
/// children, from `/proc/self/stat` (clock ticks of 1/100 s, the value
/// `sysconf(_SC_CLK_TCK)` has on every Linux this runs on).
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields are positional
    // only after its closing parenthesis.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0.0, 0.0);
    };
    let fields: Vec<u64> = after
        .split_whitespace()
        .skip(11) // state … cmajflt; next are utime stime cutime cstime
        .take(4)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields[..] {
        [utime, stime, cutime, cstime] => (
            (utime + cutime) as f64 / 100.0,
            (stime + cstime) as f64 / 100.0,
        ),
        _ => (0.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb() > 1.0);
        // Burn a little CPU so utime is not 0 ticks on a fast machine.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (user, sys) = cpu_seconds();
        assert!(user > 0.0 && sys >= 0.0, "{user} {sys}");
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  1234 kB\nPPid:\t7\n";
        assert_eq!(status_field_kb(s, "VmHWM:"), 1234);
        assert_eq!(status_field_kb(s, "VmRSS:"), 0);
    }
}
