//! Memory-discipline accounting for EDOS-scale runs.
//!
//! A 10⁵-peer replica network stands or falls on memory: a dense link
//! matrix or per-peer session state would be gigabytes before the first
//! poll. [`MemStats::snapshot`] captures the two numbers the scale tier
//! budgets against — the process peak RSS (`VmHWM` from
//! `/proc/self/status`, Linux-gated, 0 elsewhere) and the global label
//! interner's pressure counters from `axml-xml` — so experiment rows
//! and the tier-1 smoke can assert "the 10⁵-peer row fits in X" instead
//! of hoping.
//!
//! Attach to a [`RunReport`](crate::report::RunReport) with
//! `with_mem`; like `CopyStats`, the field is process-wide and
//! monotone, so reports meant to be byte-compared across runs should
//! either attach it on both sides or neither.

/// A point-in-time memory snapshot: process RSS plus interner pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Peak resident set size in bytes (`VmHWM`); 0 when the platform
    /// does not expose it.
    pub peak_rss_bytes: u64,
    /// Current resident set size in bytes (`VmRSS`); 0 when unknown.
    pub current_rss_bytes: u64,
    /// Distinct labels in the global interner.
    pub interner_symbols: u64,
    /// Total interned text bytes (leaked for `'static` access).
    pub interner_bytes: u64,
}

impl MemStats {
    /// Snapshot the current process. Cheap: one `/proc` read plus the
    /// interner's two counters, read under its lock.
    pub fn snapshot() -> Self {
        let (peak_rss_bytes, current_rss_bytes) = rss_bytes();
        let (interner_symbols, interner_bytes) = axml_xml::symbol::interner_stats();
        MemStats {
            peak_rss_bytes,
            current_rss_bytes,
            interner_symbols,
            interner_bytes,
        }
    }

    /// Peak RSS in mebibytes (0.0 when unavailable).
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// `(VmHWM, VmRSS)` in bytes from `/proc/self/status`; `(0, 0)` when
/// the file or the fields are unavailable (non-Linux platforms).
fn rss_bytes() -> (u64, u64) {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            let mut peak = 0;
            let mut cur = 0;
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    peak = parse_kb(rest);
                } else if let Some(rest) = line.strip_prefix("VmRSS:") {
                    cur = parse_kb(rest);
                }
            }
            return (peak, cur);
        }
    }
    (0, 0)
}

/// Parse a `/proc` status value of the form `"  123456 kB"` into bytes.
#[cfg(target_os = "linux")]
fn parse_kb(rest: &str) -> u64 {
    rest.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .unwrap_or(0)
        .saturating_mul(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_live_numbers() {
        let m = MemStats::snapshot();
        #[cfg(target_os = "linux")]
        {
            assert!(m.peak_rss_bytes > 0, "VmHWM must parse on Linux");
            assert!(m.current_rss_bytes > 0, "VmRSS must parse on Linux");
            assert!(m.peak_rss_bytes >= m.current_rss_bytes);
            assert!(m.peak_rss_mb() > 0.0);
        }
        // The interner always holds something once any test interned.
        axml_xml::symbol::Label::new("mem-stats-probe");
        let m2 = MemStats::snapshot();
        assert!(m2.interner_symbols > 0);
        assert!(
            m2.interner_bytes >= m2.interner_symbols,
            "labels are non-empty"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn kb_parsing() {
        assert_eq!(parse_kb("  123 kB"), 123 * 1024);
        assert_eq!(parse_kb("0 kB"), 0);
        assert_eq!(parse_kb("garbage"), 0);
    }

    #[test]
    fn peak_rss_grows_with_allocation() {
        let before = MemStats::snapshot();
        // Touch every page so the RSS actually grows.
        let block = vec![1u8; 32 * 1024 * 1024];
        let after = MemStats::snapshot();
        assert!(after.peak_rss_bytes >= before.peak_rss_bytes);
        std::hint::black_box(&block);
        #[cfg(target_os = "linux")]
        assert!(
            after.peak_rss_bytes >= before.peak_rss_bytes + 16 * 1024 * 1024,
            "32 MiB touched allocation must move the high-water mark: {} -> {}",
            before.peak_rss_bytes,
            after.peak_rss_bytes
        );
    }
}
