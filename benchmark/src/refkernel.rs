//! The reference kernel: a fixed piece of std-only work the benchmark
//! times between ops, to read how fast the machine is *right now*.
//!
//! The sizing box and the driver's box are small VMs on shared hosts.
//! Their effective speed moves by up to 50 % for seconds to minutes at a
//! time (a busy neighbour on the sibling hyperthread: user CPU time
//! grows with wall time, no steal, no page faults, and a serial ALU
//! chain does not feel it at all while allocation- and hash-heavy code
//! does). No statistic over raw wall times survives a run that sits
//! wholly inside such a stretch, so every wall time is divided by what
//! this kernel cost next to it.
//!
//! The kernel is the same kind of code as the system under test — small
//! heap allocations, string formatting, hashing, ordered maps, sorting,
//! pointer-rich traversal — so a neighbour slows both alike. It shares
//! no code with the crates it is compared against, so a change to them
//! cannot move it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What one kernel call costs on the sizing box in its calm state, µs.
/// Normalised times are `wall × NOMINAL_US ÷ kernel's wall`, so on that
/// box, calm, they equal wall times.
pub const NOMINAL_US: f64 = 100.0;

/// One call of the kernel; returns a checksum so nothing is optimised
/// away. Deterministic: the same work on every call.
pub fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: Vec<String> = Vec::with_capacity(384);
    for i in 0..384u32 {
        names.push(format!("pkg-{}-{}", next() % 997, i));
    }
    let mut by_name: HashMap<&str, u32> = HashMap::with_capacity(64);
    let mut by_key: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (i, n) in names.iter().enumerate() {
        by_name.insert(n.as_str(), i as u32);
        by_key.entry(next() % 64).or_default().push(i as u32);
    }
    let mut sum = 0u64;
    for n in names.iter().rev() {
        sum = sum.wrapping_add(u64::from(by_name[n.as_str()]));
    }
    let mut keys: Vec<u64> = (0..512).map(|_| next()).collect();
    keys.sort_unstable();
    for (k, v) in &by_key {
        sum = sum.wrapping_add(*k).wrapping_add(v.len() as u64);
    }
    let text: String = names.iter().take(64).flat_map(|n| n.chars()).collect();
    sum.wrapping_add(keys[17]).wrapping_add(text.len() as u64)
}

/// Time one kernel call, ns.
pub fn timed() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_on_every_call() {
        assert_eq!(kernel(), kernel());
        assert!(timed() > 0);
    }
}
