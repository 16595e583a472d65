//! The counting allocator, installed as this test binary's global
//! allocator exactly as `main.rs` installs it. One test only: the
//! counters are process-wide.

use axml_perf::alloc::{counted, set_counting, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_only_while_switched_on() {
    let before = counted();
    let quiet = vec![0u8; 4096];
    std::hint::black_box(&quiet);
    assert_eq!(counted(), before, "off by default");

    assert!(!set_counting(true));
    let loud = vec![0u8; 10_000];
    std::hint::black_box(&loud);
    let was_on = set_counting(false);
    assert!(was_on);
    let (n, bytes) = counted();
    assert!(n > before.0, "one allocation at least");
    assert!(bytes - before.1 >= 10_000, "{} bytes", bytes - before.1);

    let after = counted();
    drop(vec![1u8; 512]);
    assert_eq!(counted(), after, "off again");
}
