//! `axml-perf` — see the crate docs and `benchmark/README.md`.

use axml_perf::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(axml_perf::cli::main(args));
}
