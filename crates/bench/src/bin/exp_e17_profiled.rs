//! E17 — profiling-guided scrub + symbol ECC head-to-head.

fn main() {
    scrub_bench::runner::main("e17", scrub_bench::experiments::e17::run);
}
