//! Regenerates experiment E6 (see DESIGN.md). `SCRUB_QUICK=1` or
//! `--quick` for a CI-sized run; `--threads N` bounds the worker pool.
//! Writes wall-clock, thread count, and headline metrics to
//! `BENCH_e6.json`.

fn main() {
    scrub_bench::runner::main("e6", scrub_bench::experiments::e6::run);
}
