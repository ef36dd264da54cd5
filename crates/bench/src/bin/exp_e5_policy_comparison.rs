//! Regenerates experiment E5 (see DESIGN.md). `SCRUB_QUICK=1` or
//! `--quick` for a CI-sized run; `--threads N` bounds the worker pool.
//! Writes wall-clock, thread count, and headline metrics to
//! `BENCH_e5.json`.

fn main() {
    scrub_bench::runner::main("e5", scrub_bench::experiments::e5::run);
}
