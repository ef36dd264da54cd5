//! Regenerates experiment E14 (see DESIGN.md): UE rate and demand-latency
//! impact vs. the scrub IOPS budget, comparing the budgeted tour policy
//! against the paper's four unbudgeted mechanisms. Accepts `--scrub-iops`
//! to rebase the budget sweep, `--fault-campaign SPEC`, and
//! `--checkpoint-every S` (routes every rep through mid-tour checkpoint
//! and resume); `SCRUB_QUICK=1` or `--quick` for a CI-sized run. Writes
//! wall-clock, thread count, and per-row metrics to `BENCH_e14.json`.

fn main() {
    scrub_bench::runner::main("e14", scrub_bench::experiments::e14::run);
}
