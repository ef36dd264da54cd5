//! Regenerates experiment E13 (see DESIGN.md): lifetime to first
//! unrepairable error under the graceful-degradation repair hierarchy.
//! Accepts `--fault-campaign SPEC` to replace the built-in campaign;
//! `SCRUB_QUICK=1` or `--quick` for a CI-sized run. Writes wall-clock,
//! thread count, and per-policy lifetime metrics to `BENCH_e13.json`.

fn main() {
    scrub_bench::runner::main("e13", scrub_bench::experiments::e13::run);
}
