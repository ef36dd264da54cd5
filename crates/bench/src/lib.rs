//! # scrub-bench — benchmark harness regenerating the paper's evaluation
//!
//! One module (and one binary) per experiment, E1–E17 and X1, as indexed
//! in DESIGN.md. Each `run(&Scale, &RunOptions)` returns the rendered
//! table(s) the paper analogue reports and its headline metrics; binaries
//! print the tables and record the metrics. Criterion microbenches live
//! under `benches/`.
//!
//! Set `SCRUB_QUICK=1` (or pass [`Scale::quick`]) for CI-sized runs.

pub mod experiments;
pub mod runner;
pub mod scale;

pub use runner::RunOptions;
pub use scale::Scale;
