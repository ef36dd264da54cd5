//! Cross-thread-count determinism of the experiment harness.
//!
//! The acceptance bar for the parallel execution layer: rendered
//! experiment output — tables formatted from f64 aggregates, so any bit
//! that drifts shows up — must be *byte-identical* whether an
//! experiment's job grid runs on one worker or eight. Seeds are pure
//! functions of `(base_seed, rep)` and RNG streams of `(seed, bank)`, so
//! scheduling must not be observable.

use scrub_bench::experiments::{e13, e14, e3, e5, e6, x1};
use scrub_bench::{RunOptions, Scale};

fn tiny(num_lines: u32, hours: f64) -> Scale {
    Scale {
        num_lines,
        horizon_s: hours * 3600.0,
        // Two reps so the rep dimension of the job grid is exercised too.
        reps: 2,
        mc_cells: 100,
    }
}

/// One test owns the process-global thread default for its whole run, so
/// the sequential and parallel passes cannot race with each other.
#[test]
fn experiment_output_is_byte_identical_across_thread_counts() {
    let e6_scale = tiny(1024, 3.0);
    let e5_scale = tiny(512, 2.0);
    // E13 attaches its built-in fault campaign (fixed seed), enables the
    // repair hierarchy, and runs UE recovery — all of which must stay on
    // the per-bank RNG streams to keep scheduling unobservable.
    let e13_scale = tiny(512, 6.0);
    // Per-configuration grids (E3's code ladder, E14's budget sweep) and
    // X1's five extension runs, each one grid.
    let small = tiny(256, 2.0);
    let run_all = || {
        [
            e6::run(&e6_scale, &RunOptions::default()).0,
            e5::run(&e5_scale, &RunOptions::default()).0,
            e13::run(&e13_scale, &RunOptions::default()).0,
            e3::run(&small, &RunOptions::default()).0,
            e14::run(&small, &RunOptions::default()).0,
            x1::run(&small, &RunOptions::default()).0,
        ]
    };

    scrub_exec::set_default_threads(1);
    let seq = run_all();
    scrub_exec::set_default_threads(8);
    let par = run_all();
    scrub_exec::set_default_threads(0); // back to auto for other tests

    for (name, (s, p)) in ["E6", "E5", "E13", "E3", "E14", "X1"]
        .into_iter()
        .zip(seq.iter().zip(&par))
    {
        assert_eq!(s, p, "{name} output depends on thread count");
    }
}
