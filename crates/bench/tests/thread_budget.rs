//! Thread-budget tripwire: threads go to whole simulations, never to the
//! work inside one.
//!
//! With a two-thread budget, an experiment's grid spawns exactly one
//! worker pool, and a simulation spawns none, even an idle one whose
//! whole horizon is one run of scrub slots. Pools are counted by the
//! telemetry recorder's `exec_pools` counter, which is process-global,
//! so everything lives in ONE test function in this binary.

use pcm_ecc::CodeSpec;
use scrub_bench::experiments::e3;
use scrub_bench::{RunOptions, Scale};
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};
use scrub_telemetry as tel;

/// Worker pools `f` spawns.
fn pools_spawned<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = tel::counter_value(tel::Counter::ExecPools);
    let out = f();
    (tel::counter_value(tel::Counter::ExecPools) - before, out)
}

/// An idle basic-scrub simulation over 1,024 lines in 8 banks for two
/// hours.
fn idle_basic() -> SimReport {
    let mut b = SimConfig::builder();
    b.num_lines(1024)
        .code(CodeSpec::secded_line())
        .policy(PolicyKind::Basic { interval_s: 900.0 })
        .traffic(DemandTraffic::Idle)
        .horizon_s(2.0 * 3600.0)
        .seed(7);
    Simulation::new(b.build()).run()
}

#[test]
fn threads_go_to_whole_simulations() {
    tel::install(tel::Config::default());
    scrub_exec::set_default_threads(2);

    let tiny = Scale {
        num_lines: 256,
        horizon_s: 3600.0,
        reps: 1,
        mc_cells: 100,
    };
    let (pools, _) = pools_spawned(|| e3::run(&tiny, &RunOptions::default()));
    assert_eq!(pools, 1, "E3's 14 simulations are one grid");

    // With no demand, the 8,193 slots from t = 0 to the horizon are one
    // run of slots, and basic scrub probes in every one.
    let (pools, report) = pools_spawned(idle_basic);
    assert_eq!(pools, 0, "a simulation runs on the calling thread");
    assert_eq!(report.stats.scrub_probes, 8193);
    scrub_exec::set_default_threads(0);
}
