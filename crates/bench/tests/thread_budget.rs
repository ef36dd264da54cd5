//! Thread-budget tripwire: threads go to whole simulations, not to the
//! short bank sweeps inside one.
//!
//! With a two-thread budget, an experiment's grid spawns exactly one
//! worker pool; a simulation under demand traffic spawns none, because
//! every op cuts its sweep batches below the engine's split gate; and an
//! idle simulation, whose batches pass the gate, still splits its sweeps
//! without moving a bit of its report. Pools are counted by the
//! telemetry recorder's `exec_pools` counter, which is process-global,
//! so everything lives in ONE test function in this binary.

use pcm_ecc::CodeSpec;
use pcm_workloads::WorkloadId;
use scrub_bench::experiments::e3;
use scrub_bench::Scale;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};
use scrub_telemetry as tel;

/// Worker pools `f` spawns.
fn pools_spawned<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = tel::counter_value(tel::Counter::ExecPools);
    let out = f();
    (tel::counter_value(tel::Counter::ExecPools) - before, out)
}

/// A basic-scrub simulation over 1,024 lines in 8 banks for two hours.
fn basic(traffic: DemandTraffic, threads: usize) -> SimReport {
    let mut b = SimConfig::builder();
    b.num_lines(1024)
        .code(CodeSpec::secded_line())
        .policy(PolicyKind::Basic { interval_s: 900.0 })
        .traffic(traffic)
        .horizon_s(2.0 * 3600.0)
        .seed(7)
        .threads(threads);
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
    let (pools, _) = pools_spawned(|| e3::run(tiny));
    assert_eq!(pools, 1, "E3's 14 simulations are one grid");

    let oltp = DemandTraffic::suite(WorkloadId::DbOltp);
    let (pools, _) = pools_spawned(|| basic(oltp, 2));
    assert_eq!(pools, 0, "demand ops keep every sweep batch inline");

    // With no demand, the 8,192 slots of the horizon are one batch.
    let (pools, split) = pools_spawned(|| basic(DemandTraffic::Idle, 2));
    assert!(pools > 0, "a batch past the gate splits across banks");
    scrub_exec::set_default_threads(0);
    assert_eq!(split, basic(DemandTraffic::Idle, 1));
}
