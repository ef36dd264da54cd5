//! The checkpoint/resume differential harness: a horizon split into
//! segments at k checkpoints must land, byte for byte, exactly where the
//! straight-through run lands — final report (and its CSV row), the
//! experiment-level metrics the golden pins guard, and the merged
//! telemetry journal.
//!
//! The recorder is process-global, so everything lives in ONE test
//! function — this file being its own integration-test binary guarantees
//! a fresh process for it.

use scrub_bench::experiments::e13;
use scrub_bench::{RunOptions, Scale};
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};
use scrub_telemetry as tel;

/// Builds the run under test: demand traffic (so an in-flight pending op
/// crosses snapshot boundaries), an active fault campaign, and the full
/// repair/recovery hierarchy — every serialized subsystem exercised.
fn config(policy: &PolicyKind) -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(1024)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(policy.clone())
        .traffic(DemandTraffic::suite(pcm_workloads::WorkloadId::KvCache))
        .horizon_s(3.0 * 3600.0)
        .seed(77)
        .fault_campaign(
            "seed=7;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600"
                .parse()
                .expect("valid campaign spec"),
        )
        .repair(pcm_memsim::RepairConfig::default())
        .ue_recovery(pcm_memsim::RecoveryConfig { recover_prob: 0.5 });
    b.build()
}

/// Runs one simulation split at `k` evenly spaced checkpoints,
/// serializing/deserializing the full state at each boundary and
/// snapshotting the telemetry recorder per segment. Returns the final
/// report, the per-segment telemetry documents, and whether any
/// checkpoint landed mid-sweep (sweep position not on a whole-sweep
/// boundary).
fn run_split_instrumented(config: SimConfig, k: u32) -> (SimReport, Vec<tel::Document>, bool) {
    let horizon_s = config.horizon_s;
    let cadence_s = horizon_s / (k + 1) as f64;
    let num_lines = config.geometry.num_lines() as u64;
    let mut docs = Vec::new();
    let mut mid_sweep = false;
    tel::reset();
    let mut sim = Simulation::new(config);
    for i in 1..=k {
        sim.run_to(i as f64 * cadence_s);
        if !sim.memory().stats().scrub_probes.is_multiple_of(num_lines) {
            mid_sweep = true;
        }
        let bytes = sim.checkpoint().expect("checkpoint");
        let cfg = sim.config().clone();
        docs.push(tel::snapshot());
        tel::reset();
        // Resume from the serialized bytes only — the old instance is
        // dropped, exactly as in a separate process invocation.
        sim = Simulation::resume(cfg, &bytes).expect("resume");
    }
    let report = sim.finish();
    docs.push(tel::snapshot());
    (report, docs, mid_sweep)
}

#[test]
fn split_runs_are_byte_identical_to_continuous() {
    scrub_exec::set_default_threads(1);
    let scale = Scale {
        num_lines: 1024,
        horizon_s: 6.0 * 3600.0,
        reps: 1,
        mc_cells: 100,
    };

    // Experiment-level equivalence: E13's lifetime rows (the metrics its
    // golden BENCH record pins) must be bit-identical when every rep runs
    // through the serialize/resume path.
    let continuous_rows = e13::compute(&scale, &RunOptions::default());
    let split = RunOptions {
        checkpoint_every_s: Some(2400.0),
        ..RunOptions::default()
    };
    let split_rows = e13::compute(&scale, &split);
    assert_eq!(
        continuous_rows, split_rows,
        "E13 metrics moved under --checkpoint-every"
    );

    // Per-simulation equivalence: four policies, k = 1, 2, 3 checkpoints,
    // full state + telemetry compared. Sim-class events only: one SimDone
    // per finished simulation, so nothing is ever evicted.
    tel::install(tel::Config {
        journal_capacity: 4096,
        event_mask: tel::EventClass::Sim.bit(),
    });
    let mut saw_mid_sweep = false;
    for (label, policy) in e13::roster() {
        tel::reset();
        let continuous = Simulation::new(config(&policy)).run();
        let continuous_doc = tel::snapshot();
        let continuous_merged = tel::Document::merge_segments(&[continuous_doc]);
        assert_eq!(
            continuous_merged.events_dropped, 0,
            "{label}: events evicted"
        );
        for k in 1..=3u32 {
            let (report, docs, mid_sweep) = run_split_instrumented(config(&policy), k);
            saw_mid_sweep |= mid_sweep;
            assert_eq!(
                report, continuous,
                "{label}: report diverged at k={k} checkpoints"
            );
            assert_eq!(
                report.csv_row(),
                continuous.csv_row(),
                "{label}: CSV row diverged at k={k}"
            );
            assert_eq!(docs.len(), (k + 1) as usize);
            let merged = tel::Document::merge_segments(&docs);
            assert_eq!(merged.events_dropped, 0, "{label}: events evicted at k={k}");
            assert_eq!(
                merged.to_json(),
                continuous_merged.to_json(),
                "{label}: merged telemetry diverged at k={k}"
            );
        }
    }
    assert!(
        saw_mid_sweep,
        "no checkpoint landed mid-sweep; the harness is not exercising \
         in-flight sweep state"
    );

    // Tripwire: the differential harness must actually be able to fail.
    // A snapshot with one sabotaged field (bank 0's RNG stream replaced
    // by a default-seeded one — same length, wrong bytes) decodes cleanly
    // but must produce a diverging report.
    let policy = PolicyKind::combined_default(900.0);
    tel::set_enabled(false);
    let continuous = Simulation::new(config(&policy)).run();
    let mut sim = Simulation::new(config(&policy));
    sim.run_to(5400.0);
    let sabotaged = sim
        .checkpoint_omitting_bank0_rng()
        .expect("tripwire checkpoint");
    let cfg = sim.config().clone();
    let diverged = Simulation::resume(cfg, &sabotaged)
        .expect("structurally valid snapshot")
        .finish();
    assert_ne!(
        diverged, continuous,
        "tripwire snapshot with a wrong bank-0 RNG stream still matched — \
         the differential harness cannot detect omitted state"
    );
}
