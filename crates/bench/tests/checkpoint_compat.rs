//! Checkpoints written by earlier builds still resume.
//!
//! Each fixture under `tests/fixtures/` is a sealed snapshot taken at
//! 5,400 s into the run below by an earlier build, stored next to that
//! build's final report as `Debug` text. Resuming the bytes under the
//! current build and finishing the run must reproduce the text exactly.
//! The builds that wrote them:
//!
//! * `basic-900` and `combined-900`: commit 7ddcb69, whose default core
//!   was the stepped cadence loop, before the stepped and event engines
//!   merged into one loop;
//! * `profiled-900`: commit bdaf7a9, whose risk table was one `BTreeMap`
//!   walked for every eviction and hot-line pick, before the table was
//!   indexed. By 5,400 s its 16-entry table has made 133 evictions, 112
//!   hot probes and 132 hits, so the snapshot holds a full table that
//!   keeps changing.
//!
//! The fixtures are frozen on purpose: `SCRUBSIM_BLESS` does not rewrite
//! them, because a fixture regenerated by the current build would only
//! pin the build against itself.

use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};

/// The engine-differential campaign config at 256 lines: demand traffic,
/// stuck cells, an SEU window, intermittent faults, a burst at exactly
/// the snapshot time, the repair hierarchy, and UE recovery.
fn config(policy: PolicyKind) -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(256)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(policy)
        .traffic(DemandTraffic::suite(pcm_workloads::WorkloadId::KvCache))
        .horizon_s(3.0 * 3600.0)
        .seed(77)
        .fault_campaign(
            "seed=7;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600;\
             intermittent=lines:4,cells:2,period:600;burst=lines:2,bits:5,at:5400"
                .parse()
                .expect("valid campaign spec"),
        )
        .repair(pcm_memsim::RepairConfig::default())
        .ue_recovery(pcm_memsim::RecoveryConfig { recover_prob: 0.5 });
    b.build()
}

fn resume_and_finish(name: &str, policy: PolicyKind) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let bytes = std::fs::read(format!("{dir}/{name}.ckpt")).expect("fixture checkpoint");
    let expected =
        std::fs::read_to_string(format!("{dir}/{name}.report.txt")).expect("fixture report");
    let sim = Simulation::resume(config(policy), &bytes).unwrap_or_else(|e| {
        panic!("{name}: the earlier build's checkpoint no longer resumes: {e}")
    });
    assert_eq!(sim.clock_s(), 5400.0, "{name}: snapshot clock");
    let report = sim.finish();
    assert_eq!(
        format!("{report:?}\n"),
        expected,
        "{name}: resumed run diverged from the earlier build's report"
    );
}

#[test]
fn basic_checkpoint_from_an_earlier_build_resumes_to_its_report() {
    resume_and_finish("basic-900", PolicyKind::Basic { interval_s: 900.0 });
}

#[test]
fn combined_checkpoint_from_an_earlier_build_resumes_to_its_report() {
    resume_and_finish("combined-900", PolicyKind::combined_default(900.0));
}

#[test]
fn profiled_checkpoint_from_an_earlier_build_resumes_to_its_report() {
    resume_and_finish(
        "profiled-900",
        PolicyKind::Profiled {
            interval_s: 900.0,
            theta: 4,
            iops: 2.0 * 256.0 / 900.0,
            burst: 64.0,
            max_defer: 8,
            capacity: 16,
            hot_stride: 4,
            stretch: 2,
            risk: 2,
        },
    );
}
