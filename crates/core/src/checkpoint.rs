//! Split-horizon driving: run a simulation as a chain of
//! checkpoint/resume segments and prove it lands exactly where a
//! continuous run would.
//!
//! The simulator's determinism contract (randomness keyed to banks, float
//! accumulation in fixed bank order) extends across snapshot boundaries:
//! [`run_split`] produces a report bit-identical to [`Simulation::run`]
//! for any checkpoint cadence.

use scrub_checkpoint::CheckpointError;

use crate::profiled::ProfileStats;
use crate::report::SimReport;
use crate::sim::{SimConfig, Simulation};

/// What a segmented run produced, beyond the report itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitRunOutcome {
    /// The final report — bit-identical to a continuous run's.
    pub report: SimReport,
    /// Number of segments executed (checkpoints taken + 1).
    pub segments: u32,
    /// Sealed size in bytes of every snapshot taken, in order.
    pub snapshot_bytes: Vec<usize>,
    /// The risk profile's probe tallies at the horizon, for a policy
    /// with a profile.
    pub profile: Option<ProfileStats>,
}

/// Runs `config` to its horizon in segments of `checkpoint_every_s`
/// simulated seconds, serializing the full simulator state at each
/// boundary and resuming from the bytes — exercising the same
/// checkpoint/resume path an operator uses to split a long run across
/// process invocations.
///
/// Segment boundaries fall at multiples of `checkpoint_every_s`; the last
/// segment runs to the horizon. A cadence at or beyond the horizon
/// degenerates to a single continuous segment with no snapshots.
///
/// # Errors
///
/// Propagates any [`CheckpointError`] from serializing or re-opening a
/// snapshot (e.g. a custom trace source that does not support resume).
///
/// # Panics
///
/// Panics if `checkpoint_every_s` is not positive.
pub fn run_split(
    config: SimConfig,
    checkpoint_every_s: f64,
) -> Result<SplitRunOutcome, CheckpointError> {
    assert!(
        checkpoint_every_s > 0.0,
        "checkpoint cadence must be positive"
    );
    let horizon_s = config.horizon_s;
    let mut sim = Simulation::new(config);
    let mut segments = 1u32;
    let mut snapshot_bytes = Vec::new();
    loop {
        // Smallest cadence multiple strictly ahead of the clock; f64
        // division keeps boundaries exact for the cadences experiments
        // use (the final segment is clamped to the horizon regardless).
        let k = (sim.clock_s() / checkpoint_every_s).floor() as u64 + 1;
        let stop_s = k as f64 * checkpoint_every_s;
        if stop_s >= horizon_s {
            break;
        }
        sim.run_to(stop_s);
        let bytes = sim.checkpoint()?;
        snapshot_bytes.push(bytes.len());
        let config = sim.config().clone();
        sim = Simulation::resume(config, &bytes)?;
        segments += 1;
    }
    sim.run_to(horizon_s);
    let profile = sim.profile_stats();
    Ok(SplitRunOutcome {
        report: sim.finish(),
        segments,
        snapshot_bytes,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::sim::DemandTraffic;
    use pcm_ecc::CodeSpec;
    use pcm_workloads::WorkloadId;

    fn config(policy: PolicyKind) -> SimConfig {
        let mut b = SimConfig::builder();
        b.num_lines(1024)
            .policy(policy)
            .code(CodeSpec::bch_line(6))
            .traffic(DemandTraffic::suite(WorkloadId::KvCache))
            .horizon_s(3.0 * 3600.0)
            .seed(91)
            .repair(pcm_memsim::RepairConfig::default())
            .fault_campaign(
                "seed=9;stuck=lines:24,cells:2;seu=lines:256,count:2,window:3600"
                    .parse()
                    .expect("valid spec"),
            );
        b.build()
    }

    #[test]
    fn split_run_matches_continuous_for_every_policy() {
        let policies = [
            PolicyKind::Basic { interval_s: 900.0 },
            PolicyKind::Threshold {
                interval_s: 900.0,
                theta: 4,
            },
            PolicyKind::AgeAware {
                interval_s: 900.0,
                theta: 4,
                min_age_s: 600.0,
            },
            PolicyKind::Adaptive {
                interval_s: 900.0,
                theta: 4,
                regions: 16,
            },
            PolicyKind::combined_default(900.0),
        ];
        for policy in policies {
            let continuous = Simulation::new(config(policy.clone())).run();
            // 3 h horizon, 40 min cadence: 4 snapshots, one of which lands
            // mid-sweep (sweeps take 15 min and start at multiples of it).
            let split = run_split(config(policy.clone()), 2400.0).expect("split run");
            assert_eq!(split.segments, 5, "{policy:?}");
            assert_eq!(split.report, continuous, "{policy:?}");
            assert!(split.snapshot_bytes.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn cadence_beyond_horizon_is_a_single_segment() {
        let continuous = Simulation::new(config(PolicyKind::Basic { interval_s: 900.0 })).run();
        let split =
            run_split(config(PolicyKind::Basic { interval_s: 900.0 }), 1e9).expect("split run");
        assert_eq!(split.segments, 1);
        assert!(split.snapshot_bytes.is_empty());
        assert_eq!(split.report, continuous);
    }

    #[test]
    fn profile_tallies_ride_on_the_outcome() {
        let profiled = PolicyKind::Profiled {
            interval_s: 900.0,
            theta: 4,
            iops: 2.0 * 1024.0 / 900.0,
            burst: 64.0,
            max_defer: 8,
            capacity: 64,
            hot_stride: 4,
            stretch: 2,
            risk: 2,
        };
        let straight = run_split(config(profiled.clone()), 1e9).expect("split run");
        let stats = straight.profile.expect("a profiled policy has tallies");
        assert!(stats.hits > 0 && stats.dirty_probes > 0, "{stats:?}");
        // The tallies are checkpointed, so a split run ends with the same.
        let split = run_split(config(profiled), 2400.0).expect("split run");
        assert_eq!(split.profile, straight.profile);
        assert_eq!(split.report, straight.report);
        let basic =
            run_split(config(PolicyKind::Basic { interval_s: 900.0 }), 1e9).expect("split run");
        assert_eq!(basic.profile, None);
    }

    #[test]
    fn double_resume_from_same_bytes_is_idempotent() {
        let mut sim = Simulation::new(config(PolicyKind::combined_default(900.0)));
        sim.run_to(4000.0);
        let bytes = sim.checkpoint().expect("checkpoint");
        let cfg = sim.config().clone();
        let continuous = Simulation::new(cfg.clone()).run();
        // Resume twice from the same immutable bytes — the campaign
        // re-injection in `Simulation::new` must be fully overwritten so
        // a retried job replays identical randomness. The first attempt
        // consumes randomness partway and is dropped, as a failed job is.
        let mut dropped = Simulation::resume(cfg.clone(), &bytes).expect("resume");
        dropped.run_to(5400.0);
        drop(dropped);
        let retried = Simulation::resume(cfg, &bytes).expect("resume").finish();
        assert_eq!(retried, continuous);
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let mut sim = Simulation::new(config(PolicyKind::combined_default(900.0)));
        sim.run_to(1800.0);
        let bytes = sim.checkpoint().expect("checkpoint");
        let mut other = config(PolicyKind::combined_default(900.0));
        other.seed ^= 1;
        let err = Simulation::resume(other, &bytes).expect_err("must reject");
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn tripwire_snapshot_differs_but_decodes() {
        let mut sim = Simulation::new(config(PolicyKind::combined_default(900.0)));
        sim.run_to(1800.0);
        let good = sim.checkpoint().expect("checkpoint");
        let bad = sim.checkpoint_omitting_bank0_rng().expect("checkpoint");
        assert_eq!(good.len(), bad.len());
        assert_ne!(good, bad);
        // The sabotaged snapshot still opens — only the differential
        // harness can catch it.
        let cfg = sim.config().clone();
        Simulation::resume(cfg, &bad).expect("structurally valid");
    }
}
