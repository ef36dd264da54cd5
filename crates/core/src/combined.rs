//! The combined mechanism: everything the paper proposes, together.

use pcm_memsim::{AccessResult, LineAddr, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::adaptive::RegionScheduler;
use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
use crate::threshold::ThresholdScrub;

/// The paper's combined scrub mechanism: strong ECC headroom exploited by
/// a lazy write-back threshold, lightweight detection probes, drift-age
/// skipping, and per-region adaptive pacing — all at once.
///
/// Pair it with a strong code (`CodeSpec::bch_line(6)` in the headline
/// configuration); the policy itself is code-agnostic.
///
/// # Examples
///
/// ```
/// use scrub_core::CombinedScrub;
/// let p = CombinedScrub::new(900.0, 65_536, 5, 64, 600.0);
/// assert_eq!(p.theta(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct CombinedScrub {
    sched: RegionScheduler,
    num_lines: u32,
    theta: u32,
    min_age_s: f64,
    skipped: u64,
}

impl CombinedScrub {
    /// Creates the combined scrubber.
    ///
    /// * `base_interval_s` — nominal full-sweep interval.
    /// * `theta` — lazy write-back threshold (≤ code's `t`).
    /// * `num_regions` — adaptive pacing granularity.
    /// * `min_age_s` — age below which lines are skipped.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (see [`crate::AdaptiveScrub::new`]).
    pub fn new(
        base_interval_s: f64,
        num_lines: u32,
        theta: u32,
        num_regions: u32,
        min_age_s: f64,
    ) -> Self {
        assert!(base_interval_s > 0.0, "scrub interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        assert!(theta >= 1, "theta must be >= 1");
        assert!(min_age_s >= 0.0, "min age must be nonnegative");
        Self {
            sched: RegionScheduler::new(num_lines, num_regions, base_interval_s, theta),
            num_lines,
            theta,
            min_age_s,
            skipped: 0,
        }
    }

    /// The lazy write-back threshold.
    pub fn theta(&self) -> u32 {
        self.theta
    }

    /// Probes skipped by the age filter so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Mean region interval multiplier (diagnostic).
    pub fn mean_interval_multiplier(&self) -> f64 {
        self.sched.mean_mult()
    }
}

impl ScrubPolicy for CombinedScrub {
    fn name(&self) -> &str {
        "combined"
    }

    fn probe_gap_s(&self, _ctx: &ScrubContext<'_>) -> f64 {
        self.sched.base_interval_s / self.num_lines as f64
    }

    fn next_action(&mut self, ctx: &ScrubContext<'_>) -> ScrubAction {
        match self.sched.next_line(ctx.now) {
            Some(addr) => {
                let age = ctx.mem.line(addr).age_at(ctx.now);
                if age < self.min_age_s {
                    self.skipped += 1;
                    // Count the skip as a clean observation so a freshly
                    // written (hence clean) region relaxes its pace.
                    self.sched.record_probe(addr, 0);
                    ScrubAction::Idle
                } else {
                    ScrubAction::Probe(addr)
                }
            }
            None => ScrubAction::Idle,
        }
    }

    fn wants_writeback(
        &mut self,
        addr: LineAddr,
        result: &AccessResult,
        _ctx: &ScrubContext<'_>,
    ) -> bool {
        self.sched.record_probe(addr, result.persistent_bits);
        ThresholdScrub::threshold_rule(self.theta, result)
    }

    fn on_demand_write(&mut self, _addr: LineAddr, _now: SimTime) {}

    fn save_state(&self, w: &mut Writer) {
        self.sched.save_state(w);
        w.put_u64(self.skipped);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.sched.load_state(r)?;
        self.skipped = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::CodeSpec;
    use pcm_memsim::{MemGeometry, Memory};
    use pcm_model::DeviceConfig;
    #[test]
    fn skips_young_lines_but_probes_old() {
        let mut mem = Memory::new(
            MemGeometry::new(8, 2),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            4,
        );
        let now = SimTime::from_secs(10_000.0);
        mem.demand_write(LineAddr(0), now);
        let mut p = CombinedScrub::new(80.0, 8, 5, 2, 600.0);
        let ctx = ScrubContext { now, mem: &mem };
        // Line 0 was just written: slot goes idle.
        assert_eq!(p.next_action(&ctx), ScrubAction::Idle);
        assert_eq!(p.skipped(), 1);
        // Line 1 is 10000s old: probed.
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(1)));
    }

    #[test]
    fn writeback_follows_threshold_rule() {
        let mut p = CombinedScrub::new(900.0, 64, 5, 4, 0.0);
        let mem = Memory::new(
            MemGeometry::new(64, 2),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            5,
        );
        let ctx = ScrubContext {
            now: SimTime::from_secs(1.0),
            mem: &mem,
        };
        let low = AccessResult {
            outcome: pcm_ecc::ClassifyOutcome::Corrected { bits: 2 },
            persistent_bits: 2,
            new_ue: false,
        };
        let high = AccessResult {
            outcome: pcm_ecc::ClassifyOutcome::Corrected { bits: 5 },
            persistent_bits: 5,
            new_ue: false,
        };
        assert!(!p.wants_writeback(LineAddr(0), &low, &ctx));
        assert!(p.wants_writeback(LineAddr(1), &high, &ctx));
    }
}
