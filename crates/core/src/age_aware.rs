//! The `MinAge` gate of the age-aware and combined policies: skip lines
//! too young to have drifted.
//!
//! Drift error probability is a function of time since the last write,
//! so a young line is (nearly) clean and probing it wastes energy and
//! bandwidth. Hardware-wise this models a controller that keeps a coarse
//! per-region last-write timestamp, which memory controllers already
//! maintain for scheduling.

use pcm_memsim::{LineAddr, Memory, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

/// Admits only lines at least `min_age_s` old, counting the skips.
#[derive(Debug, Clone)]
pub(crate) struct AgeGate {
    min_age_s: f64,
    /// Slots skipped so far (checkpointed).
    pub(crate) skipped: u64,
}

impl AgeGate {
    /// # Panics
    ///
    /// Panics if `min_age_s < 0`.
    pub(crate) fn new(min_age_s: f64) -> Self {
        assert!(min_age_s >= 0.0, "min age must be nonnegative");
        Self {
            min_age_s,
            skipped: 0,
        }
    }

    /// Whether `addr` is old enough to probe at `now`; a refusal counts
    /// as a skip.
    pub(crate) fn admits(&mut self, mem: &Memory, addr: LineAddr, now: SimTime) -> bool {
        let young = mem.line(addr).age_at(now) < self.min_age_s;
        if young {
            self.skipped += 1;
        }
        !young
    }

    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.skipped);
    }

    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.skipped = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScrubAction, ScrubContext, ScrubPolicy};
    use pcm_ecc::CodeSpec;
    use pcm_memsim::MemGeometry;
    use pcm_model::DeviceConfig;

    fn mem() -> Memory {
        Memory::new(
            MemGeometry::new(8, 2),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            2,
        )
    }

    #[test]
    fn skips_young_lines() {
        let mut m = mem();
        // Refresh line 0 just now; leave others at age 1000.
        let now = SimTime::from_secs(1000.0);
        m.demand_write(LineAddr(0), now);
        let mut p = ScrubPolicy::age_aware(80.0, 8, 3, 600.0);
        let ctx = ScrubContext { now, mem: &m };
        assert_eq!(p.next_action(&ctx), ScrubAction::Idle, "line 0 is fresh");
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(1)));
        let mut gate = AgeGate::new(600.0);
        assert!(!gate.admits(&m, LineAddr(0), now));
        assert!(gate.admits(&m, LineAddr(1), now));
        assert_eq!(gate.skipped, 1);
    }

    #[test]
    fn probes_everything_when_min_age_zero() {
        let m = mem();
        let mut p = ScrubPolicy::age_aware(80.0, 8, 3, 0.0);
        let ctx = ScrubContext {
            now: SimTime::from_secs(5.0),
            mem: &m,
        };
        for i in 0..8 {
            assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(i)));
        }
    }
}
