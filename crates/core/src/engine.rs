//! The scrub engine: drives a policy against a memory, one slot at a
//! time.

use pcm_memsim::{LineAddr, Memory, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
use crate::tick;

/// Engine-side counters (memory-side counters live in
/// [`pcm_memsim::MemStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Slots where the policy chose to probe.
    pub probe_slots: u64,
    /// Slots the policy left idle (age skips, no region due).
    pub idle_slots: u64,
    /// Write-backs requested by the policy (excludes forced UE repairs).
    pub policy_writebacks: u64,
    /// Write-backs forced by uncorrectable outcomes.
    pub forced_writebacks: u64,
}

/// Drives a [`ScrubPolicy`] against a [`Memory`].
///
/// # Examples
///
/// ```
/// use scrub_core::{ScrubEngine, ScrubPolicy};
/// use pcm_memsim::{Memory, MemGeometry, SimTime};
/// use pcm_ecc::CodeSpec;
/// use pcm_model::DeviceConfig;
///
/// let mut mem = Memory::new(
///     MemGeometry::new(64, 2),
///     DeviceConfig::default(),
///     CodeSpec::secded_line(),
///     0,
/// );
/// let mut engine = ScrubEngine::new(ScrubPolicy::basic(64.0, 64));
/// while engine.next_slot() <= SimTime::from_secs(128.0) {
///     engine.step(&mut mem);
/// }
/// assert_eq!(mem.stats().scrub_probes, 129); // slots at t=0..=128
/// ```
#[derive(Debug)]
pub struct ScrubEngine {
    policy: ScrubPolicy,
    /// The policy's constant slot gap on the tick grid.
    gap_ticks: u64,
    /// Next slot on the integer nanosecond grid (see [`crate::tick`]);
    /// scheduling by tick addition is exact where f64 accumulation
    /// drifts one ulp per slot.
    next_slot_tick: u64,
    stats: EngineStats,
}

impl ScrubEngine {
    /// Wraps a policy; the first slot fires at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the policy's slot gap is not a positive, finite number
    /// of seconds the tick clock can hold.
    pub fn new(policy: ScrubPolicy) -> Self {
        Self {
            gap_ticks: tick::gap_to_ticks(policy.slot_gap_s()),
            policy,
            next_slot_tick: 0,
            stats: EngineStats::default(),
        }
    }

    /// When the next scrub slot is due.
    pub fn next_slot(&self) -> SimTime {
        tick::time_from_ticks(self.next_slot_tick)
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The policy being driven.
    pub fn policy(&self) -> &ScrubPolicy {
        &self.policy
    }

    /// Forwards a demand-write notification to the policy.
    pub fn notify_demand_write(&mut self, addr: LineAddr, now: SimTime) {
        if tel::enabled() {
            tel::counter_add(tel::Counter::DemandWriteNotifies, 1);
            tel::event(
                now.secs(),
                tel::EventKind::DemandWriteNotify { addr: addr.0 },
            );
        }
        self.policy.on_demand_write(addr, now);
    }

    /// Forwards a demand-read notification to the policy. No telemetry
    /// event is emitted (demand reads are already counted by the memory),
    /// keeping event streams identical for pre-existing policies.
    pub fn notify_demand_read(&mut self, addr: LineAddr, now: SimTime) {
        self.policy.on_demand_read(addr, now);
    }

    /// Executes the slot at [`ScrubEngine::next_slot`] and schedules the
    /// following one.
    pub fn step(&mut self, mem: &mut Memory) {
        self.step_at(mem, self.next_slot());
    }

    /// Steps every slot from [`ScrubEngine::next_slot`] up to `until` and
    /// strictly before `demand_due`: a demand op due at a slot's time runs
    /// first.
    pub(crate) fn step_until(
        &mut self,
        mem: &mut Memory,
        until: SimTime,
        demand_due: Option<SimTime>,
    ) {
        loop {
            let now = self.next_slot();
            if now > until || demand_due.is_some_and(|d| d <= now) {
                break;
            }
            self.step_at(mem, now);
        }
    }

    /// [`ScrubEngine::step`] for the slot due at `now`, the engine's
    /// [`ScrubEngine::next_slot`].
    fn step_at(&mut self, mem: &mut Memory, now: SimTime) {
        let action = {
            let ctx = ScrubContext { now, mem };
            self.policy.next_action(&ctx)
        };
        match action {
            ScrubAction::Probe(addr) => self.probe_slot(mem, addr, now),
            ScrubAction::Idle => self.stats.idle_slots += 1,
        }
        self.next_slot_tick += self.gap_ticks;
    }

    /// Runs one probed slot: the probe, the write-back that an
    /// uncorrectable result forces or the policy chooses, the counters,
    /// and the decision event. The policy sees every result, forced or
    /// not, so it observes each probe exactly once.
    fn probe_slot(&mut self, mem: &mut Memory, addr: LineAddr, now: SimTime) {
        self.stats.probe_slots += 1;
        let result = mem.scrub_probe(addr, now);
        let wants = self
            .policy
            .wants_writeback(addr, &result, &ScrubContext { now, mem });
        let forced = result.outcome.is_uncorrectable();
        if forced {
            // Data restored from higher-level redundancy; the line
            // itself must be rewritten either way.
            self.stats.forced_writebacks += 1;
            mem.scrub_writeback(addr, now);
        } else if wants {
            self.stats.policy_writebacks += 1;
            mem.scrub_writeback(addr, now);
        }
        if tel::enabled() {
            tel::event(
                now.secs(),
                tel::EventKind::WritebackDecision {
                    addr: addr.0,
                    observed_bits: result.persistent_bits,
                    fired: forced || wants,
                    forced,
                },
            );
        }
    }

    /// Serializes the engine's mutable state: the policy's name (as an
    /// identity check), the next slot tick, the slot counters, and the
    /// policy's own state.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_str(self.policy.name());
        w.put_u64(self.next_slot_tick);
        w.put_u64(self.stats.probe_slots);
        w.put_u64(self.stats.idle_slots);
        w.put_u64(self.stats.policy_writebacks);
        w.put_u64(self.stats.forced_writebacks);
        self.policy.save_state(w);
    }

    /// Restores state captured by [`ScrubEngine::save_state`] onto an
    /// engine freshly built around the same policy configuration.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let name = r.str()?;
        if name != self.policy.name() {
            return Err(CheckpointError::Malformed(format!(
                "policy mismatch: snapshot has {name:?}, config builds {:?}",
                self.policy.name()
            )));
        }
        let next_slot_tick = r.u64()?;
        if next_slot_tick > tick::MAX_TICK {
            return Err(CheckpointError::Malformed(format!(
                "engine next_slot tick {next_slot_tick} exceeds MAX_TICK"
            )));
        }
        let stats = EngineStats {
            probe_slots: r.u64()?,
            idle_slots: r.u64()?,
            policy_writebacks: r.u64()?,
            forced_writebacks: r.u64()?,
        };
        self.policy.load_state(r)?;
        self.next_slot_tick = next_slot_tick;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::CodeSpec;
    use pcm_memsim::MemGeometry;
    use pcm_model::DeviceConfig;

    fn mem(code: CodeSpec, lines: u32, seed: u64) -> Memory {
        Memory::new(
            MemGeometry::new(lines, 2),
            DeviceConfig::default(),
            code,
            seed,
        )
    }

    #[test]
    fn slots_advance_by_gap() {
        let mut m = mem(CodeSpec::bch_line(4), 10, 81);
        let mut e = ScrubEngine::new(ScrubPolicy::basic(100.0, 10));
        assert_eq!(e.next_slot(), SimTime::ZERO);
        e.step(&mut m);
        assert!((e.next_slot().secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn basic_engine_scrubs_and_repairs_old_memory() {
        let mut m = mem(CodeSpec::secded_line(), 32, 82);
        // A sweep "interval" of 32 weeks makes each slot land a week after
        // the previous one, so every probed line is ancient by its slot.
        let mut e = ScrubEngine::new(ScrubPolicy::basic(604_800.0 * 32.0, 32));
        for _ in 0..32 {
            e.step(&mut m);
        }
        // With a gap of a week per slot, every probed line is ancient.
        assert_eq!(m.stats().scrub_probes, 32);
        assert!(
            m.stats().scrub_writebacks >= 30,
            "stale lines should all need write-back, got {}",
            m.stats().scrub_writebacks
        );
        assert!(e.stats().probe_slots == 32);
    }

    #[test]
    fn threshold_engine_writes_less_than_basic() {
        let run = |policy: ScrubPolicy, seed: u64| -> (u64, u64) {
            let mut m = mem(CodeSpec::bch_line(6), 64, seed);
            let mut e = ScrubEngine::new(policy);
            // 20 sweeps at 2h each over 64 lines.
            while e.next_slot() < SimTime::from_secs(40.0 * 3600.0) {
                e.step(&mut m);
            }
            (m.stats().scrub_writebacks, m.stats().scrub_probes)
        };
        let (basic_wb, basic_probes) = run(ScrubPolicy::basic(7200.0, 64), 83);
        let (lazy_wb, lazy_probes) = run(ScrubPolicy::threshold(7200.0, 64, 5), 83);
        assert_eq!(basic_probes, lazy_probes);
        assert!(
            lazy_wb * 3 < basic_wb.max(3),
            "lazy {lazy_wb} vs basic {basic_wb} write-backs"
        );
    }

    #[test]
    #[should_panic(expected = "non-positive probe gap")]
    fn rejects_bad_gap() {
        // An unbounded interval leaves no slot gap the tick clock can hold.
        ScrubEngine::new(ScrubPolicy::basic(f64::INFINITY, 4));
    }
}
