//! The scrub engine: drives a policy against a memory — one slot at a
//! time, or whole batches of slots the policy can commit to in advance.

use std::sync::atomic::{AtomicBool, Ordering};

use pcm_memsim::{AccessResult, LineAddr, Memory, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
use crate::tick;

/// Test-only tripwire: when set, each batch leaves the slot clock one
/// slot late — it skips a slot that slot-by-slot stepping executes. The
/// differential harness flips this to prove it detects a skewed batch
/// rather than vacuously passing.
static SKEW_BATCH: AtomicBool = AtomicBool::new(false);

/// Enables/disables the deliberate batch skew. Test-only.
#[doc(hidden)]
pub fn set_skewed_batch_for_test(on: bool) {
    SKEW_BATCH.store(on, Ordering::Relaxed);
}

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
    /// The policy declined a batch plan, so it never batches: later slots
    /// skip counting the slot grid up to the next demand op.
    batches_declined: bool,
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
            batches_declined: false,
        }
    }

    /// When the next scrub slot is due.
    pub fn next_slot(&self) -> SimTime {
        tick::time_from_ticks(self.next_slot_tick)
    }

    /// The next slot as a raw tick on the engine's nanosecond grid.
    pub fn next_slot_tick(&self) -> u64 {
        self.next_slot_tick
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
        let now = self.next_slot();
        let action = {
            let ctx = ScrubContext { now, mem };
            self.policy.next_action(&ctx)
        };
        match action {
            ScrubAction::Probe(addr) => self.probe_slot(mem, addr, now, |policy, result, mem| {
                policy.wants_writeback(addr, result, &ScrubContext { now, mem })
            }),
            ScrubAction::Idle => self.stats.idle_slots += 1,
        }
        self.next_slot_tick += self.gap_ticks;
    }

    /// Executes every slot from [`ScrubEngine::next_slot`] up to `horizon`
    /// (and strictly before `demand_due`, which takes priority on ties) as
    /// one batch, if the policy supports batch planning.
    ///
    /// Returns `false` — executing nothing — when the policy cannot batch;
    /// the caller falls back to [`ScrubEngine::step`]. When it returns
    /// `true`, the memory, the policy's cursor, and the engine counters are
    /// in exactly the state the equivalent sequence of `step` calls would
    /// have produced.
    pub fn step_batch(
        &mut self,
        mem: &mut Memory,
        horizon: SimTime,
        demand_due: Option<SimTime>,
    ) -> bool {
        let due = |t: SimTime| t <= horizon && demand_due.is_none_or(|d| t < d);
        if self.batches_declined || !due(self.next_slot()) {
            return false;
        }
        let Some(plan) = self.policy.plan_batch() else {
            self.batches_declined = true;
            return false;
        };
        let rule = plan.rule;
        let lines = mem.geometry().num_lines();
        let mut line = plan.first.0;
        let (mut slots, mut idle) = (0, 0);
        // The slots on the tick grid `step` walks, while they stay due.
        loop {
            let now = self.next_slot();
            if !due(now) {
                break;
            }
            let addr = LineAddr(line);
            // The age gate reads the line's write time and draws nothing,
            // as the policy's `MinAge` gate does when stepping.
            if mem.line(addr).age_at(now) < plan.min_age_s {
                idle += 1;
            } else {
                self.probe_slot(mem, addr, now, |_, result, _| rule.fires(result));
            }
            line = if line + 1 == lines { 0 } else { line + 1 };
            slots += 1;
            self.next_slot_tick += self.gap_ticks;
        }
        self.stats.idle_slots += idle;
        self.policy.end_batch(slots, idle);
        if SKEW_BATCH.load(Ordering::Relaxed) {
            self.next_slot_tick += self.gap_ticks;
        }
        true
    }

    /// Runs one probed slot: the probe, the write-back that an
    /// uncorrectable result forces or `wants` chooses, the counters, and
    /// the decision event. `wants` sees every result, forced or not, so
    /// a policy observes each probe exactly once.
    fn probe_slot(
        &mut self,
        mem: &mut Memory,
        addr: LineAddr,
        now: SimTime,
        wants: impl FnOnce(&mut ScrubPolicy, &AccessResult, &Memory) -> bool,
    ) {
        self.stats.probe_slots += 1;
        let result = mem.scrub_probe(addr, now);
        let wants = wants(&mut self.policy, &result, mem);
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
    use pcm_memsim::{LineState, MemGeometry};
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

    /// Steps every slot up to `horizon` one at a time.
    fn step_to(engine: &mut ScrubEngine, mem: &mut Memory, horizon: SimTime) {
        while engine.next_slot() <= horizon {
            engine.step(mem);
        }
    }

    /// Asserts that two memories hold the same counters, energy and lines.
    fn assert_same_memory(a: &Memory, b: &Memory) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.energy(), b.energy());
        for addr in a.geometry().iter_lines() {
            assert_eq!(a.line(addr), b.line(addr), "line {addr}");
        }
    }

    /// The determinism contract at engine granularity: a batch leaves
    /// memory, policy, and counters bit-identical to slot-at-a-time
    /// stepping.
    #[test]
    fn step_batch_matches_sequential_steps_exactly() {
        let policies = [
            ScrubPolicy::basic(7200.0, 64),
            ScrubPolicy::threshold(7200.0, 64, 4),
            ScrubPolicy::age_aware(7200.0, 64, 4, 1800.0),
        ];
        // 5,121 slots at 112.5 s: with no demand one batch holds them all.
        let horizon = SimTime::from_secs(160.0 * 3600.0);
        for policy in &policies {
            let mut seq_mem = mem(CodeSpec::bch_line(6), 64, 90);
            let mut seq = ScrubEngine::new(policy.clone());
            step_to(&mut seq, &mut seq_mem, horizon);
            let mut bat_mem = mem(CodeSpec::bch_line(6), 64, 90);
            let mut bat = ScrubEngine::new(policy.clone());
            assert!(bat.step_batch(&mut bat_mem, horizon, None));
            assert!(bat.next_slot() > horizon, "one batch holds every slot");
            assert_eq!(bat.stats(), seq.stats());
            assert_eq!(bat.next_slot(), seq.next_slot());
            assert_same_memory(&bat_mem, &seq_mem);
        }
    }

    /// A batch of an age-aware policy over freshly written lines idles
    /// them and draws nothing for them: they keep the state their demand
    /// write left, and the memory ends equal to stepping's.
    #[test]
    fn batch_age_filter_skips_young_lines_without_draws() {
        // Slot k probes line k at 10k s. Each odd line is rewritten 5 s
        // before its slot; the even lines below 60 are under 600 s old.
        let policy = ScrubPolicy::age_aware(2560.0, 256, 2, 600.0);
        let horizon = SimTime::from_secs(2550.0);
        let odd = || (1..256u32).step_by(2).map(LineAddr);
        let fresh = || {
            let mut m = mem(CodeSpec::bch_line(6), 256, 92);
            for addr in odd() {
                m.demand_write(addr, SimTime::from_secs(10.0 * f64::from(addr.0) - 5.0));
            }
            m
        };
        let mut seq_mem = fresh();
        let mut seq = ScrubEngine::new(policy.clone());
        step_to(&mut seq, &mut seq_mem, horizon);
        let mut bat_mem = fresh();
        let written: Vec<LineState> = odd().map(|a| *bat_mem.line(a)).collect();
        let mut bat = ScrubEngine::new(policy);
        assert!(bat.step_batch(&mut bat_mem, horizon, None));
        assert_eq!(bat.stats().idle_slots, 128 + 30);
        assert_eq!(bat_mem.stats().scrub_probes, 98);
        for (addr, state) in odd().zip(&written) {
            assert_eq!(bat_mem.line(addr), state, "line {addr}");
        }
        assert_eq!(bat.stats(), seq.stats());
        assert_same_memory(&bat_mem, &seq_mem);
    }

    #[test]
    fn step_batch_respects_demand_due_and_tie_priority() {
        let mut m = mem(CodeSpec::bch_line(4), 16, 91);
        let mut e = ScrubEngine::new(ScrubPolicy::basic(160.0, 16));
        // Slots at t = 0, 10, 20, ...; demand due exactly at t = 30 (a tie
        // goes to demand, so slot 30 must NOT run).
        let due = Some(SimTime::from_secs(30.0));
        assert!(e.step_batch(&mut m, SimTime::from_secs(1000.0), due));
        assert_eq!(e.stats().probe_slots, 3);
        assert_eq!(e.next_slot(), SimTime::from_secs(30.0));
        // With the demand due *at* next_slot, there is nothing to batch.
        assert!(!e.step_batch(&mut m, SimTime::from_secs(1000.0), due));
    }

    #[test]
    #[should_panic(expected = "non-positive probe gap")]
    fn rejects_bad_gap() {
        // An unbounded interval leaves no slot gap the tick clock can hold.
        ScrubEngine::new(ScrubPolicy::basic(f64::INFINITY, 4));
    }
}
