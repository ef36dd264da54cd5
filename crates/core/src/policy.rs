//! The scrub policy: one type composed along the three axes of the
//! Scrubbing TLA spec — see [`ScrubPolicy`].

use pcm_memsim::{AccessResult, LineAddr, Memory, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::adaptive::RegionScheduler;
use crate::age_aware::AgeGate;
use crate::profiled::{ProfileParams, RiskProfile};
use crate::threshold::{fires, lazy, SweepRule};
use crate::tour::{TokenBucket, TourBudget, TourCursor};

/// Salt mixed into the run seed for the tour kind's per-bank origins.
const TOUR_ORIGIN_SALT: u64 = 0x0074_5552;
/// Salt for the profiled kind's origins, so a profiled shard and a tour
/// shard with the same seed walk different tours.
const PROFILED_ORIGIN_SALT: u64 = 0x0070_5246;

/// Read-only context a policy sees when deciding its next move.
#[derive(Debug)]
pub struct ScrubContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The memory being scrubbed (for line ages, geometry, code).
    pub mem: &'a Memory,
}

/// What the policy wants to do with its next scrub slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubAction {
    /// Probe this line (read + syndrome check).
    Probe(LineAddr),
    /// Spend the slot idle (e.g. every candidate line is too young to be
    /// worth probing).
    Idle,
}

/// Which line next.
#[derive(Debug, Clone)]
enum Schedule {
    /// Every line in address order, wrapping.
    Sweep(SweepCursor),
    /// Independently paced regions (AIMD on observed error pressure).
    Regions(RegionScheduler),
    /// Bank-interleaved tour from seeded per-bank origins.
    Tour(TourCursor),
}

/// May we probe now.
#[derive(Debug, Clone)]
enum Gate {
    /// Every scheduled line is probed.
    Open,
    /// Lines younger than a minimum age are skipped.
    MinAge(AgeGate),
    /// A token bucket shared with demand traffic.
    Bucket(TokenBucket),
}

/// A scrub mechanism: decides *which* lines to probe *when*, and whether
/// a probed line earns an (expensive, wear-inducing) corrective
/// write-back.
///
/// A policy is composed along the three axes of the Scrubbing TLA spec:
///
/// * the **schedule** says which line is next: a [`SweepCursor`] over
///   every line in address order, per-region AIMD pacing, or a
///   bank-interleaved tour from seeded per-bank origins ([`TourCursor`]);
/// * the **gate** says whether the slot may probe now: always, only
///   lines at least `min_age_s` old, or only with a token from the bucket
///   shared with demand traffic ([`TokenBucket`]);
/// * the **write-back rule** says what a detection triggers: write back
///   on any error or once persistent errors reach θ, plus an
///   unconditional write-back on uncorrectable results.
///
/// An optional risk profile ([`RiskProfile`]) steers a tour toward
/// error-prone lines and relaxes the rule by one error for lines it has
/// not profiled. Each [`crate::PolicyKind`] is one constructor:
///
/// | kind | schedule | gate | rule | profile |
/// |------|----------|------|------|---------|
/// | basic | sweep | open | any error | – |
/// | threshold | sweep | open | θ | – |
/// | age-aware | sweep | min age | θ | – |
/// | adaptive | regions | open | θ | – |
/// | combined | regions | min age | θ | – |
/// | tour | tour | bucket | θ | – |
/// | profiled | tour | bucket | θ | risk table |
///
/// Checkpoints hold each part's mutable state once, in the fixed order
/// schedule → gate → profile → tour-origin trailer.
///
/// The [`crate::ScrubEngine`] drives a policy one slot at a time:
/// `next_action` picks the victim, `wants_writeback` decides the
/// write-back, and the demand notifications let the policy track
/// drift-clock resets and charge demand against a shared token bucket.
/// Every kind paces its slots at the constant gap `interval_s /
/// num_lines`.
///
/// # Examples
///
/// ```
/// use scrub_core::ScrubPolicy;
/// // The paper's combined mechanism: region pacing, an age gate, and
/// // lazy write-back at 4 errors.
/// let p = ScrubPolicy::combined(900.0, 4096, 4, 64, 600.0);
/// assert_eq!(p.name(), "combined");
/// assert_eq!(p.slot_gap_s(), 900.0 / 4096.0);
/// ```
#[derive(Debug, Clone)]
pub struct ScrubPolicy {
    name: &'static str,
    interval_s: f64,
    num_lines: u32,
    schedule: Schedule,
    gate: Gate,
    rule: SweepRule,
    profile: Option<RiskProfile>,
}

impl ScrubPolicy {
    fn new(
        name: &'static str,
        interval_s: f64,
        num_lines: u32,
        schedule: Schedule,
        gate: Gate,
        rule: SweepRule,
        profile: Option<RiskProfile>,
    ) -> Self {
        assert!(interval_s > 0.0, "scrub interval must be positive");
        assert!(num_lines > 0, "need at least one line");
        Self {
            name,
            interval_s,
            num_lines,
            schedule,
            gate,
            rule,
            profile,
        }
    }

    /// DRAM-heritage scrub, the paper's baseline: sweep every line once
    /// per `interval_s` and write back whenever a probe finds *any*
    /// error, exploiting neither strong-ECC headroom nor line age.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not positive or `num_lines` is zero
    /// (as every constructor does).
    pub fn basic(interval_s: f64, num_lines: u32) -> Self {
        let sweep = Schedule::Sweep(SweepCursor::new());
        Self::new(
            "basic",
            interval_s,
            num_lines,
            sweep,
            Gate::Open,
            SweepRule::AnyError,
            None,
        )
    }

    /// Lightweight detection with lazy write-back: probe every line each
    /// sweep, but only pay the write-back once the line's persistent
    /// error count reaches `theta` (≤ the code's `t`).
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` (that would be [`ScrubPolicy::basic`]).
    pub fn threshold(interval_s: f64, num_lines: u32, theta: u32) -> Self {
        let sweep = Schedule::Sweep(SweepCursor::new());
        Self::new(
            "threshold",
            interval_s,
            num_lines,
            sweep,
            Gate::Open,
            lazy(theta),
            None,
        )
    }

    /// Threshold scrub that skips lines younger than `min_age_s`.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or `min_age_s < 0`.
    pub fn age_aware(interval_s: f64, num_lines: u32, theta: u32, min_age_s: f64) -> Self {
        let sweep = Schedule::Sweep(SweepCursor::new());
        Self::new(
            "age-aware",
            interval_s,
            num_lines,
            sweep,
            Gate::MinAge(AgeGate::new(min_age_s)),
            lazy(theta),
            None,
        )
    }

    /// Threshold scrub over `regions` independently paced regions: clean
    /// regions relax up to 4× slower, regions under error pressure
    /// speed up to 4× faster.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0` or `regions == 0`.
    pub fn adaptive(interval_s: f64, num_lines: u32, theta: u32, regions: u32) -> Self {
        let regions =
            Schedule::Regions(RegionScheduler::new(num_lines, regions, interval_s, theta));
        Self::new(
            "adaptive",
            interval_s,
            num_lines,
            regions,
            Gate::Open,
            lazy(theta),
            None,
        )
    }

    /// The paper's combined mechanism: region pacing, the age gate, and
    /// lazy write-back at `theta`, all at once. A skipped young line
    /// counts as a clean observation for its region.
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0`, `regions == 0`, or `min_age_s < 0`.
    pub fn combined(
        interval_s: f64,
        num_lines: u32,
        theta: u32,
        regions: u32,
        min_age_s: f64,
    ) -> Self {
        let regions =
            Schedule::Regions(RegionScheduler::new(num_lines, regions, interval_s, theta));
        Self::new(
            "combined",
            interval_s,
            num_lines,
            regions,
            Gate::MinAge(AgeGate::new(min_age_s)),
            lazy(theta),
            None,
        )
    }

    /// IOPS-budgeted tour over `banks` banks, with per-bank origins
    /// derived from `seed`, spending from a token bucket shared with
    /// demand traffic ([`TokenBucket`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use scrub_core::{ScrubPolicy, TourBudget};
    /// let budget = TourBudget { iops: 200.0, burst: 64.0, max_defer: 8 };
    /// let p = ScrubPolicy::tour(900.0, 65_536, 8, 4, budget, 7);
    /// assert_eq!(p.progress_bound_slots(), Some(65_536 * 9));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `theta == 0`, `banks == 0`, or the budget is invalid
    /// (non-positive `iops`, `burst` below one token).
    pub fn tour(
        interval_s: f64,
        num_lines: u32,
        banks: u32,
        theta: u32,
        budget: TourBudget,
        seed: u64,
    ) -> Self {
        let tour = TourCursor::new(num_lines, banks, seed ^ TOUR_ORIGIN_SALT);
        Self::new(
            "tour",
            interval_s,
            num_lines,
            Schedule::Tour(tour),
            Gate::Bucket(TokenBucket::new(budget)),
            lazy(theta),
            None,
        )
    }

    /// Profiling-guided tour: the budgeted tour plus a bounded per-line
    /// risk table that adds hot-line probes, stretches quiet lines over
    /// several tours, and writes quiet lines back at `theta + 1` (see
    /// [`RiskProfile`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use scrub_core::{ProfileParams, ScrubPolicy, TourBudget};
    /// let budget = TourBudget { iops: 200.0, burst: 64.0, max_defer: 8 };
    /// let p = ScrubPolicy::profiled(900.0, 65_536, 8, 4, budget, ProfileParams::default(), 7);
    /// assert!(p.progress_bound_slots().expect("budgeted") >= 2 * 65_536 * 9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on the tour's invalid inputs, plus `capacity == 0`,
    /// `hot_stride < 2`, `stretch == 0`, or `risk == 0`.
    pub fn profiled(
        interval_s: f64,
        num_lines: u32,
        banks: u32,
        theta: u32,
        budget: TourBudget,
        params: ProfileParams,
        seed: u64,
    ) -> Self {
        let tour = TourCursor::new(num_lines, banks, seed ^ PROFILED_ORIGIN_SALT);
        Self::new(
            "profiled",
            interval_s,
            num_lines,
            Schedule::Tour(tour),
            Gate::Bucket(TokenBucket::new(budget)),
            lazy(theta),
            Some(RiskProfile::new(params, num_lines, seed)),
        )
    }

    /// Short name for reports and checkpoints, e.g. `"basic"`.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Seconds between scrub slots: `interval_s / num_lines`, constant
    /// over the policy's life.
    pub fn slot_gap_s(&self) -> f64 {
        self.interval_s / self.num_lines as f64
    }

    /// [`ScrubPolicy::slot_gap_s`], for callers that drive the slot loop
    /// themselves with a context in hand.
    pub fn probe_gap_s(&self, _ctx: &ScrubContext<'_>) -> f64 {
        self.slot_gap_s()
    }

    /// The scrub slot times (seconds) the engine will execute up to and
    /// including `horizon_s`, replicated bit-for-bit: the same integer
    /// tick-grid accumulation as [`crate::ScrubEngine`] (starting at
    /// tick zero; see [`crate::tick`]), *not* a freestanding `k·gap` in
    /// floating point, which would diverge from the engine's schedule.
    ///
    /// Under [`ScrubPolicy::basic`], slot `j` probes line
    /// `j mod num_lines` and no slot idles. This is the hook the
    /// `scrub-oracle` crate builds its closed-form probe/write predictions
    /// on: because the times match the engine exactly, oracle probe
    /// counts are exact rather than ±1 near the horizon.
    ///
    /// # Examples
    ///
    /// ```
    /// use scrub_core::ScrubPolicy;
    /// let p = ScrubPolicy::basic(160.0, 16); // gap = 10 s
    /// assert_eq!(p.slot_times_within(35.0), vec![0.0, 10.0, 20.0, 30.0]);
    /// assert_eq!(p.slot_times_within(30.0).len(), 4); // t = 30 inclusive
    /// ```
    pub fn slot_times_within(&self, horizon_s: f64) -> Vec<f64> {
        let horizon = SimTime::from_secs(horizon_s);
        let gap_ticks = crate::tick::gap_to_ticks(self.slot_gap_s());
        let mut times = Vec::new();
        let mut tk = 0u64;
        loop {
            let t = crate::tick::time_from_ticks(tk);
            if t > horizon {
                break;
            }
            times.push(t.secs());
            tk += gap_ticks;
        }
        times
    }

    /// The `ScrubProgress` bound of a budgeted policy: no line goes more
    /// than this many slots between probes, however hard demand drains
    /// the bucket. Each granted probe costs at most `max_defer + 1`
    /// slots; a tour grants `num_lines` cursor steps plus, with a
    /// profile, the hot interleave's stolen grants; and a profile's quiet
    /// stretch makes every line due once per `stretch` tours. `None` for
    /// policies without a token bucket.
    pub fn progress_bound_slots(&self) -> Option<u64> {
        let Gate::Bucket(bucket) = &self.gate else {
            return None;
        };
        let lines = u64::from(self.num_lines);
        let (stretch, hot_steals) = match &self.profile {
            Some(p) => (
                u64::from(p.params().stretch),
                lines.div_ceil(u64::from(p.params().hot_stride) - 1) + 1,
            ),
            None => (1, 0),
        };
        Some(stretch * (u64::from(bucket.budget().max_defer) + 1) * (lines + hot_steals))
    }

    /// The tour schedule, for policies that walk one.
    pub fn tour_cursor(&self) -> Option<&TourCursor> {
        match &self.schedule {
            Schedule::Tour(tour) => Some(tour),
            Schedule::Sweep(_) | Schedule::Regions(_) => None,
        }
    }

    /// The token-bucket gate, for budgeted policies.
    pub fn bucket(&self) -> Option<&TokenBucket> {
        match &self.gate {
            Gate::Bucket(bucket) => Some(bucket),
            Gate::Open | Gate::MinAge(_) => None,
        }
    }

    /// The risk profile, for the profiled policy.
    pub fn profile(&self) -> Option<&RiskProfile> {
        self.profile.as_ref()
    }

    /// Chooses the next slot's action.
    pub fn next_action(&mut self, ctx: &ScrubContext<'_>) -> ScrubAction {
        // The bucket gates the slot before any line is chosen: a
        // throttled slot leaves the schedule where it was.
        let grant = match &mut self.gate {
            Gate::Bucket(bucket) => match bucket.admit(ctx.now) {
                Some(grant) => Some(grant),
                None => return ScrubAction::Idle,
            },
            Gate::Open | Gate::MinAge(_) => None,
        };
        let Some(addr) = self.next_line(ctx.now) else {
            return ScrubAction::Idle;
        };
        let admitted = match (&mut self.gate, grant) {
            (Gate::MinAge(gate), _) => gate.admits(ctx.mem, addr, ctx.now),
            (Gate::Bucket(bucket), Some(grant)) => {
                bucket.spend(grant);
                true
            }
            _ => true,
        };
        if !admitted {
            // A young line is clean evidence: count the skip as a clean
            // probe so a freshly written region relaxes.
            if let Schedule::Regions(regions) = &mut self.schedule {
                regions.record_probe(addr, 0);
            }
            return ScrubAction::Idle;
        }
        if let Some(profile) = &mut self.profile {
            profile.on_grant();
        }
        ScrubAction::Probe(addr)
    }

    /// The schedule's next line, steered by the profile; `None` idles the
    /// slot.
    fn next_line(&mut self, now: SimTime) -> Option<LineAddr> {
        match &mut self.schedule {
            Schedule::Sweep(cursor) => Some(cursor.advance(self.num_lines).0),
            Schedule::Regions(regions) => regions.next_line(now),
            Schedule::Tour(tour) => {
                if let Some(hot) = self.profile.as_mut().and_then(RiskProfile::hot_turn) {
                    return Some(hot);
                }
                let this_tour = tour.tours_completed();
                let (addr, tour_done) = tour.advance();
                if let (true, Gate::Bucket(bucket)) = (tour_done, &mut self.gate) {
                    bucket.end_tour();
                }
                // A quiet line not due this tour idles the slot without
                // spending its token.
                let quiet = self
                    .profile
                    .as_ref()
                    .is_some_and(|p| p.skips(addr, this_tour));
                (!quiet).then_some(addr)
            }
        }
    }

    /// Inspects a probe result; `true` requests a corrective write-back.
    /// Uncorrectable results always answer `true`; the engine writes
    /// those lines back regardless (data is restored from higher-level
    /// redundancy).
    pub fn wants_writeback(
        &mut self,
        addr: LineAddr,
        result: &AccessResult,
        _ctx: &ScrubContext<'_>,
    ) -> bool {
        if let Schedule::Regions(regions) = &mut self.schedule {
            regions.record_probe(addr, result.persistent_bits);
        }
        let unprofiled = self
            .profile
            .as_mut()
            .is_some_and(|p| !p.observe(addr, result));
        let rule = match self.rule {
            // Lazy-plus: a line the profile has no history for waits one
            // more error.
            SweepRule::Threshold { theta } if unprofiled => {
                SweepRule::Threshold { theta: theta + 1 }
            }
            rule => rule,
        };
        fires(rule, result)
    }

    /// Notification that a demand write refreshed `addr` at `now`.
    pub fn on_demand_write(&mut self, addr: LineAddr, now: SimTime) {
        if let Gate::Bucket(bucket) = &mut self.gate {
            bucket.charge_demand(now);
        }
        if let Some(profile) = &mut self.profile {
            profile.on_demand_write(addr);
        }
    }

    /// Notification that a demand read touched `addr` at `now`; budgeted
    /// policies charge it against the shared token bucket.
    pub fn on_demand_read(&mut self, _addr: LineAddr, now: SimTime) {
        if let Gate::Bucket(bucket) = &mut self.gate {
            bucket.charge_demand(now);
        }
    }

    /// Serializes the policy's *mutable* state for checkpointing:
    /// schedule, gate, profile, then the tour's origins. Configuration
    /// is not written: a resume rebuilds the policy from the run config
    /// and then overlays this state via [`ScrubPolicy::load_state`].
    pub fn save_state(&self, w: &mut Writer) {
        match &self.schedule {
            Schedule::Sweep(cursor) => w.put_u32(cursor.position()),
            Schedule::Regions(regions) => regions.save_state(w),
            Schedule::Tour(tour) => tour.save_state(w),
        }
        match &self.gate {
            Gate::Open => {}
            Gate::MinAge(gate) => gate.save_state(w),
            Gate::Bucket(bucket) => bucket.save_state(w),
        }
        if let Some(profile) = &self.profile {
            profile.save_state(w);
        }
        if let Schedule::Tour(tour) = &self.schedule {
            tour.save_origins(w);
        }
    }

    /// Restores state captured by [`ScrubPolicy::save_state`] onto a
    /// freshly built policy with identical configuration. Ranges are
    /// validated (cursors within the line space, multipliers and tokens
    /// within their bounds, origins matching the seed), and a violation
    /// returns a typed error instead of panicking; the policy is then
    /// partly restored and must be discarded.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        match &mut self.schedule {
            Schedule::Sweep(cursor) => cursor.set_position(r.u32()?, self.num_lines)?,
            Schedule::Regions(regions) => regions.load_state(r)?,
            Schedule::Tour(tour) => tour.load_state(r)?,
        }
        match &mut self.gate {
            Gate::Open => {}
            Gate::MinAge(gate) => gate.load_state(r)?,
            Gate::Bucket(bucket) => bucket.load_state(r)?,
        }
        if let Some(profile) = &mut self.profile {
            profile.load_state(r)?;
        }
        if let Schedule::Tour(tour) = &self.schedule {
            tour.check_origins(r)?;
        }
        Ok(())
    }

    /// Test-only tripwire: disables the token bucket's anti-starvation
    /// boost, so saturating demand starves the tour. The starvation
    /// proptest proves its harness catches this unfair variant.
    #[doc(hidden)]
    pub fn set_unfair_for_test(&mut self, unfair: bool) {
        if let Gate::Bucket(bucket) = &mut self.gate {
            bucket.set_unfair(unfair);
        }
    }

    /// Test-only tripwire: makes checkpoint restore drop the learned risk
    /// table, so the restored twin schedules differently from the
    /// original. The profiled proptests prove their harness catches this.
    #[doc(hidden)]
    pub fn set_forgetful_for_test(&mut self, forgetful: bool) {
        if let Some(profile) = &mut self.profile {
            profile.set_forgetful(forgetful);
        }
    }
}

/// Round-robin sweep cursor: the `Sweep` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCursor {
    next: u32,
}

impl SweepCursor {
    /// Starts a sweep at line 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current line and advances, wrapping at `num_lines`,
    /// which every call must pass unchanged. Also reports whether this
    /// call completed a full sweep.
    pub fn advance(&mut self, num_lines: u32) -> (LineAddr, bool) {
        let addr = LineAddr(self.next);
        self.next += 1;
        if self.next == num_lines {
            self.next = 0;
        }
        (addr, self.next == 0)
    }

    /// The line the next slot will probe (for checkpointing).
    pub fn position(&self) -> u32 {
        self.next
    }

    /// Restores a position captured by [`SweepCursor::position`],
    /// rejecting values outside the sweep's line space.
    pub fn set_position(&mut self, next: u32, num_lines: u32) -> Result<(), CheckpointError> {
        if next >= num_lines {
            return Err(CheckpointError::Malformed(format!(
                "sweep cursor {next} out of range ({num_lines} lines)"
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_ecc::{ClassifyOutcome, CodeSpec};
    use pcm_memsim::MemGeometry;
    use pcm_model::DeviceConfig;

    fn mem(lines: u32, code: CodeSpec, seed: u64) -> Memory {
        Memory::new(
            MemGeometry::new(lines, 2),
            DeviceConfig::default(),
            code,
            seed,
        )
    }

    fn res(bits: u32, outcome: ClassifyOutcome) -> AccessResult {
        AccessResult {
            outcome,
            persistent_bits: bits,
            new_ue: false,
        }
    }

    fn skipped(p: &ScrubPolicy) -> u64 {
        match &p.gate {
            Gate::MinAge(gate) => gate.skipped,
            Gate::Open | Gate::Bucket(_) => 0,
        }
    }

    #[test]
    fn cursor_wraps_and_flags_sweep_end() {
        let mut c = SweepCursor::new();
        let (a0, end0) = c.advance(3);
        assert_eq!(a0, LineAddr(0));
        assert!(!end0);
        let (_, end1) = c.advance(3);
        assert!(!end1);
        let (a2, end2) = c.advance(3);
        assert_eq!(a2, LineAddr(2));
        assert!(end2);
        let (a3, _) = c.advance(3);
        assert_eq!(a3, LineAddr(0));
    }

    #[test]
    fn sweeps_in_physical_order() {
        let mem = mem(16, CodeSpec::secded_line(), 1);
        let mut p = ScrubPolicy::basic(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        for i in 0..16 {
            assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(i)));
        }
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(0)));
    }

    #[test]
    fn gap_is_interval_over_lines() {
        let mem = mem(16, CodeSpec::secded_line(), 1);
        let p = ScrubPolicy::basic(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        assert!((p.probe_gap_s(&ctx) - 10.0).abs() < 1e-12);
    }

    /// The hook's contract: slot times equal the engine's actual probe
    /// schedule, including the floating-point accumulation quirks.
    #[test]
    fn slot_times_match_engine_exactly() {
        use crate::engine::ScrubEngine;
        let interval = 700.0; // gap = 700/16 = 43.75: inexact accumulation
        let horizon = 10_000.0;
        let predicted = ScrubPolicy::basic(interval, 16).slot_times_within(horizon);
        let mut mem = mem(16, CodeSpec::secded_line(), 1);
        let mut engine = ScrubEngine::new(ScrubPolicy::basic(interval, 16));
        let mut actual = Vec::new();
        while engine.next_slot() <= SimTime::from_secs(horizon) {
            actual.push(engine.next_slot().secs());
            engine.step(&mut mem);
        }
        assert_eq!(predicted, actual, "slot schedule diverged from engine");
        assert_eq!(engine.stats().probe_slots, actual.len() as u64);
    }

    #[test]
    fn writes_back_on_any_error() {
        let mem = mem(16, CodeSpec::secded_line(), 1);
        let mut p = ScrubPolicy::basic(160.0, 16);
        let ctx = ScrubContext {
            now: SimTime::ZERO,
            mem: &mem,
        };
        let clean = res(0, ClassifyOutcome::Clean);
        let one = res(1, ClassifyOutcome::Corrected { bits: 1 });
        assert!(!p.wants_writeback(LineAddr(0), &clean, &ctx));
        assert!(p.wants_writeback(LineAddr(0), &one, &ctx));
    }

    #[test]
    fn skips_young_lines_but_probes_old() {
        let mut m = mem(8, CodeSpec::bch_line(6), 4);
        let now = SimTime::from_secs(10_000.0);
        m.demand_write(LineAddr(0), now);
        let mut p = ScrubPolicy::combined(80.0, 8, 5, 2, 600.0);
        let ctx = ScrubContext { now, mem: &m };
        // Line 0 was just written: slot goes idle.
        assert_eq!(p.next_action(&ctx), ScrubAction::Idle);
        assert_eq!(skipped(&p), 1);
        // Line 1 is 10000s old: probed.
        assert_eq!(p.next_action(&ctx), ScrubAction::Probe(LineAddr(1)));
    }

    #[test]
    fn writeback_follows_threshold_rule() {
        let mut p = ScrubPolicy::combined(900.0, 64, 5, 4, 0.0);
        let m = mem(64, CodeSpec::bch_line(6), 5);
        let ctx = ScrubContext {
            now: SimTime::from_secs(1.0),
            mem: &m,
        };
        let low = res(2, ClassifyOutcome::Corrected { bits: 2 });
        let high = res(5, ClassifyOutcome::Corrected { bits: 5 });
        assert!(!p.wants_writeback(LineAddr(0), &low, &ctx));
        assert!(p.wants_writeback(LineAddr(1), &high, &ctx));
    }
}
