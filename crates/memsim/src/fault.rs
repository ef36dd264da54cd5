//! The stochastic fault engine: exact lazy evolution of per-line drift and
//! wear failures.
//!
//! For a line with `n` live cells at some level, the number that have
//! persistently drift-failed by age `t` is `Binomial(n, p(t))` with `p`
//! monotone. Given `b₁` failures known at age `t₁`, the count at `t₂ > t₁`
//! is `b₁ + Binomial(n − b₁, (p(t₂)−p(t₁))/(1−p(t₁)))` — exact for
//! independent cells and O(1) per update. Wear failures use the same
//! machinery with the lognormal endurance CDF over the write count.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use pcm_model::math::{sample_binomial, sample_binomial4, PrecomputedMultinomial};
use pcm_model::{DeviceConfig, DriftModel, EnduranceSpec};

use crate::line::{LineState, MAX_LEVELS};
use crate::time::SimTime;

/// Evolves [`LineState`]s under drift, read noise, and wear.
///
/// # Examples
///
/// ```
/// use pcm_memsim::{FaultEngine, SimTime};
/// use pcm_model::DeviceConfig;
/// use rand::SeedableRng;
///
/// let engine = FaultEngine::new(&DeviceConfig::default(), 288);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut line = engine.fresh_line(SimTime::ZERO, &mut rng);
/// // A day later the line has accumulated some persistent drift errors.
/// let errs = engine.advance(&mut line, SimTime::from_secs(86_400.0), &mut rng);
/// assert!(errs >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultEngine {
    /// Shared, immutable drift LUTs — one set per distinct device config
    /// process-wide (see [`DeviceConfig::drift_model_shared`]), safely
    /// referenced from every simulation a job grid runs at once.
    model: Arc<DriftModel>,
    endurance: EnduranceSpec,
    cells_per_line: u32,
    num_levels: usize,
    /// Probability a stuck cell conflicts with fresh random data.
    conflict_prob: f64,
    /// Occupancy distribution of data cells over levels (random data →
    /// uniform). Every write re-rolls occupancy, making this the hottest
    /// multinomial in the simulator: its conditionals are precomputed, and
    /// each live-cell count's mode walks are tabulated on first use. One
    /// distribution per level count serves every engine in the process
    /// (see [`shared_occupancy`]), so the tables are built once, not once
    /// per bank or fleet shard.
    occupancy_dist: &'static PrecomputedMultinomial,
    /// The zero-wear prefix `w₀`, the largest wear up to 2¹⁶ with
    /// `fail_cdf(w) == 0.0` at every `1 ≤ w ≤ w₀`: a write reaching such a
    /// wear fails no cell. [`Self::new`] scans up from `w = 1` to the first
    /// nonzero value, so the CDF need not be monotone in floating point.
    zero_wear: u32,
}

/// The uniform occupancy distribution over `levels` levels, built on first
/// use and shared by every engine with that level count process-wide, the
/// way [`DeviceConfig::drift_model_shared`] shares drift tables. Its
/// tables fill in behind `OnceLock`s, so concurrent simulations share it
/// safely.
fn shared_occupancy(levels: usize) -> &'static PrecomputedMultinomial {
    static DISTS: [OnceLock<PrecomputedMultinomial>; MAX_LEVELS + 1] =
        [const { OnceLock::new() }; MAX_LEVELS + 1];
    DISTS[levels].get_or_init(|| PrecomputedMultinomial::new(&vec![1.0 / levels as f64; levels]))
}

impl FaultEngine {
    /// Builds an engine for `cells_per_line` cells of the given device
    /// (cells = coded line bits / bits-per-cell).
    ///
    /// # Panics
    ///
    /// Panics if the device has more than [`MAX_LEVELS`] levels or
    /// `cells_per_line` is zero.
    pub fn new(device: &DeviceConfig, cells_per_line: u32) -> Self {
        let num_levels = device.stack().num_levels();
        assert!(
            num_levels <= MAX_LEVELS,
            "fault engine supports up to {MAX_LEVELS} levels"
        );
        assert!(cells_per_line > 0, "need at least one cell per line");
        let endurance = *device.endurance();
        Self {
            model: device.drift_model_shared(),
            endurance,
            cells_per_line,
            num_levels,
            conflict_prob: 1.0 - 1.0 / num_levels as f64,
            occupancy_dist: shared_occupancy(num_levels),
            zero_wear: (1..=1u32 << 16)
                .take_while(|&w| endurance.fail_cdf(u64::from(w)) == 0.0)
                .count() as u32,
        }
    }

    /// The analytic drift model in use.
    pub fn model(&self) -> &DriftModel {
        &self.model
    }

    /// Cells per line.
    pub fn cells_per_line(&self) -> u32 {
        self.cells_per_line
    }

    /// Checks the invariants every line this engine evolves keeps: its
    /// live cells per level plus its worn cells make up the line, no
    /// level has more drift failures than cells, levels past the
    /// device's level count are empty, ECP patches only worn cells, and
    /// each unpatched worn cell conflicts in at most two bits. A line
    /// read back from a snapshot must pass before the engine touches it;
    /// the message says which invariant failed.
    pub(crate) fn check_line(&self, line: &LineState) -> Result<(), String> {
        let live = line.live_cells();
        if live + u32::from(line.worn_cells) != self.cells_per_line {
            return Err(format!(
                "{live} live and {} worn cells, not the line's {}",
                line.worn_cells, self.cells_per_line
            ));
        }
        for lv in 0..MAX_LEVELS {
            let (cells, failed) = (line.occupancy[lv], line.drift_failed[lv]);
            if failed > cells {
                return Err(format!(
                    "level {lv} has {failed} drift failures among {cells} cells"
                ));
            }
            if lv >= self.num_levels && cells > 0 {
                return Err(format!(
                    "level {lv} holds {cells} cells but the device has {} levels",
                    self.num_levels
                ));
            }
        }
        if line.ecp_assigned > line.worn_cells {
            return Err(format!(
                "{} ECP entries patch only {} worn cells",
                line.ecp_assigned, line.worn_cells
            ));
        }
        let unpatched = u32::from(line.worn_cells - line.ecp_assigned);
        if u32::from(line.worn_conflict_bits) > 2 * unpatched {
            return Err(format!(
                "{} conflict bits from {unpatched} unpatched worn cells",
                line.worn_conflict_bits
            ));
        }
        Ok(())
    }

    /// Samples the level occupancy of `live` cells holding random data.
    fn sample_occupancy<R: Rng + ?Sized>(&self, live: u32, rng: &mut R) -> [u16; MAX_LEVELS] {
        let mut counts = [0u32; MAX_LEVELS];
        self.occupancy_dist
            .sample_into(rng, live, &mut counts[..self.num_levels]);
        let mut occ = [0u16; MAX_LEVELS];
        for (o, &c) in occ.iter_mut().zip(&counts) {
            *o = c as u16;
        }
        occ
    }

    /// A brand-new line programmed at `now` (wear starts at one write).
    pub fn fresh_line<R: Rng + ?Sized>(&self, now: SimTime, rng: &mut R) -> LineState {
        let mut line = LineState::fresh(now, self.sample_occupancy(self.cells_per_line, rng));
        line.wear = 1;
        line
    }

    /// Applies a (re)write at `now`: resets the drift clock and failures,
    /// re-rolls data occupancy, advances wear, and may permanently fail
    /// cells whose endurance is exhausted. A write into the zero-wear
    /// prefix skips the endurance CDF, whose wear draw would draw nothing.
    pub fn on_write<R: Rng + ?Sized>(&self, line: &mut LineState, now: SimTime, rng: &mut R) {
        let w1 = line.wear;
        line.wear = line.wear.saturating_add(1);
        // Wear failures: incremental binomial over the endurance CDF.
        let susceptible = self.cells_per_line - line.worn_cells as u32;
        if susceptible > 0 && line.wear > self.zero_wear {
            let f1 = self.endurance.fail_cdf(w1 as u64);
            let f2 = self.endurance.fail_cdf(line.wear as u64);
            let dp = if f1 >= 1.0 {
                1.0
            } else {
                ((f2 - f1) / (1.0 - f1)).clamp(0.0, 1.0)
            };
            line.worn_cells += sample_binomial(rng, susceptible, dp) as u16;
        }
        // Fresh data pattern over the remaining live cells.
        let live = self.cells_per_line - line.worn_cells as u32;
        line.occupancy = self.sample_occupancy(live, rng);
        line.drift_failed = [0; MAX_LEVELS];
        line.last_write = now;
        line.last_eval = now;
        line.ue_recorded = false;
        // Each unpatched stuck cell disagrees with the new data w.p.
        // (L-1)/L; a disagreement costs 1 bit (2/3 of cases) or 2 bits
        // (1/3) under Gray coding. ECP-patched cells read back correct
        // regardless of the stored level, so they never conflict (with
        // repair disabled `ecp_assigned` is always 0 and the draw is
        // unchanged).
        let unpatched = (line.worn_cells - line.ecp_assigned) as u32;
        let conflicts = sample_binomial(rng, unpatched, self.conflict_prob);
        let double_bit = sample_binomial(rng, conflicts, 1.0 / 3.0);
        line.worn_conflict_bits = (conflicts + double_bit) as u16;
    }

    /// Injects `count` additional stuck-at cells at `now` without charging
    /// a write: the campaign-injection analogue of wear failure. Live
    /// occupancy shrinks accordingly and conflict bits are re-rolled for
    /// the new stuck population; drift state and wear are untouched.
    ///
    /// All randomness comes from the caller's `rng` (the campaign stream),
    /// so attaching a campaign never perturbs the bank RNG sequences.
    pub fn inject_stuck_cells<R: Rng + ?Sized>(
        &self,
        line: &mut LineState,
        count: u32,
        rng: &mut R,
    ) {
        let live = self.cells_per_line - line.worn_cells as u32;
        let added = count.min(live);
        if added == 0 {
            return;
        }
        // Remove the newly stuck cells from live occupancy, proportional to
        // the levels they currently sit in.
        let mut remaining = added;
        while remaining > 0 {
            let live_now: u32 = line.occupancy.iter().map(|&o| o as u32).sum();
            if live_now == 0 {
                break;
            }
            let mut pick = rng.gen_range(0..live_now);
            for lv in 0..MAX_LEVELS {
                let o = line.occupancy[lv] as u32;
                if pick < o {
                    line.occupancy[lv] -= 1;
                    // Keep drift_failed within the shrunken occupancy.
                    if line.drift_failed[lv] > line.occupancy[lv] {
                        line.drift_failed[lv] = line.occupancy[lv];
                    }
                    break;
                }
                pick -= o;
            }
            remaining -= 1;
        }
        line.worn_cells += added as u16;
        let unpatched = (line.worn_cells - line.ecp_assigned) as u32;
        let conflicts = sample_binomial(rng, unpatched, self.conflict_prob);
        let double_bit = sample_binomial(rng, conflicts, 1.0 / 3.0);
        line.worn_conflict_bits = (conflicts + double_bit) as u16;
    }

    /// Advances the line's persistent drift failures to `now` and returns
    /// the total persistent bit-error count: the drift half of
    /// [`Self::advance_and_transient`].
    pub fn advance<R: Rng + ?Sized>(&self, line: &mut LineState, now: SimTime, rng: &mut R) -> u32 {
        if now > line.last_eval {
            let mut p2s = [0.0f64; MAX_LEVELS];
            self.model
                .p_up_levels(line.age_at(now), &mut p2s[..self.num_levels]);
            self.draw_drift(line, now, p2s, rng);
        }
        line.persistent_bit_errors()
    }

    /// Transient (sensing-noise) bit errors for one read at `now`: the
    /// transient half of [`Self::advance_and_transient`]. Independent
    /// across reads; does not mutate persistent state.
    pub fn transient_errors<R: Rng + ?Sized>(
        &self,
        line: &LineState,
        now: SimTime,
        rng: &mut R,
    ) -> u32 {
        let mut ps = [0.0f64; MAX_LEVELS];
        self.model
            .p_transient_levels(line.age_at(now), &mut ps[..self.num_levels]);
        self.draw_transient(line, ps, rng)
    }

    /// Fused read evaluation: advances persistent drift failures to `now`
    /// and draws one transient sample, returning `(persistent, transient)`
    /// bit errors. Draw-for-draw identical to [`Self::advance`] followed
    /// by [`Self::transient_errors`], but the persistent and transient
    /// probabilities at `now` come from one fused log-age lookup — this
    /// is the hot path of every demand read and scrub probe.
    pub fn advance_and_transient<R: Rng + ?Sized>(
        &self,
        line: &mut LineState,
        now: SimTime,
        rng: &mut R,
    ) -> (u32, u32) {
        let mut p2s = [0.0f64; MAX_LEVELS];
        let mut trs = [0.0f64; MAX_LEVELS];
        self.model.p_read_levels(
            line.age_at(now),
            &mut p2s[..self.num_levels],
            &mut trs[..self.num_levels],
        );
        if now > line.last_eval {
            self.draw_drift(line, now, p2s, rng);
        }
        let transient = self.draw_transient(line, trs, rng);
        (line.persistent_bit_errors(), transient)
    }

    /// Draws the drift failures between the line's last evaluation and
    /// `now > line.last_eval`, given each level's `p_up` at `now` in
    /// `p2s`, one binomial lane per level.
    fn draw_drift<R: Rng + ?Sized>(
        &self,
        line: &mut LineState,
        now: SimTime,
        p2s: [f64; MAX_LEVELS],
        rng: &mut R,
    ) {
        let age1 = line.last_eval.since(line.last_write);
        let mut p1s = [0.0f64; MAX_LEVELS];
        self.model.p_up_levels(age1, &mut p1s[..self.num_levels]);
        // Levels without live cells or new drift keep n = 0 / p = 0 and
        // consume no uniforms.
        let mut ns = [0u32; MAX_LEVELS];
        let mut dps = [0.0f64; MAX_LEVELS];
        for lv in 0..self.num_levels {
            let alive = line.occupancy[lv] - line.drift_failed[lv];
            let (p1, p2) = (p1s[lv], p2s[lv]);
            if alive == 0 || p2 <= p1 {
                continue;
            }
            ns[lv] = alive as u32;
            dps[lv] = if p1 >= 1.0 {
                0.0
            } else {
                ((p2 - p1) / (1.0 - p1)).clamp(0.0, 1.0)
            };
        }
        let ks = sample_binomial4(rng, ns, dps);
        for (lv, &k) in ks.iter().enumerate().take(self.num_levels) {
            line.drift_failed[lv] += k as u16;
        }
        line.last_eval = now;
    }

    /// Draws one read's transient errors over the line's live cells,
    /// given each level's misread probability in `ps`.
    fn draw_transient<R: Rng + ?Sized>(
        &self,
        line: &LineState,
        ps: [f64; MAX_LEVELS],
        rng: &mut R,
    ) -> u32 {
        let mut ns = [0u32; MAX_LEVELS];
        for (lv, n) in ns.iter_mut().enumerate().take(self.num_levels) {
            *n = (line.occupancy[lv] - line.drift_failed[lv]) as u32;
        }
        sample_binomial4(rng, ns, ps).iter().sum()
    }

    /// Total bit errors a read at `now` observes: persistent (advanced to
    /// `now`) plus a fresh transient draw.
    pub fn read_errors<R: Rng + ?Sized>(
        &self,
        line: &mut LineState,
        now: SimTime,
        rng: &mut R,
    ) -> u32 {
        let (persistent, transient) = self.advance_and_transient(line, now, rng);
        persistent + transient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> FaultEngine {
        FaultEngine::new(&DeviceConfig::default(), 288)
    }

    #[test]
    fn engines_share_one_occupancy_distribution_per_level_count() {
        let slc = DeviceConfig::builder()
            .stack(pcm_model::LevelStack::standard_slc())
            .build();
        let (a, b) = (engine(), FaultEngine::new(&DeviceConfig::default(), 276));
        let c = FaultEngine::new(&slc, 576);
        assert!(std::ptr::eq(a.occupancy_dist, b.occupancy_dist));
        assert!(!std::ptr::eq(a.occupancy_dist, c.occupancy_dist));
        assert_eq!((a.occupancy_dist.len(), c.occupancy_dist.len()), (4, 2));
    }

    #[test]
    fn fresh_line_has_no_errors() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(51);
        let line = e.fresh_line(SimTime::ZERO, &mut rng);
        assert_eq!(line.persistent_bit_errors(), 0);
        assert_eq!(line.live_cells(), 288);
        assert_eq!(line.wear, 1);
    }

    #[test]
    fn drift_failures_monotone_under_advance() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(52);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        let mut prev = 0;
        for hours in [1u64, 4, 12, 24, 72, 168] {
            let errs = e.advance(
                &mut line,
                SimTime::from_secs(hours as f64 * 3600.0),
                &mut rng,
            );
            assert!(errs >= prev, "errors decreased: {prev} -> {errs}");
            prev = errs;
        }
        assert!(prev > 0, "week-old line should have drift errors");
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(53);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        let t = SimTime::from_secs(86_400.0);
        let a = e.advance(&mut line, t, &mut rng);
        let b = e.advance(&mut line, t, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn lines_the_engine_evolves_pass_the_line_check_and_each_breach_fails() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(57);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        assert_eq!(e.check_line(&line), Ok(()));
        e.inject_stuck_cells(&mut line, 7, &mut rng);
        e.advance(&mut line, SimTime::from_secs(604_800.0), &mut rng);
        assert!(line.worn_cells == 7 && line.persistent_bit_errors() > 0);
        assert_eq!(e.check_line(&line), Ok(()));
        line.wear = u32::MAX - 1;
        e.on_write(&mut line, SimTime::from_secs(604_801.0), &mut rng);
        assert!(line.worn_cells > 7, "an exhausted line wears out");
        assert_eq!(e.check_line(&line), Ok(()));

        type Breach = fn(&mut LineState);
        let breaches: [(&str, Breach); 6] = [
            ("live and", |l| l.occupancy[0] += 1),
            ("live and", |l| l.worn_cells -= 1),
            ("drift failures among", |l| {
                l.drift_failed[1] = l.occupancy[1] + 1;
            }),
            ("ECP entries patch only", |l| {
                l.ecp_assigned = l.worn_cells + 1
            }),
            ("conflict bits from", |l| {
                l.worn_conflict_bits = 2 * (l.worn_cells - l.ecp_assigned) + 1;
            }),
            ("but the device has 2 levels", |l| {
                l.occupancy[0] -= 1;
                l.occupancy[2] += 1;
            }),
        ];
        let slc = FaultEngine::new(
            &DeviceConfig::builder()
                .stack(pcm_model::LevelStack::standard_slc())
                .build(),
            576,
        );
        let slc_line = slc.fresh_line(SimTime::ZERO, &mut rng);
        assert_eq!(slc.check_line(&slc_line), Ok(()));
        for (needle, breach) in breaches {
            let (engine, base) = if needle.contains("2 levels") {
                (&slc, slc_line)
            } else {
                (&e, line)
            };
            let mut bad = base;
            breach(&mut bad);
            let err = engine.check_line(&bad).expect_err(needle);
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn write_resets_drift_errors() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(54);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        e.advance(&mut line, SimTime::from_secs(604_800.0), &mut rng);
        assert!(line.persistent_bit_errors() > 0);
        e.on_write(&mut line, SimTime::from_secs(604_800.0), &mut rng);
        assert_eq!(line.drift_failed, [0; 4]);
        assert_eq!(line.age_at(SimTime::from_secs(604_800.0)), 0.0);
        assert_eq!(line.wear, 2);
    }

    #[test]
    fn incremental_matches_direct_distribution() {
        // Advancing 0 -> t in one step vs. many steps must produce the
        // same error distribution (mean within sampling noise).
        let e = engine();
        let mut rng = StdRng::seed_from_u64(55);
        let t_final = SimTime::from_secs(86_400.0);
        let reps = 3000;
        let mut one_step = 0u64;
        let mut many_steps = 0u64;
        for _ in 0..reps {
            let mut a = e.fresh_line(SimTime::ZERO, &mut rng);
            one_step += e.advance(&mut a, t_final, &mut rng) as u64;
            let mut b = e.fresh_line(SimTime::ZERO, &mut rng);
            for k in 1..=8 {
                e.advance(
                    &mut b,
                    SimTime::from_secs(86_400.0 * k as f64 / 8.0),
                    &mut rng,
                );
            }
            many_steps += b.persistent_bit_errors() as u64;
        }
        let m1 = one_step as f64 / reps as f64;
        let m2 = many_steps as f64 / reps as f64;
        assert!(
            (m1 - m2).abs() < 0.15 * m1.max(1.0),
            "one-step mean {m1} vs incremental mean {m2}"
        );
    }

    #[test]
    fn mean_matches_analytic_expectation() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(56);
        let t = SimTime::from_secs(86_400.0);
        let reps = 2000;
        let mut total = 0u64;
        for _ in 0..reps {
            let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
            total += e.advance(&mut line, t, &mut rng) as u64;
        }
        let measured = total as f64 / reps as f64;
        let expected: f64 = (0..4)
            .map(|lv| 288.0 / 4.0 * e.model().p_up(lv, 86_400.0))
            .sum();
        assert!(
            (measured - expected).abs() < 0.05 * expected + 0.2,
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn wear_failures_appear_with_writes() {
        let dev = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(100.0, 0.3))
            .build();
        let e = FaultEngine::new(&dev, 288);
        let mut rng = StdRng::seed_from_u64(57);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        for i in 0..400u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
        }
        assert!(
            line.worn_cells > 250,
            "after 400 writes vs 100-write endurance, most cells dead; got {}",
            line.worn_cells
        );
        assert!(line.worn_conflict_bits > 0);
        assert_eq!(
            line.live_cells() + line.worn_cells as u32,
            288,
            "live + worn must conserve cells"
        );
    }

    #[test]
    fn near_unity_endurance_kills_all_cells_quickly() {
        // median_writes near 1: nearly every write exhausts endurance, so a
        // handful of writes must escalate to a fully worn line, conserving
        // live + worn throughout.
        let dev = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(1.001, 0.25))
            .build();
        let e = FaultEngine::new(&dev, 288);
        let mut rng = StdRng::seed_from_u64(60);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        for i in 0..16u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
            assert_eq!(
                line.live_cells() + line.worn_cells as u32,
                288,
                "conservation broken at write {i}"
            );
        }
        assert_eq!(line.worn_cells, 288, "all cells should be dead");
        assert_eq!(line.live_cells(), 0);
        // Fully worn line: every error is a conflict bit, no drift possible.
        assert!(line.worn_conflict_bits > 0);
        assert_eq!(line.persistent_bit_errors(), line.worn_conflict_bits as u32);
        // Further writes on a dead line stay well-defined.
        e.on_write(&mut line, SimTime::from_secs(100.0), &mut rng);
        assert_eq!(line.worn_cells, 288);
    }

    #[test]
    fn sigma_extremes_keep_wear_failures_well_defined() {
        let mut rng = StdRng::seed_from_u64(61);
        // Tiny sigma: a step function at the median — no failures below it,
        // total failure just past it.
        let step = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(50.0, 1e-6))
            .build();
        let e = FaultEngine::new(&step, 288);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        for i in 0..40u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
        }
        assert_eq!(line.worn_cells, 0, "below-median writes must not wear");
        for i in 40..80u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
        }
        assert_eq!(line.worn_cells, 288, "past the step everything fails");
        // Huge sigma: the CDF is heavy-tailed but still a valid probability;
        // wear accumulates monotonically and conserves cells.
        let wide = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(1e6, 8.0))
            .build();
        let e = FaultEngine::new(&wide, 288);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        let mut prev = 0u16;
        for i in 0..200u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
            assert!(line.worn_cells >= prev);
            assert_eq!(line.live_cells() + line.worn_cells as u32, 288);
            prev = line.worn_cells;
        }
    }

    #[test]
    fn zero_wear_prefix_ends_at_the_first_nonzero_cdf() {
        for (endurance, w0) in [
            (EnduranceSpec::accelerated(), 66),
            (EnduranceSpec::nominal(), 6_646),
        ] {
            let dev = DeviceConfig::builder().endurance(endurance).build();
            assert_eq!(FaultEngine::new(&dev, 288).zero_wear, w0);
            assert_eq!(endurance.fail_cdf(u64::from(w0)), 0.0);
            assert!(endurance.fail_cdf(u64::from(w0) + 1) > 0.0);
        }
        let wide = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(1e6, 8.0))
            .build();
        assert_eq!(FaultEngine::new(&wide, 288).zero_wear, 0);
    }

    /// Writes a fresh line from wear 1 to `wear` and returns the next
    /// `u64` of the stream.
    fn stream_after_writes(e: &FaultEngine, wear: u32) -> u64 {
        let mut rng = StdRng::seed_from_u64(64);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        while line.wear < wear {
            let now = SimTime::from_secs(line.wear as f64);
            e.on_write(&mut line, now, &mut rng);
        }
        rng.gen()
    }

    /// Tripwire: a prefix one too high skips the uniform the write
    /// reaching wear 67 draws on the default device.
    #[test]
    fn a_prefix_one_too_high_skips_a_draw() {
        let e = engine();
        assert_eq!(e.zero_wear, 66);
        let long = FaultEngine {
            zero_wear: 67,
            ..e.clone()
        };
        assert_eq!(stream_after_writes(&e, 66), stream_after_writes(&long, 66));
        assert_ne!(stream_after_writes(&e, 67), stream_after_writes(&long, 67));
    }

    #[test]
    fn injected_stuck_cells_conserve_and_cap() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(62);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        e.inject_stuck_cells(&mut line, 10, &mut rng);
        assert_eq!(line.worn_cells, 10);
        assert_eq!(line.live_cells(), 278);
        assert_eq!(line.wear, 1, "injection must not charge a write");
        // Requesting more than the remaining live cells caps at live.
        e.inject_stuck_cells(&mut line, 10_000, &mut rng);
        assert_eq!(line.worn_cells, 288);
        assert_eq!(line.live_cells(), 0);
    }

    #[test]
    fn ecp_patched_cells_do_not_conflict() {
        // With every worn cell patched, a rewrite draws zero conflicts.
        let dev = DeviceConfig::builder()
            .endurance(EnduranceSpec::new(1.001, 0.25))
            .build();
        let e = FaultEngine::new(&dev, 288);
        let mut rng = StdRng::seed_from_u64(63);
        let mut line = e.fresh_line(SimTime::ZERO, &mut rng);
        for i in 0..16u32 {
            e.on_write(&mut line, SimTime::from_secs(i as f64), &mut rng);
        }
        assert_eq!(line.worn_cells, 288);
        line.ecp_assigned = line.worn_cells;
        e.on_write(&mut line, SimTime::from_secs(100.0), &mut rng);
        assert_eq!(line.worn_conflict_bits, 0);
    }

    #[test]
    fn transient_errors_are_rare_on_fresh_lines() {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(58);
        let line = e.fresh_line(SimTime::ZERO, &mut rng);
        let mut total = 0;
        for _ in 0..2000 {
            total += e.transient_errors(&line, SimTime::from_secs(1.0), &mut rng);
        }
        assert!(total < 20, "fresh transient errors too common: {total}");
    }
}
