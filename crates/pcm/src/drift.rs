//! Resistance-drift model: the soft-error source this whole system exists
//! to manage.
//!
//! A cell programmed at `log₁₀R = x₀` drifts to `x(t) = x₀ + ν·log₁₀(t/t₀)`
//! with a per-cell drift exponent `ν` that is lognormally distributed around
//! a per-level median. Misreads happen when the drifted (and noisily sensed)
//! resistance crosses a sense threshold. The model splits misreads into:
//!
//! * **persistent** errors — the *noiseless* resistance has crossed a
//!   boundary; these stay wrong on every subsequent read until the cell is
//!   rewritten. Up-crossings are **monotone nondecreasing in time**, which
//!   the simulator's incremental-binomial fault engine relies on.
//! * **transient** errors — sensing noise pushes an otherwise-good read
//!   across a boundary; independent across reads.

use crate::level::LevelStack;
use crate::math::{norm_cdf, norm_sf, GaussHermite};
use crate::noise::NoiseParams;
use crate::threshold::Thresholds;

/// How the sense amplifier places thresholds at read time.
///
/// `AgeCompensated` models *time-aware sensing*: the controller knows how
/// long ago a line was written (it tracks write times for scrubbing
/// anyway) and shifts each boundary upward by the median drift the level
/// below it will have accumulated — so only above-median drifters misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensingMode {
    /// Fixed thresholds; all drift shows up as error probability.
    #[default]
    Fixed,
    /// Boundaries shifted by the lower level's median drift at the line's
    /// known age (clamped to preserve the upper level's guard band).
    AgeCompensated,
}

/// Distributional parameters of the drift exponent ν.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftParams {
    /// Spread of `ln ν` around `ln ν̄` (lognormal shape parameter).
    pub sigma_ln_nu: f64,
    /// Drift normalization time t₀ (seconds); no drift accrues before t₀.
    pub t0_s: f64,
    /// Global multiplier on every level's median ν — the sensitivity knob
    /// for experiment E10 (1.0 = nominal, 0.0 = drift-free).
    pub nu_scale: f64,
}

impl DriftParams {
    /// Literature defaults: σ_lnν = 0.3, t₀ = 1 s, nominal scale.
    pub fn new(sigma_ln_nu: f64, t0_s: f64) -> Self {
        assert!(sigma_ln_nu >= 0.0, "sigma_ln_nu must be nonnegative");
        assert!(t0_s > 0.0, "t0 must be positive");
        Self {
            sigma_ln_nu,
            t0_s,
            nu_scale: 1.0,
        }
    }

    /// Sets the global drift-severity multiplier.
    pub fn with_scale(mut self, nu_scale: f64) -> Self {
        assert!(nu_scale >= 0.0, "nu_scale must be nonnegative");
        self.nu_scale = nu_scale;
        self
    }

    /// Sets the severity multiplier from an operating temperature.
    ///
    /// Drift is thermally activated; measurements in the MLC-PCM
    /// literature show ν roughly doubling between room temperature and
    /// ~85 °C. This helper uses the representative scaling
    /// `ν_scale = 2^((T − 25)/60)` so 25 °C is nominal and 85 °C doubles
    /// drift severity.
    ///
    /// # Panics
    ///
    /// Panics for temperatures outside −25 °C..=125 °C (beyond the model's
    /// calibrated range).
    pub fn with_temperature_c(self, temp_c: f64) -> Self {
        assert!(
            (-25.0..=125.0).contains(&temp_c),
            "temperature {temp_c}C outside the calibrated -25..=125C range"
        );
        let scale = 2f64.powf((temp_c - 25.0) / 60.0);
        self.with_scale(scale)
    }

    /// Decades of drift accumulated by time `t` for exponent ν:
    /// `ν·log₁₀(max(t, t₀)/t₀)`.
    pub fn log_time_factor(&self, t_s: f64) -> f64 {
        if t_s <= self.t0_s {
            0.0
        } else {
            (t_s / self.t0_s).log10()
        }
    }
}

impl Default for DriftParams {
    fn default() -> Self {
        Self::new(0.3, 1.0)
    }
}

/// Number of points in each per-level `p_up` lookup table.
const LUT_POINTS: usize = 768;
/// The transient LUT is much smoother (no monotonicity requirement) and
/// each point costs a double quadrature, so it uses a coarser grid.
const TR_LUT_POINTS: usize = 128;
/// LUTs span ages `t₀ … t₀·10^LUT_DECADES`.
const LUT_DECADES: f64 = 12.0;
/// Gauss–Hermite order for marginalizing ν (outer) and read noise (inner).
const GH_ORDER_NU: usize = 48;
const GH_ORDER_READ: usize = 16;

/// Clamped linear interpolation of every level's LUT at log-age `l`,
/// shared by the batched accessors (the arithmetic must stay identical
/// across them — callers rely on fused and separate lookups agreeing
/// bit for bit). `flat` is the point-major interleaved layout
/// (`flat[i·levels + lv]`), so one lookup reads two adjacent rows instead
/// of chasing a pointer per level.
#[inline]
fn interp_levels(flat: &[f64], points: usize, levels: usize, l: f64, out: &mut [f64]) {
    if l <= 0.0 {
        out[..levels].copy_from_slice(&flat[..levels]);
        return;
    }
    let pos = (l / LUT_DECADES) * (points - 1) as f64;
    if pos >= (points - 1) as f64 {
        out[..levels].copy_from_slice(&flat[(points - 1) * levels..]);
        return;
    }
    let i = pos as usize;
    let frac = pos - i as f64;
    let rows = &flat[i * levels..(i + 2) * levels];
    for lv in 0..levels {
        let (a, b) = (rows[lv], rows[levels + lv]);
        out[lv] = a + (b - a) * frac;
    }
}

/// Re-lays per-level LUTs (`luts[lv][i]`) into the point-major interleaved
/// buffer [`interp_levels`] and [`DriftModel::p_up`] read, copying the
/// values verbatim.
fn flatten_luts(luts: &[Vec<f64>], points: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(points * luts.len());
    for i in 0..points {
        for lut in luts {
            flat.push(lut[i]);
        }
    }
    flat
}

/// Analytic per-level misread probabilities as a function of cell age.
///
/// Construction precomputes monotone lookup tables so the hot path
/// ([`DriftModel::p_up`]) is a clamped linear interpolation; exact
/// quadrature versions remain available for validation.
///
/// # Examples
///
/// ```
/// use pcm_model::{DriftModel, DriftParams, LevelStack, NoiseParams, ThresholdPlacement};
/// let stack = LevelStack::standard_mlc2();
/// let noise = NoiseParams::default();
/// let th = ThresholdPlacement::Midpoint.build(&stack, &noise, 1.0);
/// let model = DriftModel::new(stack, noise, th, DriftParams::default());
/// // Level 2 is much more drift-vulnerable after a day than after a second.
/// assert!(model.p_up(2, 86_400.0) > model.p_up(2, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DriftModel {
    stack: LevelStack,
    noise: NoiseParams,
    thresholds: Thresholds,
    params: DriftParams,
    gh_nu: GaussHermite,
    gh_read: GaussHermite,
    sensing: SensingMode,
    /// The `p_up` persistent-up-crossing LUT over the log-age grid (for
    /// the configured sensing mode), every level's entries for one point
    /// together: `flat_up[i·levels + lv]`.
    flat_up: Vec<f64>,
    /// The transient (read-noise) misread LUT over the same grid, in the
    /// same layout.
    flat_tr: Vec<f64>,
}

impl DriftModel {
    /// Builds the model and precomputes LUTs.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds' level count does not match the stack.
    pub fn new(
        stack: LevelStack,
        noise: NoiseParams,
        thresholds: Thresholds,
        params: DriftParams,
    ) -> Self {
        Self::with_sensing(stack, noise, thresholds, params, SensingMode::Fixed)
    }

    /// Builds the model with an explicit sensing mode.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds' level count does not match the stack.
    pub fn with_sensing(
        stack: LevelStack,
        noise: NoiseParams,
        thresholds: Thresholds,
        params: DriftParams,
        sensing: SensingMode,
    ) -> Self {
        assert_eq!(
            thresholds.num_levels(),
            stack.num_levels(),
            "threshold arity does not match level stack"
        );
        let mut model = Self {
            stack,
            noise,
            thresholds,
            params,
            sensing,
            gh_nu: GaussHermite::new(GH_ORDER_NU),
            gh_read: GaussHermite::new(GH_ORDER_READ),
            flat_up: Vec::new(),
            flat_tr: Vec::new(),
        };
        let mut lut_up: Vec<Vec<f64>> = (0..model.stack.num_levels())
            .map(|lv| {
                (0..LUT_POINTS)
                    .map(|i| {
                        let l = LUT_DECADES * i as f64 / (LUT_POINTS - 1) as f64;
                        let t = model.params.t0_s * 10f64.powf(l);
                        model.p_up_exact(lv, t)
                    })
                    .collect()
            })
            .collect();
        let lut_tr: Vec<Vec<f64>> = (0..model.stack.num_levels())
            .map(|lv| {
                (0..TR_LUT_POINTS)
                    .map(|i| {
                        let l = LUT_DECADES * i as f64 / (TR_LUT_POINTS - 1) as f64;
                        let t = model.params.t0_s * 10f64.powf(l);
                        model.p_transient(lv, t)
                    })
                    .collect()
            })
            .collect();
        // Enforce monotonicity against any residual quadrature wiggle.
        for lut in &mut lut_up {
            for i in 1..lut.len() {
                if lut[i] < lut[i - 1] {
                    lut[i] = lut[i - 1];
                }
            }
        }
        model.flat_up = flatten_luts(&lut_up, LUT_POINTS);
        model.flat_tr = flatten_luts(&lut_tr, TR_LUT_POINTS);
        model
    }

    /// The level stack this model describes.
    pub fn stack(&self) -> &LevelStack {
        &self.stack
    }

    /// The sense thresholds in force.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The noise parameters in force.
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// The drift-exponent distribution parameters.
    pub fn params(&self) -> &DriftParams {
        &self.params
    }

    /// Effective median ν of a level after the global scale factor.
    pub fn nu_median(&self, level: usize) -> f64 {
        self.stack.level(level).nu_median * self.params.nu_scale
    }

    /// `P(x₀ > c)` under the (possibly verify-truncated) write distribution
    /// of `level`.
    fn write_tail_above(&self, level: usize, c: f64) -> f64 {
        let mu = self.stack.level(level).log_r;
        let sw = self.noise.sigma_write;
        match self.noise.verify_half_band {
            None => norm_sf((c - mu) / sw),
            Some(h) => {
                if c >= mu + h {
                    0.0
                } else if c <= mu - h {
                    1.0
                } else {
                    let z_top = norm_cdf(h / sw);
                    let z_bot = norm_cdf(-h / sw);
                    let z_c = norm_cdf((c - mu) / sw);
                    ((z_top - z_c) / (z_top - z_bot)).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// `P(x₀ < c)` under the write distribution of `level`.
    fn write_tail_below(&self, level: usize, c: f64) -> f64 {
        1.0 - self.write_tail_above(level, c)
    }

    /// Integrates `f(ν)` against the level's ν distribution.
    fn expect_over_nu<F: FnMut(f64) -> f64>(&self, level: usize, mut f: F) -> f64 {
        let med = self.nu_median(level);
        if med <= 0.0 {
            return f(0.0);
        }
        if self.params.sigma_ln_nu == 0.0 {
            return f(med);
        }
        self.gh_nu
            .expect_lognormal(med.ln(), self.params.sigma_ln_nu, f)
            .clamp(0.0, 1.0)
    }

    /// The sensing mode this model was built with.
    pub fn sensing(&self) -> SensingMode {
        self.sensing
    }

    /// Upward shift applied at read time to the boundary *above* `level`
    /// for a line of age `t_s` (zero under fixed sensing).
    ///
    /// The shift is the level's median drift, clamped so the boundary
    /// keeps a 3σ_w guard band below the (itself drifted) upper level.
    pub fn boundary_shift(&self, level: usize, t_s: f64) -> f64 {
        raw_boundary_shift(
            &self.stack,
            &self.noise,
            &self.params,
            &self.thresholds,
            self.sensing,
            level,
            t_s,
        )
    }

    /// Exact (quadrature) CDF of the *noiseless drifted* resistance of a
    /// cell written to `level`: `P(x₀ + ν·log₁₀(t/t₀) ≤ x)` at age `t_s`,
    /// marginalized over the write distribution and the lognormal drift
    /// exponent. No lookup table is involved — this is the raw law the
    /// LUTs are sampled from, exposed so external validators (the
    /// `scrub-oracle` crate, goodness-of-fit tests against `CellArray`
    /// samples) can cross-check the distribution itself rather than only
    /// its threshold exceedances.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcm_model::DeviceConfig;
    /// let m = DeviceConfig::default().drift_model();
    /// // A day-old level-2 cell has drifted up from 5.0 decades.
    /// let below_center = m.drift_cdf(2, 86_400.0, 5.0);
    /// assert!(below_center < 0.5);
    /// assert!(m.drift_cdf(2, 86_400.0, 9.0) > 0.999);
    /// ```
    pub fn drift_cdf(&self, level: usize, t_s: f64, x: f64) -> f64 {
        let l = self.params.log_time_factor(t_s);
        self.expect_over_nu(level, |nu| self.write_tail_below(level, x - nu * l))
    }

    /// Exact (quadrature) persistent up-crossing probability: the noiseless
    /// resistance of a cell written to `level` has drifted above the level's
    /// (possibly age-compensated) upper boundary by age `t_s`.
    pub fn p_up_exact(&self, level: usize, t_s: f64) -> f64 {
        let Some(t_up) = self.thresholds.upper(level) else {
            return 0.0; // top level has no upper boundary
        };
        let t_up = t_up + self.boundary_shift(level, t_s);
        let l = self.params.log_time_factor(t_s);
        self.expect_over_nu(level, |nu| self.write_tail_above(level, t_up - nu * l))
    }

    /// Fast persistent up-crossing probability via the monotone LUT.
    ///
    /// Guaranteed nondecreasing in `t_s` — the fault engine's correctness
    /// depends on this.
    pub fn p_up(&self, level: usize, t_s: f64) -> f64 {
        let levels = self.stack.num_levels();
        let at = |i: usize| self.flat_up[i * levels + level];
        let l = self.params.log_time_factor(t_s);
        if l <= 0.0 {
            return at(0);
        }
        let pos = (l / LUT_DECADES) * (LUT_POINTS - 1) as f64;
        if pos >= (LUT_POINTS - 1) as f64 {
            return at(LUT_POINTS - 1);
        }
        let i = pos as usize;
        let frac = pos - i as f64;
        at(i) + (at(i + 1) - at(i)) * frac
    }

    /// Fast persistent up-crossing probabilities for *all* levels at once:
    /// one log-age computation, then one LUT interpolation per level (the
    /// per-line hot path touches every level anyway, and the logarithm
    /// dominates a single lookup). Fills `out[0..num_levels]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the level count.
    pub fn p_up_levels(&self, t_s: f64, out: &mut [f64]) {
        let levels = self.stack.num_levels();
        assert!(out.len() >= levels, "p_up_levels buffer too short");
        let l = self.params.log_time_factor(t_s);
        interp_levels(&self.flat_up, LUT_POINTS, levels, l, &mut out[..levels]);
    }

    /// One-read fused lookup: fills both the persistent (`up`) and
    /// transient (`tr`) per-level probabilities at age `t_s`, computing
    /// the log-age once. Bit-identical to calling [`Self::p_up_levels`]
    /// and [`Self::p_transient_levels`] separately — this exists because
    /// every demand read and scrub probe needs both at the same age.
    ///
    /// # Panics
    ///
    /// Panics if either buffer is shorter than the level count.
    pub fn p_read_levels(&self, t_s: f64, up: &mut [f64], tr: &mut [f64]) {
        let levels = self.stack.num_levels();
        assert!(
            up.len() >= levels && tr.len() >= levels,
            "p_read_levels buffer too short"
        );
        let l = self.params.log_time_factor(t_s);
        interp_levels(&self.flat_up, LUT_POINTS, levels, l, &mut up[..levels]);
        interp_levels(&self.flat_tr, TR_LUT_POINTS, levels, l, &mut tr[..levels]);
    }

    /// Fast transient misread probabilities for all levels at once via the
    /// precomputed LUT (the analogue of [`DriftModel::p_up_levels`]).
    /// Fills `out[0..num_levels]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the level count.
    pub fn p_transient_levels(&self, t_s: f64, out: &mut [f64]) {
        let levels = self.stack.num_levels();
        assert!(out.len() >= levels, "p_transient_levels buffer too short");
        let l = self.params.log_time_factor(t_s);
        interp_levels(&self.flat_tr, TR_LUT_POINTS, levels, l, &mut out[..levels]);
    }

    /// Persistent down-miss probability: the noiseless resistance sits below
    /// the level's lower boundary at age `t_s` (only plausible right after
    /// write under aggressive drift-aware threshold placement; drift then
    /// *repairs* these, so this is nonincreasing in `t_s`).
    pub fn p_down(&self, level: usize, t_s: f64) -> f64 {
        let Some(t_dn) = self.thresholds.lower(level) else {
            return 0.0;
        };
        // Under age-compensated sensing the boundary below this level is
        // shifted up by the *lower* level's compensation.
        let t_dn = t_dn + self.boundary_shift(level - 1, t_s);
        let l = self.params.log_time_factor(t_s);
        self.expect_over_nu(level, |nu| self.write_tail_below(level, t_dn - nu * l))
    }

    /// Total misread probability of a single read at age `t_s`, including
    /// sensing noise (quadrature over both ν and the read-noise deviate).
    pub fn p_misread(&self, level: usize, t_s: f64) -> f64 {
        let t_up = self
            .thresholds
            .upper(level)
            .map(|t| t + self.boundary_shift(level, t_s));
        let t_dn = self
            .thresholds
            .lower(level)
            .map(|t| t + self.boundary_shift(level - 1, t_s));
        let l = self.params.log_time_factor(t_s);
        let sr = self.noise.sigma_read;
        let p = self.expect_over_nu(level, |nu| {
            let shift = nu * l;
            let mut miss_for_eps = |eps: f64| {
                let up = t_up.map_or(0.0, |t| self.write_tail_above(level, t - shift - eps));
                let dn = t_dn.map_or(0.0, |t| self.write_tail_below(level, t - shift - eps));
                (up + dn).clamp(0.0, 1.0)
            };
            if sr == 0.0 {
                miss_for_eps(0.0)
            } else {
                self.gh_read.expect_normal(0.0, sr, &mut miss_for_eps)
            }
        });
        p.clamp(0.0, 1.0)
    }

    /// Transient-only misread probability: total minus persistent
    /// components, floored at zero.
    pub fn p_transient(&self, level: usize, t_s: f64) -> f64 {
        (self.p_misread(level, t_s) - self.p_up_exact(level, t_s) - self.p_down(level, t_s))
            .max(0.0)
    }
}

/// Shared implementation of the age-compensated boundary shift, usable by
/// both the analytic model and the cell-exact Monte-Carlo reader.
pub(crate) fn raw_boundary_shift(
    stack: &LevelStack,
    noise: &NoiseParams,
    params: &DriftParams,
    thresholds: &Thresholds,
    sensing: SensingMode,
    level: usize,
    t_s: f64,
) -> f64 {
    if sensing == SensingMode::Fixed {
        return 0.0;
    }
    let Some(t_up) = thresholds.upper(level) else {
        return 0.0;
    };
    let l = params.log_time_factor(t_s);
    let want = stack.level(level).nu_median * params.nu_scale * l;
    let upper = stack.level(level + 1);
    let upper_center = upper.log_r + upper.nu_median * params.nu_scale * l;
    let ceiling = (upper_center - 3.0 * noise.sigma_write - t_up).max(0.0);
    want.clamp(0.0, ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::ThresholdPlacement;

    fn model() -> DriftModel {
        let stack = LevelStack::standard_mlc2();
        let noise = NoiseParams::default();
        let th = ThresholdPlacement::Midpoint.build(&stack, &noise, 1.0);
        DriftModel::new(stack, noise, th, DriftParams::default())
    }

    /// One level's transient misread probability from the LUT.
    fn transient_lut(m: &DriftModel, level: usize, t_s: f64) -> f64 {
        let mut out = [0.0; 4];
        m.p_transient_levels(t_s, &mut out);
        out[level]
    }

    #[test]
    fn top_level_never_up_crosses() {
        let m = model();
        assert_eq!(m.p_up(3, 1e9), 0.0);
        assert_eq!(m.p_up_exact(3, 1e9), 0.0);
    }

    #[test]
    fn p_up_monotone_in_time() {
        let m = model();
        for lv in 0..4 {
            let mut prev = 0.0;
            for i in 0..60 {
                let t = 10f64.powf(-1.0 + 0.2 * i as f64);
                let p = m.p_up(lv, t);
                assert!(p >= prev - 1e-15, "level {lv} t {t}: {p} < {prev}");
                assert!((0.0..=1.0).contains(&p));
                prev = p;
            }
        }
    }

    #[test]
    fn lut_matches_exact() {
        let m = model();
        for lv in 0..4 {
            for t in [1.0, 60.0, 3600.0, 86_400.0, 2.6e6] {
                let fast = m.p_up(lv, t);
                let exact = m.p_up_exact(lv, t);
                let tol = 1e-9 + exact * 5e-3;
                assert!(
                    (fast - exact).abs() <= tol,
                    "level {lv} t {t}: lut {fast} vs exact {exact}"
                );
            }
        }
    }

    /// Interpolation error bound of the persistent-up LUT, checked at
    /// every *grid midpoint* — the worst case for linear interpolation —
    /// across the full 12-decade age range and every level.
    ///
    /// Documented bound: `|lut − exact| ≤ 1e-6 + 1e-2·exact`. With 768
    /// log-spaced points the grid step is h ≈ 0.0156 decades and the
    /// interpolation error scales as `(h²/8)·max|d²p/dl²|`; the relative
    /// term dominates on the steep rise of the error CDF, the absolute
    /// term in the near-zero tail. The bound also absorbs the monotone
    /// clamp applied against quadrature wiggle at construction.
    #[test]
    fn p_up_lut_error_bound_at_offgrid_midpoints() {
        let m = model();
        let step = LUT_DECADES / (LUT_POINTS - 1) as f64;
        for lv in 0..4 {
            for i in 0..LUT_POINTS - 1 {
                let l = (i as f64 + 0.5) * step;
                let t = m.params().t0_s * 10f64.powf(l);
                let fast = m.p_up(lv, t);
                let exact = m.p_up_exact(lv, t);
                assert!(
                    (fast - exact).abs() <= 1e-6 + 1e-2 * exact,
                    "level {lv} l={l:.4} (t={t:.3e}): lut {fast} vs exact {exact}"
                );
            }
        }
    }

    /// Same worst-case midpoint sweep for the coarser 128-point transient
    /// LUT. Two effects loosen this bound relative to `p_up`'s: the grid
    /// is 6× coarser, and `p_transient` is floored at zero
    /// (`max(0, misread − up − down)`), which puts a non-differentiable
    /// kink wherever the difference changes sign — linear interpolation
    /// across such a kink leaves an O(h·|slope|) absolute residue, ~3e-5
    /// here. Documented bound: `|lut − exact| ≤ 5e-5 + 8e-2·exact`.
    #[test]
    fn transient_lut_error_bound_at_offgrid_midpoints() {
        let m = model();
        let step = LUT_DECADES / (TR_LUT_POINTS - 1) as f64;
        for lv in 0..4 {
            for i in 0..TR_LUT_POINTS - 1 {
                let l = (i as f64 + 0.5) * step;
                let t = m.params().t0_s * 10f64.powf(l);
                let fast = transient_lut(&m, lv, t);
                let exact = m.p_transient(lv, t);
                assert!(
                    (fast - exact).abs() <= 5e-5 + 8e-2 * exact,
                    "level {lv} l={l:.4} (t={t:.3e}): lut {fast} vs exact {exact}"
                );
            }
        }
    }

    /// Out-of-range ages clamp to the LUT endpoints: below t₀ both LUTs
    /// return the age-t₀ value exactly; beyond the 12-decade grid they
    /// saturate at the last entry.
    #[test]
    fn lut_clamps_outside_grid_range() {
        let m = model();
        for lv in 0..4 {
            assert_eq!(m.p_up(lv, 1e-6), m.p_up(lv, m.params().t0_s));
            assert_eq!(m.p_up(lv, 1e15), m.p_up(lv, 1e13));
            assert_eq!(
                transient_lut(&m, lv, 1e-6),
                transient_lut(&m, lv, m.params().t0_s)
            );
            assert_eq!(transient_lut(&m, lv, 1e15), transient_lut(&m, lv, 1e13));
        }
    }

    #[test]
    fn drift_cdf_monotone_and_consistent_with_p_up() {
        let m = model();
        for lv in 0..4 {
            for t in [1.0, 3600.0, 86_400.0] {
                // Monotone nondecreasing in x, with full range.
                let mut prev = 0.0;
                for i in 0..=80 {
                    let x = 1.0 + 0.1 * i as f64;
                    let c = m.drift_cdf(lv, t, x);
                    assert!((0.0..=1.0).contains(&c));
                    assert!(c + 1e-12 >= prev, "level {lv} t {t} x {x}");
                    prev = c;
                }
                // Complement at the upper boundary equals p_up_exact
                // (fixed sensing: no boundary shift).
                if let Some(b) = m.thresholds().upper(lv) {
                    let tail = 1.0 - m.drift_cdf(lv, t, b);
                    let p_up = m.p_up_exact(lv, t);
                    assert!(
                        (tail - p_up).abs() < 1e-9 + 1e-6 * p_up,
                        "level {lv} t {t}: tail {tail:e} vs p_up {p_up:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn amorphous_levels_drift_worse() {
        let m = model();
        let day = 86_400.0;
        assert!(m.p_up(2, day) > m.p_up(1, day));
        assert!(m.p_up(1, day) > m.p_up(0, day));
    }

    #[test]
    fn fresh_cells_barely_misread() {
        let m = model();
        // 0.5 decades to the boundary is 5σ_w: tiny at age ~t0.
        for lv in 0..4 {
            assert!(m.p_misread(lv, 1.0) < 1e-4, "level {lv}");
        }
    }

    #[test]
    fn day_old_midlevel_errors_are_substantial() {
        let m = model();
        // Level 2 (ν̄=0.06) drifts 0.06·log10(86400) ≈ 0.30 decades by a day:
        // a 2σ encroachment on the 0.5-decade margin.
        let p = m.p_up(2, 86_400.0);
        assert!(p > 1e-3 && p < 0.5, "p_up(2, day) = {p}");
    }

    #[test]
    fn p_down_negligible_with_midpoints_and_shrinks() {
        let m = model();
        for lv in 0..4 {
            let early = m.p_down(lv, 1.0);
            let late = m.p_down(lv, 1e6);
            assert!(early < 1e-4, "level {lv} early down {early}");
            assert!(late <= early + 1e-15);
        }
    }

    #[test]
    fn transient_lut_matches_exact() {
        let m = model();
        for lv in 0..4 {
            for t in [1.0, 3600.0, 86_400.0] {
                let fast = transient_lut(&m, lv, t);
                let exact = m.p_transient(lv, t);
                assert!(
                    (fast - exact).abs() <= 1e-9 + exact * 0.05,
                    "level {lv} t {t}: {fast} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn transient_component_nonnegative_and_small() {
        let m = model();
        for lv in 0..4 {
            for t in [1.0, 1e3, 1e6] {
                let tr = m.p_transient(lv, t);
                assert!(tr >= 0.0);
                assert!(tr <= m.p_misread(lv, t) + 1e-12);
            }
        }
    }

    #[test]
    fn drift_scale_zero_freezes_errors() {
        let stack = LevelStack::standard_mlc2();
        let noise = NoiseParams::default();
        let th = ThresholdPlacement::Midpoint.build(&stack, &noise, 1.0);
        let m = DriftModel::new(stack, noise, th, DriftParams::default().with_scale(0.0));
        for lv in 0..4 {
            let p1 = m.p_up(lv, 1.0);
            let p2 = m.p_up(lv, 1e9);
            assert!((p1 - p2).abs() < 1e-15, "level {lv} drifted with scale 0");
        }
    }

    #[test]
    fn temperature_scaling() {
        let room = DriftParams::default().with_temperature_c(25.0);
        assert!((room.nu_scale - 1.0).abs() < 1e-12);
        let hot = DriftParams::default().with_temperature_c(85.0);
        assert!((hot.nu_scale - 2.0).abs() < 1e-12);
        let cold = DriftParams::default().with_temperature_c(-25.0);
        assert!(cold.nu_scale < 1.0);
    }

    #[test]
    #[should_panic(expected = "outside the calibrated")]
    fn temperature_range_checked() {
        DriftParams::default().with_temperature_c(200.0);
    }

    fn model_with_sensing(sensing: SensingMode) -> DriftModel {
        let stack = LevelStack::standard_mlc2();
        let noise = NoiseParams::default();
        let th = ThresholdPlacement::Midpoint.build(&stack, &noise, 1.0);
        DriftModel::with_sensing(stack, noise, th, DriftParams::default(), sensing)
    }

    #[test]
    fn age_compensation_slashes_drift_errors() {
        let fixed = model_with_sensing(SensingMode::Fixed);
        let comp = model_with_sensing(SensingMode::AgeCompensated);
        for t in [3600.0, 86_400.0] {
            let pf = fixed.p_up_exact(2, t);
            let pc = comp.p_up_exact(2, t);
            assert!(
                pc < pf / 5.0,
                "t={t}: compensated {pc} should be well below fixed {pf}"
            );
        }
    }

    #[test]
    fn age_compensation_does_not_create_down_errors() {
        let comp = model_with_sensing(SensingMode::AgeCompensated);
        for lv in 0..4 {
            for t in [1.0, 3600.0, 86_400.0, 604_800.0] {
                assert!(
                    comp.p_down(lv, t) < 1e-3,
                    "level {lv} t {t}: down misreads {}",
                    comp.p_down(lv, t)
                );
            }
        }
    }

    #[test]
    fn compensated_shift_is_clamped_and_zero_when_fixed() {
        let fixed = model_with_sensing(SensingMode::Fixed);
        let comp = model_with_sensing(SensingMode::AgeCompensated);
        assert_eq!(fixed.boundary_shift(2, 1e6), 0.0);
        let s = comp.boundary_shift(2, 1e9);
        assert!(s > 0.0);
        // Ceiling: upper level center (drifted) minus 3 sigma_w minus bound.
        let l = (1e9f64).log10();
        let ceiling = (6.0 + 0.10 * l) - 0.3 - 5.5;
        assert!(s <= ceiling + 1e-12, "shift {s} above ceiling {ceiling}");
    }

    #[test]
    fn compensated_lut_still_monotone() {
        let comp = model_with_sensing(SensingMode::AgeCompensated);
        for lv in 0..4 {
            let mut prev = 0.0;
            for i in 0..50 {
                let t = 10f64.powf(0.2 * i as f64);
                let p = comp.p_up(lv, t);
                assert!(p >= prev - 1e-15, "level {lv} t {t}");
                prev = p;
            }
        }
    }

    #[test]
    fn drift_aware_thresholds_cut_day_old_errors() {
        let stack = LevelStack::standard_mlc2();
        let noise = NoiseParams::default();
        let mid = ThresholdPlacement::Midpoint.build(&stack, &noise, 1.0);
        let da = ThresholdPlacement::drift_aware_default().build(&stack, &noise, 1.0);
        let m_mid = DriftModel::new(stack.clone(), noise, mid, DriftParams::default());
        let m_da = DriftModel::new(stack, noise, da, DriftParams::default());
        let day = 86_400.0;
        // Level 2's boundary only gains 0.1 decades (guard-band clamp):
        // ~3.5x fewer errors. Level 1's gains the full drift shift: ~10x.
        assert!(m_da.p_up(2, day) < m_mid.p_up(2, day) / 2.0);
        assert!(m_da.p_up(1, day) < m_mid.p_up(1, day) / 5.0);
    }
}
