//! Closed-form expected scrub writes and energy for the basic policy.
//!
//! Basic scrub probes line `k` at engine slots `j ≡ k (mod N)` and rewrites
//! on *any* error (uncorrectable outcomes force the same write), so each
//! line is an independent renewal process: a write-back resets the line,
//! after which the probability of surviving `s` further probes is
//! `ū(s)^cells` with `ū` the mean per-cell survival — exactly the
//! probability-generating function of the simulator's multinomial
//! occupancy, so the line-level law is closed-form, not an approximation.
//! A small dynamic program over (probes-since-write, write-count) yields
//! the full per-line write-back distribution; lines are independent, so
//! totals get exact means and variances.
//!
//! Probe times come from [`scrub_core::ScrubPolicy::slot_times_within`],
//! which replicates the engine's floating-point slot accumulation — probe
//! counts are exact, not ±1.

use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use scrub_core::ScrubPolicy;

use crate::drift::{DriftOracle, ErrorRateGrid};

/// Age-grid resolution for the renewal computation. The grid is sampled
/// from the oracle quadrature; at 160 points/decade its midpoint
/// interpolation error is well under the statistical resolution of any
/// feasible Monte-Carlo comparison (see `ErrorRateGrid::max_interp_error`).
const GRID_POINTS_PER_DECADE: usize = 160;

/// Oracle prediction for one basic-scrub run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubPrediction {
    /// Exact number of scrub probes the engine will issue.
    pub probes: u64,
    /// Expected total scrub write-backs.
    pub writebacks_mean: f64,
    /// Standard deviation of total write-backs (lines independent).
    pub writebacks_sd: f64,
    /// Expected scrub energy (µJ): probes are deterministic, writes carry
    /// all the variance.
    pub scrub_energy_uj_mean: f64,
    /// Standard deviation of scrub energy (µJ).
    pub scrub_energy_uj_sd: f64,
}

/// Closed-form model of basic scrub ([`ScrubPolicy::basic`]) driven by a
/// [`DriftOracle`].
///
/// # Examples
///
/// ```
/// use pcm_ecc::CodeSpec;
/// use pcm_model::DeviceConfig;
/// use scrub_oracle::{BasicScrubOracle, DriftOracle};
/// let dev = DeviceConfig::default();
/// let oracle = DriftOracle::new(&dev);
/// let model = BasicScrubOracle::new(&dev, &CodeSpec::bch_line(4), &oracle, 64, 900.0, 3600.0);
/// let pred = model.predict();
/// assert_eq!(pred.probes, 257); // slots at t = 0, 14.0625, ..., 3600
/// assert!(pred.writebacks_mean >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BasicScrubOracle {
    grid: ErrorRateGrid,
    levels: usize,
    cells: u32,
    num_lines: u32,
    interval_s: f64,
    horizon_s: f64,
    probe_pj: f64,
    write_pj: f64,
}

impl BasicScrubOracle {
    /// Builds the model for `num_lines` lines scrubbed once per
    /// `interval_s` over `horizon_s` seconds, with the memory's default
    /// full-decode probes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry or interval is degenerate.
    pub fn new(
        dev: &DeviceConfig,
        code: &CodeSpec,
        oracle: &DriftOracle,
        num_lines: u32,
        interval_s: f64,
        horizon_s: f64,
    ) -> Self {
        Self::with_grid_resolution(
            dev,
            code,
            oracle,
            num_lines,
            interval_s,
            horizon_s,
            GRID_POINTS_PER_DECADE,
        )
    }

    /// [`BasicScrubOracle::new`] with an explicit age-grid resolution.
    ///
    /// The grid build dominates construction cost (each sample is a fresh
    /// quadrature), and build time is linear in the resolution while the
    /// interpolation error falls quadratically: 40 points/decade stays
    /// under ~2e-3 relative error — ample for a tolerance in the percent
    /// range — at a quarter of the default's cost. Callers can verify the
    /// trade with [`ErrorRateGrid::max_interp_error`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry, interval, or resolution is degenerate.
    pub fn with_grid_resolution(
        dev: &DeviceConfig,
        code: &CodeSpec,
        oracle: &DriftOracle,
        num_lines: u32,
        interval_s: f64,
        horizon_s: f64,
        points_per_decade: usize,
    ) -> Self {
        assert!(num_lines > 0 && interval_s > 0.0 && horizon_s >= 0.0);
        let bits_per_cell = dev.stack().bits_per_cell();
        let cells = code.total_bits().div_ceil(bits_per_cell);
        let e = dev.energy();
        let mlc = bits_per_cell > 1;
        let max_age = horizon_s.max(interval_s) * 1.01 + interval_s + oracle.params().t0_s;
        Self {
            grid: ErrorRateGrid::build(oracle, max_age, points_per_decade),
            levels: oracle.num_levels(),
            cells,
            num_lines,
            interval_s,
            horizon_s,
            probe_pj: e.line_read_pj(code.total_bits()) + e.decode_pj(code.guaranteed_t()),
            write_pj: e.line_write_pj(code.total_bits(), mlc) + e.encode_pj,
        }
    }

    /// Energy of one scrub probe (line read + full decode), in µJ —
    /// mirrors the simulator's `scrub_probe` ledger entry.
    pub fn probe_energy_uj(&self) -> f64 {
        self.probe_pj / 1e6
    }

    /// Energy of one scrub write-back (line write + encode), in µJ.
    pub fn writeback_energy_uj(&self) -> f64 {
        self.write_pj / 1e6
    }

    /// Mean per-cell survival `ū` through a probe sequence at `ages` since
    /// the epoch's write: no persistent crossing by the last age and no
    /// transient at any probe. Returns the running `ū` after each probe.
    fn survival_profile(&self, ages: &[f64]) -> Vec<f64> {
        let mut profile = Vec::with_capacity(ages.len());
        let mut tr_prod = vec![1.0f64; self.levels];
        for &age in ages {
            let mut sum = 0.0;
            for (lv, tp) in tr_prod.iter_mut().enumerate() {
                *tp *= 1.0 - self.grid.p_transient(lv, age);
                sum += (1.0 - self.grid.p_up(lv, age)) * *tp;
            }
            profile.push(sum / self.levels as f64);
        }
        profile
    }

    /// Per-probe line hazards `h(r) = 1 − (ū(r)/ū(r−1))^cells` from a
    /// survival profile.
    fn hazards(&self, profile: &[f64]) -> Vec<f64> {
        let n = self.cells as i32;
        let mut hazards = Vec::with_capacity(profile.len());
        let mut prev = 1.0f64;
        for &u in profile {
            let ratio = if prev > 0.0 { (u / prev).min(1.0) } else { 1.0 };
            hazards.push(1.0 - ratio.powi(n));
            prev = u;
        }
        hazards
    }

    /// Predicts probes, write-backs, and energy for the configured run.
    pub fn predict(&self) -> ScrubPrediction {
        let slots =
            ScrubPolicy::basic(self.interval_s, self.num_lines).slot_times_within(self.horizon_s);
        let probes = slots.len() as u64;

        // Per-line probe times (line k owns slots j ≡ k mod N).
        let mut per_line: Vec<Vec<f64>> = vec![Vec::new(); self.num_lines as usize];
        for (j, &t) in slots.iter().enumerate() {
            per_line[j % self.num_lines as usize].push(t);
        }
        let m_max = per_line.iter().map(Vec::len).max().unwrap_or(0);

        // Post-write-back epochs are the same for every line: the s-th
        // probe after a write lands (up to ~1e-9 s of engine float noise)
        // exactly s intervals later.
        let post_ages: Vec<f64> = (1..=m_max).map(|s| s as f64 * self.interval_s).collect();
        let post_hazards = self.hazards(&self.survival_profile(&post_ages));

        let mut wb_mean = 0.0;
        let mut wb_var = 0.0;
        for times in &per_line {
            if times.is_empty() {
                continue;
            }
            // Initial epoch: the line was written at t = 0, so absolute
            // probe times are its ages.
            let init_hazards = self.hazards(&self.survival_profile(times));
            let (mean, var) = line_writeback_moments(&init_hazards, &post_hazards);
            wb_mean += mean;
            wb_var += var;
        }

        let wb_sd = wb_var.sqrt();
        ScrubPrediction {
            probes,
            writebacks_mean: wb_mean,
            writebacks_sd: wb_sd,
            scrub_energy_uj_mean: (probes as f64 * self.probe_pj + wb_mean * self.write_pj) / 1e6,
            scrub_energy_uj_sd: wb_sd * self.write_pj / 1e6,
        }
    }
}

/// Exact per-line write-back distribution moments by dynamic programming
/// over (epoch state, write count).
///
/// State space: `Init` (never written back; hazard from `init_hazards`) or
/// `s` = probes survived since the last write-back (hazard
/// `post_hazards[s]` at the next probe). Any error ⇒ write-back ⇒ state 0.
fn line_writeback_moments(init_hazards: &[f64], post_hazards: &[f64]) -> (f64, f64) {
    let m = init_hazards.len();
    // mass[w] for the Init state; post[s][w] for post-write-back states.
    let mut init_mass = vec![0.0f64; m + 1];
    init_mass[0] = 1.0;
    let mut post: Vec<Vec<f64>> = vec![vec![0.0; m + 1]; m + 1];
    for (r, &g) in init_hazards.iter().enumerate() {
        let mut wrote = vec![0.0f64; m + 1];
        // Post states probe with hazard indexed by their new epoch length.
        for s in (0..r).rev() {
            let h = post_hazards[s];
            for w in 0..=m {
                let mass = post[s][w];
                if mass == 0.0 {
                    continue;
                }
                post[s][w] = 0.0;
                if w < m {
                    wrote[w + 1] += mass * h;
                }
                post[s + 1][w] += mass * (1.0 - h);
            }
        }
        // The Init state probes with its own age-dependent hazard.
        for w in 0..=m {
            let mass = init_mass[w];
            if mass == 0.0 {
                continue;
            }
            if w < m {
                wrote[w + 1] += mass * g;
            }
            init_mass[w] = mass * (1.0 - g);
        }
        for (w, &mass) in wrote.iter().enumerate() {
            post[0][w] += mass;
        }
    }
    // Collapse to the write-count distribution.
    let mut dist = init_mass;
    for row in &post {
        for (w, &mass) in row.iter().enumerate() {
            dist[w] += mass;
        }
    }
    let mut mean = 0.0;
    let mut second = 0.0;
    for (w, &p) in dist.iter().enumerate() {
        mean += w as f64 * p;
        second += (w * w) as f64 * p;
    }
    (mean, (second - mean * mean).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(horizon_s: f64) -> ScrubPrediction {
        let dev = DeviceConfig::default();
        let oracle = DriftOracle::new(&dev);
        BasicScrubOracle::new(&dev, &CodeSpec::bch_line(4), &oracle, 32, 900.0, horizon_s).predict()
    }

    #[test]
    fn probe_count_matches_policy_hook() {
        let pred = setup(7200.0);
        let slots = ScrubPolicy::basic(900.0, 32).slot_times_within(7200.0);
        assert_eq!(pred.probes, slots.len() as u64);
    }

    #[test]
    fn writebacks_grow_with_horizon() {
        let short = setup(3600.0);
        let long = setup(14_400.0);
        assert!(long.writebacks_mean > short.writebacks_mean);
        assert!(long.scrub_energy_uj_mean > short.scrub_energy_uj_mean);
        assert!(short.writebacks_sd >= 0.0);
    }

    #[test]
    fn zero_drift_means_almost_no_writebacks() {
        use pcm_model::DriftParams;
        let dev = DeviceConfig::default();
        let frozen = DriftOracle::with_drift_params(&dev, DriftParams::default().with_scale(0.0));
        let pred = BasicScrubOracle::new(&dev, &CodeSpec::bch_line(4), &frozen, 32, 900.0, 7200.0)
            .predict();
        // Only programming-noise tail mass and transients remain.
        assert!(
            pred.writebacks_mean < 0.5,
            "frozen drift still predicts {} writebacks",
            pred.writebacks_mean
        );
    }

    /// The DP against a hand-computable case: constant hazard h per probe
    /// makes the write count Binomial(m, h).
    #[test]
    fn dp_reduces_to_binomial_under_constant_hazard() {
        let m = 12;
        let h = 0.3;
        let (mean, var) = line_writeback_moments(&vec![h; m], &vec![h; m]);
        assert!((mean - m as f64 * h).abs() < 1e-12, "mean {mean}");
        assert!((var - m as f64 * h * (1.0 - h)).abs() < 1e-12, "var {var}");
    }

    #[test]
    fn dp_handles_empty_schedule() {
        let (mean, var) = line_writeback_moments(&[], &[]);
        assert_eq!((mean, var), (0.0, 0.0));
    }
}
