//! E6 — the headline table: combined mechanism vs. the DRAM-style
//! baseline.
//!
//! Paper numbers to compare against (from the abstract): **96.5%** fewer
//! uncorrectable errors, **24.4×** fewer scrub writes, **37.8%** less
//! scrub energy.

use pcm_analysis::{
    fmt_count, fmt_percent, fmt_ratio, improvement_ratio, percent_reduction, Table,
};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_telemetry as tel;

use crate::experiments::{
    baseline_policy, combined_policy, run_grid, suite_jobs, suite_means, Metrics,
};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Computed headline comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Suite-averaged metrics for basic+SECDED.
    pub basic: Metrics,
    /// Suite-averaged metrics for combined+BCH6.
    pub combined: Metrics,
}

impl Headline {
    /// UE reduction percentage (paper: 96.5%).
    pub fn ue_reduction_pct(&self) -> f64 {
        percent_reduction(self.basic.ue, self.combined.ue)
    }

    /// Scrub-write improvement ratio (paper: 24.4×).
    pub fn write_ratio(&self) -> f64 {
        improvement_ratio(self.basic.scrub_writes, self.combined.scrub_writes)
    }

    /// Scrub-energy reduction percentage (paper: 37.8%).
    pub fn energy_reduction_pct(&self) -> f64 {
        percent_reduction(self.basic.scrub_energy_uj, self.combined.scrub_energy_uj)
    }
}

/// Computes the headline comparison without rendering.
///
/// Each suite is its own job grid. When the telemetry recorder is
/// enabled, each runs under its own phase scope, crediting the total
/// simulated span it covered.
pub fn compute(scale: &Scale, opts: &RunOptions) -> Headline {
    let dev = DeviceConfig::default();
    let suite_span_s = scale.horizon_s * (WorkloadId::all().len() as u32 * scale.reps) as f64;
    let suite = |phase: &str, (code, policy)| {
        let mut scope = tel::phase(phase);
        scope.add_sim_span(suite_span_s);
        let reports = run_grid(opts, suite_jobs(scale, &dev, &code, &policy, 0xE6));
        suite_means(scale, &reports)[0]
    };
    let basic = suite("e6.basic_suite", baseline_policy());
    let combined = suite("e6.combined_suite", combined_policy());
    Headline { basic, combined }
}

/// Runs E6, returning the rendered table (with paper-reported targets
/// inline) plus the three ratios and both suites' averages for the
/// `BENCH_e6.json` record.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let h = compute(scale, opts);
    let mut metrics = vec![
        ("ue_reduction_pct".to_string(), h.ue_reduction_pct()),
        ("write_ratio".to_string(), h.write_ratio()),
        ("energy_reduction_pct".to_string(), h.energy_reduction_pct()),
    ];
    for (suite, m) in [("basic", &h.basic), ("combined", &h.combined)] {
        for (name, v) in [
            ("ue", m.ue),
            ("scrub_writes", m.scrub_writes),
            ("scrub_probes", m.scrub_probes),
            ("scrub_energy_uj", m.scrub_energy_uj),
            ("mean_wear", m.mean_wear),
        ] {
            metrics.push((format!("{suite}.{name}"), v));
        }
    }
    (render(&h), metrics)
}

/// Renders the headline comparison table.
fn render(h: &Headline) -> String {
    let mut out = String::from("E6: headline — combined mechanism vs DRAM-style basic scrub\n\n");
    let mut table = Table::new(vec![
        "metric",
        "basic+SECDED",
        "combined+BCH6",
        "improvement",
        "paper",
    ]);
    table.row(vec![
        "uncorrectable errors".into(),
        fmt_count(h.basic.ue),
        fmt_count(h.combined.ue),
        fmt_percent(h.ue_reduction_pct()),
        "96.5% fewer".into(),
    ]);
    table.row(vec![
        "scrub writes".into(),
        fmt_count(h.basic.scrub_writes),
        fmt_count(h.combined.scrub_writes),
        fmt_ratio(h.write_ratio()),
        "24.4x fewer".into(),
    ]);
    table.row(vec![
        "scrub energy (uJ)".into(),
        fmt_count(h.basic.scrub_energy_uj),
        fmt_count(h.combined.scrub_energy_uj),
        fmt_percent(h.energy_reduction_pct()),
        "37.8% less".into(),
    ]);
    table.row(vec![
        "mean line wear".into(),
        format!("{:.2}", h.basic.mean_wear),
        format!("{:.2}", h.combined.mean_wear),
        fmt_percent(percent_reduction_safe(
            h.basic.mean_wear,
            h.combined.mean_wear,
        )),
        "(not reported)".into(),
    ]);
    out.push_str(&table.render());
    out.push_str(
        "\nAbsolute numbers depend on the simulated substrate; the claim checked\n\
         here is the *shape*: combined wins every axis, by a large factor on\n\
         UEs and writes and a solid margin on energy.\n",
    );
    out
}

fn percent_reduction_safe(baseline: f64, new: f64) -> f64 {
    pcm_analysis::percent_reduction(baseline, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_directions_hold_at_tiny_scale() {
        let scale = Scale {
            num_lines: 2048,
            horizon_s: 8.0 * 3600.0,
            reps: 1,
            mc_cells: 100,
        };
        let h = compute(&scale, &RunOptions::default());
        assert!(
            h.ue_reduction_pct() > 50.0,
            "UE reduction {}",
            h.ue_reduction_pct()
        );
        assert!(h.write_ratio() > 3.0, "write ratio {}", h.write_ratio());
        assert!(
            h.energy_reduction_pct() > 0.0,
            "energy reduction {}",
            h.energy_reduction_pct()
        );
    }
}
