//! E5 — the scrub-algorithm comparison: all mechanisms, suite-averaged.
//!
//! Paper analogue: the main policy-comparison table.

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use scrub_core::PolicyKind;

use crate::experiments::{run_grid, suite_jobs, suite_means, Metrics};
use crate::runner::RunOptions;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;
const THETA: u32 = 4;

/// The policy roster compared in E5/E6: (row label, code, policy).
pub fn roster() -> Vec<(&'static str, CodeSpec, PolicyKind)> {
    vec![
        (
            "basic+SECDED",
            CodeSpec::secded_line(),
            PolicyKind::Basic {
                interval_s: INTERVAL_S,
            },
        ),
        (
            "basic+BCH6",
            CodeSpec::bch_line(6),
            PolicyKind::Basic {
                interval_s: INTERVAL_S,
            },
        ),
        (
            "threshold+BCH6",
            CodeSpec::bch_line(6),
            PolicyKind::Threshold {
                interval_s: INTERVAL_S,
                theta: THETA,
            },
        ),
        (
            "age-aware+BCH6",
            CodeSpec::bch_line(6),
            PolicyKind::AgeAware {
                interval_s: INTERVAL_S,
                theta: THETA,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
        (
            "adaptive+BCH6",
            CodeSpec::bch_line(6),
            PolicyKind::Adaptive {
                interval_s: INTERVAL_S,
                theta: THETA,
                regions: 64,
            },
        ),
        (
            "combined+BCH6",
            CodeSpec::bch_line(6),
            PolicyKind::combined_default(INTERVAL_S),
        ),
    ]
}

/// Runs the whole roster, suite-averaged, returning the rendered table
/// plus per-policy headline metrics for the `BENCH_e5.json` record.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let roster = roster();
    let jobs = roster
        .iter()
        .flat_map(|(_, code, policy)| suite_jobs(scale, &dev, code, policy, 0xE5))
        .collect();
    let means = suite_means(scale, &run_grid(opts, jobs));
    let rows: Vec<_> = roster
        .into_iter()
        .zip(means)
        .map(|((label, _, _), m)| (label, m))
        .collect();
    let mut metrics = Vec::new();
    for (label, m) in &rows {
        metrics.push((format!("{label}.ue"), m.ue));
        metrics.push((format!("{label}.scrub_writes"), m.scrub_writes));
        metrics.push((format!("{label}.scrub_energy_uj"), m.scrub_energy_uj));
    }
    (render(&rows), metrics)
}

/// Renders the comparison table.
fn render(rows: &[(&'static str, Metrics)]) -> String {
    let mut out =
        String::from("E5: scrub mechanism comparison (averaged over the 8-workload suite)\n\n");
    let mut table = Table::new(vec![
        "policy",
        "UEs",
        "demand_UEs",
        "scrub_writes",
        "probes",
        "energy_uJ",
        "mean_wear",
    ]);
    for (label, m) in rows {
        table.row(vec![
            label.to_string(),
            fmt_count(m.ue),
            fmt_count(m.demand_ue),
            fmt_count(m.scrub_writes),
            fmt_count(m.scrub_probes),
            fmt_count(m.scrub_energy_uj),
            format!("{:.2}", m.mean_wear),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: each mechanism added monotonically improves the\n\
         writes/energy axis; UEs collapse once BCH replaces SECDED and stay\n\
         low under lazy write-back.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_all_mechanisms() {
        let names: Vec<&str> = roster().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names.len(), 6);
        assert!(names.contains(&"basic+SECDED"));
        assert!(names.contains(&"combined+BCH6"));
    }
}
