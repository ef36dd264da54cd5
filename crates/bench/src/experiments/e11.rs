//! E11 — ablation: the combined mechanism minus one ingredient at a time.
//!
//! Paper analogue: the design-choice breakdown; DESIGN.md calls these out
//! as the ablation benches.

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use scrub_core::PolicyKind;

use crate::experiments::{run_grid, suite_jobs, suite_means};
use crate::runner::RunOptions;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;

/// Ablation variants: (label, code, policy).
pub fn variants() -> Vec<(&'static str, CodeSpec, PolicyKind)> {
    let full = PolicyKind::Combined {
        interval_s: INTERVAL_S,
        theta: 4,
        regions: 64,
        min_age_s: INTERVAL_S * 2.0 / 3.0,
    };
    vec![
        ("combined (full)", CodeSpec::bch_line(6), full.clone()),
        (
            // Strong ECC replaced by SECDED; θ must drop to its capability.
            "-strong-ECC",
            CodeSpec::secded_line(),
            PolicyKind::Combined {
                interval_s: INTERVAL_S,
                theta: 1,
                regions: 64,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
        (
            // Lazy write-back disabled: θ=1 writes back on any error.
            "-lazy-writeback",
            CodeSpec::bch_line(6),
            PolicyKind::Combined {
                interval_s: INTERVAL_S,
                theta: 1,
                regions: 64,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
        (
            // Age filter disabled.
            "-age-filter",
            CodeSpec::bch_line(6),
            PolicyKind::Combined {
                interval_s: INTERVAL_S,
                theta: 4,
                regions: 64,
                min_age_s: 0.0,
            },
        ),
        (
            // Adaptive pacing disabled: one region cannot specialize, and
            // with the whole memory as one region the AIMD signal averages
            // out — approximates a fixed-rate sweep.
            "-adaptive",
            CodeSpec::bch_line(6),
            PolicyKind::AgeAware {
                interval_s: INTERVAL_S,
                theta: 4,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
    ]
}

/// Runs E11 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let mut out = String::from("E11: ablation — combined minus one feature (suite average)\n\n");
    let mut table = Table::new(vec![
        "variant",
        "UEs",
        "scrub_writes",
        "probes",
        "energy_uJ",
        "mean_wear",
    ]);
    let variants = variants();
    let jobs = variants
        .iter()
        .flat_map(|(_, code, policy)| suite_jobs(scale, &dev, code, policy, 0xE11))
        .collect();
    let metrics = suite_means(scale, &run_grid(opts, jobs));
    for ((label, _, _), m) in variants.into_iter().zip(metrics) {
        table.row(vec![
            label.to_string(),
            fmt_count(m.ue),
            fmt_count(m.scrub_writes),
            fmt_count(m.scrub_probes),
            fmt_count(m.scrub_energy_uj),
            format!("{:.2}", m.mean_wear),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: dropping strong ECC devastates UEs; dropping lazy\n\
         write-back multiplies writes; dropping the age filter or adaptivity\n\
         costs energy/probes with little UE benefit.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_variants() {
        assert_eq!(variants().len(), 5);
    }
}
