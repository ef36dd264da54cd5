//! E2 — motivation: DRAM-style SECDED scrub vs. drift, across scrub
//! intervals.
//!
//! Paper analogue: the motivation figure showing that a conventional
//! scrub + SECDED organization cannot keep MLC-PCM uncorrectable-error
//! rates down without absurd scrub rates (and even then pays enormous
//! write traffic).

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use scrub_core::{DemandTraffic, PolicyKind};

use crate::experiments::{rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Sweep intervals reported (seconds, label).
const INTERVALS: [(f64, &str); 5] = [
    (300.0, "5min"),
    (900.0, "15min"),
    (3600.0, "1h"),
    (14_400.0, "4h"),
    (86_400.0, "1d"),
];

/// Runs E2 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let code = CodeSpec::secded_line();
    let mut out =
        String::from("E2: basic scrub + SECDED under drift (idle memory, worst case)\n\n");
    let mut table = Table::new(vec![
        "interval",
        "UEs",
        "UE_prob_per_probe",
        "scrub_writes",
        "writes/line-day",
        "scrub_energy_uJ",
    ]);
    let days = scale.horizon_s / 86_400.0;
    let jobs = INTERVALS
        .iter()
        .flat_map(|&(interval_s, _)| {
            rep_jobs(
                scale,
                &dev,
                &code,
                &PolicyKind::Basic { interval_s },
                &DemandTraffic::Idle,
                0xE2,
            )
        })
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for ((_, label), m) in INTERVALS.into_iter().zip(metrics) {
        table.row(vec![
            label.to_string(),
            fmt_count(m.ue),
            // The motivating series: how likely each sweep visit is to
            // find the line already uncorrectable. (Raw UE event counts
            // are deduplicated per write epoch, so at long intervals
            // fewer — but near-certain — discoveries occur.)
            format!("{:.2e}", m.ue / m.scrub_probes.max(1.0)),
            fmt_count(m.scrub_writes),
            fmt_count(m.scrub_writes / scale.num_lines as f64 / days),
            fmt_count(m.scrub_energy_uj),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: the per-probe UE probability climbs orders of magnitude\n\
         with the interval (drift overwhelms SECDED); short intervals trade that\n\
         for massive write traffic and energy.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_renders() {
        let s = Scale {
            num_lines: 512,
            horizon_s: 4.0 * 3600.0,
            reps: 1,
            mc_cells: 100,
        };
        let (out, _) = run(&s, &RunOptions::default());
        assert!(out.contains("15min"));
        assert!(out.contains("UE_prob_per_probe"));
    }
}
