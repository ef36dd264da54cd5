//! E4 — lazy write-back threshold sweep: scrub writes and energy vs. θ.
//!
//! Paper analogue: the lightweight-detection figure — how far can
//! correction be deferred before uncorrectable errors creep back?

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind};

use crate::experiments::{rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;

/// Runs E4 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let code = CodeSpec::bch_line(6);
    let traffic = DemandTraffic::suite(WorkloadId::WebServe);
    let mut out = String::from("E4: write-back threshold sweep (BCH-6, web-serve)\n\n");
    let mut table = Table::new(vec![
        "theta",
        "UEs",
        "scrub_writes",
        "writes_vs_theta1",
        "scrub_energy_uJ",
        "mean_wear",
    ]);
    let mut theta1_writes = None;
    let jobs = (1..=6u32)
        .flat_map(|theta| {
            let policy = PolicyKind::Threshold {
                interval_s: INTERVAL_S,
                theta,
            };
            rep_jobs(scale, &dev, &code, &policy, &traffic, 0xE4)
        })
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for (theta, m) in (1..=6u32).zip(metrics) {
        let base = *theta1_writes.get_or_insert(m.scrub_writes);
        table.row(vec![
            theta.to_string(),
            fmt_count(m.ue),
            fmt_count(m.scrub_writes),
            if m.scrub_writes > 0.0 {
                format!("{:.2}x", base / m.scrub_writes)
            } else {
                "inf".to_string()
            },
            fmt_count(m.scrub_energy_uj),
            format!("{:.2}", m.mean_wear),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: writes fall sharply with theta (each extra unit of\n\
         headroom defers the write by more sweeps); UEs stay low until theta\n\
         approaches the code's capability t=6.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    #[test]
    fn interval_is_evaluation_default() {
        assert_eq!(super::INTERVAL_S, 900.0);
    }
}
