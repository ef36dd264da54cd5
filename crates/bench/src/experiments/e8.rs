//! E8 — the soft-vs-hard error tradeoff: scrub harder and drift errors
//! fall while wear-out errors rise.
//!
//! Paper analogue: the figure motivating *adaptive* scrub — there is an
//! interior optimum, and it moves with the workload, so a fixed rate is
//! always wrong somewhere. Uses an accelerated-endurance device (see
//! DESIGN.md "Substitutions") so wear-out is observable in-horizon.

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::{DeviceConfig, EnduranceSpec};
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind};

use crate::experiments::{rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Sweep intervals, most aggressive first.
const INTERVALS: [(f64, &str); 5] = [
    (60.0, "1min"),
    (300.0, "5min"),
    (900.0, "15min"),
    (3600.0, "1h"),
    (14_400.0, "4h"),
];

/// Runs E8 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    // Endurance low enough that aggressive scrubbing wears cells out
    // within the horizon, but high enough that relaxed intervals stay
    // healthy. An eager (basic) scrubber at a 1-minute sweep writes each
    // line ~140 times per day under nominal drift (it only writes when a
    // probe finds an error) while a 15-minute one writes ~70; anchoring
    // the median at horizon/400 (~216 writes/day) puts only the
    // aggressive end into wear-out — once a few cells stick, the
    // write-back spiral does the rest, which is the hard-error explosion
    // the figure is about.
    let device = DeviceConfig::builder()
        .endurance(EnduranceSpec::new(scale.horizon_s / 400.0, 0.25))
        .build();
    let code = CodeSpec::bch_line(4);
    let traffic = DemandTraffic::suite(WorkloadId::KvCache);
    let mut out =
        String::from("E8: soft vs hard errors across scrub rates (accelerated endurance)\n\n");
    let mut table = Table::new(vec![
        "interval",
        "UEs",
        "worn_cells",
        "scrub_writes",
        "mean_wear",
        "energy_uJ",
    ]);
    // The fixed-rate sweep, then the adaptive policy, which should land
    // near the good part of the curve without being told where it is.
    let mut rows: Vec<(&str, PolicyKind)> = INTERVALS
        .iter()
        .map(|&(interval_s, label)| (label, PolicyKind::Basic { interval_s }))
        .collect();
    rows.push((
        "adaptive",
        PolicyKind::Adaptive {
            interval_s: 900.0,
            theta: 3,
            regions: 64,
        },
    ));
    let jobs = rows
        .iter()
        .flat_map(|(_, policy)| rep_jobs(scale, &device, &code, policy, &traffic, 0xE8))
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for ((label, _), m) in rows.into_iter().zip(metrics) {
        table.row(vec![
            label.to_string(),
            fmt_count(m.ue),
            fmt_count(m.worn_cells),
            fmt_count(m.scrub_writes),
            format!("{:.1}", m.mean_wear),
            fmt_count(m.scrub_energy_uj),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: a U-curve. Aggressive intervals minimize drift UEs but\n\
         wear cells out (worn_cells explodes, and the resulting stuck-at errors\n\
         re-inflate UEs); lazy intervals do the opposite. Adaptive lands near\n\
         the interior optimum without a hand-tuned rate.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    #[test]
    fn intervals_are_ascending() {
        for w in super::INTERVALS.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
