//! E12 — capacity and interval scaling: normalized rates should be
//! capacity-invariant, and the interval knob moves energy/reliability as
//! predicted.
//!
//! Paper analogue: the scaling/configuration-space table.

use pcm_analysis::{fmt_count, Table};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind};

use crate::experiments::{combined_policy, rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Runs E12 and renders its tables.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let (code, _) = combined_policy();
    let traffic_of = DemandTraffic::suite(WorkloadId::DbOltp);
    let mut out = String::from("E12: capacity and interval scaling (combined+BCH6, db-oltp)\n\n");
    let capacities = [1u32, 2, 4].map(|factor| (scale.num_lines / 4) * factor);
    let intervals = [300.0, 900.0, 2700.0, 8100.0];
    // One grid: the capacity points' job blocks, then the intervals'.
    let capacity_jobs = capacities.iter().flat_map(|&num_lines| {
        let sub = Scale {
            num_lines,
            ..*scale
        };
        let policy = PolicyKind::combined_default(900.0);
        rep_jobs(&sub, &dev, &code, &policy, &traffic_of, 0xE12)
    });
    let interval_jobs = intervals.iter().flat_map(|&interval_s| {
        let policy = PolicyKind::combined_default(interval_s);
        rep_jobs(scale, &dev, &code, &policy, &traffic_of, 0xE12)
    });
    let metrics = rep_means(
        scale,
        &run_grid(opts, capacity_jobs.chain(interval_jobs).collect()),
    );
    let (capacity_metrics, interval_metrics) = metrics.split_at(capacities.len());

    // Part A: capacity sweep at fixed policy.
    let mut cap = Table::new(vec![
        "lines",
        "capacity",
        "UE/GiB-day",
        "energy_nJ/line-day",
    ]);
    let days = scale.horizon_s / 86_400.0;
    for (&num_lines, m) in capacities.iter().zip(capacity_metrics) {
        let gib = num_lines as f64 * 64.0 / (1u64 << 30) as f64;
        cap.row(vec![
            num_lines.to_string(),
            format!("{:.1}MiB", num_lines as f64 * 64.0 / (1 << 20) as f64),
            fmt_count(m.ue / gib / days),
            fmt_count(m.scrub_energy_uj * 1e3 / num_lines as f64 / days),
        ]);
    }
    out.push_str(&cap.render());

    // Part B: base-interval sweep at fixed capacity.
    let mut intv = Table::new(vec!["base_interval", "UEs", "scrub_writes", "energy_uJ"]);
    for (interval_s, m) in intervals.iter().zip(interval_metrics) {
        intv.row(vec![
            format!("{interval_s:.0}s"),
            fmt_count(m.ue),
            fmt_count(m.scrub_writes),
            fmt_count(m.scrub_energy_uj),
        ]);
    }
    out.push('\n');
    out.push_str(&intv.render());
    out.push_str(
        "\nExpected shape: normalized UE and energy rates are capacity-invariant\n\
         (part A); relaxing the base interval saves energy until drift\n\
         accumulation outruns theta and UEs reappear (part B).\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    #[test]
    fn module_compiles() {
        // Execution covered by the experiments bench target.
    }
}
