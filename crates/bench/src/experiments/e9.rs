//! E9 — performance overhead: channel bandwidth consumed by scrubbing and
//! the resulting demand-read latency inflation.
//!
//! Paper analogue: the performance-impact figure.
//!
//! Scrub channel time per line is capacity-independent, but the channel is
//! shared at DIMM granularity — so the utilization measured on the small
//! simulated memory is rescaled to a reference 16 GiB DIMM before the
//! latency model is applied (otherwise a 1 MiB toy memory trivially shows
//! 0% share at any interval).

use pcm_analysis::{fmt_percent, Table};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::DemandTraffic;

use crate::experiments::{rep_jobs, rep_means, roster_for_bandwidth, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Reference DIMM capacity the utilization is scaled to.
const REF_CAPACITY_BYTES: f64 = 16.0 * (1u64 << 30) as f64;
const BASE_READ_NS: f64 = 120.0;

/// Runs E9 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let traffic = DemandTraffic::suite(WorkloadId::DbOltp);
    let capacity_factor = REF_CAPACITY_BYTES / (scale.num_lines as f64 * 64.0);
    let mut out = format!(
        "E9: scrub bandwidth share and demand-read latency (db-oltp),\n\
         utilization scaled to a 16 GiB DIMM (factor {capacity_factor:.0})\n\n"
    );
    let mut table = Table::new(vec![
        "config",
        "scrub_bw_share@16GiB",
        "est_read_latency_ns",
        "latency_overhead",
    ]);
    let roster = roster_for_bandwidth();
    let jobs = roster
        .iter()
        .flat_map(|(_, code, policy)| rep_jobs(scale, &dev, code, policy, &traffic, 0xE9))
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for ((label, _, _), m) in roster.into_iter().zip(metrics) {
        let share = (m.scrub_utilization * capacity_factor).min(0.99);
        let latency = if share >= 0.9 {
            BASE_READ_NS * 10.0
        } else {
            BASE_READ_NS / (1.0 - share)
        };
        table.row(vec![
            label,
            fmt_percent(share * 100.0),
            format!("{latency:.1}"),
            fmt_percent((latency / BASE_READ_NS - 1.0) * 100.0),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: at DIMM capacities, aggressive basic scrub consumes a\n\
         large channel share (every probe-with-error triggers a ~1us write);\n\
         the combined mechanism's share at the same base interval is a small\n\
         fraction of the baseline's, keeping demand latency near the raw read\n\
         time.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    use crate::experiments::roster_for_bandwidth;

    #[test]
    fn bandwidth_roster_nonempty() {
        assert!(roster_for_bandwidth().len() >= 4);
    }

    #[test]
    fn reference_capacity_is_16_gib() {
        assert_eq!(super::REF_CAPACITY_BYTES, 16.0 * 1024.0 * 1024.0 * 1024.0);
    }
}
