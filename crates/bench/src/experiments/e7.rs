//! E7 — workload sensitivity: the E6 comparison broken out per workload.
//!
//! Paper analogue: the per-benchmark bar charts.

use pcm_analysis::{
    fmt_count, fmt_percent, fmt_ratio, improvement_ratio, percent_reduction, Table,
};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::DemandTraffic;

use crate::experiments::{baseline_policy, combined_policy, rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

/// Runs E7 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let (base_code, base_policy) = baseline_policy();
    let (comb_code, comb_policy) = combined_policy();
    let mut out = String::from("E7: per-workload headline metrics (combined vs basic)\n\n");
    let mut table = Table::new(vec![
        "workload",
        "UE_basic",
        "UE_combined",
        "UE_reduction",
        "write_ratio",
        "energy_reduction",
    ]);
    // Per workload: the basic job block, then the combined one.
    let jobs = WorkloadId::all()
        .into_iter()
        .flat_map(|id| {
            let traffic = DemandTraffic::suite(id);
            [
                rep_jobs(scale, &dev, &base_code, &base_policy, &traffic, 0xE7),
                rep_jobs(scale, &dev, &comb_code, &comb_policy, &traffic, 0xE7),
            ]
        })
        .flatten()
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for (id, pair) in WorkloadId::all().into_iter().zip(metrics.chunks(2)) {
        let (b, c) = (pair[0], pair[1]);
        table.row(vec![
            id.name().to_string(),
            fmt_count(b.ue),
            fmt_count(c.ue),
            fmt_percent(percent_reduction(b.ue, c.ue)),
            fmt_ratio(improvement_ratio(b.scrub_writes, c.scrub_writes)),
            fmt_percent(percent_reduction(b.scrub_energy_uj, c.scrub_energy_uj)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: the win holds everywhere, but read-mostly/cold\n\
         workloads (web-serve, archive) keep the most residual UEs and the\n\
         lowest write ratios — scrub write-backs are genuinely needed there —\n\
         while write-churning workloads let the lazy scrubber skip almost all\n\
         corrective writes.\n",
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
