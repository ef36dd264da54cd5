//! E3 — ECC-strength ladder: what stronger codes buy, with and without
//! exploiting their headroom.
//!
//! Paper analogue: the ECC table (SECDED through BCH-6). Two policies per
//! code: eager (basic, write back on any error) shows ECC alone; lazy
//! (threshold θ = t−1) shows ECC *exploited* by lightweight detection.

use pcm_analysis::{fmt_count, fmt_percent, Table};
use pcm_ecc::{standard_code_ladder, CodeSpec};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind};

use crate::experiments::{rep_jobs, rep_means, run_grid};
use crate::runner::RunOptions;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;

/// Runs E3 and renders its table.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let dev = DeviceConfig::default();
    let traffic = DemandTraffic::suite(WorkloadId::DbOltp);
    let mut out = String::from("E3: ECC strength ladder (db-oltp, 15min sweep)\n\n");
    let mut table = Table::new(vec![
        "code",
        "overhead",
        "UEs_eager",
        "writes_eager",
        "UEs_lazy",
        "writes_lazy",
        "energy_lazy_uJ",
    ]);
    let ladder = standard_code_ladder();
    // Per code: the eager job block, then the lazy one.
    let jobs = ladder
        .iter()
        .flat_map(|code| {
            let theta = code.guaranteed_t().saturating_sub(1).max(1);
            [
                PolicyKind::Basic {
                    interval_s: INTERVAL_S,
                },
                PolicyKind::Threshold {
                    interval_s: INTERVAL_S,
                    theta,
                },
            ]
            .map(|policy| rep_jobs(scale, &dev, code, &policy, &traffic, 0xE3))
        })
        .flatten()
        .collect();
    let metrics = rep_means(scale, &run_grid(opts, jobs));
    for (code, pair) in ladder.iter().zip(metrics.chunks(2)) {
        let (eager, lazy) = (pair[0], pair[1]);
        table.row(vec![
            code.name().to_string(),
            fmt_percent(code.storage_overhead() * 100.0),
            fmt_count(eager.ue),
            fmt_count(eager.scrub_writes),
            fmt_count(lazy.ue),
            fmt_count(lazy.scrub_writes),
            fmt_count(lazy.scrub_energy_uj),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: UEs fall steeply with code strength; lazy write-back\n\
         cuts writes by ~theta sweeps' worth while keeping UEs near the eager level.\n",
    );
    (out, Vec::new())
}

/// The ladder used (exposed for the experiments bench).
pub fn ladder() -> Vec<CodeSpec> {
    standard_code_ladder()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_seven_codes() {
        assert_eq!(ladder().len(), 7);
    }
}
