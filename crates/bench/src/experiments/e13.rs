//! E13 — lifetime to first unrepairable error under graceful degradation.
//!
//! Extension experiment: on a low-endurance device seeded with a
//! deterministic fault campaign, how long does each scrub mechanism keep
//! the memory serviceable when the repair hierarchy (ECP sparing → line
//! retirement → bank-degraded mode) is absorbing hard faults?
//!
//! The scrub policies differ exactly where the paper's soft/hard-error
//! tradeoff says they should: mechanisms that write back on every sweep
//! wear cells out and exhaust the repair hierarchy early, while
//! threshold/age-gated mechanisms preserve endurance and survive the
//! horizon. Reps that never become unrepairable are censored at the
//! horizon, so every reported lifetime is a lower bound.

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_memsim::inject::{SeuClause, StuckClause};
use pcm_memsim::{CampaignSpec, RecoveryConfig, RepairConfig};
use pcm_model::{DeviceConfig, EnduranceSpec};
use scrub_core::{DemandTraffic, PolicyKind, SimConfig};

use crate::experiments::run_grid;
use crate::runner::RunOptions;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;
const THETA: u32 = 4;

/// The four mechanisms compared, all over BCH-6 so only the scrub
/// decision differs: (row label, policy).
pub fn roster() -> Vec<(&'static str, PolicyKind)> {
    vec![
        (
            "basic",
            PolicyKind::Basic {
                interval_s: INTERVAL_S,
            },
        ),
        (
            "threshold",
            PolicyKind::Threshold {
                interval_s: INTERVAL_S,
                theta: THETA,
            },
        ),
        (
            "age-aware",
            PolicyKind::AgeAware {
                interval_s: INTERVAL_S,
                theta: THETA,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
        ("combined", PolicyKind::combined_default(INTERVAL_S)),
    ]
}

/// The campaign E13 attaches unless `--fault-campaign` replaces it: a
/// sprinkle of ECP-repairable stuck clusters plus background SEUs, sized
/// to the memory under test.
pub fn default_campaign(scale: &Scale) -> CampaignSpec {
    CampaignSpec {
        seed: 0xE13,
        stuck: Some(StuckClause {
            lines: (scale.num_lines / 16).max(1),
            cells: 4,
        }),
        seu: Some(SeuClause {
            lines: (scale.num_lines / 8).max(1),
            count: 2,
            window_s: (scale.horizon_s * 0.5).max(1.0),
        }),
        intermittent: None,
        burst: None,
    }
}

/// The low-endurance device E13 stresses: cells give out after a median
/// of 30 writes, so a horizon of ~50 sweeps spans the whole wear-out arc.
fn frail_device() -> DeviceConfig {
    DeviceConfig::builder()
        .endurance(EnduranceSpec::new(30.0, 0.4))
        .build()
}

/// One policy's rep-averaged lifetime figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeRow {
    /// Roster label.
    pub label: &'static str,
    /// Mean time to the first unrepairable error (seconds), censored at
    /// the horizon for reps that survived.
    pub lifetime_s: f64,
    /// Reps that survived the whole horizon without an unrepairable error.
    pub survived: u32,
    /// Mean ECP line repairs.
    pub ecp_repairs: f64,
    /// Mean lines retired to spares.
    pub lines_retired: f64,
    /// Mean unrepairable UEs.
    pub unrepairable: f64,
    /// Mean UEs rescued by the shifted-threshold retry.
    pub recovered: f64,
    /// Mean banks degraded by the horizon.
    pub degraded_banks: f64,
}

fn sim_config(scale: &Scale, policy: &PolicyKind, seed: u64) -> SimConfig {
    let mut builder = SimConfig::builder();
    builder
        .num_lines(scale.num_lines)
        .device(frail_device())
        .code(CodeSpec::bch_line(6))
        .policy(policy.clone())
        .traffic(DemandTraffic::Idle)
        .horizon_s(scale.horizon_s)
        .seed(seed)
        .fault_campaign(default_campaign(scale))
        .repair(RepairConfig::default())
        .ue_recovery(RecoveryConfig::default());
    builder.build()
}

/// Computes the lifetime table without rendering.
pub fn compute(scale: &Scale, opts: &RunOptions) -> Vec<LifetimeRow> {
    let roster = roster();
    let jobs = roster
        .iter()
        .flat_map(|(_, policy)| {
            (0..scale.reps).map(move |rep| sim_config(scale, policy, 0xE13 + rep as u64 * 1000))
        })
        .collect();
    let reports = run_grid(opts, jobs);
    roster
        .into_iter()
        .zip(reports.chunks(scale.reps as usize))
        .map(|((label, _), reports)| {
            let n = reports.len() as f64;
            let mut row = LifetimeRow {
                label,
                lifetime_s: 0.0,
                survived: 0,
                ecp_repairs: 0.0,
                lines_retired: 0.0,
                unrepairable: 0.0,
                recovered: 0.0,
                degraded_banks: 0.0,
            };
            for r in reports {
                match r.first_unrepairable_s {
                    Some(s) => row.lifetime_s += s,
                    None => {
                        row.lifetime_s += r.horizon_s;
                        row.survived += 1;
                    }
                }
                row.ecp_repairs += r.stats.ecp_repairs as f64;
                row.lines_retired += r.stats.lines_retired as f64;
                row.unrepairable += r.stats.unrepairable_ue as f64;
                row.recovered += r.stats.recovered_ue as f64;
                row.degraded_banks += r.degraded_banks as f64;
            }
            row.lifetime_s /= n;
            row.ecp_repairs /= n;
            row.lines_retired /= n;
            row.unrepairable /= n;
            row.recovered /= n;
            row.degraded_banks /= n;
            row
        })
        .collect()
}

/// Runs E13, returning the rendered table plus per-policy headline
/// metrics for the `BENCH_e13.json` record.
pub fn run(scale: &Scale, opts: &RunOptions) -> (String, Vec<(String, f64)>) {
    let rows = compute(scale, opts);
    let mut metrics = Vec::new();
    for row in &rows {
        metrics.push((format!("{}.lifetime_s", row.label), row.lifetime_s));
        metrics.push((format!("{}.ecp_repairs", row.label), row.ecp_repairs));
        metrics.push((format!("{}.lines_retired", row.label), row.lines_retired));
        metrics.push((format!("{}.unrepairable", row.label), row.unrepairable));
        metrics.push((format!("{}.recovered", row.label), row.recovered));
    }
    (render(&rows, scale.horizon_s), metrics)
}

/// Renders the lifetime table.
fn render(rows: &[LifetimeRow], horizon_s: f64) -> String {
    let mut out = String::from(
        "E13: lifetime to first unrepairable error (low-endurance device,\n\
         fault campaign, ECP-6 + spare-line repair hierarchy)\n\n",
    );
    let mut table = Table::new(vec![
        "policy",
        "lifetime_h",
        "ecp_repairs",
        "retired",
        "unrepairable",
        "recovered",
        "degraded_banks",
    ]);
    for row in rows {
        let lifetime = if row.survived > 0 && row.unrepairable == 0.0 {
            format!(">{:.1}", horizon_s / 3600.0)
        } else {
            format!("{:.1}", row.lifetime_s / 3600.0)
        };
        table.row(vec![
            row.label.to_string(),
            lifetime,
            fmt_count(row.ecp_repairs),
            fmt_count(row.lines_retired),
            fmt_count(row.unrepairable),
            fmt_count(row.recovered),
            format!("{:.1}", row.degraded_banks),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: unconditional write-backs (basic) burn endurance and\n\
         exhaust the repair hierarchy first; threshold/age-gated mechanisms\n\
         write less, wear less, and keep the memory serviceable longer —\n\
         the soft/hard-error tradeoff measured in lifetime terms.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_hierarchy_stages_all_appear_at_tiny_scale() {
        let scale = Scale {
            num_lines: 1024,
            horizon_s: 12.0 * 3600.0,
            reps: 1,
            mc_cells: 100,
        };
        let rows = compute(&scale, &RunOptions::default());
        assert_eq!(rows.len(), 4);
        let basic = &rows[0];
        assert_eq!(basic.label, "basic");
        // Basic scrub rewrites every line every sweep: under median-30
        // endurance it must drive lines through every stage.
        assert!(basic.ecp_repairs > 0.0, "{basic:?}");
        assert!(basic.lines_retired > 0.0, "{basic:?}");
        assert!(basic.unrepairable > 0.0, "{basic:?}");
        assert!(
            basic.lifetime_s < scale.horizon_s,
            "basic must die early: {basic:?}"
        );
        // Write-shy mechanisms outlive write-happy ones.
        let combined = rows.iter().find(|r| r.label == "combined").unwrap();
        assert!(
            combined.lifetime_s > basic.lifetime_s,
            "combined {:.0}s vs basic {:.0}s",
            combined.lifetime_s,
            basic.lifetime_s
        );
    }
}
