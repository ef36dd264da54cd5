//! Experiment implementations E1–E17 and X1 (see DESIGN.md's experiment
//! index).
//!
//! Every experiment is a pure function
//! `run(&Scale, &RunOptions) -> (String, Vec<(String, f64)>)` returning
//! its rendered tables and its headline metrics (empty for most); the
//! `exp_*` binaries print the tables and record the metrics.
//!
//! The simulating experiments build their whole sweep as one list of
//! `SimConfig` jobs, hand it to [`run_grid`], and regroup the reports in
//! input order. Threads therefore go to whole simulations, never to the
//! short bank sweeps inside one.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod x1;

use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, SplitRunOutcome};

use crate::runner::RunOptions;
use crate::scale::Scale;

/// Runs one simulation to its horizon through `scrub_core::run_split`:
/// in segments of `--checkpoint-every` when it is set, serializing and
/// resuming the full state at every boundary, else as one segment, the
/// same run as `Simulation::run`. The determinism contract makes the
/// cadence invisible in the output.
pub(crate) fn run_config(opts: &RunOptions, config: SimConfig) -> SplitRunOutcome {
    let every_s = opts.checkpoint_every_s.unwrap_or(config.horizon_s);
    scrub_core::run_split(config, every_s).expect("split run over config-built traces cannot fail")
}

/// Runs a grid of independent simulations on the process's thread
/// budget ([`scrub_exec::default_threads`]), one whole simulation per
/// job, and returns the reports in input order. When `opts` carries a
/// fault campaign, every job attaches it in place of its own (the
/// campaign's seed keeps that deterministic too). A simulation runs on
/// the worker that calls it and never spawns workers of its own. Every
/// job's seed is fixed by its config, so the reports are bit-identical
/// for every budget.
pub(crate) fn run_grid(opts: &RunOptions, configs: Vec<SimConfig>) -> Vec<SimReport> {
    scrub_exec::par_map(scrub_exec::default_threads(), configs, |_, mut c| {
        c.fault_campaign = opts.fault_campaign.or(c.fault_campaign);
        run_config(opts, c).report
    })
}

/// One configuration's jobs at the scale's size and horizon, one per
/// rep, seeded `base_seed + rep·1000`.
pub(crate) fn rep_jobs(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    traffic: &DemandTraffic,
    base_seed: u64,
) -> Vec<SimConfig> {
    (0..scale.reps)
        .map(|rep| {
            SimConfig::builder()
                .num_lines(scale.num_lines)
                .device(device.clone())
                .code(code.clone())
                .policy(policy.clone())
                .traffic(traffic.clone())
                .horizon_s(scale.horizon_s)
                .seed(base_seed + rep as u64 * 1000)
                .build()
        })
        .collect()
}

/// One configuration's jobs over the whole workload suite: workload
/// major, then rep (see [`rep_jobs`]).
pub(crate) fn suite_jobs(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    base_seed: u64,
) -> Vec<SimConfig> {
    WorkloadId::all()
        .into_iter()
        .flat_map(|id| {
            rep_jobs(
                scale,
                device,
                code,
                policy,
                &DemandTraffic::suite(id),
                base_seed,
            )
        })
        .collect()
}

/// Rep means of a grid of [`rep_jobs`] blocks, one per configuration in
/// input order.
pub(crate) fn rep_means(scale: &Scale, reports: &[SimReport]) -> Vec<Metrics> {
    reports
        .chunks(scale.reps as usize)
        .map(Metrics::of)
        .collect()
}

/// Suite means of a grid of [`suite_jobs`] blocks, one per configuration
/// in input order: each workload's rep mean divided by the workload
/// count, summed in suite order (f64 accumulation order is part of the
/// determinism contract).
pub(crate) fn suite_means(scale: &Scale, reports: &[SimReport]) -> Vec<Metrics> {
    let workloads = WorkloadId::all().len();
    reports
        .chunks(scale.reps as usize * workloads)
        .map(|suite| {
            let per_workload = rep_means(scale, suite);
            assert_eq!(per_workload.len(), workloads);
            let n = workloads as f64;
            let mut m = Metrics::default();
            for w in &per_workload {
                m.ue += w.ue / n;
                m.demand_ue += w.demand_ue / n;
                m.scrub_writes += w.scrub_writes / n;
                m.scrub_probes += w.scrub_probes / n;
                m.scrub_energy_uj += w.scrub_energy_uj / n;
                m.mean_wear += w.mean_wear / n;
                m.worn_cells += w.worn_cells / n;
                m.scrub_utilization += w.scrub_utilization / n;
                m.read_latency_ns += w.read_latency_ns / n;
                m.measured_latency_ns += w.measured_latency_ns / n;
            }
            m
        })
        .collect()
}

/// Aggregated metrics over repeated seeds (averages).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    pub ue: f64,
    pub demand_ue: f64,
    pub scrub_writes: f64,
    pub scrub_probes: f64,
    pub scrub_energy_uj: f64,
    pub mean_wear: f64,
    pub worn_cells: f64,
    pub scrub_utilization: f64,
    pub read_latency_ns: f64,
    pub measured_latency_ns: f64,
}

impl Metrics {
    pub fn of(reports: &[SimReport]) -> Self {
        let n = reports.len() as f64;
        assert!(n > 0.0, "no reports to aggregate");
        let mut m = Metrics::default();
        for r in reports {
            m.ue += r.uncorrectable() as f64;
            m.demand_ue += r.stats.demand_ue as f64;
            m.scrub_writes += r.stats.scrub_writebacks as f64;
            m.scrub_probes += r.stats.scrub_probes as f64;
            m.scrub_energy_uj += r.scrub_energy_uj;
            m.mean_wear += r.mean_wear;
            m.worn_cells += r.worn_cells as f64;
            m.scrub_utilization += r.scrub_utilization;
            m.read_latency_ns += r.demand_read_latency_ns;
            m.measured_latency_ns += r.measured_read_latency_ns;
        }
        m.ue /= n;
        m.demand_ue /= n;
        m.scrub_writes /= n;
        m.scrub_probes /= n;
        m.scrub_energy_uj /= n;
        m.mean_wear /= n;
        m.worn_cells /= n;
        m.scrub_utilization /= n;
        m.read_latency_ns /= n;
        m.measured_latency_ns /= n;
        m
    }
}

/// The evaluation's baseline configuration: DRAM-style basic scrub over
/// SECDED at a 15-minute sweep.
pub(crate) fn baseline_policy() -> (CodeSpec, PolicyKind) {
    (
        CodeSpec::secded_line(),
        PolicyKind::Basic { interval_s: 900.0 },
    )
}

/// The paper's combined mechanism over BCH-6 at the same base sweep.
pub(crate) fn combined_policy() -> (CodeSpec, PolicyKind) {
    (CodeSpec::bch_line(6), PolicyKind::combined_default(900.0))
}

/// Configurations compared in the bandwidth-overhead experiment (E9):
/// basic scrub across rates, plus the combined mechanism.
pub(crate) fn roster_for_bandwidth() -> Vec<(String, CodeSpec, PolicyKind)> {
    let mut v: Vec<(String, CodeSpec, PolicyKind)> = [60.0, 300.0, 900.0, 3600.0]
        .into_iter()
        .map(|interval_s| {
            (
                format!("basic@{interval_s:.0}s"),
                CodeSpec::secded_line(),
                PolicyKind::Basic { interval_s },
            )
        })
        .collect();
    let (code, policy) = combined_policy();
    v.push(("combined@900s".to_string(), code, policy));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_average_reports() {
        let scale = Scale {
            num_lines: 256,
            horizon_s: 1800.0,
            reps: 2,
            mc_cells: 100,
        };
        let (code, policy) = baseline_policy();
        let jobs = rep_jobs(
            &scale,
            &DeviceConfig::default(),
            &code,
            &policy,
            &DemandTraffic::Idle,
            9,
        );
        let reports = run_grid(&RunOptions::default(), jobs);
        let m = rep_means(&scale, &reports);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0], Metrics::of(&reports));
        assert!(m[0].scrub_probes > 0.0);
    }
}
