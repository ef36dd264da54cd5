//! Telemetry must be a pure observer: enabling, disabling, or never
//! installing the recorder must not move a single bit of simulation
//! output, and when enabled its counters and events must reconcile
//! exactly with the report the experiment prints.
//!
//! The recorder is process-global, so everything lives in ONE test
//! function — this file being its own integration-test binary guarantees
//! a fresh process whose recorder starts untouched.

use pcm_workloads::WorkloadId;
use scrub_bench::experiments::{e17, e6};
use scrub_bench::{RunOptions, Scale};
use scrub_core::ProfileStats;
use scrub_telemetry as tel;

/// Per-sim fields carried by a `SimDone` event, as f64s in the same
/// representation `Metrics::of` consumes.
struct SimRow {
    policy: String,
    ue: f64,
    scrub_writes: f64,
    scrub_probes: f64,
    scrub_energy_uj: f64,
    mean_wear: f64,
}

/// Replicates the suite average bit-for-bit: per-workload chunks are
/// summed in event order and divided by `reps` (as in `Metrics::of`),
/// then each workload mean is divided by the workload count and summed
/// in suite order (as in `suite_means`). f64 accumulation order is
/// part of the determinism contract, so the fold order here must match.
fn suite_average(rows: &[SimRow], reps: usize, pick: impl Fn(&SimRow) -> f64) -> f64 {
    let n_w = (rows.len() / reps) as f64;
    let mut total = 0.0;
    for chunk in rows.chunks(reps) {
        let mut per_workload = 0.0;
        for row in chunk {
            per_workload += pick(row);
        }
        per_workload /= reps as f64;
        total += per_workload / n_w;
    }
    total
}

#[test]
fn telemetry_is_invisible_and_reconciles() {
    // One worker: SimDone events then arrive in job order (workload-major,
    // rep-minor), which the reconciliation fold below depends on. Results
    // are thread-count-independent either way.
    scrub_exec::set_default_threads(1);
    let scale = Scale {
        num_lines: 1024,
        horizon_s: 3.0 * 3600.0,
        reps: 2,
        mc_cells: 100,
    };

    // E17 at tiny scale: its policy table's profiler cells come from the
    // runs, so they too must not depend on the recorder.
    let e17_scale = Scale {
        num_lines: 512,
        horizon_s: 6.0 * 3600.0,
        reps: 1,
        mc_cells: 100,
    };
    let opts = RunOptions::default();

    // Recorder never installed: the baseline this whole file defends.
    let h_absent = e6::compute(&scale, &opts);
    let e17_absent = e17::compute(&e17_scale, &opts);

    // Recorder enabled. The Sim-only event mask keeps the journal to one
    // SimDone per simulation, so nothing is evicted (`dropped == 0`).
    tel::install(tel::Config {
        journal_capacity: 4096,
        event_mask: tel::EventClass::Sim.bit(),
    });
    let h_on = e6::compute(&scale, &opts);
    let doc = tel::snapshot();
    // E6 runs no profiled policy, so the profiler counters start at zero.
    let e17_on = e17::compute(&e17_scale, &opts);
    let e17_doc = tel::snapshot();

    // Recorder installed but disabled.
    tel::set_enabled(false);
    let h_off = e6::compute(&scale, &opts);
    let e17_off = e17::compute(&e17_scale, &opts);

    // Invariance: the headline (and therefore the rendered report, a pure
    // function of it) is bit-identical in all three recorder states.
    assert_eq!(h_absent, h_on, "enabling telemetry changed results");
    assert_eq!(h_absent, h_off, "disabling telemetry changed results");

    // So are E17's rows, profiler cells included, and with them its
    // stdout, a pure function of the rows.
    assert_eq!(e17_absent, e17_on, "enabling telemetry changed E17");
    assert_eq!(e17_absent, e17_off, "disabling telemetry changed E17");
    let profiled = &e17_on.policies[2];
    assert_eq!(profiled.label, "profiled");
    assert!(
        profiled.hit_rate.is_some() && profiled.base_rate.is_some(),
        "{profiled:?}"
    );
    // The profile tallies the rows carry, summed over both tables,
    // reconcile exactly with the published profiler counters.
    let counter = |name: &str| e17_doc.counters.get(name).copied().unwrap_or(0);
    let counted = ProfileStats {
        hits: counter("profiler_hits"),
        misses: counter("profiler_misses"),
        dirty_probes: counter("profiler_dirty_probes"),
    };
    let summed: ProfileStats = e17_on
        .policies
        .iter()
        .map(|r| r.profile)
        .chain(e17_on.codes.iter().map(|r| r.profile))
        .sum();
    assert!(summed.hits > 0, "no profiler hits");
    assert_eq!(summed, counted, "profile tallies disagree with counters");

    // Every finished run's SimDone event survives in the journal.
    assert_eq!(doc.events_dropped, 0, "SimDone events were evicted");

    // Each run publishes its own tallies to the counters, so the counters
    // equal the totals of the finished runs' reports, summed over their
    // SimDone events: integer adds commute, so to the last event.
    let mut reported = [0u64; 4];
    for e in &doc.events {
        if let tel::EventKind::SimDone {
            scrub_probes,
            scrub_writes,
            ue,
            demand_ue,
            ..
        } = e.kind
        {
            for (total, n) in reported
                .iter_mut()
                .zip([scrub_probes, scrub_writes, ue, demand_ue])
            {
                *total += n;
            }
        }
    }
    let c = |name: &str| {
        *doc.counters
            .get(name)
            .unwrap_or_else(|| panic!("document is missing counter {name}"))
    };
    assert!(c("scrub_probes") > 0, "no scrub probes recorded");
    assert_eq!(
        [
            c("scrub_probes"),
            c("scrub_writebacks"),
            c("detected_ue") + c("miscorrections"),
            c("demand_ue"),
        ],
        reported,
        "counters disagree with the summed report totals \
         (probes, write-backs, UEs, demand UEs)"
    );

    // Event-journal reconciliation: recompute the suite averages from the
    // per-sim SimDone events and match the headline bit-for-bit.
    let rows: Vec<SimRow> = doc
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            tel::EventKind::SimDone {
                policy,
                ue,
                demand_ue: _,
                scrub_writes,
                scrub_probes,
                scrub_energy_uj,
                mean_wear,
                ..
            } => Some(SimRow {
                policy: policy.clone(),
                ue: *ue as f64,
                scrub_writes: *scrub_writes as f64,
                scrub_probes: *scrub_probes as f64,
                scrub_energy_uj: *scrub_energy_uj,
                mean_wear: *mean_wear,
            }),
            _ => None,
        })
        .collect();
    let workloads = WorkloadId::all().len();
    let reps = scale.reps as usize;
    assert_eq!(
        rows.len(),
        2 * workloads * reps,
        "expected one SimDone per workload x rep x suite"
    );
    let (basic_rows, combined_rows) = rows.split_at(workloads * reps);
    assert!(
        basic_rows.iter().all(|r| r.policy == basic_rows[0].policy),
        "basic suite events interleaved with another policy"
    );
    assert!(
        combined_rows
            .iter()
            .all(|r| r.policy == combined_rows[0].policy),
        "combined suite events interleaved with another policy"
    );
    assert_ne!(basic_rows[0].policy, combined_rows[0].policy);

    for (suite, rows, want) in [
        ("basic", basic_rows, &h_on.basic),
        ("combined", combined_rows, &h_on.combined),
    ] {
        for (metric, got, want) in [
            ("ue", suite_average(rows, reps, |r| r.ue), want.ue),
            (
                "scrub_writes",
                suite_average(rows, reps, |r| r.scrub_writes),
                want.scrub_writes,
            ),
            (
                "scrub_probes",
                suite_average(rows, reps, |r| r.scrub_probes),
                want.scrub_probes,
            ),
            (
                "scrub_energy_uj",
                suite_average(rows, reps, |r| r.scrub_energy_uj),
                want.scrub_energy_uj,
            ),
            (
                "mean_wear",
                suite_average(rows, reps, |r| r.mean_wear),
                want.mean_wear,
            ),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{suite}.{metric} recomputed from SimDone events: {got} != {want}"
            );
        }
    }
}
