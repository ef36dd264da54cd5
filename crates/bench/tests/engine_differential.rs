//! The simulation loop against a slot-by-slot reference.
//!
//! `Simulation::run` hands the engine each run of scrub slots that falls
//! before the next demand op in one call. The [`reference`] loop
//! interleaves one event at a time: it merges the demand trace with the
//! slot grid and executes every slot through `ScrubEngine::step`, using
//! public calls only. For every mechanism, under an active fault
//! campaign, with demand traffic and without, the run must match the
//! reference exactly — report, the telemetry counters the loop adds per
//! operation, and the multiset of write-back decision events — and split
//! runs must match the straight run.
//!
//! Events are compared as sorted multisets: sequence numbers and worker
//! ids are scheduling artifacts, not results.
//!
//! The telemetry recorder is process-global, so everything lives in ONE
//! test function — this file being its own integration-test binary
//! guarantees a fresh process.

use pcm_memsim::{Memory, OpKind, SimTime, TraceSource};
use scrub_bench::experiments::e13;
use scrub_core::{
    DemandTraffic, PolicyKind, ProfileParams, ScrubEngine, SimConfig, SimReport, Simulation,
};
use scrub_telemetry as tel;

/// The run under test: a campaign with SEU-window, intermittent-period,
/// and burst boundaries (the burst lands exactly on the k=1 checkpoint
/// boundary to pin the half-open segment semantics), the repair
/// hierarchy, and UE recovery, under `traffic`.
fn config(policy: &PolicyKind, traffic: &DemandTraffic) -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(1024)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(policy.clone())
        .traffic(traffic.clone())
        .horizon_s(3.0 * 3600.0)
        .seed(77)
        .fault_campaign(
            "seed=7;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600;\
             intermittent=lines:4,cells:2,period:600;burst=lines:2,bits:5,at:5400"
                .parse()
                .expect("valid campaign spec"),
        )
        .repair(pcm_memsim::RepairConfig::default())
        .ue_recovery(pcm_memsim::RecoveryConfig { recover_prob: 0.5 });
    b.build()
}

/// The slot-by-slot reference: memory, policy, and trace built as
/// `Simulation::new` builds them, demand ops and scrub slots merged in
/// time order (demand first on ties), every slot stepped. Labels come
/// from `run`, since the loop never touches them. With `notify` off the
/// policy never hears of demand ops: the tripwire's broken variant.
fn reference(config: &SimConfig, run: &SimReport, notify: bool) -> SimReport {
    let geometry = config.geometry;
    let mut mem = Memory::new(
        geometry,
        config.device.clone(),
        config.code.clone(),
        config.seed,
    );
    mem.attach_campaign(config.fault_campaign.as_ref().expect("campaign"));
    mem.enable_repair(config.repair.expect("repair"));
    mem.enable_ue_recovery(config.ue_recovery.expect("recovery"));
    let policy = config
        .policy
        .build(geometry.num_lines(), geometry.banks(), config.seed)
        .expect("every harness policy scrubs");
    let mut engine = ScrubEngine::new(policy);
    let mut trace: Option<Box<dyn TraceSource>> = match &config.traffic {
        DemandTraffic::Idle => None,
        DemandTraffic::Suite { id, rate_scale } => Some(Box::new(id.build(
            mem.demand_lines(),
            *rate_scale,
            config.seed.wrapping_add(0x9E37_79B9),
        ))),
        other => unreachable!("the harness runs suite or idle traffic, not {other:?}"),
    };
    let horizon = SimTime::from_secs(config.horizon_s);
    let mut pending = trace.as_mut().and_then(|t| t.next_op());
    loop {
        let slot = engine.next_slot();
        match pending.filter(|op| op.at <= slot) {
            Some(op) if op.at <= horizon => {
                match op.kind {
                    OpKind::Read => {
                        mem.demand_read(op.addr, op.at);
                        if notify {
                            engine.notify_demand_read(op.addr, op.at);
                        }
                    }
                    OpKind::Write => {
                        mem.demand_write(op.addr, op.at);
                        if notify {
                            engine.notify_demand_write(op.addr, op.at);
                        }
                    }
                }
                pending = trace.as_mut().and_then(|t| t.next_op());
            }
            None if slot <= horizon => engine.step(&mut mem),
            _ => break,
        }
    }
    let window_ns = config.horizon_s * 1e9;
    let bw = mem.bandwidth();
    SimReport {
        workload: run.workload.clone(),
        policy: run.policy.clone(),
        code: mem.code().name().to_string(),
        horizon_s: config.horizon_s,
        num_lines: geometry.num_lines(),
        stats: mem.stats(),
        engine: *engine.stats(),
        scrub_energy_uj: mem.energy().scrub_total_pj() / 1e6,
        demand_energy_uj: mem.energy().demand_total_pj() / 1e6,
        mean_wear: mem.mean_wear(),
        max_wear: mem.max_wear(),
        worn_cells: mem.total_worn_cells(),
        scrub_utilization: bw.scrub_utilization(window_ns),
        demand_read_latency_ns: bw.demand_read_latency_ns(mem.timing().read_ns, window_ns),
        measured_read_latency_ns: mem.measured_demand_read_latency_ns(),
        first_unrepairable_s: mem.first_unrepairable_s(),
        degraded_banks: mem.degraded_banks(),
    }
}

/// The counters the loop adds to per operation. `Simulation` publishes
/// every other counter from the run's tallies, which the report carries,
/// or counts campaign markers, which the split runs below check.
const PER_OP_COUNTERS: [&str; 4] = [
    "demand_write_notifies",
    "region_passes",
    "region_speedups",
    "region_slowdowns",
];

/// Order-independent event fingerprint: (time bits, payload), sorted,
/// optionally restricted to write-back decisions.
fn event_multiset(docs: &[tel::Document], decisions_only: bool) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = docs
        .iter()
        .flat_map(|d| d.events.iter())
        .filter(|e| !decisions_only || matches!(e.kind, tel::EventKind::WritebackDecision { .. }))
        .map(|e| (e.t_s.to_bits(), format!("{:?}", e.kind)))
        .collect();
    v.sort();
    v
}

/// Runs `config` split at `k` evenly spaced checkpoints with a full
/// serialize/deserialize round-trip at each. Returns the final report
/// and the per-segment telemetry documents.
fn run_split(config: &SimConfig, k: u32) -> (SimReport, Vec<tel::Document>) {
    let cadence_s = config.horizon_s / (k + 1) as f64;
    let mut docs = Vec::new();
    tel::reset();
    let mut sim = Simulation::new(config.clone());
    for i in 1..=k {
        sim.run_to(i as f64 * cadence_s);
        let bytes = sim.checkpoint().expect("checkpoint");
        docs.push(tel::snapshot());
        tel::reset();
        sim = Simulation::resume(config.clone(), &bytes).expect("resume");
    }
    let report = sim.finish();
    docs.push(tel::snapshot());
    (report, docs)
}

#[test]
fn simulation_matches_the_slot_by_slot_reference() {
    scrub_exec::set_default_threads(1);
    tel::install(tel::Config {
        journal_capacity: 1 << 16,
        event_mask: tel::EventClass::Sim.bit() | tel::EventClass::Decision.bit(),
    });

    let traffics = [
        DemandTraffic::suite(pcm_workloads::WorkloadId::KvCache),
        DemandTraffic::Idle,
    ];
    // The E13 roster, adaptive (E5's region-scheduled mechanism), and
    // the budgeted tour and profiled tour. Their bucket refills at 2
    // tokens/s, under kv-cache's 2.8 demand ops/s on 1,024 lines, so it
    // throttles under demand.
    let (iops, burst, max_defer) = (2.0, 8.0, 4);
    let profile = ProfileParams::default();
    let tour = PolicyKind::Tour {
        interval_s: 900.0,
        theta: 4,
        iops,
        burst,
        max_defer,
    };
    let mut policies = e13::roster();
    policies.extend([
        (
            "adaptive",
            PolicyKind::Adaptive {
                interval_s: 900.0,
                theta: 4,
                regions: 64,
            },
        ),
        ("tour", tour.clone()),
        (
            "profiled",
            PolicyKind::Profiled {
                interval_s: 900.0,
                theta: 4,
                iops,
                burst,
                max_defer,
                capacity: profile.capacity,
                hot_stride: profile.hot_stride,
                stretch: profile.stretch,
                risk: profile.risk,
            },
        ),
    ]);
    for (label, policy) in policies {
        for traffic in &traffics {
            let case = format!("{label}/{traffic:?}");
            let cfg = config(&policy, traffic);
            tel::reset();
            let run = Simulation::new(cfg.clone()).run();
            let run_doc = tel::snapshot();
            tel::reset();
            let expected = reference(&cfg, &run, true);
            let ref_doc = tel::snapshot();

            assert_eq!(run, expected, "{case}: report diverged from the reference");
            let loop_counters = |doc: &tel::Document| PER_OP_COUNTERS.map(|c| doc.counters[c]);
            assert_eq!(
                loop_counters(&run_doc),
                loop_counters(&ref_doc),
                "{case}: telemetry counters diverged from the reference"
            );
            assert_eq!(run_doc.events_dropped, 0, "{case}: journal overflowed");
            assert_eq!(
                event_multiset(std::slice::from_ref(&run_doc), true),
                event_multiset(std::slice::from_ref(&ref_doc), true),
                "{case}: decision-event multiset diverged from the reference"
            );
            assert!(
                run_doc.counters["campaign_boundaries"] > 0,
                "{case}: no campaign boundaries crossed; the harness is not \
                 exercising marker emission"
            );

            // Split runs land on the same report, and their merged
            // telemetry on the same simulation and decision events.
            for k in 1..=2u32 {
                let (report, docs) = run_split(&cfg, k);
                assert_eq!(report, run, "{case}: split run diverged at k={k}");
                assert_eq!(
                    event_multiset(&docs, false),
                    event_multiset(std::slice::from_ref(&run_doc), false),
                    "{case}: split-run event multiset diverged at k={k}"
                );
            }
        }
    }

    // Tripwire: the harness must be able to fail. A reference that keeps
    // demand ops from the policy must diverge for the tour under kv-cache,
    // whose bucket throttles: demand no longer drains it.
    tel::set_enabled(false);
    let cfg = config(&tour, &traffics[0]);
    let run = Simulation::new(cfg.clone()).run();
    assert!(
        run.engine.idle_slots > 0,
        "the tour's bucket never throttled, so demand cannot change its slots"
    );
    assert_ne!(
        reference(&cfg, &run, false),
        run,
        "a reference that never tells the policy of demand still matched the run"
    );
}
