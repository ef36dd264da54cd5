//! Stateful liveness properties against the real simulator: the
//! production tour policy and full `Simulation` runs.
//!
//! - `ScrubProgress` — under arbitrary adversarial demand interleavings
//!   (including open-loop demand at 100% of the budget), no line goes
//!   longer than `progress_bound_slots()` scrub slots between probes.
//!   `scrub_core::modelcheck` checks the same bound on every reachable
//!   state of a few-line tour.
//! - `CorruptionDetected` — seeded stuck faults are observed by scrub
//!   probes (no demand traffic to do the detecting for them).
//! - `RepairTriggered` — every detected uncorrectable engages the repair
//!   hierarchy when one is configured.
//!
//! Each property has a tripwire proving the check can fail: a
//! deliberately unfair scheduler (anti-starvation boost disabled), a
//! scrub-less run, and a run with the repair hierarchy unplugged.

use pcm_ecc::CodeSpec;
use pcm_memsim::inject::StuckClause;
use pcm_memsim::{CampaignSpec, LineAddr, MemGeometry, Memory, RepairConfig, SimTime};
use pcm_model::DeviceConfig;
use proptest::prelude::*;
use scrub_core::{
    DemandTraffic, PolicyKind, ScrubAction, ScrubContext, ScrubPolicy, SimConfig, SimReport,
    Simulation, TourBudget,
};

// ---------------------------------------------------------------------------
// ScrubProgress at the policy level
// ---------------------------------------------------------------------------

/// Drives a tour for `slots` scrub slots, charging `demand[s % len]`
/// demand reads against the shared bucket before each slot, and returns
/// the probed line per slot.
fn drive_tour(
    policy: &mut ScrubPolicy,
    demand: &[u8],
    slots: u64,
    mem: &Memory,
) -> Vec<Option<LineAddr>> {
    let mut probes = Vec::with_capacity(slots as usize);
    for s in 0..slots {
        let now = SimTime::from_secs(s as f64);
        let charges = if demand.is_empty() {
            0
        } else {
            demand[(s as usize) % demand.len()]
        };
        for _ in 0..charges {
            policy.on_demand_read(LineAddr(0), now);
        }
        let ctx = ScrubContext { now, mem };
        probes.push(match policy.next_action(&ctx) {
            ScrubAction::Probe(addr) => Some(addr),
            ScrubAction::Idle => None,
        });
    }
    probes
}

/// The `ScrubProgress` check: the longest slot gap any line experiences
/// between consecutive probes, counting the windows before its first and
/// after its last probe (a never-probed line scores the whole run).
fn max_line_gap_slots(probes: &[Option<LineAddr>], num_lines: u32) -> u64 {
    let total = probes.len() as i64;
    let mut last: Vec<i64> = vec![-1; num_lines as usize];
    let mut max_gap: i64 = 0;
    for (s, probed) in probes.iter().enumerate() {
        if let Some(addr) = probed {
            let l = addr.0 as usize;
            max_gap = max_gap.max(s as i64 - last[l]);
            last[l] = s as i64;
        }
    }
    for l in last {
        max_gap = max_gap.max(total - l);
    }
    max_gap.max(0) as u64
}

fn test_memory(lines: u32, banks: u32) -> Memory {
    Memory::new(
        MemGeometry::new(lines, banks),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ScrubProgress`: however demand drains the shared bucket — bursty,
    /// steady, or silent — the anti-starvation boost keeps every line's
    /// inter-probe gap within `progress_bound_slots()`.
    #[test]
    fn scrub_progress_holds_under_adversarial_demand(
        lines in 4u32..24,
        banks in 1u32..4,
        max_defer in 1u32..5,
        iops_milli in 10u64..3000,
        seed in 0u64..1000,
        demand in proptest::collection::vec(0u8..4, 1..32),
    ) {
        let banks = banks.min(lines);
        let budget = TourBudget {
            iops: iops_milli as f64 / 1000.0,
            burst: 4.0,
            max_defer,
        };
        let mut policy = ScrubPolicy::tour(900.0, lines, banks, 4, budget, seed);
        let bound = policy.progress_bound_slots().expect("budgeted");
        let mem = test_memory(lines, banks);
        let probes = drive_tour(&mut policy, &demand, 3 * bound, &mem);
        let gap = max_line_gap_slots(&probes, lines);
        prop_assert!(
            gap <= bound,
            "gap {gap} slots exceeds ScrubProgress bound {bound} \
             (lines={lines} banks={banks} max_defer={max_defer})"
        );
        // 3*bound slots fit at least two full tours, so the check above
        // exercised real inter-probe gaps, not just the start-up window.
        prop_assert!(policy.tour_cursor().expect("tour").tours_completed() >= 2);
    }

    /// Satellite tripwire: the deliberately unfair variant (boost
    /// disabled) starves under open-loop demand at 100% of the budget,
    /// and `max_line_gap_slots` catches it — proving the harness can
    /// fail.
    #[test]
    fn starvation_tripwire_unfair_scheduler_breaks_the_bound(
        lines in 4u32..24,
        banks in 1u32..4,
        max_defer in 1u32..5,
        seed in 0u64..1000,
    ) {
        let banks = banks.min(lines);
        // Refill strictly below one token per slot; one demand charge per
        // slot then drains the bucket to zero every slot (open-loop
        // demand consuming the entire budget).
        let budget = TourBudget {
            iops: 0.9,
            burst: 2.0,
            max_defer,
        };
        let mut policy = ScrubPolicy::tour(900.0, lines, banks, 4, budget, seed);
        policy.set_unfair_for_test(true);
        let bound = policy.progress_bound_slots().expect("budgeted");
        let mem = test_memory(lines, banks);
        let probes = drive_tour(&mut policy, &[1], 2 * bound + 64, &mem);
        let gap = max_line_gap_slots(&probes, lines);
        prop_assert!(
            gap > bound,
            "unfair scheduler was not caught: gap {gap} <= bound {bound}"
        );
        prop_assert_eq!(policy.bucket().expect("budgeted").forced_probes(), 0);
    }

    /// The fair scheduler under the *same* saturating open-loop demand
    /// stays inside the bound — the pair (this test, the tripwire above)
    /// is the starvation property.
    #[test]
    fn scrub_progress_survives_saturating_open_loop_demand(
        lines in 4u32..24,
        banks in 1u32..4,
        max_defer in 1u32..5,
        seed in 0u64..1000,
    ) {
        let banks = banks.min(lines);
        let budget = TourBudget {
            iops: 0.9,
            burst: 2.0,
            max_defer,
        };
        let mut policy = ScrubPolicy::tour(900.0, lines, banks, 4, budget, seed);
        let bound = policy.progress_bound_slots().expect("budgeted");
        let mem = test_memory(lines, banks);
        let probes = drive_tour(&mut policy, &[1], 2 * bound + 64, &mem);
        let gap = max_line_gap_slots(&probes, lines);
        prop_assert!(gap <= bound, "gap {gap} > bound {bound} under saturation");
        prop_assert!(policy.bucket().expect("budgeted").forced_probes() > 0, "boost never fired");
    }
}

// ---------------------------------------------------------------------------
// CorruptionDetected / RepairTriggered at the simulation level
// ---------------------------------------------------------------------------

/// Runs a full simulation: tour scrub (or none), idle demand traffic so
/// only scrub probes can detect anything, and a stuck-fault campaign.
fn run_sim(policy: PolicyKind, stuck_cells: u32, repair: bool, seed: u64) -> SimReport {
    let mut builder = SimConfig::builder();
    builder
        .num_lines(256)
        .device(DeviceConfig::default())
        // SECDED: a single stuck cell is correctable (detection shows up
        // as corrected bits); four stuck cells are a detected UE.
        .code(CodeSpec::secded_line())
        .policy(policy)
        .traffic(DemandTraffic::Idle)
        .horizon_s(4.0 * 3600.0)
        .seed(seed)
        .fault_campaign(CampaignSpec {
            seed: seed ^ 0xDEAD,
            stuck: Some(StuckClause {
                lines: 16,
                cells: stuck_cells,
            }),
            seu: None,
            intermittent: None,
            burst: None,
        });
    if repair {
        builder.repair(RepairConfig::default());
    }
    Simulation::new(builder.build()).run()
}

fn tour_policy() -> PolicyKind {
    PolicyKind::Tour {
        interval_s: 900.0,
        theta: 4,
        iops: 1.0,
        burst: 64.0,
        max_defer: 8,
    }
}

/// `CorruptionDetected` as a report predicate: seeded faults were
/// observed by somebody (corrected bits or detected UEs are non-zero).
fn detection_violation(r: &SimReport) -> Option<String> {
    if r.stats.corrected_bits == 0 && r.stats.detected_ue == 0 {
        Some(format!(
            "corruption never detected: {} probes, 0 corrections, 0 UEs",
            r.stats.scrub_probes
        ))
    } else {
        None
    }
}

/// `RepairTriggered` as a report predicate: detected uncorrectables must
/// engage the repair hierarchy (ECP patch, retirement, or an explicit
/// unrepairable verdict after the spares ran out).
fn repair_violation(r: &SimReport) -> Option<String> {
    let repairs = r.stats.ecp_repairs
        + r.stats.lines_retired
        + r.stats.recovered_ue
        + r.stats.unrepairable_ue;
    if r.stats.detected_ue > 0 && repairs == 0 {
        Some(format!(
            "{} UEs detected but the repair hierarchy never engaged",
            r.stats.detected_ue
        ))
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `CorruptionDetected`: with only scrub probes reading the memory,
    /// every campaign's stuck faults surface in the detection counters.
    #[test]
    fn corruption_detected_by_tour_scrub(seed in 0u64..1_000_000) {
        let r = run_sim(tour_policy(), 1, false, seed);
        prop_assert!(r.stats.scrub_probes > 0);
        prop_assert_eq!(detection_violation(&r), None);
    }

    /// `RepairTriggered`: four stuck cells exceed SECDED, so probes
    /// detect UEs, and with the hierarchy configured every one is acted
    /// on.
    #[test]
    fn repair_triggered_for_detected_ues(seed in 0u64..1_000_000) {
        let r = run_sim(tour_policy(), 4, true, seed);
        prop_assert!(r.stats.detected_ue > 0, "campaign produced no UEs");
        prop_assert_eq!(repair_violation(&r), None);
        prop_assert!(
            r.stats.ecp_repairs + r.stats.lines_retired > 0,
            "hierarchy configured but idle: {:?}",
            r.stats
        );
    }
}

/// Tripwire: with no scrub policy and idle traffic nothing ever reads
/// the corrupted lines, and `detection_violation` catches it.
#[test]
fn detection_tripwire_scrubless_run_is_caught() {
    let r = run_sim(PolicyKind::None, 1, false, 42);
    assert_eq!(r.stats.scrub_probes, 0);
    let v = detection_violation(&r).expect("scrub-less run must violate CorruptionDetected");
    assert!(v.contains("never detected"), "{v}");
}

/// Tripwire: UEs detected with the repair hierarchy unplugged leave the
/// repair counters at zero, and `repair_violation` catches it.
#[test]
fn repair_tripwire_unplugged_hierarchy_is_caught() {
    let r = run_sim(tour_policy(), 4, false, 42);
    assert!(r.stats.detected_ue > 0, "campaign produced no UEs");
    let v = repair_violation(&r).expect("hierarchy-less run must violate RepairTriggered");
    assert!(v.contains("never engaged"), "{v}");
}
