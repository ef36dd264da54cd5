//! End-to-end demo of fault injection and graceful degradation: a
//! campaign driven through E13 shows every repair-hierarchy stage — ECP
//! repair, line retirement, bank degradation — in both the report stats
//! and the telemetry counters/journal.
//!
//! The telemetry recorder is process-wide, so the demo lives in ONE test
//! function.

use scrub_bench::experiments::e13;
use scrub_bench::{RunOptions, Scale};
use scrub_telemetry as tel;

#[test]
fn campaign_drives_all_repair_stages_into_telemetry() {
    scrub_exec::set_default_threads(2);
    tel::install(tel::Config {
        journal_capacity: 65_536,
        event_mask: tel::EventClass::Repair.bit(),
    });
    let opts = RunOptions {
        fault_campaign: Some(
            "seed=99;stuck=lines:64,cells:4;seu=lines:64,count:2,window:21600"
                .parse()
                .expect("valid demo campaign"),
        ),
        ..RunOptions::default()
    };
    let scale = Scale {
        num_lines: 1024,
        horizon_s: 12.0 * 3600.0,
        reps: 1,
        mc_cells: 100,
    };
    let rows = e13::compute(&scale, &opts);
    let basic = rows.iter().find(|r| r.label == "basic").expect("basic row");
    assert!(basic.ecp_repairs > 0.0, "{basic:?}");
    assert!(basic.lines_retired > 0.0, "{basic:?}");
    assert!(basic.unrepairable > 0.0, "{basic:?}");

    let doc = tel::snapshot();
    for key in ["ecp_repairs", "lines_retired", "unrepairable_ue"] {
        assert!(
            doc.counters.get(key).copied().unwrap_or(0) > 0,
            "counter {key} missing or zero: {:?}",
            doc.counters
        );
    }
    // The journal (filtered to Repair events) carries each transition.
    for tag in ["ecp_repair", "line_retired", "bank_degraded"] {
        assert!(
            doc.events.iter().any(|e| e.kind.tag() == tag),
            "no {tag} event in journal ({} events)",
            doc.events.len()
        );
    }
}
