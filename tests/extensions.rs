//! End-to-end tests of the extension mechanisms (DESIGN.md "Extension
//! mechanisms"): time-aware sensing, CRC-first probes, wear leveling,
//! in-band scrub, and temperature scaling.
//!
//! Paper-scale runs are `#[ignore]`d behind `SCRUBSIM_FULL_TEST=1` (see
//! `end_to_end.rs`); each keeps a `quick_` variant in tier-1.

use scrubsim::prelude::*;

fn full() -> bool {
    std::env::var("SCRUBSIM_FULL_TEST").as_deref() == Ok("1")
}

fn base(seed: u64) -> scrubsim::scrub::SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.num_lines(2048)
        .code(CodeSpec::bch_line(6))
        .policy(PolicyKind::combined_default(900.0))
        .traffic(DemandTraffic::suite(WorkloadId::WebServe))
        .horizon_s(8.0 * 3600.0)
        .seed(seed);
    b
}

#[test]
#[ignore = "paper-scale run: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn time_aware_sensing_reduces_writebacks_end_to_end() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let fixed = Simulation::new(base(31).build()).run();
    let compensated = Simulation::new(
        base(31)
            .device(
                DeviceConfig::builder()
                    .sensing(SensingMode::AgeCompensated)
                    .build(),
            )
            .build(),
    )
    .run();
    // Compensated sensing sees far fewer persistent errors, so the lazy
    // threshold triggers far less often.
    assert!(
        compensated.scrub_writes() * 2 < fixed.scrub_writes().max(2),
        "compensated {} vs fixed {} write-backs",
        compensated.scrub_writes(),
        fixed.scrub_writes()
    );
    assert!(compensated.uncorrectable() <= fixed.uncorrectable());
}

#[test]
#[ignore = "paper-scale run: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn crc_probes_cut_scrub_energy_end_to_end() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let full = Simulation::new(base(32).build()).run();
    let crc = Simulation::new(base(32).probe_kind(ProbeKind::CrcThenDecode).build()).run();
    assert!(
        crc.scrub_energy_uj < full.scrub_energy_uj,
        "crc {} vs full {} uJ",
        crc.scrub_energy_uj,
        full.scrub_energy_uj
    );
    // Same policy decisions: identical probes and write-backs.
    assert_eq!(crc.stats.scrub_probes, full.stats.scrub_probes);
    assert_eq!(crc.stats.scrub_writebacks, full.stats.scrub_writebacks);
}

#[test]
#[ignore = "paper-scale run: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn wear_leveling_flattens_wear_under_skewed_writes() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let mk = |leveled: bool, seed: u64| {
        let mut b = SimConfig::builder();
        b.num_lines(1024)
            .code(CodeSpec::bch_line(4))
            .policy(PolicyKind::None)
            .traffic(DemandTraffic::suite(WorkloadId::Logging)) // zipf writes
            .horizon_s(24.0 * 3600.0)
            .seed(seed);
        if leveled {
            b.wear_leveling(16);
        }
        Simulation::new(b.build()).run()
    };
    let plain = mk(false, 33);
    let leveled = mk(true, 33);
    assert!(
        (leveled.max_wear as f64) < plain.max_wear as f64 * 0.7,
        "leveled max wear {} vs plain {}",
        leveled.max_wear,
        plain.max_wear
    );
    assert!(leveled.stats.wear_level_writes > 0);
}

#[test]
fn temperature_scales_error_rates_end_to_end() {
    let at = |temp_c: f64, seed: u64| {
        let mut b = SimConfig::builder();
        b.num_lines(2048)
            .device(
                DeviceConfig::builder()
                    .drift(DriftParams::default().with_temperature_c(temp_c))
                    .build(),
            )
            .code(CodeSpec::secded_line())
            .policy(PolicyKind::None)
            .traffic(DemandTraffic::suite(WorkloadId::Archive))
            .horizon_s(12.0 * 3600.0)
            .seed(seed);
        Simulation::new(b.build()).run()
    };
    let cool = at(0.0, 36);
    let hot = at(85.0, 36);
    assert!(
        hot.stats.demand_ue > cool.stats.demand_ue,
        "hot {} vs cool {} demand UEs",
        hot.stats.demand_ue,
        cool.stats.demand_ue
    );
}

// ---------------------------------------------------------------------------
// Quick variants at reduced scale for tier-1.
// ---------------------------------------------------------------------------

fn quick(seed: u64) -> scrubsim::scrub::SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.num_lines(512)
        .code(CodeSpec::bch_line(6))
        .policy(PolicyKind::combined_default(900.0))
        .traffic(DemandTraffic::suite(WorkloadId::WebServe))
        .horizon_s(4.0 * 3600.0)
        .seed(seed);
    b
}

#[test]
fn quick_time_aware_sensing_reduces_writebacks() {
    let fixed = Simulation::new(quick(31).build()).run();
    let compensated = Simulation::new(
        quick(31)
            .device(
                DeviceConfig::builder()
                    .sensing(SensingMode::AgeCompensated)
                    .build(),
            )
            .build(),
    )
    .run();
    assert!(
        compensated.scrub_writes() * 2 < fixed.scrub_writes().max(2),
        "compensated {} vs fixed {} write-backs",
        compensated.scrub_writes(),
        fixed.scrub_writes()
    );
}

#[test]
fn quick_crc_probes_cut_scrub_energy() {
    let full = Simulation::new(quick(32).build()).run();
    let crc = Simulation::new(quick(32).probe_kind(ProbeKind::CrcThenDecode).build()).run();
    assert!(
        crc.scrub_energy_uj < full.scrub_energy_uj,
        "crc {} vs full {} uJ",
        crc.scrub_energy_uj,
        full.scrub_energy_uj
    );
    assert_eq!(crc.stats.scrub_probes, full.stats.scrub_probes);
    assert_eq!(crc.stats.scrub_writebacks, full.stats.scrub_writebacks);
}

#[test]
fn quick_wear_leveling_flattens_wear() {
    let mk = |leveled: bool| {
        let mut b = SimConfig::builder();
        b.num_lines(512)
            .code(CodeSpec::bch_line(4))
            .policy(PolicyKind::None)
            .traffic(DemandTraffic::suite(WorkloadId::Logging)) // zipf writes
            .horizon_s(8.0 * 3600.0)
            .seed(33);
        if leveled {
            b.wear_leveling(16);
        }
        Simulation::new(b.build()).run()
    };
    let plain = mk(false);
    let leveled = mk(true);
    assert!(
        (leveled.max_wear as f64) < plain.max_wear as f64 * 0.8,
        "leveled max wear {} vs plain {}",
        leveled.max_wear,
        plain.max_wear
    );
    assert!(leveled.stats.wear_level_writes > 0);
}
