//! End-to-end tests of fault-injection campaigns and the repair hierarchy:
//! fault visibility in probe results, ECP sparing → line retirement →
//! bank-degraded escalation, and the shifted-threshold UE recovery retry.

use pcm_ecc::CodeSpec;
use pcm_memsim::{
    CampaignSpec, LineAddr, MemGeometry, Memory, RecoveryConfig, RepairConfig, SimTime,
};
use pcm_model::{DeviceConfig, EnduranceSpec};

fn campaign(spec: &str) -> CampaignSpec {
    spec.parse().expect("valid campaign spec")
}

#[test]
fn seu_campaign_surfaces_in_probes_and_clears_on_rewrite() {
    let mut m = Memory::new(
        MemGeometry::new(256, 4),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        3,
    );
    // Every line takes 5 upsets somewhere in the first 100 seconds.
    m.attach_campaign(&campaign("seed=1;seu=lines:256,count:5,window:100"));
    let after = SimTime::from_secs(200.0);
    for i in 0..256 {
        let r = m.scrub_probe(LineAddr(i), after);
        assert!(
            r.persistent_bits >= 5,
            "line {i}: {} bits, expected the 5 SEUs",
            r.persistent_bits
        );
    }
    // A rewrite reprograms the data, clearing the upsets.
    m.scrub_writeback(LineAddr(0), after);
    let r = m.scrub_probe(LineAddr(0), after + 1.0);
    assert!(r.persistent_bits < 5, "rewrite must clear SEUs");
}

#[test]
fn repair_hierarchy_escalates_through_all_three_stages() {
    // Cells die after ~40 writes, so hammering the memory drives lines
    // through: stuck cells → UE → ECP patch → more stuck cells → ECP
    // exhausted → retire to spare → spares exhausted → unrepairable.
    let device = DeviceConfig::builder()
        .endurance(EnduranceSpec::new(40.0, 0.4))
        .build();
    let mut m = Memory::new(MemGeometry::new(16, 2), device, CodeSpec::bch_line(2), 11);
    m.enable_repair(RepairConfig {
        ecp_entries_per_line: 4,
        spare_lines_per_bank: 2,
    });
    for round in 0..400u32 {
        let now = SimTime::from_secs(round as f64);
        for i in 0..16 {
            m.demand_write(LineAddr(i), now);
            m.demand_read(LineAddr(i), now);
        }
    }
    let stats = m.stats();
    assert!(stats.ecp_repairs > 0, "no ECP repairs: {stats:?}");
    assert!(stats.ecp_cells_patched >= stats.ecp_repairs);
    assert!(stats.lines_retired > 0, "no retirements: {stats:?}");
    assert!(stats.unrepairable_ue > 0, "no unrepairable UEs: {stats:?}");
    assert_eq!(m.degraded_banks(), 2, "both banks must exhaust spares");
    let first = m
        .first_unrepairable_s()
        .expect("degraded memory records its first unrepairable error");
    assert!(first > 0.0 && first < 400.0);
}

#[test]
fn retirement_gives_the_address_a_fresh_line() {
    let device = DeviceConfig::builder()
        .endurance(EnduranceSpec::new(30.0, 0.3))
        .build();
    let mut m = Memory::new(MemGeometry::new(8, 2), device, CodeSpec::bch_line(2), 5);
    m.enable_repair(RepairConfig {
        // No ECP entries: the first hard UE on a line goes straight to
        // retirement.
        ecp_entries_per_line: 0,
        spare_lines_per_bank: 8,
    });
    let mut retired_at = None;
    'outer: for round in 0..300u32 {
        let now = SimTime::from_secs(round as f64);
        for i in 0..8 {
            m.demand_write(LineAddr(i), now);
            let r = m.demand_read(LineAddr(i), now);
            if r.new_ue && m.stats().lines_retired > 0 {
                retired_at = Some((i, round));
                break 'outer;
            }
        }
    }
    let (addr, round) = retired_at.expect("a line must retire under this endurance");
    // The address now resolves to the spare: a freshly programmed line
    // with no wear history.
    let line = m.line(LineAddr(addr));
    assert_eq!(line.worn_cells, 0, "spare must be pristine");
    assert!(
        line.wear < round / 2,
        "spare wear {} must be far below the retired line's ~{}",
        line.wear,
        round
    );
}

#[test]
fn ue_recovery_rescues_drift_dominated_failures() {
    let week = SimTime::from_secs(604_800.0);
    let probe_all = |m: &mut Memory| {
        for i in 0..256 {
            m.demand_read(LineAddr(i), week);
        }
    };
    let build = || {
        Memory::new(
            MemGeometry::new(256, 4),
            DeviceConfig::default(),
            CodeSpec::secded_line(),
            13,
        )
    };
    let mut plain = build();
    probe_all(&mut plain);
    let mut recovering = build();
    // recover_prob 1.0: every drift-failed bit reads back correctly on the
    // shifted-threshold retry, so week-old drift UEs all recover.
    recovering.enable_ue_recovery(RecoveryConfig { recover_prob: 1.0 });
    probe_all(&mut recovering);
    assert!(
        plain.stats().uncorrectable() > 100,
        "week-old SECDED drowns"
    );
    assert_eq!(
        recovering.stats().uncorrectable(),
        0,
        "perfect recovery leaves no UEs"
    );
    assert_eq!(
        recovering.stats().recovered_ue,
        plain.stats().uncorrectable()
    );
}
