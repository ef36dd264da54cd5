//! Fleet rollup reconciliation: the merged rollup must equal the sum of
//! its parts *exactly* — u64 counter arithmetic, not approximate — at
//! every cadence boundary, including rounds where a shard migrated.

use std::collections::BTreeMap;

use scrubd::{Fleet, FleetConfig};

fn config() -> FleetConfig {
    "[fleet]\n\
     banks = 12\n\
     lines-per-bank = 32\n\
     shards = 6\n\
     seed = 5\n\
     horizon-s = 1500\n\
     cadence-s = 300\n\
     policy = threshold@300\n\
     threads = 3\n\
     [tenants]\n\
     mix = alpha:rate=50,read=0.8;beta:rate=25,read=0.2;gamma:rate=5\n"
        .parse()
        .expect("valid fleet config")
}

/// Sums every counter across all per-shard documents by hand.
fn hand_summed(fleet: &Fleet) -> BTreeMap<String, u64> {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for shard in fleet.shards() {
        let doc = fleet.shard_document(shard.id).expect("shard exists");
        for (key, v) in &doc.counters {
            *sums.entry(key.clone()).or_insert(0) += v;
        }
    }
    sums
}

fn assert_reconciles(fleet: &Fleet, when: &str) {
    let rollup = fleet.rollup();
    let sums = hand_summed(fleet);
    assert_eq!(
        rollup.counters, sums,
        "rollup counters != sum of per-shard counters ({when})"
    );
    // Every shard contributes a clock value; the rollup keeps them all.
    for shard in fleet.shards() {
        let key = format!("shard.{}.clock_s", shard.id);
        assert_eq!(
            rollup.values.get(&key).copied(),
            Some(shard.clock_s()),
            "missing or stale {key} ({when})"
        );
    }
}

#[test]
fn rollup_equals_shard_sums_at_every_cadence_boundary() {
    let mut fleet = Fleet::new(config());
    assert_reconciles(&fleet, "before the first round");
    let mut round = 0;
    while !fleet.done() {
        fleet.advance_round();
        round += 1;
        assert_reconciles(&fleet, &format!("after round {round}"));
    }
    assert_eq!(round, 5, "1500s horizon at 300s cadence is five rounds");
    // Open-loop tenants actually delivered demand — this is not a
    // vacuous 0 == 0 reconciliation.
    let rollup = fleet.rollup();
    assert!(rollup.counters["fleet.demand_reads"] > 0);
    assert!(rollup.counters["fleet.demand_writes"] > 0);
    assert!(rollup.counters["fleet.scrub_probes"] > 0);
}

#[test]
fn reconciliation_holds_across_migrations() {
    let mut fleet = Fleet::new(config());
    while !fleet.done() {
        fleet.advance_round();
        // Migrate a different shard every round, mid-run.
        let victim = (fleet.round() as u32 - 1) % fleet.config().shards;
        if !fleet.done() {
            fleet.migrate(victim, None).expect("victim shard exists");
        }
        assert_reconciles(&fleet, &format!("round {} + migration", fleet.round()));
    }
    assert!(fleet.migrations() >= 4);
}

#[test]
fn tenant_counters_reconcile_with_slo_rows() {
    // The per-tenant counters that merge into the rollup must agree with
    // the SLO view (which sums shard tenant tables directly).
    let mut fleet = Fleet::new(config());
    while !fleet.done() {
        fleet.advance_round();
    }
    let rollup = fleet.rollup();
    for row in fleet.slo() {
        assert_eq!(
            rollup.counters[&format!("tenant.{}.reads", row.name)],
            row.reads
        );
        assert_eq!(
            rollup.counters[&format!("tenant.{}.writes", row.name)],
            row.writes
        );
        assert!(
            row.reads + row.writes > 0,
            "tenant {} delivered no ops",
            row.name
        );
    }
}
