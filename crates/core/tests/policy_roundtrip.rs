//! Save/load round-trip property for *every* scrub policy.
//!
//! The checkpoint contract (DESIGN.md) says a policy restored from its
//! own `save_state` bytes is indistinguishable from one that never
//! stopped. This test drives a policy through a random prefix of scrub
//! slots and demand notifications, snapshots it, restores the snapshot
//! into a freshly built twin, and then runs both through an identical
//! random suffix — every action must match, and the re-saved bytes must
//! be byte-identical. A tripwire proves the harness notices when state
//! is *not* carried over.

use pcm_ecc::CodeSpec;
use pcm_memsim::{LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::DeviceConfig;
use proptest::prelude::*;
use scrub_checkpoint::{Reader, Writer};
use scrub_core::{PolicyKind, ScrubAction, ScrubContext, ScrubPolicy, TourBudget};

const LINES: u32 = 64;
const BANKS: u32 = 8;

/// Every checkpointable policy kind, parameterized enough to have
/// non-trivial internal state.
fn kind(index: usize) -> PolicyKind {
    match index % 7 {
        0 => PolicyKind::Basic { interval_s: 600.0 },
        1 => PolicyKind::Threshold {
            interval_s: 600.0,
            theta: 3,
        },
        2 => PolicyKind::AgeAware {
            interval_s: 600.0,
            theta: 3,
            min_age_s: 150.0,
        },
        3 => PolicyKind::Adaptive {
            interval_s: 600.0,
            theta: 3,
            regions: 4,
        },
        4 => PolicyKind::combined_default(600.0),
        5 => PolicyKind::Tour {
            interval_s: 600.0,
            theta: 3,
            iops: 0.7,
            burst: 8.0,
            max_defer: 4,
        },
        _ => PolicyKind::Profiled {
            interval_s: 600.0,
            theta: 3,
            iops: 0.7,
            burst: 8.0,
            max_defer: 4,
            capacity: 8,
            hot_stride: 3,
            stretch: 2,
            risk: 2,
        },
    }
}

fn build(index: usize, seed: u64) -> ScrubPolicy {
    kind(index)
        .build(LINES, BANKS, seed)
        .expect("every kind above is a real policy")
}

fn test_memory() -> Memory {
    Memory::new(
        MemGeometry::new(LINES, BANKS),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        7,
    )
}

/// Drives `policy` for `steps` slots starting at slot index `base`,
/// interleaving demand notifications drawn from `events`, and returns
/// the sequence of actions taken.
fn drive(
    policy: &mut ScrubPolicy,
    mem: &Memory,
    base: u64,
    steps: u64,
    events: &[u8],
) -> Vec<ScrubAction> {
    let mut actions = Vec::with_capacity(steps as usize);
    for s in base..base + steps {
        let now = SimTime::from_secs(s as f64 * 2.5);
        if !events.is_empty() {
            // Pseudo-random but deterministic demand interleaving: the
            // event byte picks none / a read / a write / both.
            let e = events[(s as usize) % events.len()];
            let addr = LineAddr(u32::from(e) % LINES);
            if e % 4 >= 1 {
                policy.on_demand_read(addr, now);
            }
            if e % 4 >= 2 {
                policy.on_demand_write(addr, now);
            }
        }
        let ctx = ScrubContext { now, mem };
        actions.push(policy.next_action(&ctx));
    }
    actions
}

fn snapshot(policy: &ScrubPolicy) -> Vec<u8> {
    let mut w = Writer::new();
    policy.save_state(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]

    /// Round-trip: restore-from-snapshot is indistinguishable from
    /// never-having-stopped, for every policy kind.
    #[test]
    fn every_policy_round_trips_through_save_load(
        index in 0usize..7,
        seed in 0u64..1000,
        prefix in 1u64..160,
        suffix in 1u64..160,
        events in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        let mem = test_memory();
        let mut original = build(index, seed);
        drive(&mut original, &mem, 0, prefix, &events);

        let bytes = snapshot(&original);
        let mut restored = build(index, seed);
        let mut r = Reader::new(&bytes);
        restored
            .load_state(&mut r)
            .expect("own snapshot must load");

        // Same suffix through both: identical actions...
        let a = drive(&mut original, &mem, prefix, suffix, &events);
        let b = drive(&mut restored, &mem, prefix, suffix, &events);
        prop_assert_eq!(a, b, "kind {} diverged after restore", kind(index).label());

        // ...and identical re-saved state.
        prop_assert_eq!(
            snapshot(&original),
            snapshot(&restored),
            "kind {} re-saved bytes differ",
            kind(index).label()
        );
    }
}

/// Tripwire: a "restore" that silently skips loading (a forgetful
/// policy) is caught by the same comparison the proptest runs — the
/// fresh twin's first action mid-tour differs from the driven original.
#[test]
fn forgetful_restore_tripwire_is_caught() {
    let mem = test_memory();
    let budget = TourBudget {
        iops: 1e-9,
        burst: 3.0,
        max_defer: 1000,
    };
    let mut original = ScrubPolicy::tour(600.0, LINES, BANKS, 3, budget, 9);
    // Drain the bucket: three probes then throttled idles.
    let a = drive(&mut original, &mem, 0, 6, &[]);
    assert_eq!(
        a.iter()
            .filter(|x| matches!(x, ScrubAction::Probe(_)))
            .count(),
        3
    );

    // Forgetful twin: built identically but load_state never called.
    let mut forgetful = ScrubPolicy::tour(600.0, LINES, BANKS, 3, budget, 9);
    let cont = drive(&mut original, &mem, 6, 3, &[]);
    let fresh = drive(&mut forgetful, &mem, 6, 3, &[]);
    assert_ne!(
        cont, fresh,
        "harness failed to distinguish a forgetful restore: \
         original is mid-tour with an empty bucket, the twin is not"
    );
}
