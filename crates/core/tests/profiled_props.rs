//! Property tests for the profiling-guided scrub policy.
//!
//! The generic round-trip suite (`policy_roundtrip.rs`) drives policies
//! through slots and demand notifications only, so a profiled policy's
//! risk table stays cold there. These properties exercise the table —
//! populated through randomized probe syndromes — and check:
//!
//! * **bijection** — a twin restored from a snapshot is byte-identical
//!   on re-save and action-identical over a random suffix of slots,
//!   probe results, and demand traffic;
//! * **bounded table** — occupancy never exceeds the configured
//!   capacity, whatever the error pattern;
//! * **forgetful tripwire** — a restore that drops the learned profile
//!   is caught by the very comparison the bijection property runs.

use pcm_ecc::{ClassifyOutcome, CodeSpec};
use pcm_memsim::{AccessResult, LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::DeviceConfig;
use proptest::prelude::*;
use scrub_checkpoint::{Reader, Writer};
use scrub_core::{ProfileParams, ScrubAction, ScrubContext, ScrubPolicy, TourBudget};

const LINES: u32 = 64;
const BANKS: u32 = 8;

fn test_memory() -> Memory {
    Memory::new(
        MemGeometry::new(LINES, BANKS),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        7,
    )
}

fn policy(capacity: u32, seed: u64) -> ScrubPolicy {
    ScrubPolicy::profiled(
        600.0,
        LINES,
        BANKS,
        3,
        TourBudget {
            iops: 0.9,
            burst: 8.0,
            max_defer: 4,
        },
        ProfileParams {
            capacity,
            hot_stride: 3,
            stretch: 2,
            risk: 2,
        },
        seed,
    )
}

/// Synthesizes a probe result from one event byte: mostly clean, a
/// spread of correctable counts, the occasional uncorrectable.
fn probe_result(e: u8) -> AccessResult {
    let bits = match e % 8 {
        0..=3 => 0,
        4 | 5 => u32::from(e % 3) + 1,
        6 => 4,
        _ => 7,
    };
    let outcome = match (bits, e % 16) {
        (0, _) => ClassifyOutcome::Clean,
        (_, 15) => ClassifyOutcome::DetectedUncorrectable,
        _ => ClassifyOutcome::Corrected { bits },
    };
    AccessResult {
        outcome,
        persistent_bits: bits,
        new_ue: false,
    }
}

/// Drives the policy for `steps` slots from slot `base`: demand
/// notifications, the slot decision, and — when the slot probes — the
/// syndrome feedback loop through `wants_writeback`. Returns every
/// action and write-back decision taken.
fn drive(
    policy: &mut ScrubPolicy,
    mem: &Memory,
    base: u64,
    steps: u64,
    events: &[u8],
) -> Vec<(ScrubAction, bool)> {
    let mut trace = Vec::with_capacity(steps as usize);
    for s in base..base + steps {
        let now = SimTime::from_secs(s as f64 * 2.5);
        let e = events[(s as usize) % events.len()];
        let addr = LineAddr(u32::from(e) % LINES);
        if e % 4 >= 1 {
            policy.on_demand_read(addr, now);
        }
        if e % 4 >= 2 {
            policy.on_demand_write(addr, now);
        }
        let ctx = ScrubContext { now, mem };
        let action = policy.next_action(&ctx);
        let mut wb = false;
        if let ScrubAction::Probe(p) = action {
            // The probe result depends on the event byte *and* the line,
            // so original and twin only agree if they probe the same
            // lines in the same order.
            let r = probe_result(e.wrapping_add(p.0 as u8));
            wb = policy.wants_writeback(p, &r, &ctx);
        }
        trace.push((action, wb));
    }
    trace
}

fn table_len(policy: &ScrubPolicy) -> usize {
    policy.profile().expect("profiled").table_len()
}

fn snapshot(policy: &ScrubPolicy) -> Vec<u8> {
    let mut w = Writer::new();
    policy.save_state(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Save→load is a bijection on profiler state: the restored twin is
    /// action-identical over a random suffix and byte-identical on
    /// re-save.
    #[test]
    fn profiled_snapshot_restores_to_an_identical_twin(
        seed in 0u64..1000,
        capacity in 1u32..32,
        prefix in 1u64..200,
        suffix in 1u64..200,
        events in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        let mem = test_memory();
        let mut original = policy(capacity, seed);
        drive(&mut original, &mem, 0, prefix, &events);

        let bytes = snapshot(&original);
        let mut restored = policy(capacity, seed);
        let mut r = Reader::new(&bytes);
        restored.load_state(&mut r).expect("own snapshot must load");
        r.finish().expect("snapshot fully consumed");
        prop_assert_eq!(table_len(&restored), table_len(&original));

        let a = drive(&mut original, &mem, prefix, suffix, &events);
        let b = drive(&mut restored, &mem, prefix, suffix, &events);
        prop_assert_eq!(a, b, "restored twin diverged");
        prop_assert_eq!(snapshot(&original), snapshot(&restored));
    }

    /// The risk table is bounded by its capacity at every step, for any
    /// probe-syndrome pattern.
    #[test]
    fn profile_table_never_exceeds_capacity(
        seed in 0u64..1000,
        capacity in 1u32..16,
        steps in 1u64..400,
        events in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        let mem = test_memory();
        let mut p = policy(capacity, seed);
        for s in 0..steps {
            drive(&mut p, &mem, s, 1, &events);
            prop_assert!(
                table_len(&p) as u32 <= capacity,
                "table holds {} of {} at step {s}",
                table_len(&p),
                capacity
            );
        }
    }

    /// Tripwire: a restore that forgets the learned profile is caught by
    /// the bijection comparison — the forgetful twin's schedule or
    /// write-back decisions diverge once the table matters.
    #[test]
    fn forgetful_restore_is_caught(
        seed in 0u64..1000,
        events in proptest::collection::vec(0u8..=255, 8..24),
    ) {
        let mem = test_memory();
        let mut original = policy(16, seed);
        // A long, probe-heavy prefix so the table is warm.
        drive(&mut original, &mem, 0, 300, &events);
        prop_assume!(table_len(&original) > 0);

        let bytes = snapshot(&original);
        let mut forgetful = policy(16, seed);
        forgetful.set_forgetful_for_test(true);
        let mut r = Reader::new(&bytes);
        forgetful.load_state(&mut r).expect("forgetful load parses");

        let a = drive(&mut original, &mem, 300, 300, &events);
        let b = drive(&mut forgetful, &mem, 300, 300, &events);
        prop_assert_ne!(
            a, b,
            "harness failed to notice a dropped risk table (seed {})",
            seed
        );
    }
}
