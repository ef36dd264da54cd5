//! Cross-build pins for every scrub policy's decisions and checkpoint
//! bytes.
//!
//! The round-trip proptests compare two copies of a policy inside one
//! build, so a change that moves every copy the same way passes them.
//! These pins compare against digests recorded from an earlier build:
//! each policy kind is driven through a fixed script of demand traffic
//! and probe results, and the FNV-1a digest of its actions, write-back
//! answers, and periodic `save_state` bytes must equal the recorded
//! constant. scrubd's checkpoint generations store exactly those bytes.
//!
//! Like the checkpoint fixtures, the constants are never re-blessed: a
//! mismatch means a policy's behavior or its checkpoint format changed.

use pcm_ecc::{ClassifyOutcome, CodeSpec};
use pcm_memsim::{AccessResult, LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::DeviceConfig;
use scrub_checkpoint::Writer;
use scrub_core::{PolicyKind, ScrubAction, ScrubContext};

const LINES: u32 = 64;
const BANKS: u32 = 8;
const SLOTS: u64 = 600;
const SNAPSHOT_EVERY: u64 = 100;
const SEEDS: [u64; 2] = [3, 41];

/// Demand bytes, consumed one per slot as `policy_roundtrip.rs` does:
/// the byte picks the line (`e % LINES`) and none / a read / a write /
/// both (`e % 4`).
const EVENTS: [u8; 23] = [
    7, 200, 64, 13, 0, 98, 155, 31, 4, 250, 66, 129, 18, 77, 3, 192, 45, 110, 9, 234, 52, 171, 1,
];

/// The pinned kinds: `policy_roundtrip.rs`'s list.
fn kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Basic { interval_s: 600.0 },
        PolicyKind::Threshold {
            interval_s: 600.0,
            theta: 3,
        },
        PolicyKind::AgeAware {
            interval_s: 600.0,
            theta: 3,
            min_age_s: 150.0,
        },
        PolicyKind::Adaptive {
            interval_s: 600.0,
            theta: 3,
            regions: 4,
        },
        PolicyKind::combined_default(600.0),
        PolicyKind::Tour {
            interval_s: 600.0,
            theta: 3,
            iops: 0.7,
            burst: 8.0,
            max_defer: 4,
        },
        PolicyKind::Profiled {
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
    ]
}

/// Digests recorded from an earlier build, one per `(kind, seed)` in
/// `kinds()` × `SEEDS` order.
const PINS: [(&str, [u64; 2]); 7] = [
    ("basic", [0xf419_b250_2c7f_b491, 0xf419_b250_2c7f_b491]),
    ("threshold", [0x5e24_8352_3007_d85d, 0x5e24_8352_3007_d85d]),
    ("age-aware", [0x5d62_f419_5d28_1af9, 0x5d62_f419_5d28_1af9]),
    ("adaptive", [0xfa29_44b7_73cb_55bd, 0xfa29_44b7_73cb_55bd]),
    ("combined", [0x3ab4_2323_a126_f4cb, 0x3ab4_2323_a126_f4cb]),
    ("tour", [0x61be_23e7_ea74_eb87, 0x9bc5_43f6_0435_e153]),
    ("profiled", [0x90f5_0d41_c76f_da37, 0x9c9e_6d1b_9d22_05b1]),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The `n`-th probe's scripted result: `Clean`, `Corrected{1..=5}`,
/// then `DetectedUncorrectable`, repeating.
fn scripted_result(n: u64) -> AccessResult {
    let (outcome, persistent_bits) = match n % 7 {
        0 => (ClassifyOutcome::Clean, 0),
        6 => (ClassifyOutcome::DetectedUncorrectable, 7),
        k => (ClassifyOutcome::Corrected { bits: k as u32 }, k as u32),
    };
    AccessResult {
        outcome,
        persistent_bits,
        new_ue: false,
    }
}

/// Drives one policy through the script and digests what it did.
fn digest(kind: &PolicyKind, seed: u64) -> u64 {
    let mut policy = kind
        .build(LINES, BANKS, seed)
        .expect("every pinned kind scrubs");
    let mut mem = Memory::new(
        MemGeometry::new(LINES, BANKS),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        seed,
    );
    let mut h = Fnv::new();
    let mut probes = 0u64;
    for s in 0..SLOTS {
        let now = SimTime::from_secs(s as f64 * 2.5);
        let e = EVENTS[(s as usize) % EVENTS.len()];
        let addr = LineAddr(u32::from(e) % LINES);
        if e % 4 >= 1 {
            policy.on_demand_read(addr, now);
        }
        if e % 4 >= 2 {
            // The write resets the line's drift clock, so the age gates
            // see young lines partway through the run.
            mem.demand_write(addr, now);
            policy.on_demand_write(addr, now);
        }
        let ctx = ScrubContext { now, mem: &mem };
        match policy.next_action(&ctx) {
            ScrubAction::Probe(line) => {
                h.bytes(&[1]);
                h.bytes(&line.0.to_le_bytes());
                let result = scripted_result(probes);
                probes += 1;
                h.bytes(&[u8::from(policy.wants_writeback(line, &result, &ctx))]);
            }
            ScrubAction::Idle => h.bytes(&[0]),
        }
        if (s + 1) % SNAPSHOT_EVERY == 0 {
            h.bytes(&policy.probe_gap_s(&ctx).to_bits().to_le_bytes());
            let mut w = Writer::new();
            policy.save_state(&mut w);
            h.bytes(&w.into_bytes());
        }
    }
    h.0
}

#[test]
fn every_policy_matches_its_recorded_digest() {
    let kinds = kinds();
    let mut got = Vec::new();
    for kind in &kinds {
        let name = kind
            .build(LINES, BANKS, 0)
            .expect("scrubs")
            .name()
            .to_string();
        got.push((name, SEEDS.map(|seed| digest(kind, seed))));
    }
    let mut mismatches = Vec::new();
    for ((name, digests), (want_name, want)) in got.iter().zip(PINS) {
        if name != want_name || *digests != want {
            mismatches.push(format!(
                "{name}: got [{:#018x}, {:#018x}], pinned [{:#018x}, {:#018x}]",
                digests[0], digests[1], want[0], want[1]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "policy output drifted from the pinned build:\n{}",
        mismatches.join("\n")
    );
}
