//! `Simulation::resume` never panics on a CRC-valid snapshot.
//!
//! The envelope's CRC catches damage in transit, but a payload can also
//! be wrong and correctly sealed: written by a buggy build, or crafted.
//! Each case takes one of the frozen 5,400 s fixtures of
//! `checkpoint_compat.rs` (the same config: demand traffic, a fault
//! campaign, the repair hierarchy and UE recovery, under the basic,
//! combined and profiled policies), damages its payload, reseals it
//! with `scrub_checkpoint::seal` and resumes it. Resume must return
//! `Ok` or a typed error, and a resumed run must continue 600 s
//! without a panic.
//!
//! The damage is one of: 1–7 random bytes, a truncation, one flipped
//! bit, or an 8-byte overwrite. Most land in the per-line state, where
//! a bad level count used to reach the fault engine's subtractions and
//! the binomial sampler's bound after resume, and a bad line count used
//! to size an allocation of tens of gigabytes before it was checked.
//!
//! The fixtures all run suite traffic, so one more case damages a
//! snapshot of open-loop tenant traffic, the kind fleet shards run,
//! taken by this build at 600 s.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scrub_checkpoint::Reader;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};

/// The `checkpoint_compat.rs` config, which wrote the fixtures.
fn config(policy: PolicyKind) -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(256)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(policy)
        .traffic(DemandTraffic::suite(pcm_workloads::WorkloadId::KvCache))
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

fn policy(name: &str) -> PolicyKind {
    match name {
        "basic-900" => PolicyKind::Basic { interval_s: 900.0 },
        "combined-900" => PolicyKind::combined_default(900.0),
        _ => PolicyKind::Profiled {
            interval_s: 900.0,
            theta: 4,
            iops: 2.0 * 256.0 / 900.0,
            burst: 64.0,
            max_defer: 8,
            capacity: 16,
            hot_stride: 4,
            stretch: 2,
            risk: 2,
        },
    }
}

/// The fixture's payload, out of its envelope.
fn payload(name: &str) -> Vec<u8> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let sealed = std::fs::read(format!("{dir}/{name}.ckpt")).expect("fixture checkpoint");
    scrub_checkpoint::open(&sealed)
        .expect("fixture opens")
        .to_vec()
}

/// A 64-line run under a two-tenant open-loop mix.
fn open_loop_config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(64)
        .policy(PolicyKind::combined_default(900.0))
        .traffic(DemandTraffic::open_loop(
            "web:rate=60,read=0.95,pattern=zipf:1.2;batch:rate=20,read=0.2,pattern=zipf:1.4"
                .parse()
                .expect("valid tenant mix"),
        ))
        .horizon_s(3600.0)
        .seed(15);
    b.build()
}

/// The open-loop run's payload at 600 s, out of its envelope.
fn open_loop_payload() -> Vec<u8> {
    let mut sim = Simulation::new(open_loop_config());
    sim.run_to(600.0);
    let sealed = sim.checkpoint().expect("open-loop traffic checkpoints");
    scrub_checkpoint::open(&sealed)
        .expect("fresh snapshot opens")
        .to_vec()
}

/// Damages `payload` in the way `kind` names, drawing from `seed`.
fn mutate(payload: &[u8], kind: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = payload.to_vec();
    let n = p.len();
    match kind {
        0 => {
            for _ in 0..rng.gen_range(1..=7) {
                let i = rng.gen_range(0..n);
                p[i] = rng.gen();
            }
        }
        1 => p.truncate(rng.gen_range(0..n)),
        2 => p[rng.gen_range(0..n)] ^= 1 << rng.gen_range(0..8),
        _ => {
            let i = rng.gen_range(0..n - 8);
            p[i..i + 8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
        }
    }
    p
}

/// Resumes `payload`, damaged, under `config` and runs to `stop_s`, 600 s
/// past the snapshot; returns whether it resumed.
fn resume_damaged(
    name: &str,
    config: SimConfig,
    payload: &[u8],
    stop_s: f64,
    kind: u8,
    seed: u64,
) -> bool {
    let sealed = scrub_checkpoint::seal(mutate(payload, kind, seed));
    let run = catch_unwind(AssertUnwindSafe(|| {
        match Simulation::resume(config, &sealed) {
            Ok(mut sim) => {
                sim.run_to(stop_s);
                true
            }
            Err(_) => false,
        }
    }));
    run.unwrap_or_else(|_| panic!("{name}: damage {kind} from seed {seed} panicked"))
}

/// [`resume_damaged`] on a frozen fixture.
fn resume_damaged_fixture(name: &str, kind: u8, seed: u64) -> bool {
    resume_damaged(
        name,
        config(policy(name)),
        &payload(name),
        6000.0,
        kind,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn damaged_basic_snapshots_resume_or_fail_typed(kind in 0u8..4, seed in 0u64..u64::MAX) {
        resume_damaged_fixture("basic-900", kind, seed);
    }

    #[test]
    fn damaged_combined_snapshots_resume_or_fail_typed(kind in 0u8..4, seed in 0u64..u64::MAX) {
        resume_damaged_fixture("combined-900", kind, seed);
    }

    #[test]
    fn damaged_profiled_snapshots_resume_or_fail_typed(kind in 0u8..4, seed in 0u64..u64::MAX) {
        resume_damaged_fixture("profiled-900", kind, seed);
    }

    #[test]
    fn damaged_open_loop_snapshots_resume_or_fail_typed(kind in 0u8..4, seed in 0u64..u64::MAX) {
        resume_damaged("open-loop", open_loop_config(), &open_loop_payload(), 1200.0, kind, seed);
    }
}

/// Where tenant 0's pending-op line sits in an open-loop payload: after
/// the fingerprint, the clock and the trace state's header come the
/// tenant count, tenant 0's generator state, and its pending op (flag,
/// time, kind, line).
fn tenant0_pending_line_offset(payload: &[u8]) -> usize {
    let mut r = Reader::new(payload);
    r.bytes().expect("fingerprint");
    r.f64().expect("clock");
    assert_eq!(
        r.u8().expect("trace flag"),
        1,
        "open-loop traffic has state"
    );
    r.u32().expect("trace state length");
    r.u32().expect("tenant count");
    r.bytes().expect("tenant 0 generator");
    assert_eq!(
        r.u8().expect("pending flag"),
        1,
        "tenant 0 has an op pending"
    );
    r.f64().expect("pending time");
    r.u8().expect("pending kind");
    payload.len() - r.remaining()
}

/// A tenant's pending op on a line past the memory, correctly sealed, is
/// a typed error, not a run that panics at its first demand access.
#[test]
fn open_loop_pending_line_past_the_memory_is_rejected() {
    let mut payload = open_loop_payload();
    let at = tenant0_pending_line_offset(&payload);
    payload[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
    let sealed = scrub_checkpoint::seal(payload);
    let err = Simulation::resume(open_loop_config(), &sealed)
        .expect_err("tenant 0's line 1,000,000 is past the 64-line memory");
    assert!(err.to_string().contains("pending-op line 1000000"), "{err}");
}

/// The undamaged payload, resealed, resumes: the cases above are not
/// all turned away at the envelope.
#[test]
fn resealed_fixtures_resume() {
    for name in ["basic-900", "combined-900", "profiled-900"] {
        let sealed = scrub_checkpoint::seal(payload(name));
        Simulation::resume(config(policy(name)), &sealed).expect(name);
    }
}
