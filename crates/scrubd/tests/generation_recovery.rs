//! Property tests over the rotated checkpoint-generation store.
//!
//! The contract: however an adversary rots the on-disk generation files
//! — bit-flips at any offset, truncation to any shorter length, a
//! foreign file wearing the wrong magic, an emptied or deleted file —
//! recovery either lands on an older generation whose envelope still
//! validates (returning exactly the payload persisted there), or
//! returns the typed [`RecoveryError::Exhausted`] naming what was wrong
//! with every generation. It never panics and never hands back zeroed
//! or corrupted state, and a fleet resumed over an exhausted store
//! quarantines the shard instead of crashing.

use std::path::PathBuf;

use proptest::collection;
use proptest::prelude::*;
use scrubd::health::RecoveryError;
use scrubd::{FleetConfig, GenStore};

const K: u32 = 3;
const SHARD: u32 = 0;

fn fresh_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scrubd-genprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Persists K distinguishable sealed payloads; after rotation, gen `g`
/// holds payload `K - 1 - g` (gen0 is the newest persist).
fn populated_store(tag: &str) -> (GenStore, Vec<Vec<u8>>) {
    let store = GenStore::new(fresh_root(tag), K);
    let mut payloads = Vec::new();
    for i in 0..K {
        let payload = format!("round-{i} shard-state {}", "x".repeat(40 + i as usize)).into_bytes();
        store
            .persist(SHARD, &scrub_checkpoint::seal(payload.clone()))
            .expect("persist");
        payloads.push(payload);
    }
    (store, payloads)
}

/// One way to rot a generation file. Every variant guarantees the
/// envelope no longer validates: the CRC covers every payload byte and
/// the header fields are length- and magic-checked.
#[derive(Debug, Clone)]
enum Rot {
    /// XOR a non-zero mask into one byte at a seeded offset.
    BitFlip { offset_seed: u64, mask: u8 },
    /// Cut the file to a strict prefix.
    Truncate { len_seed: u64 },
    /// Overwrite the leading bytes with another format's magic.
    ForeignMagic,
    /// Zero-length file (e.g. a crash between create and write).
    Empty,
    /// The file is gone entirely.
    Delete,
}

fn apply(rot: &Rot, store: &GenStore, gen: u32) {
    let path = store.path(SHARD, gen);
    match rot {
        Rot::BitFlip { offset_seed, mask } => {
            let mut bytes = std::fs::read(&path).expect("read gen");
            let off = (*offset_seed as usize) % bytes.len();
            bytes[off] ^= mask;
            std::fs::write(&path, bytes).expect("write gen");
        }
        Rot::Truncate { len_seed } => {
            let bytes = std::fs::read(&path).expect("read gen");
            let keep = (*len_seed as usize) % bytes.len();
            std::fs::write(&path, &bytes[..keep]).expect("write gen");
        }
        Rot::ForeignMagic => {
            let mut bytes = std::fs::read(&path).expect("read gen");
            let n = bytes.len().min(8);
            bytes[..n].copy_from_slice(&b"NOTACKPT"[..n]);
            std::fs::write(&path, bytes).expect("write gen");
        }
        Rot::Empty => std::fs::write(&path, b"").expect("write gen"),
        Rot::Delete => std::fs::remove_file(&path).expect("remove gen"),
    }
}

/// Maps a drawn `(kind, seed, mask)` triple onto a [`Rot`]. The vendored
/// proptest has no `prop_oneof`/`prop_map`, so variants are selected by
/// integer.
fn rot_from(kind: u8, seed: u64, mask: u8) -> Rot {
    match kind {
        0 => Rot::BitFlip {
            offset_seed: seed,
            mask,
        },
        1 => Rot::Truncate { len_seed: seed },
        2 => Rot::ForeignMagic,
        3 => Rot::Empty,
        _ => Rot::Delete,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rot every generation: the walk must exhaust with one typed reason
    /// per generation — no panic, no silently accepted garbage.
    #[test]
    fn corrupting_all_generations_is_typed_exhaustion(
        kinds in collection::vec(0u8..5, 3..4),
        seeds in collection::vec(0u64..u64::MAX, 3..4),
        masks in collection::vec(1u8..=255, 3..4),
    ) {
        let (store, _) = populated_store("all");
        for gen in 0..K {
            let i = gen as usize;
            apply(&rot_from(kinds[i], seeds[i], masks[i]), &store, gen);
        }
        let err = store.load(SHARD).expect_err("every generation is rotted");
        let RecoveryError::Exhausted { shard, tried } = &err;
        prop_assert_eq!(*shard, SHARD);
        prop_assert_eq!(tried.len(), K as usize, "one reason per generation: {}", err);
        for (gen, why) in tried {
            prop_assert!(*gen < K, "reason names a real generation");
            prop_assert!(!why.is_empty(), "reason must say what was wrong");
        }
    }

    /// Rot only the newest `bad` generations: recovery falls back to the
    /// oldest intact one and returns exactly the payload persisted there.
    #[test]
    fn partial_rot_falls_back_to_the_oldest_intact_generation(
        bad in 0u32..K,
        kinds in collection::vec(0u8..5, 3..4),
        seeds in collection::vec(0u64..u64::MAX, 3..4),
        masks in collection::vec(1u8..=255, 3..4),
    ) {
        let (store, payloads) = populated_store("partial");
        for gen in 0..bad {
            let i = gen as usize;
            apply(&rot_from(kinds[i], seeds[i], masks[i]), &store, gen);
        }
        let (gen, sealed) = store.load(SHARD).expect("an intact generation remains");
        prop_assert_eq!(gen, bad, "must land on the first intact generation");
        let payload = scrub_checkpoint::open(&sealed).expect("load only returns valid envelopes");
        // gen0 holds the newest persist (payload K-1), gen `g` holds K-1-g.
        prop_assert_eq!(payload, &payloads[(K - 1 - bad) as usize][..]);
    }
}

/// A fleet resumed over a fully exhausted store quarantines the shard
/// (typed, visible) instead of crashing or zeroing its state.
#[test]
fn resume_over_an_exhausted_store_quarantines_the_shard() {
    let config: FleetConfig = "[fleet]\n\
         banks = 4\n\
         lines-per-bank = 16\n\
         shards = 2\n\
         seed = 7\n\
         horizon-s = 600\n\
         cadence-s = 300\n\
         policy = basic@300\n\
         [tenants]\n\
         mix = alpha:rate=20\n"
        .parse()
        .expect("valid config");
    let donor = scrubd::Fleet::new(config.clone());
    let restores = vec![
        scrubd::ShardRestore {
            health: scrubd::Health::Healthy,
            snapshot: Err(RecoveryError::Exhausted {
                shard: 0,
                tried: vec![(0, "unreadable".into()), (1, "bad magic".into())],
            }),
        },
        scrubd::ShardRestore {
            health: scrubd::Health::Healthy,
            snapshot: Ok(donor.shards()[1].last_good().0.to_vec()),
        },
    ];
    let fleet = scrubd::Fleet::resume(config, 0, restores).expect("resume degrades, not fails");
    assert_eq!(fleet.quarantined(), 1);
    assert!(fleet.shards()[0].health().is_quarantined());
    assert!(!fleet.shards()[1].health().is_quarantined());
}
