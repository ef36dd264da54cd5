//! Cross-build pins for the demand-path sampling kernels.
//!
//! The end-to-end goldens reach only 286–288-cell MLC lines and one code
//! per run, so a kernel change that is wrong for other line sizes, other
//! codes or other address spaces could pass them. These pins drive each
//! kernel through a fixed sweep wider than any simulation uses: the
//! level-occupancy multinomial at every `n` up to 2,100 cells (past the
//! 2,032-cell SLC line of RS(254,64)), the fault engine's write re-roll,
//! the SECDED and Reed–Solomon error spread up to a fully corrupted line,
//! and the Zipf address draw. Each pin is the FNV-1a digest of the
//! kernel's outputs plus the next `u64` of its RNG stream, so a change in
//! what a kernel returns or in how many uniforms it draws both show.
//!
//! Like `policy_pins.rs` and the checkpoint fixtures, the constants were
//! recorded from an earlier build and are never re-blessed: a mismatch
//! means a kernel's draws changed.

use pcm_ecc::{ClassifyOutcome, CodeSpec};
use pcm_memsim::{FaultEngine, LineState, SimTime};
use pcm_model::math::PrecomputedMultinomial;
use pcm_model::{DeviceConfig, EnduranceSpec};
use pcm_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Digests recorded from an earlier build, by pin name.
const PINS: [(&str, u64); 7] = [
    ("multinomial-4", 0xf0eb_4ac0_a4f6_f34e),
    ("multinomial-2", 0x4e6c_06d6_17e2_24ea),
    ("fault-default", 0x1b03_84a9_bf3b_030d),
    ("fault-wearing", 0xdf75_7c2c_f408_0487),
    ("classify", 0x5255_7881_24e4_f045),
    ("classify-full-line", 0xb2a6_e311_a55c_09a7),
    ("zipf", 0x5d0c_965f_533a_350c),
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

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Closes the digest with the stream position: the next `u64` the
    /// kernel's RNG would have produced.
    fn finish(mut self, rng: &mut StdRng) -> u64 {
        self.u64(rng.gen());
        self.0
    }
}

/// Uniform occupancy over `levels` levels, four draws at every `n` in
/// `0..=2100`.
fn multinomial(levels: usize, seed: u64) -> u64 {
    let dist = PrecomputedMultinomial::new(&vec![1.0 / levels as f64; levels]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u32; levels];
    let mut h = Fnv::new();
    for n in 0..=2100u32 {
        for _ in 0..4 {
            dist.sample_into(&mut rng, n, &mut out);
            for &k in &out {
                h.u64(u64::from(k));
            }
        }
    }
    h.finish(&mut rng)
}

fn line_bytes(h: &mut Fnv, line: &LineState) {
    for &o in &line.occupancy {
        h.u64(u64::from(o));
    }
    h.u64(u64::from(line.wear));
    h.u64(u64::from(line.worn_cells));
    h.u64(u64::from(line.worn_conflict_bits));
}

/// A fresh 288-cell line on `device`, then `writes` rewrites one second
/// apart.
fn fault(device: &DeviceConfig, writes: u32, seed: u64) -> u64 {
    let engine = FaultEngine::new(device, 288);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    let mut line = engine.fresh_line(SimTime::ZERO, &mut rng);
    line_bytes(&mut h, &line);
    for i in 1..=writes {
        engine.on_write(&mut line, SimTime::from_secs(f64::from(i)), &mut rng);
        line_bytes(&mut h, &line);
    }
    h.finish(&mut rng)
}

fn codes() -> Vec<CodeSpec> {
    vec![
        CodeSpec::secded_line(),
        CodeSpec::rs_line(72, 64),
        CodeSpec::rs_line(80, 64),
        CodeSpec::rs_line(254, 64),
    ]
}

fn outcome_bytes(h: &mut Fnv, outcome: ClassifyOutcome) {
    h.u64(match outcome {
        ClassifyOutcome::Clean => 0,
        ClassifyOutcome::Corrected { bits } => 1 + (u64::from(bits) << 8),
        ClassifyOutcome::DetectedUncorrectable => 2,
        ClassifyOutcome::Miscorrected => 3,
    });
}

/// Every code at `0..=40` errors, sixteen draws each.
fn classify(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for code in codes() {
        for errors in 0..=40 {
            for _ in 0..16 {
                outcome_bytes(&mut h, code.classify(errors, &mut rng));
            }
        }
    }
    h.finish(&mut rng)
}

/// Every code with every bit of the line in error, and one error more
/// than the line holds.
fn classify_full_line(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for code in codes() {
        for errors in [code.total_bits(), code.total_bits() + 1] {
            outcome_bytes(&mut h, code.classify(errors, &mut rng));
        }
    }
    h.finish(&mut rng)
}

/// 5,000 draws from each `n × theta`.
fn zipf(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for n in [1usize, 3, 1000, 1024, 1025, 16384] {
        for theta in [0.0, 0.8, 0.99, 1.2] {
            let z = Zipf::new(n, theta);
            for _ in 0..5000 {
                h.u64(z.sample(&mut rng) as u64);
            }
        }
    }
    h.finish(&mut rng)
}

#[test]
fn every_kernel_matches_its_recorded_digest() {
    // An endurance of ~40 writes wears the line out well within 200
    // writes, so the re-roll sees live counts from 288 down to 0.
    let wearing = DeviceConfig::builder()
        .endurance(EnduranceSpec::new(40.0, 0.3))
        .build();
    let got = [
        ("multinomial-4", multinomial(4, 11)),
        ("multinomial-2", multinomial(2, 12)),
        ("fault-default", fault(&DeviceConfig::default(), 4000, 13)),
        ("fault-wearing", fault(&wearing, 200, 14)),
        ("classify", classify(15)),
        ("classify-full-line", classify_full_line(16)),
        ("zipf", zipf(17)),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINS)
        .filter(|((name, digest), (want_name, want))| name != want_name || digest != want)
        .map(|((name, digest), (_, want))| {
            format!("{name}: got {digest:#018x}, pinned {want:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "kernel output drifted from the pinned build:\n{}",
        mismatches.join("\n")
    );
}
