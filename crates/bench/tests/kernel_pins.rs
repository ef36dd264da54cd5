//! Cross-build pins for the demand-path sampling kernels.
//!
//! The end-to-end goldens reach only 286–288-cell MLC lines and one code
//! per run, so a kernel change that is wrong for other line sizes, other
//! codes or other address spaces could pass them. These pins drive each
//! kernel through a fixed sweep wider than any simulation uses: the
//! level-occupancy multinomial at every `n` up to 2,100 cells (past the
//! 2,032-cell SLC line of RS(254,64)), the fault engine's write re-roll,
//! the SECDED and Reed–Solomon error spread up to a fully corrupted line,
//! the Zipf address draw, the scalar binomial across its edge cases, the
//! fault engine's read path (fused and split) from half a second to 30
//! days of drift, and its wear draw on both sides of the writes whose
//! failure probability is exactly zero. Each pin is the FNV-1a digest of
//! the kernel's outputs plus the next `u64` of its RNG stream, so a
//! change in what a kernel returns or in how many uniforms it draws both
//! show.
//!
//! Like `policy_pins.rs` and the checkpoint fixtures, the constants were
//! recorded from an earlier build and are never re-blessed: a mismatch
//! means a kernel's draws changed.

use pcm_ecc::{ClassifyOutcome, CodeSpec};
use pcm_memsim::{FaultEngine, LineState, SimTime};
use pcm_model::math::{sample_binomial, PrecomputedMultinomial};
use pcm_model::{DeviceConfig, DriftParams, EnduranceSpec};
use pcm_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Digests recorded from an earlier build, by pin name.
const PINS: [(&str, u64); 14] = [
    ("multinomial-4", 0xf0eb_4ac0_a4f6_f34e),
    ("multinomial-2", 0x4e6c_06d6_17e2_24ea),
    ("fault-default", 0x1b03_84a9_bf3b_030d),
    ("fault-wearing", 0xdf75_7c2c_f408_0487),
    ("classify", 0x5255_7881_24e4_f045),
    ("classify-full-line", 0xb2a6_e311_a55c_09a7),
    ("zipf", 0x5d0c_965f_533a_350c),
    ("binomial", 0xb204_ddfe_59ba_4617),
    ("read-fused-default", 0xc7b8_5d34_8c10_2b7e),
    ("read-fused-drift4x", 0xd4a2_7025_327e_ea6f),
    ("read-split-default", 0xc7b8_5d34_8c10_2b7e),
    ("read-split-drift4x", 0xd4a2_7025_327e_ea6f),
    ("wear-nominal", 0x61e3_6d7e_e744_2e48),
    ("wear-wide", 0x4844_a9cf_e7d9_7897),
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

/// The `p` values of the binomial pin at `n` trials: zero and the
/// smallest subnormal; either side of the rate below which `1 − p`
/// rounds to 1 (2⁻⁵⁴, 2⁻⁵³); tiny rates, among them one where
/// `1 − n·p` lies above the computed `(1 − p)ⁿ`; the bottom-walk/mode
/// cutoff `10/n` and one ulp below it (where `10/n ≤ 1`); either side of
/// the `p = 0.5` reflection; and the certain outcome.
fn binomial_ps(n: u32) -> Vec<f64> {
    let mut ps = vec![
        0.0,
        5e-324,
        2f64.powi(-54),
        2f64.powi(-53),
        1e-15,
        1e-12,
        7.230198336980701e-10,
        1e-6,
        1e-3,
        0.01,
    ];
    let cutoff = 10.0 / f64::from(n);
    if cutoff <= 1.0 {
        ps.extend([cutoff, f64::from_bits(cutoff.to_bits() - 1)]);
    }
    ps.extend([0.3, 0.5, 0.5 + 2f64.powi(-53), 0.9, 1.0 - 1e-12, 1.0]);
    ps
}

/// Eight `sample_binomial` draws at every `n` in `0..=600`, at 2,032 (an
/// SLC line under RS(254,64)) and at 4,096 (the largest `n` the sampler
/// accepts), for each of [`binomial_ps`].
fn binomial(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for n in (0..=600u32).chain([2_032, 4_096]) {
        for p in binomial_ps(n) {
            for _ in 0..8 {
                h.u64(u64::from(sample_binomial(&mut rng, n, p)));
            }
        }
    }
    h.finish(&mut rng)
}

/// Read times of the read-path pins: a geometric ladder from 0.5 s up
/// to 30 days, each rung 1.3 times the last.
fn ladder() -> Vec<f64> {
    std::iter::successors(Some(0.5f64), |t| Some(t * 1.3))
        .take_while(|&t| t <= 30.0 * 86_400.0)
        .collect()
}

/// Ladder rungs after which the read-path pins rewrite the line.
fn rewrites_after(rung: usize) -> bool {
    rung % 4 == 3
}

/// The ages at which a rewritten line is first read: its drift draw at
/// each level is the whole `p_up` at that age.
fn first_read_ages() -> Vec<f64> {
    let t = ladder();
    (1..t.len())
        .filter(|&i| rewrites_after(i - 1))
        .map(|i| t[i] - t[i - 1])
        .collect()
}

/// One read of a line at `now`: `(persistent, transient)` bit errors.
type Read = fn(&FaultEngine, &mut LineState, SimTime, &mut StdRng) -> (u32, u32);

fn read_fused(e: &FaultEngine, line: &mut LineState, now: SimTime, rng: &mut StdRng) -> (u32, u32) {
    e.advance_and_transient(line, now, rng)
}

fn read_split(e: &FaultEngine, line: &mut LineState, now: SimTime, rng: &mut StdRng) -> (u32, u32) {
    let persistent = e.advance(line, now, rng);
    (persistent, e.transient_errors(line, now, rng))
}

/// 32 fresh 288-cell lines on `device`, each read by `read` at every
/// rung of the [`ladder`] and rewritten after every fourth read. The
/// fused and the split read draw alike, so one seed gives both the same
/// digest.
fn reads(device: &DeviceConfig, read: Read, seed: u64) -> u64 {
    let engine = FaultEngine::new(device, 288);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for _ in 0..32 {
        let mut line = engine.fresh_line(SimTime::ZERO, &mut rng);
        for (rung, &t) in ladder().iter().enumerate() {
            let now = SimTime::from_secs(t);
            let (persistent, transient) = read(&engine, &mut line, now, &mut rng);
            h.u64(u64::from(persistent));
            h.u64(u64::from(transient));
            for &d in &line.drift_failed {
                h.u64(u64::from(d));
            }
            if rewrites_after(rung) {
                engine.on_write(&mut line, now, &mut rng);
                line_bytes(&mut h, &line);
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
    let drift4x = DeviceConfig::builder()
        .drift(DriftParams::default().with_scale(4.0))
        .build();
    // About 72 cells sit at each level, so a rewritten line's first read
    // on the 4× device draws level lanes on the mode path (n·p ≥ 10) and
    // past the p = 0.5 reflection.
    let model = drift4x.drift_model();
    let p_ups: Vec<f64> = first_read_ages()
        .iter()
        .flat_map(|&age| (0..4).map(move |lv| (lv, age)))
        .map(|(lv, age)| model.p_up(lv, age))
        .collect();
    assert!(p_ups.iter().any(|&p| 72.0 * p >= 10.0 && p <= 0.5));
    assert!(p_ups.iter().any(|&p| p > 0.5));
    // The nominal device's first writes fail no cell with certainty (a
    // zero failure CDF), and 8,000 writes run past them; the wide
    // spread's CDF is positive from the first write.
    let nominal = DeviceConfig::builder()
        .endurance(EnduranceSpec::nominal())
        .build();
    let wide = DeviceConfig::builder()
        .endurance(EnduranceSpec::new(1e6, 8.0))
        .build();
    assert_eq!(EnduranceSpec::nominal().fail_cdf(1_000), 0.0);
    assert!(EnduranceSpec::nominal().fail_cdf(8_000) > 0.0);
    assert!(EnduranceSpec::new(1e6, 8.0).fail_cdf(1) > 0.0);
    let got = [
        ("multinomial-4", multinomial(4, 11)),
        ("multinomial-2", multinomial(2, 12)),
        ("fault-default", fault(&DeviceConfig::default(), 4000, 13)),
        ("fault-wearing", fault(&wearing, 200, 14)),
        ("classify", classify(15)),
        ("classify-full-line", classify_full_line(16)),
        ("zipf", zipf(17)),
        ("binomial", binomial(18)),
        (
            "read-fused-default",
            reads(&DeviceConfig::default(), read_fused, 19),
        ),
        ("read-fused-drift4x", reads(&drift4x, read_fused, 20)),
        (
            "read-split-default",
            reads(&DeviceConfig::default(), read_split, 19),
        ),
        ("read-split-drift4x", reads(&drift4x, read_split, 20)),
        ("wear-nominal", fault(&nominal, 8_000, 21)),
        ("wear-wide", fault(&wide, 200, 22)),
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
