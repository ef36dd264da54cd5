//! Oracle-vs-simulator agreement suite (DESIGN.md, "Validation
//! methodology").
//!
//! Each test pits a closed-form prediction from `scrub-oracle` against a
//! Monte-Carlo measurement from the simulator and accepts or rejects with
//! a calibrated statistical test from `pcm-analysis`. Quick variants run
//! in tier-1; the heavyweight versions are `#[ignore]`d and run in the CI
//! `validation` job with `SCRUBSIM_FULL_TEST=1 cargo test -q --
//! --include-ignored`.
//!
//! Acceptance bands combine two sources of slack:
//! * **statistical** — a Wilson/exact interval at the stated confidence,
//!   from the finite Monte-Carlo sample; and
//! * **model** — the simulator evaluates drift through lookup tables
//!   whose documented error bounds the oracle converts into a bracket
//!   `[q_lo, q_hi]` on the per-cell error probability
//!   (`DriftOracle::mean_cell_error_bounds`).
//!
//! A failure therefore means a *real* disagreement, not noise — see the
//! tripwire test at the bottom, which proves a 5% perturbation of the
//! drift constant is caught.

use pcm_analysis::{chi_square_gof, wilson_interval, TestBattery};
use pcm_ecc::ClassifyOutcome;
use pcm_memsim::{LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::{CellArray, DeviceConfig, DriftParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scrub_oracle::num::{binom_tail_ge, binom_tail_le};
use scrub_oracle::{symbol_ue_tail, ue_probability, BasicScrubOracle, DriftOracle};
use scrubsim::prelude::*;

fn full() -> bool {
    std::env::var("SCRUBSIM_FULL_TEST").as_deref() == Ok("1")
}

/// Two-sided exact binomial p-value for `k` successes in `n` trials under
/// null proportion `p`.
fn binom_p_value(k: u64, n: u64, p: f64) -> f64 {
    let lo = binom_tail_le(n, k, p);
    let hi = binom_tail_ge(n, k, p);
    (2.0 * lo.min(hi)).min(1.0)
}

// ---------------------------------------------------------------------------
// Drift misread probability: oracle quadrature vs cell-exact Monte Carlo.
// The cell array carries no lookup tables, so the only slack here is
// statistical.
// ---------------------------------------------------------------------------

/// One measured misread proportion: cells programmed to `level`, read at
/// `age_s`.
struct MisreadPoint {
    level: usize,
    age_s: f64,
    k: u64,
    n: u64,
}

/// Selects (level, age, sample-size) cases that carry real statistical
/// power: sample sizes are sized from the *nominal* oracle so each case
/// expects ≥ 30 events (some levels barely misread at all — the top level
/// drifts *away* from its only boundary — and testing them would only
/// dilute the battery).
fn select_misread_cases(oracle: &DriftOracle, n_cap: usize) -> Vec<(usize, f64, usize)> {
    let mut cases = Vec::new();
    for &age_s in &[600.0, 3600.0, 86_400.0] {
        for level in 0..oracle.num_levels() {
            let p = oracle.p_misread(level, age_s);
            if p * n_cap as f64 >= 30.0 {
                cases.push((level, age_s, ((200.0 / p).ceil() as usize).min(n_cap)));
            }
        }
    }
    assert!(cases.len() >= 3, "expected several informative cases");
    cases
}

fn measure_misreads(cases: &[(usize, f64, usize)], seed: u64) -> Vec<MisreadPoint> {
    let dev = DeviceConfig::default();
    cases
        .iter()
        .enumerate()
        .map(|(i, &(level, age_s, n))| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut arr = CellArray::new(dev.clone(), n);
            arr.program_all(level, 0.0, &mut rng);
            let frac = arr.misread_fraction_for_level(level, age_s, &mut rng);
            MisreadPoint {
                level,
                age_s,
                k: (frac * n as f64).round() as u64,
                n: n as u64,
            }
        })
        .collect()
}

/// The shared Monte-Carlo measurement (quick size), evaluated once and
/// reused by the agreement test and the tripwire.
fn quick_misread_points() -> &'static [MisreadPoint] {
    use std::sync::OnceLock;
    static POINTS: OnceLock<Vec<MisreadPoint>> = OnceLock::new();
    POINTS.get_or_init(|| {
        let oracle = DriftOracle::new(&DeviceConfig::default());
        measure_misreads(&select_misread_cases(&oracle, 150_000), 0xD41F7)
    })
}

fn misread_battery(points: &[MisreadPoint], oracle: &DriftOracle) -> TestBattery {
    let mut battery = TestBattery::new(0.01);
    for pt in points {
        let p_pred = oracle.p_misread(pt.level, pt.age_s);
        battery.record(
            &format!("misread-l{}-t{}", pt.level, pt.age_s),
            binom_p_value(pt.k, pt.n, p_pred),
        );
    }
    battery
}

#[test]
fn drift_misread_matches_cell_monte_carlo() {
    let oracle = DriftOracle::new(&DeviceConfig::default());
    let battery = misread_battery(quick_misread_points(), &oracle);
    assert!(
        battery.rejections().is_empty(),
        "oracle disagrees with cell-exact Monte Carlo:\n{}",
        battery.report()
    );
}

#[test]
#[ignore = "full agreement suite: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn drift_misread_matches_cell_monte_carlo_full() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let oracle = DriftOracle::new(&DeviceConfig::default());
    let points = measure_misreads(&select_misread_cases(&oracle, 600_000), 0xF0312);
    let battery = misread_battery(&points, &oracle);
    assert!(
        battery.rejections().is_empty(),
        "oracle disagrees with cell-exact Monte Carlo (full):\n{}",
        battery.report()
    );
}

// ---------------------------------------------------------------------------
// Post-ECC UE probability: binomial-through-code-marginal vs one simulator
// probe per fresh line.
// ---------------------------------------------------------------------------

struct UeRun {
    ue: u64,
    lines: u64,
    age_s: f64,
}

/// Probes `lines` fresh lines once each at an age chosen (from the oracle
/// alone) so the UE probability is comfortably measurable, and counts
/// uncorrectable outcomes.
fn ue_experiment(code: CodeSpec, oracle: &DriftOracle, lines: u32, seed: u64) -> UeRun {
    let dev = DeviceConfig::default();
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let age_s = [300.0, 900.0, 1800.0, 3600.0, 7200.0, 14_400.0, 28_800.0]
        .into_iter()
        .find(|&t| {
            let p = ue_probability(&code, cells, oracle.mean_cell_error_prob(t));
            (0.05..=0.6).contains(&p)
        })
        .unwrap_or(28_800.0);
    let mut mem = Memory::new(MemGeometry::new(lines, 4), dev, code, seed);
    let now = SimTime::from_secs(age_s);
    for addr in 0..lines {
        mem.scrub_probe(LineAddr(addr), now);
    }
    let stats = mem.stats();
    UeRun {
        ue: stats.detected_ue + stats.miscorrections,
        lines: lines as u64,
        age_s,
    }
}

/// Accepts iff the Wilson interval on the measured UE fraction overlaps
/// the oracle bracket `[ue(q_lo), ue(q_hi)]` induced by the simulator's
/// documented LUT error bounds.
fn assert_ue_agreement(code: CodeSpec, oracle: &DriftOracle, lines: u32, label: &str) {
    let dev = DeviceConfig::default();
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let run = ue_experiment(code.clone(), oracle, lines, 0xECC0 + lines as u64);
    let (q_lo, q_hi) = oracle.mean_cell_error_bounds(run.age_s);
    let (ue_lo, ue_hi) = (
        ue_probability(&code, cells, q_lo),
        ue_probability(&code, cells, q_hi),
    );
    let ci = wilson_interval(run.ue, run.lines, 0.01);
    assert!(
        ci.lo <= ue_hi && ue_lo <= ci.hi,
        "{label}: measured UE CI [{:.4}, {:.4}] misses oracle bracket \
         [{ue_lo:.4}, {ue_hi:.4}] at age {}s ({}/{} lines)",
        ci.lo,
        ci.hi,
        run.age_s,
        run.ue,
        run.lines
    );
}

#[test]
fn post_ecc_ue_rate_matches_closed_form_secded() {
    let oracle = DriftOracle::new(&DeviceConfig::default());
    assert_ue_agreement(CodeSpec::secded_line(), &oracle, 2048, "secded");
}

#[test]
fn post_ecc_ue_rate_matches_closed_form_bch4() {
    let oracle = DriftOracle::new(&DeviceConfig::default());
    assert_ue_agreement(CodeSpec::bch_line(4), &oracle, 2048, "bch4");
}

#[test]
#[ignore = "full agreement suite: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn post_ecc_ue_rate_matches_closed_form_full() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let oracle = DriftOracle::new(&DeviceConfig::default());
    assert_ue_agreement(CodeSpec::secded_line(), &oracle, 16_384, "secded-full");
    assert_ue_agreement(CodeSpec::bch_line(4), &oracle, 16_384, "bch4-full");
    assert_ue_agreement(CodeSpec::bch_line(6), &oracle, 16_384, "bch6-full");
}

// ---------------------------------------------------------------------------
// Line error-count histogram: the whole Bin(cells, q̄) law, not just its
// UE tail, via chi-square goodness of fit.
// ---------------------------------------------------------------------------

#[test]
fn line_error_histogram_matches_binomial_law() {
    let dev = DeviceConfig::default();
    let oracle = DriftOracle::new(&dev);
    let code = CodeSpec::bch_line(6);
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let t = code.guaranteed_t();
    // Pick an age (oracle-only) where the mean error count sits in the
    // correctable range so every histogram bin gets mass.
    let age_s = [300.0, 900.0, 1800.0, 3600.0, 7200.0, 14_400.0]
        .into_iter()
        .find(|&t_s| {
            let m = scrub_oracle::expected_errors(cells, oracle.mean_cell_error_prob(t_s));
            (1.5..=5.0).contains(&m)
        })
        .unwrap_or(3600.0);

    let lines: u32 = if full() { 16_384 } else { 2048 };
    let mut mem = Memory::new(MemGeometry::new(lines, 4), dev, code, 0xB19);
    let now = SimTime::from_secs(age_s);
    let mut observed = vec![0u64; t as usize + 2]; // 0..=t errors, then UE
    for addr in 0..lines {
        let r = mem.scrub_probe(LineAddr(addr), now);
        let bin = match r.outcome {
            ClassifyOutcome::Clean => 0,
            ClassifyOutcome::Corrected { bits } => (bits as usize).min(t as usize),
            _ => t as usize + 1,
        };
        observed[bin] += 1;
    }

    let q = oracle.mean_cell_error_prob(age_s);
    let pmf = scrub_oracle::line_error_pmf(cells, q, t);
    let mut expected: Vec<f64> = pmf.iter().map(|p| p * lines as f64).collect();
    expected.push(binom_tail_ge(cells as u64, t as u64 + 1, q) * lines as f64);

    let (p_value, dof) = chi_square_gof(&observed, &expected, 5.0);
    assert!(
        p_value > 1e-3,
        "line error histogram rejects Bin({cells}, {q:.5}) at age {age_s}s: \
         p = {p_value:.2e} (dof {dof}), observed {observed:?}"
    );
}

// ---------------------------------------------------------------------------
// Basic-scrub writes and energy: renewal DP vs a full simulation run.
// ---------------------------------------------------------------------------

struct ScrubCase {
    num_lines: u32,
    interval_s: f64,
    horizon_s: f64,
    seed: u64,
    /// Oracle age-grid resolution. The quick case runs at 40 pts/decade
    /// (~2e-3 relative interpolation error, far inside the 3% model
    /// slack) to keep tier-1 fast; the full cases use the 160-pt default.
    points_per_decade: usize,
}

fn assert_scrub_agreement(case: &ScrubCase) {
    let dev = DeviceConfig::default();
    let code = CodeSpec::bch_line(4);
    let oracle = DriftOracle::new(&dev);
    let model = BasicScrubOracle::with_grid_resolution(
        &dev,
        &code,
        &oracle,
        case.num_lines,
        case.interval_s,
        case.horizon_s,
        case.points_per_decade,
    );
    let pred = model.predict();

    let report = Simulation::new(
        SimConfig::builder()
            .num_lines(case.num_lines)
            .code(code)
            .policy(PolicyKind::Basic {
                interval_s: case.interval_s,
            })
            .traffic(DemandTraffic::Idle)
            .horizon_s(case.horizon_s)
            .seed(case.seed)
            .build(),
    )
    .run();

    // Probe counts are deterministic: the oracle replicates the engine's
    // slot accumulation, so this must be *exact*.
    assert_eq!(
        report.stats.scrub_probes, pred.probes,
        "probe count mismatch: sim {} vs oracle {}",
        report.stats.scrub_probes, pred.probes
    );

    // Write-backs: statistical band (3.3σ ≈ 99.9% two-sided under CLT over
    // hundreds of independent lines) plus 3% model slack for the LUT error
    // bounds propagated through the hazards.
    let w = report.stats.scrub_writebacks as f64;
    let slack = 3.3 * pred.writebacks_sd + 0.03 * pred.writebacks_mean + 1.0;
    assert!(
        (w - pred.writebacks_mean).abs() <= slack,
        "write-backs {} vs predicted {:.1} ± {:.1} (sd {:.1})",
        w,
        pred.writebacks_mean,
        slack,
        pred.writebacks_sd
    );

    // Energy decomposes exactly: probes·probe_uj + writes·write_uj. Check
    // the affine identity against the simulator's ledger with the
    // *observed* write count (tests the energy accounting itself), then
    // the predicted mean within the write-band slack.
    let ledger_identity =
        pred.probes as f64 * model.probe_energy_uj() + w * model.writeback_energy_uj();
    assert!(
        (report.scrub_energy_uj - ledger_identity).abs() <= 1e-6 * ledger_identity.max(1.0),
        "scrub energy ledger {} µJ diverges from affine identity {} µJ",
        report.scrub_energy_uj,
        ledger_identity
    );
    let e_slack = 3.3 * pred.scrub_energy_uj_sd + 0.03 * pred.scrub_energy_uj_mean;
    assert!(
        (report.scrub_energy_uj - pred.scrub_energy_uj_mean).abs() <= e_slack,
        "scrub energy {} µJ vs predicted {:.2} ± {:.2} µJ",
        report.scrub_energy_uj,
        pred.scrub_energy_uj_mean,
        e_slack
    );
}

#[test]
fn basic_scrub_writes_and_energy_match_renewal_model() {
    assert_scrub_agreement(&ScrubCase {
        num_lines: 64,
        interval_s: 900.0,
        horizon_s: 3600.0,
        seed: 41,
        points_per_decade: 40,
    });
}

#[test]
#[ignore = "full agreement suite: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn basic_scrub_writes_and_energy_match_renewal_model_full() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    assert_scrub_agreement(&ScrubCase {
        num_lines: 512,
        interval_s: 900.0,
        horizon_s: 6.0 * 3600.0,
        seed: 42,
        points_per_decade: 160,
    });
    assert_scrub_agreement(&ScrubCase {
        num_lines: 256,
        interval_s: 1800.0,
        horizon_s: 12.0 * 3600.0,
        seed: 43,
        points_per_decade: 160,
    });
}

// ---------------------------------------------------------------------------
// Reed–Solomon symbol-UE tail: the surjection-counting oracle
// (`symbol_ue_tail`) vs one simulator probe per fresh line. Same shape as
// the bit-code UE agreement above, but the law under test is the symbol
// occupancy distribution, not a bit-count threshold.
// ---------------------------------------------------------------------------

/// RS(72,64) over GF(2^8): 72 byte symbols, t = 4. Kept in one place so
/// the oracle calls and the simulator config cannot drift apart.
const RS_SYMBOLS: u32 = 72;
const RS_SYMBOL_BITS: u32 = 8;

fn rs_code() -> CodeSpec {
    let code = CodeSpec::rs_line(72, 64);
    assert_eq!(code.guaranteed_t(), 4, "RS(72,64) corrects 4 symbols");
    assert_eq!(code.total_bits(), RS_SYMBOLS * RS_SYMBOL_BITS);
    code
}

/// Probes `lines` fresh RS lines once each at an age chosen (from the
/// oracle alone) so the symbol-UE probability is comfortably measurable.
fn rs_ue_experiment(oracle: &DriftOracle, lines: u32, seed: u64) -> UeRun {
    let code = rs_code();
    let dev = DeviceConfig::default();
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let t = code.guaranteed_t();
    let age_s = [300.0, 900.0, 1800.0, 3600.0, 7200.0, 14_400.0, 28_800.0]
        .into_iter()
        .find(|&t_s| {
            let p = symbol_ue_tail(
                RS_SYMBOLS,
                RS_SYMBOL_BITS,
                t,
                cells,
                oracle.mean_cell_error_prob(t_s),
            );
            (0.05..=0.6).contains(&p)
        })
        .unwrap_or(28_800.0);
    let mut mem = Memory::new(MemGeometry::new(lines, 4), dev, code, seed);
    let now = SimTime::from_secs(age_s);
    for addr in 0..lines {
        mem.scrub_probe(LineAddr(addr), now);
    }
    let stats = mem.stats();
    UeRun {
        ue: stats.detected_ue + stats.miscorrections,
        lines: lines as u64,
        age_s,
    }
}

/// Accepts iff the Wilson interval on the measured symbol-UE fraction
/// overlaps the oracle bracket induced by the LUT error bounds.
fn assert_rs_ue_agreement(oracle: &DriftOracle, lines: u32, label: &str) {
    let code = rs_code();
    let dev = DeviceConfig::default();
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let t = code.guaranteed_t();
    let run = rs_ue_experiment(oracle, lines, 0x5272 + lines as u64);
    let (q_lo, q_hi) = oracle.mean_cell_error_bounds(run.age_s);
    let (ue_lo, ue_hi) = (
        symbol_ue_tail(RS_SYMBOLS, RS_SYMBOL_BITS, t, cells, q_lo),
        symbol_ue_tail(RS_SYMBOLS, RS_SYMBOL_BITS, t, cells, q_hi),
    );
    let ci = wilson_interval(run.ue, run.lines, 0.01);
    assert!(
        ci.lo <= ue_hi && ue_lo <= ci.hi,
        "{label}: measured symbol-UE CI [{:.4}, {:.4}] misses oracle bracket \
         [{ue_lo:.4}, {ue_hi:.4}] at age {}s ({}/{} lines)",
        ci.lo,
        ci.hi,
        run.age_s,
        run.ue,
        run.lines
    );
}

#[test]
fn post_ecc_symbol_ue_rate_matches_closed_form_rs() {
    let oracle = DriftOracle::new(&DeviceConfig::default());
    assert_rs_ue_agreement(&oracle, 2048, "rs72-64");
}

#[test]
#[ignore = "full agreement suite: SCRUBSIM_FULL_TEST=1 cargo test -- --include-ignored"]
fn post_ecc_symbol_ue_rate_matches_closed_form_rs_full() {
    if !full() {
        eprintln!("skipped: set SCRUBSIM_FULL_TEST=1");
        return;
    }
    let oracle = DriftOracle::new(&DeviceConfig::default());
    assert_rs_ue_agreement(&oracle, 16_384, "rs72-64-full");
}

// ---------------------------------------------------------------------------
// Profiled-scrub cold schedule: with an ample budget and every probe
// reporting clean, the profiled policy's probe stream is pure arithmetic
// (tour interleaving + seeded quiet-stretch stripes). An independent
// replay — splitmix64, origin, and phase derivations reimplemented here,
// not imported — must reproduce it slot-for-slot.
// ---------------------------------------------------------------------------

/// Independent SplitMix64 (the same published finalizer the policy
/// documents), deliberately *not* imported from scrub-core.
fn replay_splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Arithmetic replay of the cold-table profiled schedule: per-bank tour
/// interleaving from seeded origins, quiet lines due only on their
/// phase-striped tours. `phase_seed` is the seed used for the stripe
/// derivation (== `seed` for a faithful replay; anything else models a
/// silently perturbed scheduler).
fn replay_cold_schedule(
    lines: u32,
    banks: u32,
    stretch: u32,
    seed: u64,
    phase_seed: u64,
    slots: u64,
) -> Vec<Option<u32>> {
    let count = |b: u32| lines / banks + u32::from(b < lines % banks);
    let origins: Vec<u32> = (0..banks)
        .map(|b| {
            (replay_splitmix64(seed ^ 0x0070_5246 ^ u64::from(b)) % u64::from(count(b))) as u32
        })
        .collect();
    let mut out = Vec::with_capacity(slots as usize);
    let (mut pos, mut tours) = (0u32, 0u64);
    for _ in 0..slots {
        let b = pos % banks;
        let j = pos / banks;
        let addr = b + ((origins[b as usize] + j) % count(b)) * banks;
        let due = tours % u64::from(stretch);
        pos += 1;
        if pos == lines {
            pos = 0;
            tours += 1;
        }
        let phase =
            replay_splitmix64(phase_seed ^ 0x7052_4f46 ^ u64::from(addr)) % u64::from(stretch);
        out.push((stretch == 1 || phase == due).then_some(addr));
    }
    out
}

/// Drives a generously budgeted profiled policy through `slots`
/// all-clean slots and returns its probe stream.
fn drive_cold_profiled(
    lines: u32,
    banks: u32,
    stretch: u32,
    seed: u64,
    slots: u64,
) -> Vec<Option<u32>> {
    use scrubsim::memsim::AccessResult;
    use scrubsim::scrub::{ProfileParams, ScrubAction, ScrubContext, ScrubPolicy, TourBudget};

    let mem = Memory::new(
        MemGeometry::new(lines, banks),
        DeviceConfig::default(),
        CodeSpec::bch_line(6),
        5,
    );
    let mut policy = ScrubPolicy::profiled(
        600.0,
        lines,
        banks,
        3,
        // Ample budget: refill far outpaces one probe per slot, so the
        // token bucket never throttles and the schedule is pure.
        TourBudget {
            iops: 50.0,
            burst: 16.0,
            max_defer: 4,
        },
        ProfileParams {
            capacity: 16,
            hot_stride: 4,
            stretch,
            risk: 2,
        },
        seed,
    );
    let clean = AccessResult {
        outcome: ClassifyOutcome::Clean,
        persistent_bits: 0,
        new_ue: false,
    };
    (0..slots)
        .map(|s| {
            let ctx = ScrubContext {
                now: SimTime::from_secs(s as f64 * 2.5),
                mem: &mem,
            };
            match policy.next_action(&ctx) {
                ScrubAction::Probe(p) => {
                    // Clean feedback keeps the table cold: nothing is ever
                    // inserted, so the hot interleave stays a no-op.
                    assert!(!policy.wants_writeback(p, &clean, &ctx));
                    Some(p.0)
                }
                _ => None,
            }
        })
        .collect()
}

#[test]
fn profiled_cold_probe_schedule_matches_arithmetic_replay() {
    for (lines, banks, stretch, seed) in [
        (96u32, 8u32, 1u32, 0xA11CEu64),
        (96, 8, 2, 0xB0B),
        (97, 5, 3, 0xC0FFEE),
        (64, 1, 2, 7),
    ] {
        let slots = u64::from(lines * stretch) * 3 + 17;
        let sim = drive_cold_profiled(lines, banks, stretch, seed, slots);
        let replay = replay_cold_schedule(lines, banks, stretch, seed, seed, slots);
        assert_eq!(
            sim, replay,
            "cold profiled schedule diverged from arithmetic replay \
             (lines {lines}, banks {banks}, stretch {stretch}, seed {seed})"
        );
        let probes = sim.iter().flatten().count() as u64;
        // Each of the `3 * stretch` whole tours probes every line exactly
        // once per stretch cycle; the +17 tail adds a bounded remainder.
        assert!(
            probes >= u64::from(lines) * 3 && probes <= u64::from(lines) * 3 + 17,
            "cold probe count {probes} outside [{}, {}]",
            lines * 3,
            u64::from(lines) * 3 + 17
        );
    }
}

#[test]
fn tripwire_perturbed_stripe_seed_fails_schedule_replay() {
    let (lines, banks, stretch, seed) = (96u32, 8u32, 2u32, 0xB0Bu64);
    let slots = u64::from(lines * stretch) * 3 + 17;
    let sim = drive_cold_profiled(lines, banks, stretch, seed, slots);
    // A scheduler whose stripe derivation silently changed (here: a
    // different phase seed) must be caught by the slot-for-slot
    // comparison the agreement test runs.
    let perturbed = replay_cold_schedule(lines, banks, stretch, seed, seed ^ 1, slots);
    assert_ne!(
        sim, perturbed,
        "a perturbed stripe seed reproduced the cold schedule — the \
         replay has no teeth"
    );
}

// ---------------------------------------------------------------------------
// Tripwire: the suite must have teeth. A 5% perturbation of the drift
// constant (the kind of silent regression the suite exists to catch) must
// push predictions outside the acceptance bands.
// ---------------------------------------------------------------------------

#[test]
fn tripwire_perturbed_drift_constant_fails_agreement() {
    let dev = DeviceConfig::default();
    let perturbed = DriftOracle::with_drift_params(&dev, DriftParams::default().with_scale(1.05));
    let battery = misread_battery(quick_misread_points(), &perturbed);
    assert!(
        !battery.rejections().is_empty(),
        "a 5% drift-constant perturbation sailed through the misread \
         agreement test — the suite has no teeth:\n{}",
        battery.report()
    );

    // The UE acceptance bracket must also exclude the perturbed
    // prediction: same measurement, same statistical band, shifted oracle.
    let nominal = DriftOracle::new(&dev);
    let code = CodeSpec::bch_line(4);
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let run = ue_experiment(code.clone(), &nominal, 2048, 0xECC0 + 2048);
    let ci = wilson_interval(run.ue, run.lines, 0.01);
    let (q_lo, q_hi) = perturbed.mean_cell_error_bounds(run.age_s);
    let (ue_lo, ue_hi) = (
        ue_probability(&code, cells, q_lo),
        ue_probability(&code, cells, q_hi),
    );
    assert!(
        ci.hi < ue_lo || ue_hi < ci.lo,
        "perturbed UE bracket [{ue_lo:.4}, {ue_hi:.4}] still overlaps the \
         measured CI [{:.4}, {:.4}]",
        ci.lo,
        ci.hi
    );

    // Same teeth for the symbol-UE path: the RS measurement's CI must
    // exclude the perturbed oracle's bracket too.
    let code = rs_code();
    let cells = code.total_bits().div_ceil(dev.stack().bits_per_cell());
    let t = code.guaranteed_t();
    let run = rs_ue_experiment(&nominal, 2048, 0x5272 + 2048);
    let ci = wilson_interval(run.ue, run.lines, 0.01);
    let (q_lo, q_hi) = perturbed.mean_cell_error_bounds(run.age_s);
    let (ue_lo, ue_hi) = (
        symbol_ue_tail(RS_SYMBOLS, RS_SYMBOL_BITS, t, cells, q_lo),
        symbol_ue_tail(RS_SYMBOLS, RS_SYMBOL_BITS, t, cells, q_hi),
    );
    assert!(
        ci.hi < ue_lo || ue_hi < ci.lo,
        "perturbed symbol-UE bracket [{ue_lo:.4}, {ue_hi:.4}] still \
         overlaps the measured CI [{:.4}, {:.4}]",
        ci.lo,
        ci.hi
    );
}
