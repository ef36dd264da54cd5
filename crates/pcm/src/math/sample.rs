//! Random sampling primitives used throughout the simulator.
//!
//! All samplers take a caller-provided [`rand::Rng`] so every stochastic
//! component of the system is reproducible from a seed (the workspace-wide
//! determinism invariant).

use std::fmt;
use std::sync::OnceLock;

use rand::Rng;

/// Samples a standard normal deviate via the polar Box–Muller method.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = pcm_model::math::sample_std_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `N(mu, sigma²)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    mu + sigma * sample_std_normal(rng)
}

/// Samples a normal truncated to `[mu - half_width, mu + half_width]` by
/// rejection; models program-and-verify loops that retry until the cell
/// lands inside the verify band.
///
/// # Panics
///
/// Panics if `half_width <= 0` or acceptance would be hopeless
/// (`half_width < 0.05·sigma`).
pub fn sample_truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mu: f64,
    sigma: f64,
    half_width: f64,
) -> f64 {
    assert!(half_width > 0.0, "truncation half-width must be positive");
    assert!(
        half_width >= 0.05 * sigma,
        "truncation band too narrow for rejection sampling"
    );
    loop {
        let x = sample_normal(rng, mu, sigma);
        if (x - mu).abs() <= half_width {
            return x;
        }
    }
}

/// Samples a lognormal with median `exp(ln_median)` — i.e.
/// `ln X ~ N(ln_median, sigma_ln²)`.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, ln_median: f64, sigma_ln: f64) -> f64 {
    sample_normal(rng, ln_median, sigma_ln).exp()
}

/// Mean above which the mode-centred inversion beats the bottom-up walk.
const BINOMIAL_MODE_CUTOFF: f64 = 10.0;

/// Largest `n` the binomial samplers accept: the ln-factorial table's
/// size. Every `n` the simulator draws, at most a line's 2,040 cells, is
/// far below it. Past it the bottom-up walk's `qⁿ` underflows once `n·p`
/// exceeds about 745, and the walk would return `n` on every draw.
const LN_FACT_MAX_N: usize = 4096;

/// `ln(k!)` for `k ≤ LN_FACT_MAX_N`, built once on first use.
fn ln_fact_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(LN_FACT_MAX_N + 1);
        let mut acc = 0.0f64;
        t.push(0.0);
        for k in 1..=LN_FACT_MAX_N {
            acc += (k as f64).ln();
            t.push(acc);
        }
        t
    })
}

/// Samples `Binomial(n, p)` exactly, in expected `O(√(npq) + 1)` time.
///
/// Strategy: sequential inversion of the CDF from a single uniform.
/// Small means walk the CDF up from zero (expected `O(np + 1)` — the
/// common case for rare drift failures, where most uniforms fall below a
/// certified floor under `P(X = 0)` and return 0 after one compare,
/// before `qⁿ` is computed; see [`zero_floor`]); larger means walk
/// outward from the distribution's mode, visiting an expected `O(√(npq))`
/// terms. Both walks use the exact PMF ratio recurrence, so the sampled
/// law is the true binomial up to f64 rounding of the PMF terms (relative
/// error ≲ 1e-13; see the `matches_closed_form_pmf` test). Exactly one
/// uniform is consumed per sample, which also makes the draw count
/// deterministic.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, or if `n` exceeds 4,096 (the
/// ln-factorial table; see `LN_FACT_MAX_N`).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let k = pcm_model::math::sample_binomial(&mut rng, 100, 0.0);
/// assert_eq!(k, 0);
/// let k = pcm_model::math::sample_binomial(&mut rng, 100, 1.0);
/// assert_eq!(k, 100);
/// ```
// Always inlined, so the four lanes of `sample_binomial4` and the write
// path's draws test the zero floor without a call each.
#[inline(always)]
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "binomial p out of [0,1]: {p}");
    assert!(
        n as usize <= LN_FACT_MAX_N,
        "binomial n {n} exceeds {LN_FACT_MAX_N}"
    );
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work with the smaller tail so the walks stay short.
    let (ps, flip) = if p <= 0.5 {
        (p, false)
    } else {
        (1.0 - p, true)
    };
    let k = if n as f64 * ps < BINOMIAL_MODE_CUTOFF {
        binomial_inv_bottom(rng, n, ps)
    } else {
        binomial_inv_mode(rng, n, ps)
    };
    if flip {
        n - k
    } else {
        k
    }
}

/// `x^n` by binary exponentiation, bit-identical to compiler-rt's
/// `__powidf2` (same multiply order) but inlined into the sampling loop —
/// the libcall showed up at ~15% of E6's profile.
#[inline]
fn powi_u32(mut x: f64, mut n: u32) -> f64 {
    let mut r = 1.0;
    loop {
        if n & 1 == 1 {
            r *= x;
        }
        n /= 2;
        if n == 0 {
            break;
        }
        x *= x;
    }
    r
}

/// A floor under the computed `P(X = 0)` of `Binomial(n, p)`: for every
/// `n` and every `p` in `[0, 1]`, the value this returns never exceeds
/// `powi_u32(1.0 - p, n)`, so the bottom-up walk's first compare returns
/// 0 for every uniform below it.
///
/// Proof sketch, with `u = 2⁻⁵³` the unit roundoff and `ε = 2u`:
/// - Bernoulli's inequality gives `(1 − p)ⁿ ≥ 1 − np`.
/// - `q = fl(1 − p)` carries one rounding, and binary powering feeds at
///   most `n − 1` rounded products into the result, so the computed
///   power is the exact `(1 − p)ⁿ` times `2n − 1` factors `(1 ± u)`:
///   at least `(1 − np)(1 − (2n − 1)u) ≥ 1 − np − (2n − 1)u` while
///   `np < 1`.
/// - The floor itself rounds three times (`n·p`, `1 − ·` and the final
///   subtraction; `4(n + 1)ε` is exact), which lifts it at most
///   `2u + u²` above `1 − np − 4(n + 1)ε`. The slack
///   `4(n + 1)ε = 8(n + 1)u` exceeds `(2n + 1)u + u²` for every `n`.
/// - If `np ≥ 1` the floor is negative and no uniform falls below it.
///
/// Without the slack the floor can exceed the computed power, as at
/// `(n, p) = (14, 7.230198336980701e-10)`; a test keeps that tripwire.
#[inline]
fn zero_floor(n: u32, p: f64) -> f64 {
    let n = n as f64;
    1.0 - n * p - 4.0 * (n + 1.0) * f64::EPSILON
}

/// Bottom-up CDF inversion for small means: draw one uniform, return 0
/// if it falls below [`zero_floor`] (the common case), and otherwise
/// start at `P(X=0) = qⁿ` and walk up with the PMF ratio recurrence.
/// Expected `O(np + 1)` iterations.
#[inline(always)]
fn binomial_inv_bottom<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    debug_assert!(p > 0.0 && p <= 0.5);
    let q = 1.0 - p;
    let mut u: f64 = rng.gen();
    if q == 1.0 {
        // p below ~2^-53: `1 - p` rounded to 1. The success probability of
        // the whole experiment is n·p < 1e-13 — sample that single event
        // instead of walking a degenerate recurrence. Its outcome is 1 for
        // small `u`, so the floor does not apply.
        return u32::from(u < n as f64 * p);
    }
    if u < zero_floor(n, p) {
        return 0;
    }
    let mut pmf = powi_u32(q, n);
    let r = p / q;
    let mut k = 0u32;
    loop {
        // The `k >= n` clamp absorbs the ~1e-15 rounding residue a full
        // walk can leave past the last bucket.
        if u < pmf || k >= n {
            return k;
        }
        u -= pmf;
        k += 1;
        pmf *= r * (n - k + 1) as f64 / k as f64;
    }
}

/// Draws up to four independent binomials — one read's per-level error
/// draws — consuming uniforms lane by lane in index order: four
/// [`sample_binomial`] calls, inlined into one loop. Lanes with `n = 0`
/// or `p ≤ 0` consume nothing and yield 0, exactly as the scalar sampler
/// does.
///
/// # Panics
///
/// Panics as [`sample_binomial`] does if any lane's `p` is outside
/// `[0, 1]` or its `n` exceeds 4,096.
pub fn sample_binomial4<R: Rng + ?Sized>(rng: &mut R, ns: [u32; 4], ps: [f64; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for l in 0..4 {
        out[l] = sample_binomial(rng, ns[l], ps[l]);
    }
    out
}

/// Mode-centred CDF inversion: evaluate the PMF at the mode via the
/// ln-factorial table, then walk outward (m, m+1, m−1, m+2, …) until the
/// uniform's mass is located. Any fixed ordering of the support is a valid
/// inversion; this one visits an expected `O(√(npq))` terms.
fn binomial_inv_mode<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    let walk = ModeWalk::new(n, p, p.ln(), (1.0 - p).ln());
    let u: f64 = rng.gen();
    let pmf_m = walk.mode_pmf();
    if u < pmf_m {
        return walk.m;
    }
    walk.finish(u - pmf_m)
}

/// The mode walk's state: the outermost term reached on each side of the
/// mode `m`, with its PMF. [`binomial_inv_mode`] and the [`ModeTable`]
/// builder both step through this one type, so a table's stored terms are
/// the walk's own terms, bit for bit.
#[derive(Debug, Clone, Copy)]
struct ModeWalk {
    n: u32,
    m: u32,
    /// The PMF ratio `p / q`.
    r: f64,
    up_k: u32,
    up_pmf: f64,
    dn_k: u32,
    dn_pmf: f64,
}

impl ModeWalk {
    /// The walk at its start: both sides at the mode.
    fn new(n: u32, p: f64, ln_p: f64, ln_q: f64) -> Self {
        debug_assert!(p > 0.0 && p <= 0.5);
        let lf = ln_fact_table();
        let m = (((n + 1) as f64) * p).floor().min(n as f64) as u32;
        let ln_pmf_m = lf[n as usize] - lf[m as usize] - lf[(n - m) as usize]
            + m as f64 * ln_p
            + (n - m) as f64 * ln_q;
        let pmf_m = ln_pmf_m.exp();
        Self {
            n,
            m,
            r: p / (1.0 - p),
            up_k: m,
            up_pmf: pmf_m,
            dn_k: m,
            dn_pmf: pmf_m,
        }
    }

    /// `P(X = m)`, the walk's first term (valid before any step).
    fn mode_pmf(&self) -> f64 {
        self.up_pmf
    }

    /// Extends the up side by one term and returns its PMF.
    fn step_up(&mut self) -> f64 {
        self.up_pmf *= self.r * (self.n - self.up_k) as f64 / (self.up_k + 1) as f64;
        self.up_k += 1;
        self.up_pmf
    }

    /// Extends the down side by one term and returns its PMF.
    fn step_down(&mut self) -> f64 {
        self.dn_pmf *= self.dn_k as f64 / (self.r * (self.n - self.dn_k + 1) as f64);
        self.dn_k -= 1;
        self.dn_pmf
    }

    /// Locates `u`, the uniform's mass left after the terms already
    /// visited, by alternating up and down steps (skipping a side once it
    /// is exhausted) from the current state.
    fn finish(mut self, mut u: f64) -> u32 {
        loop {
            let mut progressed = false;
            if self.up_k < self.n {
                let pmf = self.step_up();
                if u < pmf {
                    return self.up_k;
                }
                u -= pmf;
                progressed = true;
            }
            if self.dn_k > 0 {
                let pmf = self.step_down();
                if u < pmf {
                    return self.dn_k;
                }
                u -= pmf;
                progressed = true;
            }
            if !progressed {
                // Support exhausted with a rounding residue left: return the
                // mode (any in-support value is within the rounding tolerance).
                return self.m;
            }
        }
    }
}

/// Walk terms a [`ModeTable`] stores: the mode and 16 up/down pairs,
/// over two standard deviations either side for the 288-cell re-roll.
const MODE_TABLE_TERMS: usize = 33;

/// Trial counts per chunk of a category's table slots. Chunks are
/// allocated on the first draw in their range, so a category holds slots
/// only near the few `n` it samples; one slot per `n` up to 1,024
/// measured about 1% more peak RSS on the benchmark's 4 MB runs.
const MODE_TABLE_CHUNK: usize = 64;

/// `chunk[i]` holds the table for `n = c · MODE_TABLE_CHUNK + i`, where
/// `c` is the chunk's index.
type ModeTableChunk = [OnceLock<Box<ModeTable>>; MODE_TABLE_CHUNK];

/// The first terms of one `(n, p)` mode walk in visit order — `P(m)`,
/// then `P(m+1), P(m−1), P(m+2), …` in up/down pairs while both sides
/// have support — and the walk's state after them. Locating a uniform
/// subtracts the stored terms exactly as the walk does, so it returns the
/// walk's outcome without the walk's divisions; past the last term it
/// resumes the walk's recurrence from the stored state.
#[derive(Debug, Clone)]
struct ModeTable {
    terms: [f64; MODE_TABLE_TERMS],
    len: usize,
    rest: ModeWalk,
}

impl ModeTable {
    fn new(n: u32, p: f64, ln_p: f64, ln_q: f64) -> Self {
        let mut rest = ModeWalk::new(n, p, ln_p, ln_q);
        let mut terms = [0.0; MODE_TABLE_TERMS];
        terms[0] = rest.mode_pmf();
        let mut len = 1;
        // Whole pairs only, so the resumed walk starts on an up step just
        // as the walk's own loop does.
        while len < MODE_TABLE_TERMS && rest.up_k < n && rest.dn_k > 0 {
            terms[len] = rest.step_up();
            terms[len + 1] = rest.step_down();
            len += 2;
        }
        Self { terms, len, rest }
    }

    /// The walk's outcome for the uniform `u`.
    fn locate(&self, mut u: f64) -> u32 {
        let m = self.rest.m;
        for (i, &pmf) in self.terms[..self.len].iter().enumerate() {
            if u < pmf {
                // Term `2j − 1` is `m + j`, term `2j` is `m − j`.
                let j = (i as u32).div_ceil(2);
                return if i % 2 == 1 { m + j } else { m - j };
            }
            u -= pmf;
        }
        self.rest.finish(u)
    }
}

/// Samples a multinomial allocation of `n` trials over `probs` categories by
/// sequential conditional binomials. `probs` must sum to ≈1.
///
/// # Panics
///
/// Panics if `probs` is empty, contains negatives, or sums far from 1, or
/// if `n` exceeds 4,096 (the limit of [`sample_binomial`]).
pub fn sample_multinomial<R: Rng + ?Sized>(rng: &mut R, n: u32, probs: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; probs.len()];
    sample_multinomial_into(rng, n, probs, &mut out);
    out
}

/// [`sample_multinomial`] writing into a caller-provided buffer, for hot
/// paths that cannot afford a per-call allocation (`out.len()` must equal
/// `probs.len()`).
///
/// # Panics
///
/// Panics on the same invalid `probs` or `n` as [`sample_multinomial`], or
/// if the buffer length does not match.
pub fn sample_multinomial_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: u32,
    probs: &[f64],
    out: &mut [u32],
) {
    assert!(!probs.is_empty(), "multinomial needs at least one category");
    assert_eq!(out.len(), probs.len(), "multinomial buffer length mismatch");
    let total: f64 = probs.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "multinomial probabilities sum to {total}, want 1"
    );
    assert!(
        probs.iter().all(|&p| p >= 0.0),
        "multinomial probabilities must be nonnegative"
    );
    assert!(
        n as usize <= LN_FACT_MAX_N,
        "multinomial n {n} exceeds {LN_FACT_MAX_N}"
    );
    let mut remaining_n = n;
    let mut remaining_p = 1.0f64;
    for (i, &p) in probs.iter().enumerate() {
        if i == probs.len() - 1 {
            out[i] = remaining_n;
            break;
        }
        let cond = if remaining_p <= 0.0 {
            0.0
        } else {
            (p / remaining_p).clamp(0.0, 1.0)
        };
        let k = sample_binomial(rng, remaining_n, cond);
        out[i] = k;
        remaining_n -= k;
        remaining_p -= p;
    }
}

/// One category of a [`PrecomputedMultinomial`]: the conditional binomial
/// probability in the orientation [`sample_binomial`] would pick, with its
/// logarithms taken once at construction and its mode walks tabulated on
/// first use.
#[derive(Clone)]
struct PrecomputedCategory {
    /// Conditional success probability `p_i / (p_i + p_{i+1} + …)`.
    cond: f64,
    /// `min(cond, 1 − cond)` — the smaller tail the walks operate on.
    ps: f64,
    /// Whether `cond > 0.5` (sampled count must be reflected).
    flip: bool,
    ln_ps: f64,
    ln_qs: f64,
    /// Chunks of table slots: the mode walk's table for `n` trials sits
    /// in chunk `n / MODE_TABLE_CHUNK`, built on the first mode-path draw
    /// at that `n`. Empty when `cond` is 0 or 1.
    tables: Box<[OnceLock<Box<ModeTableChunk>>]>,
}

/// A multinomial distribution with its sequential-conditional decomposition
/// precomputed. Sampling draws the identical uniforms and returns the
/// identical counts as [`sample_multinomial_into`] over the same `probs`.
/// The per-category divisions, clamps and mode-path logarithms are taken
/// once at construction. On the first mode-path draw of each
/// `(category, n)`, the category stores that walk's first 33 terms and
/// its state after them, so later draws subtract
/// stored terms instead of stepping the PMF recurrence, and resume the
/// recurrence only past the stored terms. The tables sit behind
/// `OnceLock`s, so one distribution can be shared by every bank worker of
/// a parallel sweep. The fault engine's cell-occupancy re-roll, the
/// hottest multinomial in the simulator, shares one per level count
/// process-wide.
#[derive(Clone)]
pub struct PrecomputedMultinomial {
    categories: Vec<PrecomputedCategory>,
}

impl fmt::Debug for PrecomputedMultinomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let conds: Vec<f64> = self.categories.iter().map(|c| c.cond).collect();
        f.debug_struct("PrecomputedMultinomial")
            .field("conditionals", &conds)
            .finish_non_exhaustive()
    }
}

impl PrecomputedMultinomial {
    /// Validates `probs` exactly as [`sample_multinomial_into`] does and
    /// precomputes each conditional with the same arithmetic (so the f64
    /// conditionals — and therefore every downstream draw — are
    /// bit-identical).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `probs` as [`sample_multinomial`].
    pub fn new(probs: &[f64]) -> Self {
        assert!(!probs.is_empty(), "multinomial needs at least one category");
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "multinomial probabilities sum to {total}, want 1"
        );
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "multinomial probabilities must be nonnegative"
        );
        let mut categories = Vec::with_capacity(probs.len() - 1);
        let mut remaining_p = 1.0f64;
        for &p in &probs[..probs.len() - 1] {
            let cond = if remaining_p <= 0.0 {
                0.0
            } else {
                (p / remaining_p).clamp(0.0, 1.0)
            };
            let (ps, flip) = if cond <= 0.5 {
                (cond, false)
            } else {
                (1.0 - cond, true)
            };
            let chunks = if cond > 0.0 && cond < 1.0 {
                LN_FACT_MAX_N / MODE_TABLE_CHUNK + 1
            } else {
                0
            };
            categories.push(PrecomputedCategory {
                cond,
                ps,
                flip,
                ln_ps: ps.ln(),
                ln_qs: (1.0 - ps).ln(),
                tables: (0..chunks).map(|_| OnceLock::new()).collect(),
            });
            remaining_p -= p;
        }
        Self { categories }
    }

    /// Number of categories (length `sample_into` expects of its buffer).
    pub fn len(&self) -> usize {
        self.categories.len() + 1
    }

    /// Always `false`: a distribution has at least one category (the
    /// constructor rejects empty `probs`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples an allocation of `n` trials into `out`, identically to
    /// [`sample_multinomial_into`] with the constructor's `probs`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`, or if `n` exceeds 4,096 (the
    /// limit of [`sample_binomial`]).
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, n: u32, out: &mut [u32]) {
        assert_eq!(out.len(), self.len(), "multinomial buffer length mismatch");
        assert!(
            n as usize <= LN_FACT_MAX_N,
            "multinomial n {n} exceeds {LN_FACT_MAX_N}"
        );
        let mut remaining_n = n;
        for (slot, cat) in out.iter_mut().zip(&self.categories) {
            let k = cat.sample(rng, remaining_n);
            *slot = k;
            remaining_n -= k;
        }
        out[self.categories.len()] = remaining_n;
    }
}

impl PrecomputedCategory {
    /// `sample_binomial(rng, n, self.cond)`, with the orientation and logs
    /// reused rather than recomputed, and the mode walk read from its
    /// table.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: u32) -> u32 {
        if n == 0 || self.cond <= 0.0 {
            return 0;
        }
        if self.cond >= 1.0 {
            return n;
        }
        let k = if n as f64 * self.ps < BINOMIAL_MODE_CUTOFF {
            binomial_inv_bottom(rng, n, self.ps)
        } else {
            self.table(n).locate(rng.gen())
        };
        if self.flip {
            n - k
        } else {
            k
        }
    }

    /// The mode walk's table for `n` trials, built on first use.
    fn table(&self, n: u32) -> &ModeTable {
        let chunk = self.tables[n as usize / MODE_TABLE_CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        chunk[n as usize % MODE_TABLE_CHUNK]
            .get_or_init(|| Box::new(ModeTable::new(n, self.ps, self.ln_ps, self.ln_qs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(42);
        let (n, p, reps) = (200u32, 0.07, 20_000);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..reps {
            let k = sample_binomial(&mut rng, n, p) as f64;
            sum += k;
            sumsq += k * k;
        }
        let mean = sum / reps as f64;
        let var = sumsq / reps as f64 - mean * mean;
        let want_mean = n as f64 * p;
        let want_var = n as f64 * p * (1.0 - p);
        assert!(
            (mean - want_mean).abs() < 0.15,
            "mean {mean} want {want_mean}"
        );
        assert!((var - want_var).abs() < 0.6, "var {var} want {want_var}");
    }

    #[test]
    fn binomial_high_p_symmetry() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut sum = 0u64;
        for _ in 0..10_000 {
            sum += sample_binomial(&mut rng, 50, 0.9) as u64;
        }
        let mean = sum as f64 / 10_000.0;
        assert!((mean - 45.0).abs() < 0.2, "mean {mean}");
    }

    /// Past the ln-factorial table the bottom walk's `qⁿ` underflows
    /// (at `n·p` above about 745 it returned `n` on every draw), so both
    /// entry points reject such `n` rather than sample it.
    #[test]
    #[should_panic(expected = "binomial n 4097 exceeds 4096")]
    fn binomial_rejects_n_past_the_table() {
        sample_binomial(&mut StdRng::seed_from_u64(1), 4_097, 0.01);
    }

    #[test]
    #[should_panic(expected = "multinomial n 4097 exceeds 4096")]
    fn multinomial_rejects_n_past_the_table() {
        let mut out = [0u32; 4];
        PrecomputedMultinomial::new(&[0.25; 4]).sample_into(
            &mut StdRng::seed_from_u64(1),
            4_097,
            &mut out,
        );
    }

    #[test]
    fn binomial_subnormal_p_returns_zero() {
        // Regression: p so small that ln(1-p) == 0 used to return n.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(sample_binomial(&mut rng, 288, 1e-323), 0);
            assert_eq!(sample_binomial(&mut rng, 288, 1e-17), 0);
        }
    }

    /// Closed-form binomial PMF via the ln-factorial table (independent of
    /// the sampling recurrences under test).
    fn pmf(n: u32, p: f64, k: u32) -> f64 {
        let lf = ln_fact_table();
        (lf[n as usize] - lf[k as usize] - lf[(n - k) as usize]
            + k as f64 * p.ln()
            + (n - k) as f64 * (1.0 - p).ln())
        .exp()
    }

    /// Both inversion paths must realize the true binomial law: empirical
    /// frequencies of every outcome near the mode match the closed-form
    /// PMF within Monte-Carlo tolerance.
    #[test]
    fn matches_closed_form_pmf() {
        // (n, p) pairs straddling the mode-inversion cutoff, including the
        // fault engine's occupancy re-roll shape (288, 0.25).
        for &(n, p) in &[(288u32, 0.25f64), (288, 0.02), (40, 0.4), (576, 0.6)] {
            let mut rng = StdRng::seed_from_u64(1000 + n as u64);
            let reps = 40_000usize;
            let mut counts = vec![0u32; n as usize + 1];
            for _ in 0..reps {
                counts[sample_binomial(&mut rng, n, p) as usize] += 1;
            }
            for k in 0..=n {
                let want = pmf(n, p.min(0.999_999), k);
                if want < 5.0 / reps as f64 {
                    continue; // too rare to test empirically
                }
                let got = counts[k as usize] as f64 / reps as f64;
                let sigma = (want * (1.0 - want) / reps as f64).sqrt();
                assert!(
                    (got - want).abs() < 5.0 * sigma + 1e-4,
                    "n={n} p={p} k={k}: got {got:.5} want {want:.5}"
                );
            }
        }
    }

    #[test]
    fn one_uniform_per_sample() {
        // The inversion samplers consume exactly one RNG draw per call, so
        // two identically seeded streams stay aligned regardless of the
        // outcomes drawn between checks.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for &(n, p) in &[(288u32, 0.25f64), (288, 1e-6), (100, 0.5), (10, 0.9)] {
            sample_binomial(&mut a, n, p);
            let _: f64 = b.gen();
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "n={n} p={p}");
        }
    }

    #[test]
    fn binomial_bounds() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..1000 {
            let k = sample_binomial(&mut rng, 17, 0.3);
            assert!(k <= 17);
        }
    }

    #[test]
    fn multinomial_totals_and_means() {
        let mut rng = StdRng::seed_from_u64(45);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut sums = [0u64; 4];
        for _ in 0..5_000 {
            let ks = sample_multinomial(&mut rng, 100, &probs);
            assert_eq!(ks.iter().sum::<u32>(), 100);
            for (s, k) in sums.iter_mut().zip(&ks) {
                *s += *k as u64;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            let mean = *s as f64 / 5_000.0;
            let want = 100.0 * probs[i];
            assert!(
                (mean - want).abs() < 0.5,
                "cat {i}: mean {mean} want {want}"
            );
        }
    }

    #[test]
    fn binomial4_matches_sequential_scalar_calls() {
        // The batched sampler must be draw-identical to four sequential
        // scalar calls: same outcomes AND the same RNG stream position
        // afterwards, across every lane-classification mix (inactive,
        // bottom-path, mode-path, degenerate-q, p>0.5 flips).
        let cases: &[([u32; 4], [f64; 4])] = &[
            ([288, 288, 288, 288], [0.001, 0.02, 0.25, 0.9]),
            ([0, 288, 0, 5], [0.0, 1e-6, 0.3, 0.5]),
            ([288, 288, 288, 288], [1e-323, 1e-17, 0.999999, 1.0]),
            ([10, 4096, 40, 0], [0.5, 0.4, 0.997, 0.25]),
            ([1, 2, 3, 4], [0.9999, 0.0001, 0.7, 0.3]),
        ];
        for (i, &(ns, ps)) in cases.iter().enumerate() {
            let mut a = StdRng::seed_from_u64(9000 + i as u64);
            let mut b = StdRng::seed_from_u64(9000 + i as u64);
            let batched = sample_binomial4(&mut a, ns, ps);
            let mut scalar = [0u32; 4];
            for l in 0..4 {
                scalar[l] = sample_binomial(&mut b, ns[l], ps[l]);
            }
            assert_eq!(batched, scalar, "case {i}: outcomes diverge");
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {i}: stream skew");
        }
    }

    #[test]
    fn precomputed_multinomial_matches_ad_hoc() {
        // Cached conditionals + logs must reproduce sample_multinomial_into
        // bit-for-bit, including the RNG stream position.
        let prob_sets: &[&[f64]] = &[
            &[0.25, 0.25, 0.25, 0.25],
            &[0.1, 0.2, 0.3, 0.4],
            &[0.7, 0.2, 0.1],
            &[1.0],
            &[0.0, 0.5, 0.5],
        ];
        for (i, probs) in prob_sets.iter().enumerate() {
            let pre = PrecomputedMultinomial::new(probs);
            assert_eq!(pre.len(), probs.len());
            let mut a = StdRng::seed_from_u64(7000 + i as u64);
            let mut b = StdRng::seed_from_u64(7000 + i as u64);
            let mut got = vec![0u32; probs.len()];
            let mut want = vec![0u32; probs.len()];
            for n in [0u32, 1, 7, 288, 2000] {
                pre.sample_into(&mut a, n, &mut got);
                sample_multinomial_into(&mut b, n, probs, &mut want);
                assert_eq!(got, want, "probs {probs:?} n={n}");
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {i}: stream skew");
        }
    }

    /// Serves scripted uniforms: each `gen::<f64>()` returns the next
    /// of `us` (multiples of 2⁻⁵³ in `[0, 1)`), then a seeded stream.
    /// Counts every draw, so two samplers' stream positions compare.
    struct Scripted {
        us: Vec<f64>,
        draws: usize,
        rest: StdRng,
    }

    impl Scripted {
        fn new(us: &[f64]) -> Self {
            Self {
                us: us.to_vec(),
                draws: 0,
                rest: StdRng::seed_from_u64(5),
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            match self.us.get(self.draws - 1) {
                Some(&u) => ((u * (1u64 << 53) as f64) as u64) << 11,
                None => self.rest.next_u64(),
            }
        }
    }

    /// The mode walk as it was before tables existed, kept verbatim: the
    /// reference the shared walk and the tables must both match.
    fn model_inv_mode<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64, ln_p: f64, ln_q: f64) -> u32 {
        let q = 1.0 - p;
        let lf = ln_fact_table();
        let m = (((n + 1) as f64) * p).floor().min(n as f64) as u32;
        let ln_pmf_m = lf[n as usize] - lf[m as usize] - lf[(n - m) as usize]
            + m as f64 * ln_p
            + (n - m) as f64 * ln_q;
        let pmf_m = ln_pmf_m.exp();
        let mut u: f64 = rng.gen();
        if u < pmf_m {
            return m;
        }
        u -= pmf_m;
        let r = p / q;
        let (mut up_k, mut up_pmf) = (m, pmf_m);
        let (mut dn_k, mut dn_pmf) = (m, pmf_m);
        loop {
            let mut progressed = false;
            if up_k < n {
                up_pmf *= r * (n - up_k) as f64 / (up_k + 1) as f64;
                up_k += 1;
                if u < up_pmf {
                    return up_k;
                }
                u -= up_pmf;
                progressed = true;
            }
            if dn_k > 0 {
                dn_pmf *= dn_k as f64 / (r * (n - dn_k + 1) as f64);
                dn_k -= 1;
                if u < dn_pmf {
                    return dn_k;
                }
                u -= dn_pmf;
                progressed = true;
            }
            if !progressed {
                return m;
            }
        }
    }

    /// A category draw as it was before tables existed.
    fn model_sample<R: Rng + ?Sized>(cat: &PrecomputedCategory, rng: &mut R, n: u32) -> u32 {
        if n == 0 || cat.cond <= 0.0 {
            return 0;
        }
        if cat.cond >= 1.0 {
            return n;
        }
        let k = if n as f64 * cat.ps < BINOMIAL_MODE_CUTOFF {
            binomial_inv_bottom(rng, n, cat.ps)
        } else {
            model_inv_mode(rng, n, cat.ps, cat.ln_ps, cat.ln_qs)
        };
        if cat.flip {
            n - k
        } else {
            k
        }
    }

    /// The largest multiple of 2⁻⁵³ at or below `x`, clamped to `[0, 1)`.
    fn uniform_at(x: f64) -> f64 {
        let scale = (1u64 << 53) as f64;
        ((x * scale).floor().clamp(0.0, scale - 1.0)) / scale
    }

    /// Uniforms aimed at the draw of `n` trials: 0; the largest uniform,
    /// 1 − 2⁻⁵³, which walks the whole support into the exhausted-support
    /// residue; the boundary just past each of the first 33 walk terms
    /// and one ulp below it; uniforms beyond the stored terms; and a
    /// seeded spread.
    fn probe_uniforms(cat: &PrecomputedCategory, n: u32) -> Vec<f64> {
        let mut us = vec![0.0, uniform_at(1.0), 0.5, 0.9, 0.99, 0.999, 0.999_999];
        if n >= 1 && n as f64 * cat.ps >= BINOMIAL_MODE_CUTOFF {
            let table = ModeTable::new(n, cat.ps, cat.ln_ps, cat.ln_qs);
            let mut mass = 0.0;
            for &pmf in &table.terms[..table.len] {
                mass += pmf;
                let u = uniform_at(mass);
                us.extend([u, uniform_at(u - f64::EPSILON / 2.0)]);
            }
            us.extend([uniform_at(mass + 1e-9), uniform_at((1.0 + mass) / 2.0)]);
        }
        let mut rng = StdRng::seed_from_u64(u64::from(n));
        us.extend((0..16).map(|_| rng.gen::<f64>()));
        us
    }

    /// Draws every probe uniform through `sample` and through the model
    /// at every `n` in `0..=1,124` (past the mode-path cutoff and across
    /// several slot chunks), at 2,032 (an SLC line under RS(254,64)) and at
    /// 4,095 and 4,096 (the last `n` the samplers accept), and describes
    /// the first disagreement in outcome or in uniforms consumed.
    fn first_divergence(
        cat: &PrecomputedCategory,
        sample: impl Fn(&mut Scripted, u32) -> u32,
    ) -> Option<String> {
        for n in (0..=1_124).chain([2_032, 4_095, 4_096]) {
            for u in probe_uniforms(cat, n) {
                let (mut a, mut b) = (Scripted::new(&[u]), Scripted::new(&[u]));
                let (got, want) = (sample(&mut a, n), model_sample(cat, &mut b, n));
                if (got, a.draws) != (want, b.draws) {
                    return Some(format!(
                        "p={} n={n} u={u:e}: got {got} after {} draws, model {want} after {}",
                        cat.ps, a.draws, b.draws
                    ));
                }
            }
        }
        None
    }

    /// The conditionals of uniform occupancy over four levels: 1/4, 1/3
    /// and 1/2 as the fault engine computes them (two levels give 1/2).
    fn occupancy_categories() -> Vec<PrecomputedCategory> {
        PrecomputedMultinomial::new(&[0.25; 4]).categories
    }

    #[test]
    fn mode_tables_match_the_walk_they_replace() {
        for cat in occupancy_categories() {
            assert_eq!(first_divergence(&cat, |rng, n| cat.sample(rng, n)), None);
            // The shared walk alone, as `sample_binomial` draws it.
            assert_eq!(
                first_divergence(&cat, |rng, n| {
                    if n == 0 || (n as f64) * cat.ps < BINOMIAL_MODE_CUTOFF {
                        cat.sample(rng, n)
                    } else {
                        binomial_inv_mode(rng, n, cat.ps)
                    }
                }),
                None
            );
        }
    }

    /// Tripwire: a table that stores each pair's down-side term before
    /// its up-side term diverges from the walk.
    #[test]
    fn differential_harness_catches_a_down_first_table() {
        let caught = occupancy_categories()
            .iter()
            .filter(|cat| {
                first_divergence(cat, |rng, n| {
                    if n == 0 || (n as f64) * cat.ps < BINOMIAL_MODE_CUTOFF {
                        return cat.sample(rng, n);
                    }
                    let mut table = ModeTable::new(n, cat.ps, cat.ln_ps, cat.ln_qs);
                    for pair in table.terms[1..table.len].chunks_mut(2) {
                        pair.swap(0, 1);
                    }
                    table.locate(rng.gen())
                })
                .is_some()
            })
            .count();
        assert!(caught > 0, "no uniform exposed the down-first order");
    }

    /// The bottom-up walk as it was before the zero floor, the reference
    /// the floored lane must match: `qⁿ` first, then the walk from the
    /// uniform.
    fn model_inv_bottom<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
        let q = 1.0 - p;
        if q == 1.0 {
            return u32::from(rng.gen::<f64>() < n as f64 * p);
        }
        model_walk(rng.gen(), n, p, powi_u32(q, n))
    }

    /// The walk of [`model_inv_bottom`] from the uniform `u`, starting at
    /// `P(X = 0) = pmf0`.
    fn model_walk(mut u: f64, n: u32, p: f64, pmf0: f64) -> u32 {
        let r = p / (1.0 - p);
        let mut pmf = pmf0;
        let mut k = 0u32;
        loop {
            if u < pmf || k >= n {
                return k;
            }
            u -= pmf;
            k += 1;
            pmf *= r * (n - k + 1) as f64 / k as f64;
        }
    }

    /// Every `n` in `1..=600` against a log grid of `p` from 2⁻⁵³ to 0.5
    /// (four points an octave) and the slack tripwire's rate, keeping the
    /// pairs with `n·p < 10` that the bottom walk serves.
    fn bottom_pairs() -> Vec<(u32, f64)> {
        let ps: Vec<f64> = (0..=208)
            .map(|i| (f64::from(i) / 4.0 - 53.0).exp2())
            .chain([7.230198336980701e-10])
            .collect();
        (1..=600u32)
            .flat_map(|n| ps.iter().map(move |&p| (n, p)))
            .filter(|&(n, p)| n as f64 * p < BINOMIAL_MODE_CUTOFF)
            .collect()
    }

    /// Draws, through `lane` and through the reference walk, the uniforms
    /// that bracket the computed `qⁿ` of each pair: 0, the largest
    /// 2⁻⁵³-grid value below `qⁿ`, the smallest at or above it, and
    /// 1 − 2⁻⁵³. Describes the first disagreement in outcome or in
    /// uniforms consumed.
    fn floor_divergence(
        pairs: &[(u32, f64)],
        lane: impl Fn(&mut Scripted, u32, f64) -> u32,
    ) -> Option<String> {
        let scale = (1u64 << 53) as f64;
        for &(n, p) in pairs {
            let above = (powi_u32(1.0 - p, n) * scale).ceil();
            for u in [0.0, above - 1.0, above.min(scale - 1.0), scale - 1.0] {
                let u = u / scale;
                let (mut a, mut b) = (Scripted::new(&[u]), Scripted::new(&[u]));
                let (got, want) = (lane(&mut a, n, p), model_inv_bottom(&mut b, n, p));
                if (got, a.draws) != (want, b.draws) {
                    return Some(format!(
                        "n={n} p={p:e} u={u:e}: got {got} after {} draws, model {want} after {}",
                        a.draws, b.draws
                    ));
                }
            }
        }
        None
    }

    #[test]
    fn zero_floor_keeps_the_walk_it_shortcuts() {
        assert_eq!(floor_divergence(&bottom_pairs(), binomial_inv_bottom), None);
        // The floor never exceeds the computed power, over a million
        // seeded pairs with `n ≤ 2²⁰`, half of them at rates of at most
        // 2⁻²⁰ where `n·p < 1` is common.
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..1_000_000u32 {
            let n = rng.gen_range(1..=1u32 << 20);
            let top = if i % 2 == 0 { 33.0 } else { 52.0 };
            let p = (rng.gen::<f64>() * top - 53.0).exp2();
            assert!(zero_floor(n, p) <= powi_u32(1.0 - p, n), "n={n} p={p:e}");
        }
    }

    /// Tripwire: without its slack the floor exceeds the computed `q¹⁴`
    /// at `p = 7.230198336980701e-10` (`1 − n·p = 0.9999999898777223`
    /// against `0.9999999898777219`), and a uniform between the two
    /// draws 0 where the walk draws 1.
    #[test]
    fn floor_harness_catches_a_floor_without_slack() {
        let slack_free = |rng: &mut Scripted, n: u32, p: f64| {
            let u: f64 = rng.gen();
            if u < 1.0 - n as f64 * p {
                0
            } else {
                model_walk(u, n, p, powi_u32(1.0 - p, n))
            }
        };
        let at = [(14, 7.230198336980701e-10)];
        let found = floor_divergence(&at, slack_free).expect("the harness must catch it");
        assert!(
            found.contains("got 0") && found.contains("model 1"),
            "{found}"
        );
    }

    #[test]
    fn truncated_normal_respects_band() {
        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..2000 {
            let x = sample_truncated_normal(&mut rng, 5.0, 0.2, 0.3);
            assert!((x - 5.0).abs() <= 0.3);
        }
    }

    #[test]
    fn lognormal_median() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut vals: Vec<f64> = (0..9_999)
            .map(|_| sample_lognormal(&mut rng, (0.04f64).ln(), 0.4))
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = vals[vals.len() / 2];
        assert!((median - 0.04).abs() / 0.04 < 0.05, "median {median}");
    }
}
