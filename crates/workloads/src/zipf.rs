//! Zipfian rank sampling via an exact precomputed CDF and a guide table.

use rand::Rng;

/// Samples ranks `0..n` with probability `∝ 1/(rank+1)^theta`.
///
/// Built once per workload (O(n) tables). A sample inverts the CDF
/// exactly, with no rejection-envelope approximations: a guide table
/// narrows the uniform `u` to the ranks whose CDF lies in `u`'s bucket of
/// width `1/G`, and a binary search finishes inside that bucket, which
/// holds O(1) ranks on average instead of all `n`.
///
/// # Examples
///
/// ```
/// use pcm_workloads::Zipf;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = Zipf::new(1000, 0.99);
/// let r = z.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the number of ranks whose CDF is below `j/G`, for
    /// `j` in `0..=G` with `G = n.next_power_of_two()`.
    guide: Vec<u32>,
    theta: f64,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in u32");
        assert!(theta >= 0.0, "zipf exponent must be nonnegative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // G is a power of two, so every bucket edge j/G is exact.
        let g = n.next_power_of_two();
        let mut guide = Vec::with_capacity(g + 1);
        let mut below = 0;
        for j in 0..=g {
            let edge = j as f64 / g as f64;
            while below < n && cdf[below] < edge {
                below += 1;
            }
            guide.push(below as u32);
        }
        Self { cdf, guide, theta }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank (0 = hottest): the number of ranks whose CDF is below
    /// one uniform `u`, capped at the last rank.
    ///
    /// `u·G` is exact because `G` is a power of two, so `j = ⌊u·G⌋`
    /// satisfies `j/G ≤ u < (j+1)/G`: every rank counted by `guide[j]` has
    /// a CDF below `u`, none past `guide[j+1]` does, and searching the
    /// ranks between them gives the same count as searching the whole CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let j = (u * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let rank = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1)
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank < self.cdf.len(), "rank out of range");
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(500, 0.99);
        let s: f64 = (0..500).map(|r| z.pmf(r)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.2);
        for r in 1..100 {
            assert!(z.pmf(0) > z.pmf(r));
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(50, 0.9);
        let mut rng = StdRng::seed_from_u64(71);
        let mut counts = [0u32; 50];
        let reps = 100_000;
        for _ in 0..reps {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 20] {
            let emp = counts[r] as f64 / reps as f64;
            let want = z.pmf(r);
            assert!(
                (emp - want).abs() < 0.01 + 0.1 * want,
                "rank {r}: emp {emp} want {want}"
            );
        }
    }

    /// Serves scripted uniforms: each `gen::<f64>()` returns the next
    /// of `us` (multiples of 2⁻⁵³ in `[0, 1)`), counting the draws.
    struct Scripted {
        us: Vec<f64>,
        draws: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let u = self.us[self.draws];
            self.draws += 1;
            ((u * (1u64 << 53) as f64) as u64) << 11
        }
    }

    /// One unit of the uniform grid, 2⁻⁵³.
    const ULP: f64 = 1.0 / (1u64 << 53) as f64;

    /// Uniforms aimed at `z`'s guide: every bucket edge `j/G` and one
    /// grid step below it, every CDF value and one step below it, and a
    /// seeded spread.
    fn probe_uniforms(z: &Zipf) -> Vec<f64> {
        let g = (z.guide.len() - 1) as f64;
        let mut us = Vec::new();
        for edge in (0..z.guide.len() - 1)
            .map(|j| j as f64 / g)
            .chain(z.cdf.iter().copied())
        {
            let u = ((edge / ULP).floor() * ULP).min(1.0 - ULP);
            us.extend([u, (u - ULP).max(0.0)]);
        }
        let mut rng = StdRng::seed_from_u64(z.n() as u64);
        us.extend((0..4096).map(|_| rng.gen::<f64>()));
        us
    }

    /// Draws every probe uniform through `z.sample` and through a search
    /// of the whole CDF, and describes the first disagreement.
    fn first_divergence(z: &Zipf) -> Option<String> {
        let us = probe_uniforms(z);
        let mut rng = Scripted {
            us: us.clone(),
            draws: 0,
        };
        for (i, &u) in us.iter().enumerate() {
            let want = z.cdf.partition_point(|&c| c < u).min(z.n() - 1);
            let got = z.sample(&mut rng);
            if got != want || rng.draws != i + 1 {
                return Some(format!(
                    "n={} u={u:e}: rank {got}, full search {want}",
                    z.n()
                ));
            }
        }
        None
    }

    fn zipfs() -> Vec<Zipf> {
        let mut v = Vec::new();
        for n in [1usize, 3, 1000, 1024, 1025, 16384] {
            for theta in [0.0, 0.8, 0.99, 1.2] {
                v.push(Zipf::new(n, theta));
            }
        }
        v
    }

    #[test]
    fn guided_sample_matches_the_full_search() {
        for z in zipfs() {
            assert_eq!(first_divergence(&z), None, "theta {}", z.theta());
        }
    }

    /// Tripwire: a guide that starts each search one bucket too high
    /// diverges from the full search.
    #[test]
    fn guide_harness_catches_a_search_one_bucket_high() {
        let caught = zipfs()
            .into_iter()
            .filter(|z| {
                let mut high = z.clone();
                high.guide.remove(0);
                high.guide.push(z.n() as u32);
                first_divergence(&high).is_some()
            })
            .count();
        assert!(caught > 0, "no uniform exposed the shifted guide");
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(7, 2.0);
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }
}
