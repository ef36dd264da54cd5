//! Summary statistics for experiment outputs.

/// Summary of a sample: mean, standard deviation, and a normal-theory 95%
/// confidence interval on the mean.
///
/// # Examples
///
/// ```
/// use pcm_analysis::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.n, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95% CI on the mean.
    pub ci95_half_width: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let std_dev = var.sqrt();
        let ci = 1.96 * std_dev / (n as f64).sqrt();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            n,
            mean,
            std_dev,
            ci95_half_width: ci,
            min,
            max,
        }
    }
}

/// Geometric mean (for speedup-style ratios).
///
/// # Panics
///
/// Panics if `xs` is empty or any value is not strictly positive.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of empty sample");
    assert!(
        xs.iter().all(|&x| x > 0.0 && x.is_finite()),
        "geometric mean needs positive finite values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Percentage reduction of `new` relative to `baseline`
/// (e.g. 96.5 means "96.5% fewer").
pub fn percent_reduction(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (1.0 - new / baseline) * 100.0
    }
}

/// Improvement ratio `baseline / new` (e.g. 24.4 means "24.4× fewer"),
/// saturating when `new` is zero.
/// Event proportion `hits / (hits + misses)`, or `None` when nothing was
/// observed — for counter-derived rates (profiler hit rates, dirty-probe
/// fractions) where a zero denominator means "no data", not "rate zero".
pub fn event_rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

pub fn improvement_ratio(baseline: f64, new: f64) -> f64 {
    if new == 0.0 {
        if baseline == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        baseline / new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_rate_guards_empty_denominators() {
        assert_eq!(event_rate(0, 0), None);
        assert_eq!(event_rate(3, 1), Some(0.75));
        assert_eq!(event_rate(0, 5), Some(0.0));
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138).abs() < 0.01);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.ci95_half_width > 0.0);
    }

    #[test]
    fn singleton_has_zero_spread() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width, 0.0);
    }

    #[test]
    fn geo_mean() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_and_ratio() {
        assert!((percent_reduction(200.0, 7.0) - 96.5).abs() < 1e-12);
        assert!((improvement_ratio(244.0, 10.0) - 24.4).abs() < 1e-12);
        assert_eq!(improvement_ratio(5.0, 0.0), f64::INFINITY);
        assert_eq!(improvement_ratio(0.0, 0.0), 1.0);
        assert_eq!(percent_reduction(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        Summary::of(&[]);
    }
}
