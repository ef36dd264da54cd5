//! Programming and sensing noise parameters.

/// Gaussian noise parameters of the program/read path, in `log₁₀(Ω)` decades.
///
/// * `sigma_write` — residual spread of the programmed resistance after the
///   iterative program-and-verify loop converges.
/// * `sigma_read` — sense-amplifier noise added on every read; transient
///   (a re-read redraws it), unlike drift which is persistent.
/// * `verify_half_band` — if set, program-and-verify retries until the cell
///   lands within `±band` of the target, truncating the write distribution.
///
/// # Examples
///
/// ```
/// use pcm_model::NoiseParams;
/// let n = NoiseParams::default();
/// assert!(n.sigma_write > n.sigma_read);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Programmed-resistance spread (decades), post program-and-verify.
    pub sigma_write: f64,
    /// Per-read sensing noise (decades).
    pub sigma_read: f64,
    /// Optional program-and-verify acceptance half-band (decades).
    pub verify_half_band: Option<f64>,
}

impl NoiseParams {
    /// Literature-representative defaults: σ_w = 0.10 dec, σ_r = 0.03 dec,
    /// no explicit verify band (σ_w already models the post-verify residue).
    pub fn new(sigma_write: f64, sigma_read: f64) -> Self {
        assert!(
            sigma_write > 0.0 && sigma_write.is_finite(),
            "sigma_write must be positive"
        );
        assert!(
            sigma_read >= 0.0 && sigma_read.is_finite(),
            "sigma_read must be nonnegative"
        );
        Self {
            sigma_write,
            sigma_read,
            verify_half_band: None,
        }
    }

    /// Adds a program-and-verify truncation band.
    ///
    /// # Panics
    ///
    /// Panics if `half_band` is not positive or is too narrow relative to
    /// `sigma_write` for rejection sampling (< 0.05·σ_w).
    pub fn with_verify_band(mut self, half_band: f64) -> Self {
        assert!(half_band > 0.0, "verify band must be positive");
        assert!(
            half_band >= 0.05 * self.sigma_write,
            "verify band too narrow relative to sigma_write"
        );
        self.verify_half_band = Some(half_band);
        self
    }
}

impl Default for NoiseParams {
    fn default() -> Self {
        Self::new(0.10, 0.03)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let n = NoiseParams::default();
        assert_eq!(n.sigma_write, 0.10);
        assert_eq!(n.sigma_read, 0.03);
        assert!(n.verify_half_band.is_none());
    }

    #[test]
    fn verify_band_builder() {
        let n = NoiseParams::default().with_verify_band(0.25);
        assert_eq!(n.verify_half_band, Some(0.25));
    }

    #[test]
    #[should_panic(expected = "sigma_write must be positive")]
    fn rejects_zero_write_noise() {
        NoiseParams::new(0.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "verify band must be positive")]
    fn rejects_negative_band() {
        NoiseParams::default().with_verify_band(-1.0);
    }
}
