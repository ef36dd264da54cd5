//! The write-back rules: the eager rule of DRAM-style scrub and the lazy
//! rule of the lazy-correction mechanisms.
//!
//! A probe is a read plus a syndrome check (cheap); a write-back is an
//! expensive, wear-inducing program. With a `t`-correcting code, errors
//! up to `θ ≤ t` can safely accumulate across sweeps before one
//! corrective write clears them all, so waiting for θ cuts the write
//! rate by roughly the number of sweeps a line takes to accumulate θ
//! errors.

use pcm_ecc::ClassifyOutcome;
use pcm_memsim::AccessResult;

/// The write-back rule a probed line that was not uncorrectable follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepRule {
    /// Write back on any decoder activity (the Basic policy's rule).
    AnyError,
    /// Write back when persistent errors reach `theta` (lazy write-back).
    Threshold {
        /// Persistent-bit-error threshold.
        theta: u32,
    },
}

/// Lazy write-back at `theta` accumulated persistent errors.
///
/// # Panics
///
/// Panics if `theta == 0` (eager write-back is [`SweepRule::AnyError`]).
pub(crate) fn lazy(theta: u32) -> SweepRule {
    assert!(theta >= 1, "theta must be >= 1");
    SweepRule::Threshold { theta }
}

/// The rule's answer for one probe result: uncorrectable results always
/// write back (the data is restored from higher-level redundancy), the
/// rest follow `rule`.
pub(crate) fn fires(rule: SweepRule, result: &AccessResult) -> bool {
    result.outcome.is_uncorrectable()
        || match rule {
            SweepRule::AnyError => !matches!(result.outcome, ClassifyOutcome::Clean),
            SweepRule::Threshold { theta } => result.persistent_bits >= theta,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScrubPolicy;

    fn res(bits: u32, outcome: ClassifyOutcome) -> AccessResult {
        AccessResult {
            outcome,
            persistent_bits: bits,
            new_ue: false,
        }
    }

    #[test]
    fn any_error_fires_on_corrected_not_clean() {
        let r = SweepRule::AnyError;
        assert!(!fires(r, &res(0, ClassifyOutcome::Clean)));
        assert!(fires(r, &res(1, ClassifyOutcome::Corrected { bits: 1 })));
    }

    #[test]
    fn threshold_fires_on_persistent_count() {
        let r = SweepRule::Threshold { theta: 3 };
        assert!(!fires(r, &res(2, ClassifyOutcome::Corrected { bits: 2 })));
        assert!(fires(r, &res(3, ClassifyOutcome::Corrected { bits: 3 })));
    }

    #[test]
    fn holds_below_threshold() {
        for bits in 0..4 {
            let r = res(bits, ClassifyOutcome::Corrected { bits });
            assert!(!fires(lazy(4), &r), "bits={bits}");
        }
    }

    #[test]
    fn fires_at_threshold() {
        let r = res(4, ClassifyOutcome::Corrected { bits: 4 });
        assert!(fires(lazy(4), &r));
        let r = res(7, ClassifyOutcome::Corrected { bits: 7 });
        assert!(fires(lazy(4), &r));
    }

    #[test]
    fn always_fires_on_uncorrectable() {
        let r = res(1, ClassifyOutcome::DetectedUncorrectable);
        assert!(fires(lazy(10), &r));
        let r = res(0, ClassifyOutcome::Miscorrected);
        assert!(fires(lazy(10), &r));
    }

    #[test]
    #[should_panic(expected = "theta must be >= 1")]
    fn rejects_zero_theta() {
        ScrubPolicy::threshold(900.0, 16, 0);
    }
}
