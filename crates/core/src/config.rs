//! Declarative policy configuration, so experiments can enumerate
//! mechanisms as data.

use crate::policy::ScrubPolicy;
use crate::profiled::ProfileParams;
use crate::tour::TourBudget;

/// A scrub mechanism plus its parameters, as plain data.
///
/// # Examples
///
/// ```
/// use scrub_core::PolicyKind;
/// let kind = PolicyKind::combined_default(900.0);
/// let policy = kind.build(65_536, 8, 0).expect("combined scrubs");
/// assert_eq!(policy.name(), "combined");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// No scrubbing at all (motivation experiments).
    None,
    /// DRAM-style: sweep at `interval_s`, write back on any error.
    Basic {
        /// Full-sweep interval (seconds).
        interval_s: f64,
    },
    /// Lazy write-back at `theta` accumulated errors.
    Threshold {
        /// Full-sweep interval (seconds).
        interval_s: f64,
        /// Write-back threshold (bit errors).
        theta: u32,
    },
    /// Threshold plus skipping of lines younger than `min_age_s`.
    AgeAware {
        /// Full-sweep interval (seconds).
        interval_s: f64,
        /// Write-back threshold (bit errors).
        theta: u32,
        /// Minimum line age worth probing (seconds).
        min_age_s: f64,
    },
    /// Threshold plus per-region AIMD pacing.
    Adaptive {
        /// Base full-sweep interval (seconds).
        interval_s: f64,
        /// Write-back threshold (bit errors).
        theta: u32,
        /// Number of independently paced regions.
        regions: u32,
    },
    /// IOPS-budgeted tour with randomized per-bank origins: scrub shares
    /// a token bucket with demand traffic, with an anti-starvation boost
    /// bounding every tour at `num_lines * (max_defer + 1)` slots
    /// (extension mechanism; see [`crate::modelcheck`]).
    Tour {
        /// Unthrottled tour period (seconds); sets the slot cadence.
        interval_s: f64,
        /// Write-back threshold (bit errors).
        theta: u32,
        /// Token-bucket refill rate (IOPS shared with demand traffic).
        iops: f64,
        /// Token-bucket capacity (burst allowance).
        burst: f64,
        /// Throttled slots tolerated before a probe is forced.
        max_defer: u32,
    },
    /// Profiling-guided budgeted tour: a bounded per-line risk table
    /// accumulated from probe syndromes steers a hot-line interleave,
    /// quiet-line probe stretching, and a lazy-plus write-back threshold
    /// (extension mechanism; see [`ScrubPolicy::profiled`]).
    Profiled {
        /// Unthrottled tour period (seconds); sets the slot cadence.
        interval_s: f64,
        /// Write-back threshold for profiled lines (quiet lines pay at
        /// `theta + 1`).
        theta: u32,
        /// Token-bucket refill rate (IOPS shared with demand traffic).
        iops: f64,
        /// Token-bucket capacity (burst allowance).
        burst: f64,
        /// Throttled slots tolerated before a probe is forced.
        max_defer: u32,
        /// Risk-table capacity (entries).
        capacity: u32,
        /// Every `hot_stride`-th granted slot probes a hot line.
        hot_stride: u32,
        /// Quiet lines are probed on every `stretch`-th tour only.
        stretch: u32,
        /// Score at which a line joins the hot interleave.
        risk: u32,
    },
    /// Everything together (the paper's proposed mechanism).
    Combined {
        /// Base full-sweep interval (seconds).
        interval_s: f64,
        /// Write-back threshold (bit errors).
        theta: u32,
        /// Number of independently paced regions.
        regions: u32,
        /// Minimum line age worth probing (seconds).
        min_age_s: f64,
    },
}

impl PolicyKind {
    /// The evaluation's default combined configuration for a given base
    /// interval: θ=4 (BCH-6 with a two-error guard band), 64 regions, age filter at
    /// two-thirds of the sweep interval.
    pub fn combined_default(interval_s: f64) -> Self {
        PolicyKind::Combined {
            interval_s,
            theta: 4,
            regions: 64,
            min_age_s: interval_s * 2.0 / 3.0,
        }
    }

    /// The evaluation's default profiled configuration for a given base
    /// interval: the combined scheme's θ=4, an effectively unthrottled
    /// bucket (standalone runs; fleet shards pass a real budget), and the
    /// default profiler knobs ([`ProfileParams::default`]).
    pub fn profiled_default(interval_s: f64) -> Self {
        let p = ProfileParams::default();
        PolicyKind::Profiled {
            interval_s,
            theta: 4,
            iops: 1e9,
            burst: 64.0,
            max_defer: 8,
            capacity: p.capacity,
            hot_stride: p.hot_stride,
            stretch: p.stretch,
            risk: p.risk,
        }
    }

    /// Instantiates the policy for a memory of `num_lines` lines across
    /// `banks` banks; `None` yields no policy. `seed` feeds policies with
    /// randomized-but-deterministic structure (tour origins); the other
    /// kinds ignore it.
    pub fn build(&self, num_lines: u32, banks: u32, seed: u64) -> Option<ScrubPolicy> {
        match *self {
            PolicyKind::None => None,
            PolicyKind::Basic { interval_s } => Some(ScrubPolicy::basic(interval_s, num_lines)),
            PolicyKind::Threshold { interval_s, theta } => {
                Some(ScrubPolicy::threshold(interval_s, num_lines, theta))
            }
            PolicyKind::AgeAware {
                interval_s,
                theta,
                min_age_s,
            } => Some(ScrubPolicy::age_aware(
                interval_s, num_lines, theta, min_age_s,
            )),
            PolicyKind::Adaptive {
                interval_s,
                theta,
                regions,
            } => Some(ScrubPolicy::adaptive(interval_s, num_lines, theta, regions)),
            PolicyKind::Tour {
                interval_s,
                theta,
                iops,
                burst,
                max_defer,
            } => Some(ScrubPolicy::tour(
                interval_s,
                num_lines,
                banks,
                theta,
                TourBudget {
                    iops,
                    burst,
                    max_defer,
                },
                seed,
            )),
            PolicyKind::Profiled {
                interval_s,
                theta,
                iops,
                burst,
                max_defer,
                capacity,
                hot_stride,
                stretch,
                risk,
            } => Some(ScrubPolicy::profiled(
                interval_s,
                num_lines,
                banks,
                theta,
                TourBudget {
                    iops,
                    burst,
                    max_defer,
                },
                ProfileParams {
                    capacity,
                    hot_stride,
                    stretch,
                    risk,
                },
                seed,
            )),
            PolicyKind::Combined {
                interval_s,
                theta,
                regions,
                min_age_s,
            } => Some(ScrubPolicy::combined(
                interval_s, num_lines, theta, regions, min_age_s,
            )),
        }
    }

    /// Human-readable label with key parameters, for report rows.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::None => "none".to_string(),
            PolicyKind::Basic { interval_s } => format!("basic(i={interval_s}s)"),
            PolicyKind::Threshold { interval_s, theta } => {
                format!("threshold(i={interval_s}s,th={theta})")
            }
            PolicyKind::AgeAware {
                interval_s,
                theta,
                min_age_s,
            } => format!("age-aware(i={interval_s}s,th={theta},age={min_age_s}s)"),
            PolicyKind::Adaptive {
                interval_s,
                theta,
                regions,
            } => format!("adaptive(i={interval_s}s,th={theta},r={regions})"),
            PolicyKind::Tour {
                interval_s,
                theta,
                iops,
                burst,
                max_defer,
            } => format!(
                "tour(i={interval_s}s,th={theta},iops={iops},burst={burst},defer={max_defer})"
            ),
            PolicyKind::Profiled {
                interval_s,
                theta,
                iops,
                burst,
                max_defer,
                capacity,
                hot_stride,
                stretch,
                risk,
            } => format!(
                "profiled(i={interval_s}s,th={theta},iops={iops},burst={burst},defer={max_defer},cap={capacity},stride={hot_stride},stretch={stretch},risk={risk})"
            ),
            PolicyKind::Combined {
                interval_s,
                theta,
                regions,
                min_age_s,
            } => format!("combined(i={interval_s}s,th={theta},r={regions},age={min_age_s}s)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds() {
        let kinds = [
            PolicyKind::Basic { interval_s: 900.0 },
            PolicyKind::Threshold {
                interval_s: 900.0,
                theta: 3,
            },
            PolicyKind::AgeAware {
                interval_s: 900.0,
                theta: 3,
                min_age_s: 100.0,
            },
            PolicyKind::Adaptive {
                interval_s: 900.0,
                theta: 3,
                regions: 8,
            },
            PolicyKind::Tour {
                interval_s: 900.0,
                theta: 3,
                iops: 100.0,
                burst: 16.0,
                max_defer: 8,
            },
            PolicyKind::profiled_default(900.0),
            PolicyKind::combined_default(900.0),
        ];
        let names = [
            "basic",
            "threshold",
            "age-aware",
            "adaptive",
            "tour",
            "profiled",
            "combined",
        ];
        for (k, want) in kinds.iter().zip(names) {
            let p = k.build(1024, 8, 7).expect("scrubbing kind");
            assert_eq!(p.name(), want);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn none_builds_nothing() {
        assert!(PolicyKind::None.build(1024, 8, 0).is_none());
        assert_eq!(PolicyKind::None.label(), "none");
    }
}
