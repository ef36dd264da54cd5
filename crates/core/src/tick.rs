//! Integer tick clock for the engine's slot grid.
//!
//! The engine used to schedule slots by accumulated f64 addition
//! (`t += gap`), which drifts by one ulp per slot: harmless over a
//! 12-hour horizon, but a year-scale horizon executes ~10^8 slots and
//! the accumulated error becomes visible in probe counts near the
//! horizon. Slots are now scheduled on an integer nanosecond grid —
//! `tick_{k+1} = tick_k + gap_ticks` is exact, so slot `k` lands at
//! exactly `k · gap_ticks` nanoseconds for a constant-gap policy, at
//! any horizon.
//!
//! Converting a tick back to [`SimTime`] (the f64-seconds currency of
//! the memory model) rounds once, to the nearest representable f64:
//! below 2^53 ns (~104 days) the conversion is exact; beyond that it
//! rounds to within one ulp (~4 ns at year scale) *per conversion*,
//! never accumulating. [`MAX_TICK`] caps horizons so every tick
//! computation stays inside u64 with headroom for one more gap.

use pcm_memsim::SimTime;

/// Ticks per simulated second: a 1 ns grid.
pub const TICKS_PER_SEC: f64 = 1e9;

/// Upper bound on any slot tick the engine will schedule (~146 years).
/// Leaves a factor-of-4 margin below `u64::MAX` so `tick + gap_ticks`
/// can never overflow even for a maximal gap.
pub const MAX_TICK: u64 = 1 << 62;

/// Most pieces a front end splits one horizon into: checkpoint segments
/// (`exp_* --checkpoint-every`) or fleet rounds (`cadence-s`). A horizon
/// of `h` seconds split every `c` seconds makes `⌈h / c⌉` pieces, so a
/// cadence passes while `h / c` is at most this. A year at a 900 s
/// cadence is 35,040 rounds.
pub const MAX_SEGMENTS: u64 = 100_000;

/// Most scrub slots one simulation may schedule. A sweep of `lines`
/// lines every `interval` seconds makes `horizon × lines ÷ interval`
/// slots, so front ends refuse a sweep interval (`scrubsim --interval`,
/// a fleet's `policy = NAME@INTERVAL` over one shard's lines) that asks
/// for more. The largest documented run, the idle 48 h `scrubsim` run
/// over 65,536 lines at the 900 s sweep, makes 1.26·10⁷ slots; the
/// bound also admits a year of the default 16,384-line memory
/// (5.7·10⁸), a few minutes of simulation.
pub const MAX_SLOTS: u64 = 1_000_000_000;

/// Converts a non-negative, finite number of seconds to ticks
/// (rounding to the nearest nanosecond).
///
/// # Panics
///
/// Panics if `s` is NaN, infinite, negative, or maps beyond
/// [`MAX_TICK`].
///
/// # Examples
///
/// ```
/// use scrub_core::tick;
/// assert_eq!(tick::ticks_from_secs(1.5), 1_500_000_000);
/// assert_eq!(tick::ticks_from_secs(0.0), 0);
/// ```
pub fn ticks_from_secs(s: f64) -> u64 {
    assert!(s.is_finite(), "time must be finite, got {s}");
    assert!(s >= 0.0, "time must be non-negative, got {s}");
    checked_ticks_from_secs(s).unwrap_or_else(|| {
        panic!(
            "time {s} s overflows the tick clock (max ~{:.0} years)",
            MAX_TICK as f64 / TICKS_PER_SEC / (365.25 * 86_400.0)
        )
    })
}

/// [`ticks_from_secs`] without the panic: `None` for a time the tick
/// clock cannot hold (NaN, infinite, negative, or beyond [`MAX_TICK`]).
/// Front ends check user-supplied horizons and slot gaps with it before
/// they build a config.
///
/// # Examples
///
/// ```
/// use scrub_core::tick;
/// assert_eq!(tick::checked_ticks_from_secs(1.5), Some(1_500_000_000));
/// assert_eq!(tick::checked_ticks_from_secs(1e12), None);
/// assert_eq!(tick::checked_ticks_from_secs(f64::NAN), None);
/// // A gap under half a nanosecond rounds to zero ticks.
/// assert_eq!(tick::checked_ticks_from_secs(1e-300), Some(0));
/// ```
pub fn checked_ticks_from_secs(s: f64) -> Option<u64> {
    let t = (s * TICKS_PER_SEC).round();
    (s >= 0.0 && t <= MAX_TICK as f64).then_some(t as u64)
}

/// Converts ticks back to seconds.
pub fn secs_from_ticks(t: u64) -> f64 {
    t as f64 / TICKS_PER_SEC
}

/// Converts ticks to a [`SimTime`].
pub fn time_from_ticks(t: u64) -> SimTime {
    SimTime::from_secs(secs_from_ticks(t))
}

/// Converts a policy probe gap to ticks, clamping to at least one tick
/// so the slot grid always advances.
///
/// # Panics
///
/// Panics if the gap is not a positive finite number of seconds, or
/// exceeds [`MAX_TICK`].
pub fn gap_to_ticks(gap_s: f64) -> u64 {
    assert!(
        gap_s.is_finite() && gap_s > 0.0,
        "policy returned non-positive probe gap"
    );
    ticks_from_secs(gap_s).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_grid() {
        for s in [0.0, 1.0, 0.105, 43.75, 86_400.0] {
            let t = ticks_from_secs(s);
            assert!((secs_from_ticks(t) - s).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn sequential_adds_equal_multiplication() {
        // The property f64 accumulation lacks: k steps of `+= gap`
        // land exactly on k * gap.
        let gap = gap_to_ticks(700.0 / 16.0); // 43.75 s: inexact in f64
        let mut t = 0u64;
        for k in 0..1_000_000u64 {
            assert_eq!(t, k * gap);
            t += gap;
        }
    }

    #[test]
    fn tiny_gap_clamps_to_one_tick() {
        assert_eq!(gap_to_ticks(1e-12), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_seconds() {
        ticks_from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "overflows the tick clock")]
    fn rejects_overflowing_seconds() {
        ticks_from_secs(1e12);
    }

    #[test]
    #[should_panic(expected = "non-positive probe gap")]
    fn rejects_zero_gap() {
        gap_to_ticks(0.0);
    }
}
