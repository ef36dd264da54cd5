//! Operation timing and bandwidth/contention accounting.
//!
//! The simulator runs at line granularity, not cycle granularity; demand
//! latency impact of scrubbing (experiment E9) is estimated from channel
//! utilization with an M/M/1-style contention factor, which captures the
//! shape (more scrub traffic → longer demand reads) without a cycle model.

/// Per-operation service times in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Array read (line burst).
    pub read_ns: f64,
    /// MLC iterative program-and-verify write.
    pub write_mlc_ns: f64,
    /// SLC single-shot write.
    pub write_slc_ns: f64,
    /// Base ECC decode latency.
    pub decode_base_ns: f64,
    /// Extra decode latency per unit of correction capability `t`.
    pub decode_per_t_ns: f64,
}

impl TimingModel {
    /// Decode latency for a code of strength `t`.
    pub fn decode_ns(&self, t: u32) -> f64 {
        self.decode_base_ns + self.decode_per_t_ns * t as f64
    }

    /// Line write latency for the given cell mode.
    pub fn write_ns(&self, mlc: bool) -> f64 {
        if mlc {
            self.write_mlc_ns
        } else {
            self.write_slc_ns
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            read_ns: 120.0,
            write_mlc_ns: 1000.0,
            write_slc_ns: 150.0,
            decode_base_ns: 10.0,
            decode_per_t_ns: 5.0,
        }
    }
}

/// Accumulates channel busy time per traffic class.
///
/// # Examples
///
/// ```
/// use pcm_memsim::BandwidthTracker;
/// let mut bw = BandwidthTracker::default();
/// bw.add_demand_ns(50.0);
/// bw.add_scrub_ns(50.0);
/// // Over a 1 µs window, scrub used 5% of the channel.
/// assert!((bw.scrub_utilization(1_000.0) - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthTracker {
    demand_busy_ns: f64,
    scrub_busy_ns: f64,
}

impl BandwidthTracker {
    /// Adds demand-traffic busy time.
    pub fn add_demand_ns(&mut self, ns: f64) {
        self.demand_busy_ns += ns;
    }

    /// Adds scrub-traffic busy time.
    pub fn add_scrub_ns(&mut self, ns: f64) {
        self.scrub_busy_ns += ns;
    }

    /// Demand busy time so far (ns).
    pub fn demand_busy_ns(&self) -> f64 {
        self.demand_busy_ns
    }

    /// Scrub busy time so far (ns).
    pub fn scrub_busy_ns(&self) -> f64 {
        self.scrub_busy_ns
    }

    /// Rebuilds a tracker from busy times captured by the getters above,
    /// bit-exactly (for checkpointing).
    pub fn from_busy_ns(demand_busy_ns: f64, scrub_busy_ns: f64) -> Self {
        Self {
            demand_busy_ns,
            scrub_busy_ns,
        }
    }

    /// Fraction of a wall-clock window the channel spent on scrub.
    pub fn scrub_utilization(&self, window_ns: f64) -> f64 {
        if window_ns <= 0.0 {
            0.0
        } else {
            (self.scrub_busy_ns / window_ns).min(1.0)
        }
    }

    /// Folds another tracker into this one (merging per-bank shards); call
    /// in a fixed shard order to keep float sums bit-deterministic.
    pub fn absorb(&mut self, other: &BandwidthTracker) {
        self.demand_busy_ns += other.demand_busy_ns;
        self.scrub_busy_ns += other.scrub_busy_ns;
    }

    /// Estimated average demand-read latency given scrub contention:
    /// `base / (1 − u_scrub)` (M/M/1-style slowdown, saturating at 10×
    /// base to keep the estimate sane near saturation).
    pub fn demand_read_latency_ns(&self, base_read_ns: f64, window_ns: f64) -> f64 {
        let u = self.scrub_utilization(window_ns);
        let slowdown = if u >= 0.9 { 10.0 } else { 1.0 / (1.0 - u) };
        base_read_ns * slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_latency_scales() {
        let t = TimingModel::default();
        assert!(t.decode_ns(6) > t.decode_ns(1));
        assert_eq!(t.decode_ns(0), 10.0);
    }

    #[test]
    fn utilization_math() {
        let mut bw = BandwidthTracker::default();
        bw.add_demand_ns(100.0);
        bw.add_scrub_ns(300.0);
        assert!((bw.scrub_utilization(1000.0) - 0.3).abs() < 1e-12);
        assert_eq!(bw.scrub_utilization(0.0), 0.0);
    }

    #[test]
    fn latency_grows_with_scrub_load() {
        let mut light = BandwidthTracker::default();
        light.add_scrub_ns(10.0);
        let mut heavy = BandwidthTracker::default();
        heavy.add_scrub_ns(500.0);
        let window = 1000.0;
        assert!(
            heavy.demand_read_latency_ns(120.0, window)
                > light.demand_read_latency_ns(120.0, window)
        );
    }

    #[test]
    fn latency_saturates() {
        let mut bw = BandwidthTracker::default();
        bw.add_scrub_ns(999.0);
        assert_eq!(bw.demand_read_latency_ns(100.0, 1000.0), 1000.0);
    }
}
