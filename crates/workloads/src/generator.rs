//! The synthetic trace generator: address pattern × read/write mix ×
//! arrival process, all seed-deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pcm_memsim::{LineAddr, MemOp, OpKind, SimTime, TraceSource};
use scrub_checkpoint::{Reader, Writer};

use crate::zipf::Zipf;

/// Spatial access pattern over the line address space.
#[derive(Debug, Clone)]
pub enum AddrPattern {
    /// Uniform random lines.
    Uniform,
    /// Zipfian popularity with the given skew; ranks are scattered over
    /// the address space by a fixed odd-multiplier permutation so hot
    /// lines don't cluster in one bank.
    Zipf {
        /// Skew exponent (0.99 ≈ classic OLTP).
        theta: f64,
    },
    /// Sequential sweep that wraps around (streaming scans).
    Sequential,
    /// Sequential scan bursts interleaved with zipfian point accesses
    /// (OLAP-style).
    ScanPoint {
        /// Length of each sequential burst.
        scan_len: u32,
        /// Zipf skew of the point accesses.
        theta: f64,
    },
}

/// Arrival-time process for accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed spacing `1/rate`.
    Periodic,
    /// Poisson arrivals (exponential gaps) at the same mean rate.
    Poisson,
    /// Bursts of `burst_len` back-to-back accesses separated by idle gaps
    /// so the long-run mean rate is preserved.
    Bursty {
        /// Accesses per burst.
        burst_len: u32,
        /// Idle time between bursts as a multiple of the busy time.
        idle_ratio: f64,
    },
}

/// A deterministic synthetic demand-trace generator.
///
/// # Examples
///
/// ```
/// use pcm_workloads::{AddrPattern, ArrivalProcess, SyntheticTrace};
/// use pcm_memsim::TraceSource;
///
/// let mut t = SyntheticTrace::builder("toy", 1024)
///     .rate_ops_per_sec(100.0)
///     .read_fraction(0.5)
///     .pattern(AddrPattern::Uniform)
///     .seed(7)
///     .build();
/// let op = t.next_op().expect("infinite trace");
/// assert!(op.addr.index() < 1024);
/// ```
#[derive(Debug)]
pub struct SyntheticTrace {
    name: String,
    num_lines: u32,
    rate: f64,
    read_frac: f64,
    pattern: AddrPattern,
    arrivals: ArrivalProcess,
    rng: StdRng,
    now: SimTime,
    zipf: Option<Zipf>,
    seq_pos: u32,
    scan_remaining: u32,
    burst_remaining: u32,
}

impl SyntheticTrace {
    /// Starts a builder for a trace over `num_lines` lines.
    pub fn builder(name: &str, num_lines: u32) -> SyntheticTraceBuilder {
        SyntheticTraceBuilder {
            name: name.to_string(),
            num_lines,
            rate: 1000.0,
            read_frac: 0.7,
            pattern: AddrPattern::Uniform,
            arrivals: ArrivalProcess::Poisson,
            seed: 0,
        }
    }

    /// Long-run mean access rate (ops/s).
    pub fn rate_ops_per_sec(&self) -> f64 {
        self.rate
    }

    /// Fraction of accesses that are reads.
    pub fn read_fraction(&self) -> f64 {
        self.read_frac
    }

    /// Scatters a popularity rank over the address space.
    fn scatter(&self, rank: u32) -> u32 {
        // Odd multiplier => bijection modulo any power-of-two-free n too,
        // via 64-bit arithmetic then reduction.
        ((rank as u64).wrapping_mul(2_654_435_761) % self.num_lines as u64) as u32
    }

    fn next_addr(&mut self) -> LineAddr {
        let addr = match &self.pattern {
            AddrPattern::Uniform => self.rng.gen_range(0..self.num_lines),
            AddrPattern::Zipf { .. } => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf built")
                    .sample(&mut self.rng) as u32;
                self.scatter(rank)
            }
            AddrPattern::Sequential => {
                let a = self.seq_pos;
                self.seq_pos = (self.seq_pos + 1) % self.num_lines;
                a
            }
            AddrPattern::ScanPoint { scan_len, .. } => {
                if self.scan_remaining > 0 {
                    self.scan_remaining -= 1;
                    let a = self.seq_pos;
                    self.seq_pos = (self.seq_pos + 1) % self.num_lines;
                    a
                } else {
                    // Alternate: one zipf point access, then a new scan.
                    self.scan_remaining = *scan_len;
                    let rank = self
                        .zipf
                        .as_ref()
                        .expect("zipf built")
                        .sample(&mut self.rng) as u32;
                    self.scatter(rank)
                }
            }
        };
        LineAddr(addr)
    }

    /// Moves the clock to the next arrival. Returns `false`, leaving the
    /// clock where it was, when that arrival is not a finite time: a rate
    /// near the smallest positive `f64` makes gaps that overflow, and an
    /// arrival past `f64::MAX` seconds lies beyond every horizon.
    fn advance_clock(&mut self) -> bool {
        let mean_gap = 1.0 / self.rate;
        let dt = match self.arrivals {
            ArrivalProcess::Periodic => mean_gap,
            ArrivalProcess::Poisson => {
                let u: f64 = loop {
                    let u = self.rng.gen::<f64>();
                    if u > 0.0 {
                        break u;
                    }
                };
                -u.ln() * mean_gap
            }
            ArrivalProcess::Bursty {
                burst_len,
                idle_ratio,
            } => {
                let short_gap = mean_gap / (1.0 + idle_ratio);
                if self.burst_remaining == 0 {
                    // Idle gap sized so one full cycle (gap + burst) spans
                    // exactly `burst_len · mean_gap`, preserving the rate.
                    self.burst_remaining = burst_len.saturating_sub(1);
                    burst_len as f64 * mean_gap - burst_len.saturating_sub(1) as f64 * short_gap
                } else {
                    self.burst_remaining -= 1;
                    short_gap
                }
            }
        };
        let next = self.now.secs() + dt;
        if !next.is_finite() {
            return false;
        }
        self.now = SimTime::from_secs(next);
        true
    }
}

impl TraceSource for SyntheticTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        if !self.advance_clock() {
            return None;
        }
        let kind = if self.rng.gen::<f64>() < self.read_frac {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let addr = self.next_addr();
        Some(MemOp {
            at: self.now,
            kind,
            addr,
        })
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // Only the mutable words: the pattern, zipf tables, and rates are
        // configuration, rebuilt by the resuming run.
        let mut w = Writer::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_f64(self.now.secs());
        w.put_u32(self.seq_pos);
        w.put_u32(self.scan_remaining);
        w.put_u32(self.burst_remaining);
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let restore = || -> Result<(), scrub_checkpoint::CheckpointError> {
            let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let now = r.time_f64("trace clock")?;
            let seq_pos = r.u32()?;
            let scan_remaining = r.u32()?;
            let burst_remaining = r.u32()?;
            r.finish()?;
            if seq_pos >= self.num_lines {
                return Err(scrub_checkpoint::CheckpointError::Malformed(format!(
                    "trace seq_pos {seq_pos} out of range ({} lines)",
                    self.num_lines
                )));
            }
            self.rng = StdRng::from_state(rng_state);
            self.now = SimTime::from_secs(now);
            self.seq_pos = seq_pos;
            self.scan_remaining = scan_remaining;
            self.burst_remaining = burst_remaining;
            Ok(())
        };
        restore().map_err(|e| format!("synthetic trace state: {e}"))
    }
}

/// Builder for [`SyntheticTrace`].
#[derive(Debug, Clone)]
pub struct SyntheticTraceBuilder {
    name: String,
    num_lines: u32,
    rate: f64,
    read_frac: f64,
    pattern: AddrPattern,
    arrivals: ArrivalProcess,
    seed: u64,
}

impl SyntheticTraceBuilder {
    /// Sets the long-run mean access rate in line ops per second.
    pub fn rate_ops_per_sec(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        self.rate = rate;
        self
    }

    /// Sets the fraction of accesses that are reads.
    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "read fraction must be in [0,1]");
        self.read_frac = f;
        self
    }

    /// Sets the address pattern.
    pub fn pattern(mut self, p: AddrPattern) -> Self {
        self.pattern = p;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, a: ArrivalProcess) -> Self {
        self.arrivals = a;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the generator.
    pub fn build(self) -> SyntheticTrace {
        let zipf = match &self.pattern {
            AddrPattern::Zipf { theta } | AddrPattern::ScanPoint { theta, .. } => {
                Some(Zipf::new(self.num_lines as usize, *theta))
            }
            _ => None,
        };
        SyntheticTrace {
            name: self.name,
            num_lines: self.num_lines,
            rate: self.rate,
            read_frac: self.read_frac,
            pattern: self.pattern,
            arrivals: self.arrivals,
            rng: StdRng::seed_from_u64(self.seed),
            now: SimTime::ZERO,
            zipf,
            seq_pos: 0,
            scan_remaining: 0,
            burst_remaining: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_nondecreasing() {
        let mut t = SyntheticTrace::builder("t", 100)
            .rate_ops_per_sec(10.0)
            .build();
        let mut prev = SimTime::ZERO;
        for _ in 0..1000 {
            let op = t.next_op().expect("infinite");
            assert!(op.at >= prev);
            prev = op.at;
        }
    }

    #[test]
    fn mean_rate_respected() {
        for arrivals in [
            ArrivalProcess::Periodic,
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty {
                burst_len: 10,
                idle_ratio: 3.0,
            },
        ] {
            let mut t = SyntheticTrace::builder("t", 100)
                .rate_ops_per_sec(100.0)
                .arrivals(arrivals)
                .seed(5)
                .build();
            let n = 20_000;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = t.next_op().expect("infinite").at;
            }
            let measured = n as f64 / last.secs();
            assert!(
                (measured - 100.0).abs() < 15.0,
                "{arrivals:?}: measured rate {measured}"
            );
        }
    }

    #[test]
    fn stream_ends_at_the_first_arrival_past_f64_max() {
        // A mean gap of 3/4 of f64::MAX: the second periodic arrival, and
        // soon a Poisson one, overflow the clock.
        for (arrivals, most) in [(ArrivalProcess::Periodic, 1), (ArrivalProcess::Poisson, 3)] {
            let mut t = SyntheticTrace::builder("t", 100)
                .rate_ops_per_sec(1.0 / (0.75 * f64::MAX))
                .arrivals(arrivals)
                .seed(4)
                .build();
            let ops: Vec<MemOp> = std::iter::from_fn(|| t.next_op()).take(8).collect();
            assert!(ops.len() <= most, "{arrivals:?}: {ops:?}");
        }
        // A subnormal rate: the mean gap itself is infinite.
        let mut t = SyntheticTrace::builder("t", 100)
            .rate_ops_per_sec(5e-324)
            .build();
        assert_eq!(t.next_op(), None);
    }

    #[test]
    fn read_fraction_respected() {
        let mut t = SyntheticTrace::builder("t", 100)
            .read_fraction(0.8)
            .seed(6)
            .build();
        let mut reads = 0;
        for _ in 0..10_000 {
            if t.next_op().expect("infinite").kind == OpKind::Read {
                reads += 1;
            }
        }
        let f = reads as f64 / 10_000.0;
        assert!((f - 0.8).abs() < 0.02, "read fraction {f}");
    }

    #[test]
    fn sequential_sweeps_in_order() {
        let mut t = SyntheticTrace::builder("t", 10)
            .pattern(AddrPattern::Sequential)
            .build();
        let addrs: Vec<u32> = (0..12).map(|_| t.next_op().expect("inf").addr.0).collect();
        assert_eq!(addrs[..10], (0..10).collect::<Vec<u32>>()[..]);
        assert_eq!(addrs[10], 0); // wraps
    }

    #[test]
    fn zipf_concentrates_accesses() {
        let mut t = SyntheticTrace::builder("t", 1000)
            .pattern(AddrPattern::Zipf { theta: 1.2 })
            .seed(7)
            .build();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(t.next_op().expect("inf").addr).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = freqs.iter().take(10).sum();
        assert!(
            top10 > 4000,
            "top-10 lines should dominate a theta=1.2 zipf, got {top10}/10000"
        );
    }

    #[test]
    fn addresses_in_range() {
        let mut t = SyntheticTrace::builder("t", 33)
            .pattern(AddrPattern::ScanPoint {
                scan_len: 5,
                theta: 0.9,
            })
            .build();
        for _ in 0..500 {
            assert!(t.next_op().expect("inf").addr.0 < 33);
        }
    }

    #[test]
    fn save_load_resumes_exact_stream() {
        for pattern in [
            AddrPattern::Uniform,
            AddrPattern::Zipf { theta: 0.99 },
            AddrPattern::Sequential,
            AddrPattern::ScanPoint {
                scan_len: 5,
                theta: 0.9,
            },
        ] {
            let build = || {
                SyntheticTrace::builder("t", 64)
                    .pattern(pattern.clone())
                    .arrivals(ArrivalProcess::Bursty {
                        burst_len: 4,
                        idle_ratio: 2.0,
                    })
                    .seed(11)
                    .build()
            };
            let mut continuous = build();
            for _ in 0..137 {
                continuous.next_op();
            }
            let mut split = build();
            for _ in 0..70 {
                split.next_op();
            }
            let state = split.save_state().expect("supported");
            let mut resumed = build();
            resumed.load_state(&state).expect("round-trip");
            for i in 0..67 {
                resumed.next_op();
                let _ = i;
            }
            assert_eq!(
                continuous.next_op(),
                resumed.next_op(),
                "{pattern:?}: stream diverged after resume"
            );
        }
    }

    #[test]
    fn load_state_rejects_garbage() {
        let mut t = SyntheticTrace::builder("t", 64).build();
        assert!(t.load_state(&[1, 2, 3]).is_err());
        let mut state = t.save_state().expect("supported");
        // seq_pos out of range for a 64-line trace.
        let off = 4 * 8 + 8;
        state[off..off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(t.load_state(&state).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let collect = || {
            let mut t = SyntheticTrace::builder("t", 64).seed(42).build();
            (0..100)
                .map(|_| {
                    let op = t.next_op().expect("inf");
                    (op.addr.0, op.kind == OpKind::Read)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
