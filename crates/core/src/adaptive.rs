//! The `Regions` schedule of the adaptive and combined policies:
//! per-region sweep intervals that respond to observed error pressure,
//! trading soft-error risk against the hard-error wear and energy of
//! scrubbing too eagerly. Regions that stay clean are scrubbed up to 4×
//! less often; regions under error pressure up to 4× more often.

use pcm_memsim::{LineAddr, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

/// Per-region sweep state.
#[derive(Debug, Clone)]
pub(crate) struct RegionState {
    /// First line of the region.
    pub start: u32,
    /// One past the last line.
    pub end: u32,
    /// Next line to probe within the current pass.
    pub cursor: u32,
    /// When this region's next pass may begin.
    pub next_due: SimTime,
    /// Interval multiplier (AIMD state), bounded to
    /// `[MIN_MULT, MAX_MULT]`.
    pub mult: f64,
    /// Probes issued in the current pass.
    pub pass_probes: u64,
    /// Persistent errors seen in the current pass.
    pub pass_errors: u64,
}

pub(crate) const MIN_MULT: f64 = 0.25;
pub(crate) const MAX_MULT: f64 = 4.0;

/// Scheduler that owns the regions and the AIMD adaptation rule.
#[derive(Debug, Clone)]
pub(crate) struct RegionScheduler {
    pub regions: Vec<RegionState>,
    pub base_interval_s: f64,
    /// Mean persistent errors per probed line above which a region's
    /// interval halves.
    pub speed_up_at: f64,
    /// Mean below which it doubles.
    pub slow_down_at: f64,
    /// Region currently being swept, if any.
    active: Option<usize>,
}

impl RegionScheduler {
    /// Splits `num_lines` into at most `num_regions` contiguous regions
    /// of `⌈num_lines / min(num_regions, num_lines)⌉` lines each; the last
    /// region takes the remainder, and trailing regions that would start
    /// past the last line are dropped, so every region is non-empty.
    pub fn new(num_lines: u32, num_regions: u32, base_interval_s: f64, theta: u32) -> Self {
        assert!(num_lines >= 1 && num_regions >= 1, "bad region count");
        let region_size = num_lines.div_ceil(num_regions.min(num_lines));
        let regions = (0..num_lines)
            .step_by(region_size as usize)
            .map(|start| RegionState {
                start,
                end: (start + region_size).min(num_lines),
                cursor: start,
                next_due: SimTime::ZERO,
                mult: 1.0,
                pass_probes: 0,
                pass_errors: 0,
            })
            .collect();
        Self {
            regions,
            base_interval_s,
            // Err toward catching errors: speed up once lines carry half
            // the lazy-write-back budget, relax only when nearly clean.
            speed_up_at: theta as f64 * 0.5,
            slow_down_at: 0.25,
            active: None,
        }
    }

    /// Picks the next line to probe, or `None` if no region is due.
    pub fn next_line(&mut self, now: SimTime) -> Option<LineAddr> {
        if self.active.is_none() {
            // Start the most overdue region, if any.
            self.active = self
                .regions
                .iter()
                .enumerate()
                .filter(|(_, r)| r.next_due <= now)
                .min_by(|(_, a), (_, b)| {
                    a.next_due
                        .partial_cmp(&b.next_due)
                        .expect("times are finite")
                })
                .map(|(i, _)| i);
        }
        let idx = self.active?;
        let region = &mut self.regions[idx];
        let addr = LineAddr(region.cursor);
        region.cursor += 1;
        if region.cursor >= region.end {
            self.finish_pass(idx, now);
        }
        Some(addr)
    }

    /// Ends a region pass: adapts the multiplier from observed error
    /// pressure and schedules the next pass.
    fn finish_pass(&mut self, idx: usize, now: SimTime) {
        let region = &mut self.regions[idx];
        let per_line = if region.pass_probes == 0 {
            0.0
        } else {
            region.pass_errors as f64 / region.pass_probes as f64
        };
        let before = region.mult;
        if per_line > self.speed_up_at {
            region.mult = (region.mult * 0.5).max(MIN_MULT);
        } else if per_line < self.slow_down_at {
            region.mult = (region.mult * 2.0).min(MAX_MULT);
        }
        region.next_due = now + self.base_interval_s * region.mult;
        region.cursor = region.start;
        region.pass_probes = 0;
        region.pass_errors = 0;
        if tel::enabled() {
            tel::counter_add(tel::Counter::RegionPasses, 1);
            if region.mult < before {
                tel::counter_add(tel::Counter::RegionSpeedups, 1);
            } else if region.mult > before {
                tel::counter_add(tel::Counter::RegionSlowdowns, 1);
            }
            tel::event(
                now.secs(),
                tel::EventKind::RateChange {
                    region: idx as u32,
                    mult: region.mult,
                    next_interval_s: self.base_interval_s * region.mult,
                },
            );
        }
        self.active = None;
    }

    /// Records a probe result for the active pass's statistics.
    pub fn record_probe(&mut self, addr: LineAddr, persistent_bits: u32) {
        // The probe belongs to whichever region contains the address; the
        // active pass may already have rolled over, so locate by range.
        if let Some(region) = self
            .regions
            .iter_mut()
            .find(|r| addr.0 >= r.start && addr.0 < r.end)
        {
            region.pass_probes += 1;
            region.pass_errors += persistent_bits as u64;
        }
    }

    /// Serializes the scheduler's mutable state: per-region cursors, due
    /// times, AIMD multipliers, pass statistics, and the active region.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.regions.len() as u32);
        for region in &self.regions {
            w.put_u32(region.cursor);
            w.put_f64(region.next_due.secs());
            w.put_f64(region.mult);
            w.put_u64(region.pass_probes);
            w.put_u64(region.pass_errors);
        }
        match self.active {
            Some(idx) => {
                w.put_u8(1);
                w.put_u32(idx as u32);
            }
            None => w.put_u8(0),
        }
    }

    /// Restores state captured by [`RegionScheduler::save_state`] onto a
    /// scheduler with the same region partition.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = r.u32()? as usize;
        if n != self.regions.len() {
            return Err(CheckpointError::Malformed(format!(
                "region count mismatch: snapshot {n}, config {}",
                self.regions.len()
            )));
        }
        let mut restored = Vec::with_capacity(n);
        for (idx, region) in self.regions.iter().enumerate() {
            let cursor = r.u32()?;
            if cursor < region.start || cursor >= region.end {
                return Err(CheckpointError::Malformed(format!(
                    "region {idx} cursor {cursor} outside [{}, {})",
                    region.start, region.end
                )));
            }
            let next_due = r.time_f64(&format!("region {idx} next_due"))?;
            let mult = r.finite_f64(&format!("region {idx} mult"))?;
            if !(MIN_MULT..=MAX_MULT).contains(&mult) {
                return Err(CheckpointError::Malformed(format!(
                    "region {idx} multiplier {mult} outside [{MIN_MULT}, {MAX_MULT}]"
                )));
            }
            restored.push(RegionState {
                start: region.start,
                end: region.end,
                cursor,
                next_due: SimTime::from_secs(next_due),
                mult,
                pass_probes: r.u64()?,
                pass_errors: r.u64()?,
            });
        }
        let active = if r.bool()? {
            let idx = r.u32()? as usize;
            if idx >= n {
                return Err(CheckpointError::Malformed(format!(
                    "active region {idx} out of range ({n} regions)"
                )));
            }
            Some(idx)
        } else {
            None
        };
        self.regions = restored;
        self.active = active;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Regions are non-empty, contiguous, and cover every line, for
        /// any line and region count — including fewer lines than
        /// regions, and counts where `regions` equal-size regions would
        /// leave trailing ones empty. Wherever the plain
        /// `regions × ⌈lines/regions⌉` split already had no empty region,
        /// the partition is exactly that split.
        #[test]
        fn regions_partition_lines(lines in 1u32..=5000, regions in 1u32..=128) {
            let s = RegionScheduler::new(lines, regions, 900.0, 4);
            prop_assert_eq!(s.regions.first().expect("nonempty").start, 0);
            prop_assert_eq!(s.regions.last().expect("nonempty").end, lines);
            for r in &s.regions {
                prop_assert!(r.start < r.end, "empty region {}..{}", r.start, r.end);
            }
            for w in s.regions.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let size = lines.div_ceil(regions);
            if regions <= lines && (regions - 1) * size < lines {
                let plain: Vec<(u32, u32)> = (0..regions)
                    .map(|r| (r * size, ((r + 1) * size).min(lines)))
                    .collect();
                let got: Vec<(u32, u32)> = s.regions.iter().map(|r| (r.start, r.end)).collect();
                prop_assert_eq!(got, plain);
            }
        }
    }

    #[test]
    fn clean_region_slows_down() {
        let mut s = RegionScheduler::new(10, 1, 100.0, 4);
        let now = SimTime::from_secs(1.0);
        for _ in 0..10 {
            let addr = s.next_line(now).expect("due");
            s.record_probe(addr, 0);
        }
        assert_eq!(s.regions[0].mult, 2.0);
        assert!(s.regions[0].next_due > now + 199.0);
        // Not due again until next_due.
        assert!(s.next_line(now + 10.0).is_none());
    }

    #[test]
    fn dirty_region_speeds_up() {
        let mut s = RegionScheduler::new(10, 1, 100.0, 4);
        let now = SimTime::from_secs(1.0);
        for _ in 0..10 {
            let addr = s.next_line(now).expect("due");
            s.record_probe(addr, 5); // heavy error pressure
        }
        assert_eq!(s.regions[0].mult, 0.5);
    }

    #[test]
    fn multiplier_stays_bounded() {
        let mut s = RegionScheduler::new(4, 1, 1.0, 4);
        let mut now = SimTime::from_secs(0.0);
        for _ in 0..20 {
            now += 1000.0;
            for _ in 0..4 {
                if let Some(addr) = s.next_line(now) {
                    s.record_probe(addr, 0);
                }
            }
        }
        assert!(s.regions[0].mult <= MAX_MULT);
        let mut s2 = RegionScheduler::new(4, 1, 1.0, 4);
        let mut now = SimTime::from_secs(0.0);
        for _ in 0..20 {
            now += 1000.0;
            for _ in 0..4 {
                if let Some(addr) = s2.next_line(now) {
                    s2.record_probe(addr, 9);
                }
            }
        }
        assert!(s2.regions[0].mult >= MIN_MULT);
    }

    #[test]
    fn sweeps_cover_whole_region() {
        let mut s = RegionScheduler::new(6, 2, 100.0, 4);
        let now = SimTime::from_secs(1.0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            let a = s.next_line(now).expect("due");
            s.record_probe(a, 0);
            seen.push(a.0);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
