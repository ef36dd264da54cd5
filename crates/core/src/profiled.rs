//! Profiling-guided scrub: a budgeted tour that learns which lines are
//! error-prone and redistributes probe effort toward them.
//!
//! The paper's mechanisms pace scrubbing from *global* knobs (interval,
//! threshold, region feedback). The profiled policy instead accumulates a
//! bounded per-line *risk profile* ([`RiskProfile`]) from probe-history
//! syndromes — the correctable-error counts every probe reports anyway —
//! and uses it three ways:
//!
//! * **hot interleave** — every `hot_stride`-th granted slot probes a
//!   line whose score is at or above `risk`, round-robin, on top of its
//!   regular tour visit, so drifty and repeat-offender lines are checked
//!   well before the full tour returns to them;
//! * **quiet stretch** — lines *not* in the profile are probed on only
//!   every `stretch`-th tour (phase-striped by a seeded hash, so each
//!   tour still probes an even 1/stretch share), saving probe energy
//!   where history says nothing is happening;
//! * **lazy-plus write-back** — quiet lines use threshold `θ+1` where
//!   profiled lines use `θ`, lengthening the accumulate/write cycle
//!   exactly where the drift evidence is weakest.
//!
//! The profile rides on the tour's schedule and gate: probes spend from
//! the same demand-shared token bucket ([`crate::TokenBucket`]),
//! anti-starvation boost included, so a `profiled` shard composes with
//! `tour` accounting and inherits the `ScrubProgress`-style bound: no
//! line can go unprobed for more than
//! [`ScrubPolicy::progress_bound_slots`](crate::ScrubPolicy::progress_bound_slots)
//! slots.
//!
//! The table is bounded (`capacity` entries); at overflow the
//! lowest-score entry is evicted (smallest address on ties), so the
//! profile degrades to a plain tour under adversarial churn instead of
//! growing without bound. The victim is the first element of an ordered
//! `(score, address)` index kept beside the per-line scores, so an
//! eviction costs O(log capacity) instead of a walk of the table, and a
//! second index of the lines at or above `risk` serves the hot
//! interleave the same way.

use std::collections::BTreeSet;

use pcm_memsim::{splitmix64, AccessResult, LineAddr};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

/// Scores saturate here; one UE bump is 64, so the cap is far above any
/// plausible accumulation but keeps checkpoint validation meaningful.
const SCORE_CAP: u32 = 1 << 20;

/// Score bump for an uncorrectable outcome: a UE is the strongest
/// possible evidence a line is at risk.
const UE_BUMP: u32 = 64;

/// Extra bump when a line already in the table reports errors again (the
/// repeat-offender bonus).
const REPEAT_BONUS: u32 = 2;

/// The profiler's tuning knobs, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileParams {
    /// Maximum risk-table entries; the lowest-score entry is evicted at
    /// overflow.
    pub capacity: u32,
    /// Every `hot_stride`-th granted probe slot goes to a hot line
    /// (score >= `risk`) instead of the tour cursor. Must be >= 2 so the
    /// tour always keeps a majority of the grant stream.
    pub hot_stride: u32,
    /// Quiet (unprofiled) lines are probed on every `stretch`-th tour
    /// only; 1 disables stretching.
    pub stretch: u32,
    /// Score at or above which a line joins the hot interleave.
    pub risk: u32,
}

impl Default for ProfileParams {
    fn default() -> Self {
        Self {
            capacity: 1024,
            hot_stride: 4,
            stretch: 2,
            risk: 2,
        }
    }
}

/// The profiler's lifetime probe tallies: probes of profiled lines that
/// found the line dirty (hits) or clean (misses), and dirty probes of any
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileStats {
    /// Dirty probes of lines already in the profile.
    pub hits: u64,
    /// Clean probes of lines already in the profile.
    pub misses: u64,
    /// Dirty probes of any line.
    pub dirty_probes: u64,
}

impl std::iter::Sum for ProfileStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            dirty_probes: a.dirty_probes + b.dirty_probes,
        })
    }
}

/// The risk profile: a bounded per-line score table learned from probe
/// syndromes, which steers a tour (hot interleave, quiet stretch) and
/// tells the write-back rule which lines are quiet.
#[derive(Debug, Clone)]
pub struct RiskProfile {
    // --- configuration (rebuilt from the run config on resume) ---
    params: ProfileParams,
    /// Run seed; the quiet-stretch phase stripes derive from it.
    seed: u64,
    /// Test-only tripwire: drop the risk table on checkpoint load, so a
    /// restored twin diverges from the original. Never serialized.
    forgetful: bool,
    // --- mutable state (checkpointed) ---
    /// Granted probe slots (tour + hot), drives the hot interleave.
    granted: u64,
    /// Round-robin cursor over the hot subset of the table.
    hot_cursor: u32,
    /// Accumulated score per line address; 0 means unprofiled.
    scores: Vec<u32>,
    /// The profiled lines as `(score, address)`; the first is the
    /// eviction victim.
    by_score: BTreeSet<(u32, u32)>,
    /// The profiled lines scoring at least `risk`.
    hot: BTreeSet<u32>,
    probes_seen: u64,
    stats: ProfileStats,
    evictions: u64,
    hot_probes: u64,
}

impl RiskProfile {
    /// An empty profile over `num_lines` lines.
    pub(crate) fn new(params: ProfileParams, num_lines: u32, seed: u64) -> Self {
        assert!(params.capacity >= 1, "profile capacity must be >= 1");
        assert!(params.hot_stride >= 2, "hot stride must be >= 2");
        assert!(params.stretch >= 1, "stretch must be >= 1");
        assert!(params.risk >= 1, "risk threshold must be >= 1");
        Self {
            params,
            seed,
            forgetful: false,
            granted: 0,
            hot_cursor: 0,
            scores: vec![0; num_lines as usize],
            by_score: BTreeSet::new(),
            hot: BTreeSet::new(),
            probes_seen: 0,
            stats: ProfileStats::default(),
            evictions: 0,
            hot_probes: 0,
        }
    }

    pub(crate) fn params(&self) -> &ProfileParams {
        &self.params
    }

    /// Lines currently resident in the risk table.
    pub fn table_len(&self) -> usize {
        self.by_score.len()
    }

    /// The probe tallies since the run began (checkpointed, so a resumed
    /// run continues them).
    pub(crate) fn stats(&self) -> ProfileStats {
        self.stats
    }

    /// Risk-table evictions since the run began.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Extra probes the hot interleave granted since the run began.
    pub(crate) fn hot_probes(&self) -> u64 {
        self.hot_probes
    }

    /// Current score of `addr`, zero if unprofiled.
    pub fn score(&self, addr: LineAddr) -> u32 {
        self.scores.get(addr.0 as usize).copied().unwrap_or(0)
    }

    pub(crate) fn set_forgetful(&mut self, forgetful: bool) {
        self.forgetful = forgetful;
    }

    /// The hot line this grant probes, if the grant is the interleave's
    /// turn (every `hot_stride`-th) and a line at or above `risk` exists.
    pub(crate) fn hot_turn(&mut self) -> Option<LineAddr> {
        if !(self.granted + 1).is_multiple_of(u64::from(self.params.hot_stride)) {
            return None;
        }
        let addr = self.next_hot()?;
        self.hot_probes += 1;
        Some(addr)
    }

    /// Counts a granted probe slot.
    pub(crate) fn on_grant(&mut self) {
        self.granted += 1;
    }

    /// Whether the quiet stretch skips `addr` on tour number `tour`: an
    /// unprofiled line is due only on tours where
    /// `tour ≡ phase(addr) (mod stretch)`.
    pub(crate) fn skips(&self, addr: LineAddr, tour: u64) -> bool {
        let stretch = u64::from(self.params.stretch);
        stretch > 1 && self.score(addr) == 0 && self.phase(addr.0) != tour % stretch
    }

    /// The quiet-stretch phase stripe of `addr`.
    fn phase(&self, addr: u32) -> u64 {
        splitmix64(self.seed ^ 0x7052_4f46 ^ u64::from(addr)) % u64::from(self.params.stretch)
    }

    /// Next hot line (score >= risk) after the round-robin cursor, if
    /// any, advancing the cursor to it.
    fn next_hot(&mut self) -> Option<LineAddr> {
        let next = *self
            .hot
            .range(self.hot_cursor.saturating_add(1)..)
            .next()
            .or_else(|| self.hot.range(..=self.hot_cursor).next())?;
        self.hot_cursor = next;
        Some(LineAddr(next))
    }

    /// Learns from a probe result of `addr`: dirty results raise its
    /// score, clean ones decay it. Returns whether the line was profiled
    /// before this probe.
    pub(crate) fn observe(&mut self, addr: LineAddr, result: &AccessResult) -> bool {
        let dirty = result.persistent_bits > 0 || result.outcome.is_uncorrectable();
        let was_profiled = self.score(addr) != 0;
        self.probes_seen += 1;
        if dirty {
            self.stats.dirty_probes += 1;
        }
        if was_profiled {
            if dirty {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
        }
        if dirty {
            let mut inc = result.persistent_bits;
            if result.outcome.is_uncorrectable() {
                inc = inc.saturating_add(UE_BUMP);
            }
            if was_profiled {
                inc = inc.saturating_add(REPEAT_BONUS);
            }
            self.bump(addr.0, inc.max(1));
        } else if was_profiled {
            self.decay(addr);
        }
        was_profiled
    }

    /// A demand rewrite reset `addr`'s drift clock; its history is half
    /// as relevant now.
    pub(crate) fn on_demand_write(&mut self, addr: LineAddr) {
        self.decay(addr);
    }

    /// Adds `inc` to `addr`'s score, inserting and evicting as needed.
    fn bump(&mut self, addr: u32, inc: u32) {
        let old = self.scores[addr as usize];
        self.set_score(addr, old.saturating_add(inc).min(SCORE_CAP));
        if old == 0 && self.by_score.len() as u32 > self.params.capacity {
            let &(_, victim) = self
                .by_score
                .first()
                .expect("table is non-empty past capacity");
            self.set_score(victim, 0);
            self.evictions += 1;
        }
        if tel::enabled() {
            tel::gauge_max(tel::Gauge::ProfilerOccupancy, self.by_score.len() as u64);
        }
    }

    /// Halves `addr`'s score (clean probe or demand rewrite), dropping
    /// the entry once it reaches zero.
    fn decay(&mut self, addr: LineAddr) {
        let s = self.score(addr);
        if s != 0 {
            self.set_score(addr.0, s / 2);
        }
    }

    /// Moves `addr` to `score` (0 removes it from the table) and keeps
    /// both indexes in step.
    fn set_score(&mut self, addr: u32, score: u32) {
        let old = std::mem::replace(&mut self.scores[addr as usize], score);
        if old != 0 {
            self.by_score.remove(&(old, addr));
        }
        if score != 0 {
            self.by_score.insert((score, addr));
        }
        let risk = self.params.risk;
        if score >= risk && old < risk {
            self.hot.insert(addr);
        } else if score < risk && old >= risk {
            self.hot.remove(&addr);
        }
    }

    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.granted);
        w.put_u32(self.hot_cursor);
        w.put_u64(self.probes_seen);
        w.put_u64(self.stats.dirty_probes);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.evictions);
        w.put_u64(self.hot_probes);
        w.put_u32(self.by_score.len() as u32);
        for (addr, &score) in self.scores.iter().enumerate() {
            if score != 0 {
                w.put_u32(addr as u32);
                w.put_u32(score);
            }
        }
    }

    /// Restores the profile from a snapshot of a policy over as many
    /// lines as this one.
    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let num_lines = self.scores.len() as u32;
        let granted = r.u64()?;
        let hot_cursor = r.u32()?;
        if hot_cursor >= num_lines {
            return Err(CheckpointError::Malformed(format!(
                "profile hot cursor {hot_cursor} out of range ({num_lines} lines)"
            )));
        }
        let probes_seen = r.u64()?;
        let stats = ProfileStats {
            dirty_probes: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
        };
        let evictions = r.u64()?;
        let hot_probes = r.u64()?;
        let len = r.u32()?;
        if len > self.params.capacity {
            return Err(CheckpointError::Malformed(format!(
                "profile table holds {len} entries, capacity is {}",
                self.params.capacity
            )));
        }
        let mut table = Vec::new();
        let mut prev: Option<u32> = None;
        for _ in 0..len {
            let addr = r.u32()?;
            let score = r.u32()?;
            if addr >= num_lines {
                return Err(CheckpointError::Malformed(format!(
                    "profiled entry {addr} out of range ({num_lines} lines)"
                )));
            }
            if prev.is_some_and(|p| addr <= p) {
                return Err(CheckpointError::Malformed(
                    "profile table addresses not strictly ascending".to_string(),
                ));
            }
            if score == 0 || score > SCORE_CAP {
                return Err(CheckpointError::Malformed(format!(
                    "profile score {score} outside (0, {SCORE_CAP}]"
                )));
            }
            prev = Some(addr);
            table.push((addr, score));
        }
        self.granted = granted;
        self.hot_cursor = hot_cursor;
        self.probes_seen = probes_seen;
        self.stats = stats;
        self.evictions = evictions;
        self.hot_probes = hot_probes;
        self.scores.fill(0);
        self.by_score.clear();
        self.hot.clear();
        if !self.forgetful {
            for (addr, score) in table {
                self.set_score(addr, score);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
    use crate::tour::TourBudget;
    use pcm_ecc::{ClassifyOutcome, CodeSpec};
    use pcm_memsim::{MemGeometry, Memory, SimTime};
    use pcm_model::DeviceConfig;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    fn budget(iops: f64, burst: f64, max_defer: u32) -> TourBudget {
        TourBudget {
            iops,
            burst,
            max_defer,
        }
    }

    fn params(capacity: u32, hot_stride: u32, stretch: u32, risk: u32) -> ProfileParams {
        ProfileParams {
            capacity,
            hot_stride,
            stretch,
            risk,
        }
    }

    fn mem(lines: u32, banks: u32) -> Memory {
        Memory::new(
            MemGeometry::new(lines, banks),
            DeviceConfig::default(),
            CodeSpec::bch_line(6),
            7,
        )
    }

    fn ctx<'a>(now_s: f64, mem: &'a Memory) -> ScrubContext<'a> {
        ScrubContext {
            now: SimTime::from_secs(now_s),
            mem,
        }
    }

    fn res(bits: u32, outcome: ClassifyOutcome) -> AccessResult {
        AccessResult {
            outcome,
            persistent_bits: bits,
            new_ue: false,
        }
    }

    fn mk(lines: u32, banks: u32, p: ProfileParams) -> ScrubPolicy {
        ScrubPolicy::profiled(
            lines as f64 * 10.0,
            lines,
            banks,
            4,
            budget(1e6, 1e6, 4),
            p,
            11,
        )
    }

    fn profile(p: &ScrubPolicy) -> &RiskProfile {
        p.profile().expect("profiled policy")
    }

    /// With no profile and stretch 1, one tour visits every line once —
    /// the cold profiler degrades to a plain tour.
    #[test]
    fn cold_stretch1_tour_is_a_permutation() {
        for (lines, banks) in [(64u32, 8u32), (60, 8), (17, 3)] {
            let m = mem(lines, banks);
            let mut p = mk(lines, banks, params(16, 1000, 1, 2));
            let visited: HashSet<u32> = (0..lines)
                .filter_map(|s| match p.next_action(&ctx(s as f64, &m)) {
                    ScrubAction::Probe(a) => Some(a.0),
                    ScrubAction::Idle => None,
                })
                .collect();
            assert_eq!(visited.len(), lines as usize);
        }
    }

    /// Quiet stretch probes an even 1/stretch share per tour and every
    /// line within `stretch` consecutive tours.
    #[test]
    fn stretch_stripes_quiet_lines_across_tours() {
        let lines = 60u32;
        let stretch = 3u32;
        let m = mem(lines, 4);
        let mut p = mk(lines, 4, params(16, 1000, stretch, 2));
        let mut probed: Vec<HashSet<u32>> = vec![HashSet::new(); stretch as usize];
        let mut t = 0.0;
        for _ in 0..3 * lines {
            let tour = p.tour_cursor().expect("tour").tours_completed() as usize;
            if let ScrubAction::Probe(a) = p.next_action(&ctx(t, &m)) {
                probed[tour % stretch as usize].insert(a.0);
            }
            t += 1.0;
        }
        let total: usize = probed.iter().map(|s| s.len()).sum();
        assert_eq!(total, lines as usize, "each line probed exactly once");
        for s in &probed {
            assert!(
                s.len() >= lines as usize / (stretch as usize) - 8
                    && s.len() <= lines as usize / (stretch as usize) + 8,
                "uneven stripe: {}",
                s.len()
            );
        }
    }

    /// A dirty probe inserts the line; the hot interleave then revisits
    /// it more often than the tour alone would.
    #[test]
    fn hot_lines_get_extra_probes() {
        let lines = 64u32;
        let m = mem(lines, 4);
        let mut p = mk(lines, 4, params(16, 4, 1, 2));
        // Make line 5 a known offender.
        p.wants_writeback(
            LineAddr(5),
            &res(3, ClassifyOutcome::Corrected { bits: 3 }),
            &ctx(0.0, &m),
        );
        assert!(profile(&p).score(LineAddr(5)) >= 2);
        let mut hits_on_5 = 0;
        for s in 0..256 {
            if let ScrubAction::Probe(a) = p.next_action(&ctx(s as f64, &m)) {
                if a.0 == 5 {
                    hits_on_5 += 1;
                }
            }
        }
        // 256 slots = 4 tours; the tour alone would probe line 5 four
        // times, the interleave adds roughly one probe per 4 grants.
        assert!(hits_on_5 > 10, "hot line only probed {hits_on_5} times");
        assert!(profile(&p).hot_probes > 0);
    }

    /// The table never exceeds capacity; overflow evicts lowest-score.
    #[test]
    fn table_is_bounded_and_evicts_lowest() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(4, 4, 1, 2));
        for a in 0..10u32 {
            p.wants_writeback(
                LineAddr(a),
                &res(1 + a % 3, ClassifyOutcome::Corrected { bits: 1 }),
                &ctx(0.0, &m),
            );
            assert!(profile(&p).table_len() <= 4, "table grew past capacity");
        }
        assert!(profile(&p).evictions > 0);
    }

    /// Clean probes decay scores and eventually forget the line; demand
    /// writes decay too.
    #[test]
    fn scores_decay_on_clean_probes_and_demand_writes() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(16, 4, 1, 2));
        p.wants_writeback(
            LineAddr(9),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(0.0, &m),
        );
        let s0 = profile(&p).score(LineAddr(9));
        assert!(s0 >= 4);
        p.on_demand_write(LineAddr(9), SimTime::from_secs(1.0));
        assert_eq!(profile(&p).score(LineAddr(9)), s0 / 2);
        while profile(&p).score(LineAddr(9)) > 0 {
            p.wants_writeback(LineAddr(9), &res(0, ClassifyOutcome::Clean), &ctx(2.0, &m));
        }
        assert_eq!(profile(&p).table_len(), 0);
        assert!(profile(&p).stats.misses > 0);
    }

    /// Quiet lines write back at theta+1, profiled lines at theta; UEs
    /// always write back.
    #[test]
    fn quiet_lines_stretch_the_writeback_threshold() {
        let m = mem(64, 4);
        let mut p = mk(64, 4, params(16, 4, 1, 2));
        // Quiet line at exactly theta=4: held (lazy-plus).
        assert!(!p.wants_writeback(
            LineAddr(3),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(0.0, &m),
        ));
        // It is now profiled; theta applies on the next probe.
        assert!(p.wants_writeback(
            LineAddr(3),
            &res(4, ClassifyOutcome::Corrected { bits: 4 }),
            &ctx(1.0, &m),
        ));
        // Quiet line at theta+1 writes back.
        assert!(p.wants_writeback(
            LineAddr(7),
            &res(5, ClassifyOutcome::Corrected { bits: 5 }),
            &ctx(0.0, &m),
        ));
        // UE always writes back, quiet or not.
        assert!(p.wants_writeback(
            LineAddr(8),
            &res(0, ClassifyOutcome::DetectedUncorrectable),
            &ctx(0.0, &m),
        ));
    }

    /// Starvation: an empty bucket throttles, then forces within
    /// max_defer + 1 slots, exactly like the tour.
    #[test]
    fn starved_bucket_throttles_then_forces() {
        let m = mem(8, 2);
        let mut p =
            ScrubPolicy::profiled(8.0, 8, 2, 4, budget(1e-9, 1.0, 3), params(4, 4, 1, 2), 5);
        p.on_demand_read(LineAddr(0), SimTime::ZERO);
        let mut pattern = Vec::new();
        for s in 0..8 {
            let a = p.next_action(&ctx(s as f64, &m));
            pattern.push(matches!(a, ScrubAction::Probe(_)));
        }
        assert_eq!(
            pattern,
            [false, false, false, true, false, false, false, true]
        );
        let bucket = p.bucket().expect("budgeted");
        assert_eq!(bucket.forced_probes(), 2);
        assert_eq!(bucket.throttled_slots(), 6);
    }

    /// save/load round-trips the full profiler state byte-for-byte; the
    /// forgetful tripwire visibly breaks the twin; tampered tables are
    /// rejected.
    #[test]
    fn checkpoint_roundtrip_forgetful_and_validation() {
        let m = mem(64, 8);
        let p0 = params(8, 4, 2, 2);
        let mk0 = || ScrubPolicy::profiled(640.0, 64, 8, 4, budget(0.5, 4.0, 3), p0, 11);
        let mut p = mk0();
        for s in 0..61 {
            p.on_demand_read(LineAddr(0), SimTime::from_secs(9.9 * s as f64));
            if let ScrubAction::Probe(a) = p.next_action(&ctx(10.0 * s as f64, &m)) {
                let bits = a.0 % 5;
                let outcome = if bits == 0 {
                    ClassifyOutcome::Clean
                } else {
                    ClassifyOutcome::Corrected { bits }
                };
                p.wants_writeback(a, &res(bits, outcome), &ctx(10.0 * s as f64, &m));
            }
        }
        assert!(
            profile(&p).table_len() > 0,
            "exercise the table serialization"
        );
        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = mk0();
        let mut r = Reader::new(&bytes);
        q.load_state(&mut r).expect("roundtrip");
        r.finish().expect("all bytes consumed");
        let position = |p: &ScrubPolicy| p.tour_cursor().expect("tour").position();
        assert_eq!(position(&q), position(&p));
        assert_eq!(profile(&q).table_len(), profile(&p).table_len());
        assert_eq!(profile(&q).stats, profile(&p).stats);
        let mut w2 = Writer::new();
        q.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "byte-identical re-serialization");

        // The forgetful tripwire drops the table on load.
        let mut f = mk0();
        f.set_forgetful_for_test(true);
        let mut rf = Reader::new(&bytes);
        f.load_state(&mut rf).expect("forgetful load still parses");
        rf.finish().expect("all bytes consumed");
        assert_eq!(
            profile(&f).table_len(),
            0,
            "tripwire must forget the profile"
        );

        // A tampered table length (past capacity) is rejected.
        let mut evil = bytes.clone();
        // table len offset: three u32 fields (pos, defer_streak,
        // hot_cursor), two f64 (tokens, last_refill), twelve u64
        // = 12 + 16 + 96 = 124 (the codec is little-endian throughout).
        let off = 124;
        evil[off..off + 4].copy_from_slice(&100u32.to_le_bytes());
        let mut re = Reader::new(&evil);
        assert!(matches!(
            mk0().load_state(&mut re),
            Err(CheckpointError::Malformed(_))
        ));

        // A hot cursor past the last line is rejected. It follows the
        // tour (u32 position, u64 tour count), the bucket (two f64, a u32
        // streak, four u64) and the profile's u64 grant count:
        // 12 + 52 + 8 = 72.
        let off = 72;
        assert_eq!(bytes[off..off + 4], profile(&p).hot_cursor.to_le_bytes());
        for cursor in [64u32, u32::MAX] {
            let mut evil = bytes.clone();
            evil[off..off + 4].copy_from_slice(&cursor.to_le_bytes());
            let mut re = Reader::new(&evil);
            assert!(matches!(
                mk0().load_state(&mut re),
                Err(CheckpointError::Malformed(_))
            ));
        }

        // A snapshot from a different seed fails the origin check.
        let mut diff = ScrubPolicy::profiled(640.0, 64, 8, 4, budget(0.5, 4.0, 3), p0, 12);
        let mut rd = Reader::new(&bytes);
        assert!(diff.load_state(&mut rd).is_err());
    }

    #[test]
    #[should_panic(expected = "hot stride must be >= 2")]
    fn rejects_unit_hot_stride() {
        mk(64, 4, params(16, 1, 1, 2));
    }

    /// The risk table as one `BTreeMap`, walked for every eviction and
    /// hot pick: the reference the indexed table must match.
    /// `ties_high` is a tripwire that evicts the largest address among
    /// equal scores instead of the smallest.
    #[derive(Default)]
    struct ModelTable {
        table: BTreeMap<u32, u32>,
        hot_cursor: u32,
        evictions: u64,
        ties_high: bool,
    }

    impl ModelTable {
        fn observe(&mut self, capacity: u32, addr: u32, bits: u32, ue: bool) {
            let was_profiled = self.table.contains_key(&addr);
            if bits == 0 && !ue {
                self.decay(addr);
                return;
            }
            let inc =
                bits + if ue { UE_BUMP } else { 0 } + if was_profiled { REPEAT_BONUS } else { 0 };
            let e = self.table.entry(addr).or_insert(0);
            *e = (*e + inc.max(1)).min(SCORE_CAP);
            if !was_profiled && self.table.len() as u32 > capacity {
                let ties_high = self.ties_high;
                let victim = self
                    .table
                    .iter()
                    .min_by_key(|&(&a, &s)| (s, if ties_high { u32::MAX - a } else { a }))
                    .map(|(&a, _)| a)
                    .expect("non-empty past capacity");
                self.table.remove(&victim);
                self.evictions += 1;
            }
        }

        fn decay(&mut self, addr: u32) {
            if let Some(s) = self.table.get_mut(&addr) {
                *s /= 2;
                if *s == 0 {
                    self.table.remove(&addr);
                }
            }
        }

        fn next_hot(&mut self, risk: u32) -> Option<u32> {
            let next = self
                .table
                .range(self.hot_cursor + 1..)
                .chain(self.table.range(..=self.hot_cursor))
                .find(|&(_, &s)| s >= risk)
                .map(|(&a, _)| a)?;
            self.hot_cursor = next;
            Some(next)
        }
    }

    /// Drives a [`RiskProfile`] over 12 lines and a [`ModelTable`]
    /// through the steps `script` encodes (observations, demand writes,
    /// hot picks, save→load round trips) and describes the first step
    /// after which they disagree.
    fn first_divergence(capacity: u32, script: &[u32], ties_high: bool) -> Option<String> {
        const LINES: u32 = 12;
        let p = params(capacity, 4, 2, 3);
        let mut real = RiskProfile::new(p, LINES, 5);
        let mut model = ModelTable {
            ties_high,
            ..ModelTable::default()
        };
        for (step, &w) in script.iter().enumerate() {
            let addr = w % LINES;
            match (w >> 8) % 8 {
                0..=3 => {
                    let bits = (w >> 12) % 6;
                    let ue = (w >> 16) % 16 == 0;
                    let outcome = match (ue, bits) {
                        (true, _) => ClassifyOutcome::DetectedUncorrectable,
                        (false, 0) => ClassifyOutcome::Clean,
                        (false, bits) => ClassifyOutcome::Corrected { bits },
                    };
                    real.observe(LineAddr(addr), &res(bits, outcome));
                    model.observe(capacity, addr, bits, ue);
                }
                4 => {
                    real.on_demand_write(LineAddr(addr));
                    model.decay(addr);
                }
                5 | 6 => {
                    let (got, want) = (real.next_hot().map(|a| a.0), model.next_hot(p.risk));
                    if got != want {
                        return Some(format!("step {step}: hot pick {got:?}, model {want:?}"));
                    }
                }
                _ => {
                    let mut w = Writer::new();
                    real.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut twin = RiskProfile::new(p, LINES, 5);
                    let mut r = Reader::new(&bytes);
                    twin.load_state(&mut r).expect("own snapshot loads");
                    r.finish().expect("snapshot fully consumed");
                    real = twin;
                }
            }
            for a in 0..LINES {
                let want = model.table.get(&a).copied().unwrap_or(0);
                if real.score(LineAddr(a)) != want {
                    return Some(format!(
                        "step {step}: line {a} scores {}, model {want}",
                        real.score(LineAddr(a))
                    ));
                }
            }
            if (real.table_len(), real.evictions) != (model.table.len(), model.evictions) {
                return Some(format!(
                    "step {step}: {} entries after {} evictions, model {} after {}",
                    real.table_len(),
                    real.evictions,
                    model.table.len(),
                    model.evictions
                ));
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The score array and both indexes track the map-walking table
        /// under any script: every score, the occupancy, the eviction
        /// count and every hot pick agree after each step.
        #[test]
        fn indexed_table_matches_the_map_walking_model(
            capacity in 1u32..9,
            script in proptest::collection::vec(0u32..u32::MAX, 1..400),
        ) {
            prop_assert_eq!(first_divergence(capacity, &script, false), None);
        }
    }

    /// Tripwire: the same harness, aimed at a model that breaks
    /// eviction ties by the largest address, reports a divergence.
    #[test]
    fn differential_harness_catches_a_wrong_eviction_tie_break() {
        let caught = (1..=8u32)
            .filter(|&capacity| {
                let script: Vec<u32> = (0..400u64)
                    .map(|i| splitmix64(u64::from(capacity) << 32 | i) as u32)
                    .collect();
                assert_eq!(first_divergence(capacity, &script, false), None);
                first_divergence(capacity, &script, true).is_some()
            })
            .count();
        assert!(caught > 0, "no script exposed the tie-break");
    }
}
