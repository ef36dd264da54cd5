//! The `Tour` schedule and the `Bucket` gate: an IOPS-budgeted sweep
//! that shares its token bucket with demand traffic, modeled on
//! kimberlite's `Scrubbing.tla`.
//!
//! A *tour* visits every line exactly once. Unlike the paper's policies,
//! which assume scrub probes are free to schedule, a budgeted policy
//! spends from a token bucket refilled at `iops` tokens/second; demand
//! reads and writes drain the same bucket, so a busy machine naturally
//! slows its scrub — but never stalls it: after `max_defer` consecutive
//! throttled slots the next probe is *forced* (the anti-starvation
//! boost), which caps any tour at `num_lines * (max_defer + 1)` slots.
//! That cap is the executable form of the TLA property `ScrubProgress`,
//! and is checked three ways against this very implementation: an
//! exhaustive search of a few-line tour's states
//! ([`crate::modelcheck`]), stateful proptests, and at run time the
//! bucket's longest tour, which the simulation publishes as the
//! `starvation_max_lag` telemetry gauge.
//!
//! Each bank starts its share of the tour at a *randomized origin*
//! (derived deterministically from the run seed), so a fleet of machines
//! booted together does not synchronize its scrub storms.

use pcm_memsim::{splitmix64, LineAddr, SimTime};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

/// The token-bucket parameters of a budgeted policy, as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TourBudget {
    /// Bucket refill rate (tokens per second); every probe, demand read,
    /// and demand write costs one token.
    pub iops: f64,
    /// Bucket capacity (burst allowance), in tokens.
    pub burst: f64,
    /// Consecutive throttled slots tolerated before a probe is forced.
    pub max_defer: u32,
}

/// The `Tour` schedule: banks interleave low-order (tour position `p`
/// maps to bank `p % banks`), and each bank walks its own lines from a
/// seeded origin. Tours interleave over at most `num_lines` banks, so
/// every bank owns at least one line.
#[derive(Debug, Clone)]
pub struct TourCursor {
    // --- configuration (rebuilt from the run config on resume) ---
    num_lines: u32,
    banks: u32,
    /// Per-bank tour origin: bank `b` visits its `j`-th line as
    /// `b + ((origins[b] + j) % count_b) * banks`.
    origins: Vec<u32>,
    // --- mutable state (checkpointed) ---
    /// Tour position in `0..num_lines`.
    pos: u32,
    tours_completed: u64,
}

impl TourCursor {
    /// A tour over `num_lines` lines in `min(banks, num_lines)` banks,
    /// with origins derived from `origin_seed`.
    pub(crate) fn new(num_lines: u32, banks: u32, origin_seed: u64) -> Self {
        assert!(num_lines > 0, "need at least one line");
        assert!(banks > 0, "need at least one bank");
        let banks = banks.min(num_lines);
        let origins = (0..banks)
            .map(|b| {
                let count = Self::bank_line_count(num_lines, banks, b);
                (splitmix64(origin_seed ^ u64::from(b)) % u64::from(count)) as u32
            })
            .collect();
        Self {
            num_lines,
            banks,
            origins,
            pos: 0,
            tours_completed: 0,
        }
    }

    /// Lines owned by bank `b` under low-order interleaving.
    fn bank_line_count(num_lines: u32, banks: u32, b: u32) -> u32 {
        num_lines / banks + u32::from(b < num_lines % banks)
    }

    /// Tour position (the next line index in tour order).
    pub fn position(&self) -> u32 {
        self.pos
    }

    /// Completed tours.
    pub fn tours_completed(&self) -> u64 {
        self.tours_completed
    }

    /// The line the tour visits at position `p`.
    fn addr_at(&self, p: u32) -> LineAddr {
        let b = p % self.banks;
        let j = p / self.banks;
        let count = Self::bank_line_count(self.num_lines, self.banks, b);
        LineAddr(b + ((self.origins[b as usize] + j) % count) * self.banks)
    }

    /// Returns the line at the current position and advances, reporting
    /// whether this step completed a tour.
    pub(crate) fn advance(&mut self) -> (LineAddr, bool) {
        let addr = self.addr_at(self.pos);
        self.pos += 1;
        if self.pos < self.num_lines {
            return (addr, false);
        }
        self.pos = 0;
        self.tours_completed += 1;
        (addr, true)
    }

    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.pos);
        w.put_u64(self.tours_completed);
    }

    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let pos = r.u32()?;
        if pos >= self.num_lines {
            return Err(CheckpointError::Malformed(format!(
                "tour position {pos} out of range ({} lines)",
                self.num_lines
            )));
        }
        self.pos = pos;
        self.tours_completed = r.u64()?;
        Ok(())
    }

    /// Origins are derived from the run config; they are serialized
    /// anyway, last, as an identity check so a snapshot resumed under a
    /// different seed fails loudly instead of silently re-origining.
    pub(crate) fn save_origins(&self, w: &mut Writer) {
        for &o in &self.origins {
            w.put_u32(o);
        }
    }

    pub(crate) fn check_origins(&self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        for (b, &want) in self.origins.iter().enumerate() {
            let got = r.u32()?;
            if got != want {
                return Err(CheckpointError::Malformed(format!(
                    "tour origin mismatch on bank {b}: snapshot has {got}, config derives {want}"
                )));
            }
        }
        Ok(())
    }
}

/// How the bucket admitted a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grant {
    /// A token is available.
    Token,
    /// The bucket is empty but the anti-starvation boost fires.
    Forced,
}

/// The `Bucket` gate: a token bucket shared with demand traffic, with the
/// anti-starvation boost and the per-tour lag counters that measure
/// `ScrubProgress`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    // --- configuration (rebuilt from the run config on resume) ---
    budget: TourBudget,
    /// Test-only: disable the anti-starvation boost, making the scheduler
    /// deliberately unfair. Never serialized.
    unfair: bool,
    // --- mutable state (checkpointed) ---
    /// Tokens currently in the bucket, `0.0..=burst`.
    tokens: f64,
    last_refill: SimTime,
    /// Consecutive slots throttled since the last probe.
    defer_streak: u32,
    throttled_slots: u64,
    forced_probes: u64,
    /// Slots spent in the tour in progress.
    slots_this_tour: u64,
    /// Longest completed tour, in slots (the measured `ScrubProgress`
    /// lag; must stay within the policy's progress bound).
    max_tour_slots: u64,
}

impl TokenBucket {
    /// A full bucket.
    pub(crate) fn new(budget: TourBudget) -> Self {
        assert!(
            budget.iops.is_finite() && budget.iops > 0.0,
            "iops must be positive"
        );
        assert!(
            budget.burst.is_finite() && budget.burst >= 1.0,
            "burst must be at least one token"
        );
        Self {
            budget,
            unfair: false,
            tokens: budget.burst,
            last_refill: SimTime::ZERO,
            defer_streak: 0,
            throttled_slots: 0,
            forced_probes: 0,
            slots_this_tour: 0,
            max_tour_slots: 0,
        }
    }

    pub(crate) fn budget(&self) -> &TourBudget {
        &self.budget
    }

    /// Slots throttled by an empty bucket.
    pub fn throttled_slots(&self) -> u64 {
        self.throttled_slots
    }

    /// Probes forced by the anti-starvation boost.
    pub fn forced_probes(&self) -> u64 {
        self.forced_probes
    }

    /// Longest completed tour, in slots.
    pub(crate) fn max_tour_slots(&self) -> u64 {
        self.max_tour_slots
    }

    pub(crate) fn set_unfair(&mut self, unfair: bool) {
        self.unfair = unfair;
    }

    /// Refills the bucket for the time elapsed since the last charge.
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_refill).max(0.0);
        self.tokens = (self.tokens + self.budget.iops * elapsed).min(self.budget.burst);
        self.last_refill = now;
    }

    /// Charges one demand operation against the shared bucket.
    pub(crate) fn charge_demand(&mut self, now: SimTime) {
        self.refill(now);
        self.tokens = (self.tokens - 1.0).max(0.0);
    }

    /// Opens a slot: refills, counts the slot against the tour in
    /// progress, and decides whether it may probe. `None` throttles the
    /// slot.
    pub(crate) fn admit(&mut self, now: SimTime) -> Option<Grant> {
        self.refill(now);
        self.slots_this_tour += 1;
        if self.tokens >= 1.0 {
            return Some(Grant::Token);
        }
        if !self.unfair && self.defer_streak >= self.budget.max_defer {
            return Some(Grant::Forced);
        }
        self.defer_streak += 1;
        self.throttled_slots += 1;
        None
    }

    /// Pays for a probe the slot issued under `grant`. A forced probe
    /// runs with an empty bucket (going into debt is modeled as clamping
    /// at zero).
    pub(crate) fn spend(&mut self, grant: Grant) {
        match grant {
            Grant::Token => self.tokens -= 1.0,
            Grant::Forced => self.forced_probes += 1,
        }
        self.defer_streak = 0;
    }

    /// Closes out a completed tour's lag window.
    pub(crate) fn end_tour(&mut self) {
        self.max_tour_slots = self.max_tour_slots.max(self.slots_this_tour);
        self.slots_this_tour = 0;
    }

    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.tokens);
        w.put_f64(self.last_refill.secs());
        w.put_u32(self.defer_streak);
        w.put_u64(self.throttled_slots);
        w.put_u64(self.forced_probes);
        w.put_u64(self.slots_this_tour);
        w.put_u64(self.max_tour_slots);
    }

    pub(crate) fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let tokens = r.finite_f64("tour tokens")?;
        if !(0.0..=self.budget.burst).contains(&tokens) {
            return Err(CheckpointError::Malformed(format!(
                "tour tokens {tokens} outside bucket [0, {}]",
                self.budget.burst
            )));
        }
        let last_refill = r.time_f64("tour last refill")?;
        let defer_streak = r.u32()?;
        if defer_streak > self.budget.max_defer {
            return Err(CheckpointError::Malformed(format!(
                "tour defer streak {defer_streak} exceeds max_defer {}",
                self.budget.max_defer
            )));
        }
        self.tokens = tokens;
        self.last_refill = SimTime::from_secs(last_refill);
        self.defer_streak = defer_streak;
        self.throttled_slots = r.u64()?;
        self.forced_probes = r.u64()?;
        self.slots_this_tour = r.u64()?;
        self.max_tour_slots = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ScrubAction, ScrubContext, ScrubPolicy};
    use pcm_ecc::CodeSpec;
    use pcm_memsim::{MemGeometry, Memory};
    use pcm_model::DeviceConfig;
    use std::collections::HashSet;

    fn budget(iops: f64, burst: f64, max_defer: u32) -> TourBudget {
        TourBudget {
            iops,
            burst,
            max_defer,
        }
    }

    fn tour(interval_s: f64, lines: u32, banks: u32, b: TourBudget, seed: u64) -> ScrubPolicy {
        ScrubPolicy::tour(interval_s, lines, banks, 4, b, seed)
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

    fn bucket(p: &ScrubPolicy) -> &TokenBucket {
        p.bucket().expect("budgeted policy")
    }

    /// One tour visits every line exactly once, for bank counts that do
    /// and do not divide the line count, and for more banks than lines.
    #[test]
    fn tour_is_a_permutation_of_all_lines() {
        for (lines, banks) in [
            (64u32, 8u32),
            (60, 8),
            (17, 3),
            (5, 5),
            (4, 8),
            (1, 8),
            (7, 8),
        ] {
            for seed in [0u64, 1, 99] {
                let t = TourCursor::new(lines, banks, seed);
                let visited: HashSet<u32> = (0..lines).map(|i| t.addr_at(i).0).collect();
                assert_eq!(visited.len(), lines as usize, "{lines}x{banks} seed {seed}");
                assert!(visited.iter().all(|&a| a < lines));
            }
        }
    }

    /// Origins differ across seeds (the anti-storm property) and across
    /// banks, but are identical for identical seeds.
    #[test]
    fn origins_are_seeded_and_deterministic() {
        let origins = |seed| {
            let p = tour(900.0, 4096, 8, budget(100.0, 10.0, 4), seed);
            p.tour_cursor().expect("tour").origins.clone()
        };
        let (a, b, c) = (origins(1), origins(1), origins(2));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed, different tour");
        assert!(
            a.iter().collect::<HashSet<_>>().len() > 1,
            "banks should not all share one origin: {a:?}"
        );
    }

    /// With a full bucket and no demand, every slot probes.
    #[test]
    fn unthrottled_tour_probes_every_slot() {
        let m = mem(16, 2);
        let mut p = tour(160.0, 16, 2, budget(1.0, 16.0, 4), 3);
        let mut probes = 0;
        for s in 0..16 {
            match p.next_action(&ctx(10.0 * s as f64, &m)) {
                ScrubAction::Probe(_) => probes += 1,
                ScrubAction::Idle => {}
            }
        }
        assert_eq!(probes, 16);
        assert_eq!(p.tour_cursor().expect("tour").tours_completed(), 1);
        assert_eq!(bucket(&p).max_tour_slots, 16);
    }

    /// An empty bucket throttles, and the anti-starvation boost forces a
    /// probe after exactly `max_defer` deferred slots.
    #[test]
    fn starved_bucket_throttles_then_forces() {
        let m = mem(8, 2);
        // iops so small the bucket never meaningfully refills.
        let mut p = tour(8.0, 8, 2, budget(1e-9, 1.0, 3), 5);
        // Drain the single token.
        p.on_demand_read(LineAddr(0), SimTime::ZERO);
        let mut pattern = Vec::new();
        for s in 0..8 {
            let a = p.next_action(&ctx(s as f64, &m));
            pattern.push(matches!(a, ScrubAction::Probe(_)));
        }
        // 3 throttled slots, then a forced probe, repeating.
        assert_eq!(
            pattern,
            [false, false, false, true, false, false, false, true]
        );
        assert_eq!(bucket(&p).forced_probes(), 2);
        assert_eq!(bucket(&p).throttled_slots(), 6);
    }

    /// The unfair variant starves forever — the tripwire the starvation
    /// proptest must catch.
    #[test]
    fn unfair_variant_never_forces() {
        let m = mem(8, 2);
        let mut p = tour(8.0, 8, 2, budget(1e-9, 1.0, 3), 5);
        p.set_unfair_for_test(true);
        p.on_demand_read(LineAddr(0), SimTime::ZERO);
        for s in 0..100 {
            assert_eq!(p.next_action(&ctx(s as f64, &m)), ScrubAction::Idle);
        }
        assert_eq!(bucket(&p).forced_probes(), 0);
    }

    /// Demand traffic drains the same bucket the scrubber spends from.
    #[test]
    fn demand_charges_shared_bucket() {
        let m = mem(8, 2);
        let mut p = tour(8.0, 8, 2, budget(1e-9, 4.0, 10), 5);
        assert_eq!(bucket(&p).tokens, 4.0);
        p.on_demand_read(LineAddr(0), SimTime::ZERO);
        p.on_demand_write(LineAddr(1), SimTime::ZERO);
        assert_eq!(bucket(&p).tokens, 2.0);
        // Two probes spend the rest; the third slot throttles.
        assert!(matches!(
            p.next_action(&ctx(0.0, &m)),
            ScrubAction::Probe(_)
        ));
        assert!(matches!(
            p.next_action(&ctx(1.0, &m)),
            ScrubAction::Probe(_)
        ));
        assert_eq!(p.next_action(&ctx(2.0, &m)), ScrubAction::Idle);
    }

    /// The bucket refills at `iops` and caps at `burst`.
    #[test]
    fn bucket_refills_and_caps() {
        let mut b = TokenBucket::new(budget(2.0, 5.0, 4));
        b.charge_demand(SimTime::ZERO);
        b.charge_demand(SimTime::ZERO);
        b.charge_demand(SimTime::ZERO);
        assert_eq!(b.tokens, 2.0);
        // 1 s at 2 tokens/s refills 2, minus the one this read spends.
        b.charge_demand(SimTime::from_secs(1.0));
        assert!((b.tokens - 3.0).abs() < 1e-9);
        // A long quiet period caps at burst.
        b.charge_demand(SimTime::from_secs(1000.0));
        assert!((b.tokens - 4.0).abs() < 1e-9); // burst 5 minus this charge
    }

    /// save/load round-trips mid-tour state exactly; tampered state is
    /// rejected with a typed error.
    #[test]
    fn checkpoint_roundtrip_and_validation() {
        let m = mem(64, 8);
        let mk = || tour(640.0, 64, 8, budget(0.5, 4.0, 3), 11);
        let mut p = mk();
        for s in 0..37 {
            p.on_demand_read(LineAddr(0), SimTime::from_secs(9.9 * s as f64));
            p.next_action(&ctx(10.0 * s as f64, &m));
        }
        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = mk();
        let mut r = Reader::new(&bytes);
        q.load_state(&mut r).expect("roundtrip");
        r.finish().expect("all bytes consumed");
        // Identical observable state...
        let (pt, qt) = (
            p.tour_cursor().expect("tour"),
            q.tour_cursor().expect("tour"),
        );
        assert_eq!(qt.position(), pt.position());
        assert_eq!(qt.tours_completed(), pt.tours_completed());
        assert_eq!(bucket(&q).tokens, bucket(&p).tokens);
        // ...and identical re-serialization (byte-for-byte survival).
        let mut w2 = Writer::new();
        q.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);

        // Tampered tokens (beyond burst) must be rejected.
        let mut w3 = Writer::new();
        mk().save_state(&mut w3);
        let mut evil = w3.into_bytes();
        // tokens is the third field: u32 pos + u64 tours + f64 tokens
        // (the codec is little-endian throughout).
        let off = 4 + 8;
        evil[off..off + 8].copy_from_slice(&1e9f64.to_le_bytes());
        let mut r3 = Reader::new(&evil);
        let err = mk().load_state(&mut r3).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));

        // A snapshot from a different seed fails the origin check.
        let mut w4 = Writer::new();
        mk().save_state(&mut w4);
        let other = w4.into_bytes();
        let mut r4 = Reader::new(&other);
        let mut diff_seed = tour(640.0, 64, 8, budget(0.5, 4.0, 3), 12);
        assert!(diff_seed.load_state(&mut r4).is_err());
    }

    /// Pins the codec byte order the tamper test above depends on.
    #[test]
    fn writer_is_little_endian_for_f64() {
        let mut w = Writer::new();
        w.put_f64(1.0);
        assert_eq!(w.into_bytes(), 1.0f64.to_le_bytes());
    }
}
