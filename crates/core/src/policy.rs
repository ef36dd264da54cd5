//! The scrub-policy abstraction every mechanism implements.

use std::fmt;

use pcm_memsim::{AccessResult, LineAddr, Memory, SimTime, SweepRule};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

/// Read-only context a policy sees when deciding its next move.
#[derive(Debug)]
pub struct ScrubContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The memory being scrubbed (for line ages, geometry, code).
    pub mem: &'a Memory,
}

/// A policy's description of a whole run of upcoming slots, produced by
/// [`ScrubPolicy::plan_batch`]. Only policies whose slot decisions are
/// *local* — fixed cadence, cursor sweep, per-line probe/write-back rules
/// with no cross-line feedback — can express themselves this way; those
/// batches execute bank-parallel via [`Memory::scrub_sweep`] with results
/// bit-identical to the slot-at-a-time path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPlan {
    /// Line targeted by the first slot of the batch; subsequent slots
    /// advance the sweep cursor by one each, wrapping.
    pub first: LineAddr,
    /// Minimum data age for a probe (0 = probe unconditionally).
    pub min_age_s: f64,
    /// Per-line write-back rule for correctable lines.
    pub rule: SweepRule,
}

/// What the policy wants to do with its next scrub slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubAction {
    /// Probe this line (read + syndrome check).
    Probe(LineAddr),
    /// Spend the slot idle (e.g. every candidate line is too young to be
    /// worth probing).
    Idle,
}

/// A scrub mechanism: decides *which* lines to probe *when*, and whether a
/// probed line earns an (expensive, wear-inducing) corrective write-back.
///
/// The [`crate::ScrubEngine`] drives implementations one slot at a time:
/// `probe_gap_s` sets the pacing, `next_action` picks the victim,
/// `on_probe` decides the write-back, and `on_demand_write` lets policies
/// track drift-clock resets caused by program writes.
///
/// `Send` is a supertrait so whole simulations (which own their policy)
/// can be fanned out across the `scrub-exec` pool, one fleet shard per
/// worker.
pub trait ScrubPolicy: fmt::Debug + Send {
    /// Short name for reports, e.g. `"basic"`.
    fn name(&self) -> &str;

    /// Seconds between scrub slots *right now* (adaptive policies change
    /// this over time).
    fn probe_gap_s(&self, ctx: &ScrubContext<'_>) -> f64;

    /// Chooses the next slot's action.
    fn next_action(&mut self, ctx: &ScrubContext<'_>) -> ScrubAction;

    /// Inspects a probe result; `true` requests a corrective write-back.
    /// Uncorrectable lines are always written back by the engine (data is
    /// restored from higher-level redundancy) regardless of this answer.
    fn wants_writeback(
        &mut self,
        addr: LineAddr,
        result: &AccessResult,
        ctx: &ScrubContext<'_>,
    ) -> bool;

    /// Notification that a demand write refreshed `addr` at `now`.
    fn on_demand_write(&mut self, _addr: LineAddr, _now: SimTime) {}

    /// Notification that a demand read touched `addr` at `now`. Budgeted
    /// policies use this to charge demand traffic against the shared IOPS
    /// token bucket; the default is a no-op.
    fn on_demand_read(&mut self, _addr: LineAddr, _now: SimTime) {}

    /// Commits to the next `slots` slots as one batch, advancing internal
    /// cursors past them, and describes the batch for parallel execution.
    /// Policies whose decisions depend on cross-line state (adaptive
    /// region scheduling, energy budgets) return `None` — the default —
    /// and keep the sequential slot path. The answer must not change over
    /// a policy's life: after one `None` the engine stops asking.
    fn plan_batch(&mut self, _slots: u64) -> Option<BatchPlan> {
        None
    }

    /// Reports how many slots of the last planned batch were spent idle
    /// (age-skipped), for policies that track skip counters.
    fn on_batch_idle(&mut self, _skipped: u64) {}

    /// Serializes the policy's *mutable* state (cursors, feedback windows,
    /// region schedules) for checkpointing. Configuration parameters are
    /// not written: a resume rebuilds the policy from the run config and
    /// then overlays this state via [`ScrubPolicy::load_state`].
    fn save_state(&self, w: &mut Writer);

    /// Restores state captured by [`ScrubPolicy::save_state`] onto a
    /// freshly built policy with identical configuration. Implementations
    /// validate ranges (cursor within the line space, multipliers within
    /// their bounds) and return a typed error instead of panicking.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// Round-robin sweep cursor shared by the concrete policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCursor {
    next: u32,
}

impl SweepCursor {
    /// Starts a sweep at line 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current line and advances, wrapping at `num_lines`.
    /// Also reports whether this call completed a full sweep.
    pub fn advance(&mut self, num_lines: u32) -> (LineAddr, bool) {
        let addr = LineAddr(self.next);
        self.next = (self.next + 1) % num_lines;
        (addr, self.next == 0)
    }

    /// Returns the current line and advances by `n` slots at once (batch
    /// commit), wrapping at `num_lines`.
    pub fn advance_by(&mut self, n: u64, num_lines: u32) -> LineAddr {
        let addr = LineAddr(self.next);
        self.next = ((self.next as u64 + n) % num_lines as u64) as u32;
        addr
    }

    /// The line the next slot will probe (for checkpointing).
    pub fn position(&self) -> u32 {
        self.next
    }

    /// Restores a position captured by [`SweepCursor::position`],
    /// rejecting values outside the sweep's line space.
    pub fn set_position(&mut self, next: u32, num_lines: u32) -> Result<(), CheckpointError> {
        if next >= num_lines {
            return Err(CheckpointError::Malformed(format!(
                "sweep cursor {next} out of range ({num_lines} lines)"
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_wraps_and_flags_sweep_end() {
        let mut c = SweepCursor::new();
        let (a0, end0) = c.advance(3);
        assert_eq!(a0, LineAddr(0));
        assert!(!end0);
        let (_, end1) = c.advance(3);
        assert!(!end1);
        let (a2, end2) = c.advance(3);
        assert_eq!(a2, LineAddr(2));
        assert!(end2);
        let (a3, _) = c.advance(3);
        assert_eq!(a3, LineAddr(0));
    }

    #[test]
    fn advance_by_matches_repeated_advance() {
        let mut one = SweepCursor::new();
        let mut batch = SweepCursor::new();
        let first = batch.advance_by(7, 5);
        assert_eq!(first, LineAddr(0));
        for _ in 0..7 {
            one.advance(5);
        }
        assert_eq!(one, batch);
        // A second batch starts where the first left off: 7 mod 5 = 2.
        assert_eq!(batch.advance_by(1, 5), LineAddr(2));
    }
}
