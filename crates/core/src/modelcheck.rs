//! Exhaustive check of the budgeted tour's `ScrubProgress` bound on the
//! real policy, after kimberlite's `specs/tla/Scrubbing.tla`.
//!
//! [`check`] builds a [`ScrubPolicy::tour`] over a few lines and visits,
//! breadth first, every state an adversary can drive it to through the
//! policy's public methods: in each slot the adversary charges
//! `0..=demand_max` demand reads against the shared token bucket, then
//! the policy takes the slot. A line's gap counts the slots since its
//! last probe, the current slot included, so a line probed every `P`
//! slots reaches `P` (as `max_line_gap_slots` in
//! `tests/liveness_props.rs` counts). A gap above
//! [`ScrubPolicy::progress_bound_slots`] is a violation, reported with
//! the slots that reach it from the start.
//!
//! A state is the policy's `save_state` bytes, with the fields that feed
//! no decision zeroed, plus the gaps. Zeroing `last_refill` is sound
//! because every demand charge and every slot refills at the slot's
//! time, so each state's next refill spans exactly one slot gap.
//!
//! Detection and repair are not the policy's to decide: a probe within
//! the bound is the detection, and the engine writes an uncorrectable
//! line back whatever the policy answers. `tests/liveness_props.rs`
//! checks both on full simulations.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use pcm_ecc::CodeSpec;
use pcm_memsim::{LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::DeviceConfig;
use scrub_checkpoint::Writer;

use crate::{ScrubAction, ScrubContext, ScrubPolicy, TourBudget};

/// Byte ranges of a one-bank tour's `save_state` that feed no decision
/// (DESIGN.md § Checkpoint field order): `tours_completed`,
/// `last_refill`, and `throttled_slots` through `max_tour_slots`.
/// Unmasked, the counters grow forever and so would the search.
const UNUSED_FIELDS: [Range<usize>; 3] = [4..12, 20..28, 32..64];
/// Length of that `save_state`: the fields up to `max_tour_slots`, then
/// the one bank's origin.
const TOUR_STATE_LEN: usize = 68;

/// Size knobs for the model. Keep them tiny: the state space grows
/// exponentially with `lines`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelParams {
    /// Lines in the memory (= tour length).
    pub lines: u8,
    /// Token-bucket capacity.
    pub capacity: u8,
    /// Tokens refilled per slot.
    pub refill: u8,
    /// Most demand reads the adversary charges per slot (at or above
    /// `refill`, demand can keep the bucket empty).
    pub demand_max: u8,
    /// Throttled slots tolerated before a probe is forced.
    pub max_defer: u8,
}

impl ModelParams {
    /// The default small model: 3 lines, bucket of 2, refill 1, demand up
    /// to 2 per slot (so demand can outpace refill), `max_defer` 2.
    pub fn tiny() -> Self {
        Self {
            lines: 3,
            capacity: 2,
            refill: 1,
            demand_max: 2,
            max_defer: 2,
        }
    }

    /// The policy under check: a one-bank tour whose slot gap is one
    /// second, so each slot refills `refill` whole tokens.
    fn policy(&self) -> ScrubPolicy {
        let lines = u32::from(self.lines);
        let budget = TourBudget {
            iops: f64::from(self.refill),
            burst: f64::from(self.capacity),
            max_defer: u32::from(self.max_defer),
        };
        ScrubPolicy::tour(f64::from(lines), lines, 1, 1, budget, 0)
    }
}

/// A counterexample: the slots from the start to the violating one.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong, e.g. `"line 0 reached a gap of 10 slots (bound 9)"`.
    pub reason: String,
    /// One line per slot, the start first.
    pub trace: Vec<String>,
}

/// Result of one exhaustive search.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The policy's `ScrubProgress` bound, in slots.
    pub bound: u64,
    /// Distinct reachable states explored.
    pub states_explored: usize,
    /// The largest gap any line reached.
    pub max_gap: u32,
    /// `None` when no reachable state breaks the bound.
    pub violation: Option<Violation>,
}

/// Searches every state demand can drive the model's tour to, with the
/// anti-starvation boost disabled when `unfair` (the tripwire that must
/// be caught), and stops at the first gap above the bound.
///
/// # Panics
///
/// Panics if `lines`, `capacity` or `refill` is zero.
pub fn check(params: ModelParams, unfair: bool) -> CheckOutcome {
    let mut start = params.policy();
    start.set_unfair_for_test(unfair);
    let bound = start
        .progress_bound_slots()
        .expect("a tour has a token bucket");
    // The tour never reads the memory; it only fills the context.
    let mem = Memory::new(
        MemGeometry::new(u32::from(params.lines), 1),
        DeviceConfig::default(),
        CodeSpec::secded_line(),
        0,
    );
    let start_gaps = vec![0u32; usize::from(params.lines)];
    // Per state: its parent state and the drain that reached it.
    let mut parents: Vec<(usize, u8)> = vec![(0, 0)];
    let mut seen = HashSet::from([key(&start, &start_gaps)]);
    let mut queue = VecDeque::from([(0, 0u64, start.clone(), start_gaps)]);
    let mut max_gap = 0;
    while let Some((id, slot, policy, gaps)) = queue.pop_front() {
        for drain in 0..=params.demand_max {
            let mut next = policy.clone();
            let mut next_gaps = gaps.clone();
            let (_, gap, line) = step(&mut next, &mut next_gaps, slot, drain, &mem);
            max_gap = max_gap.max(gap);
            if u64::from(gap) > bound {
                let mut drains = vec![drain];
                let mut at = id;
                while at != 0 {
                    let (parent, d) = parents[at];
                    drains.push(d);
                    at = parent;
                }
                drains.reverse();
                return CheckOutcome {
                    bound,
                    states_explored: seen.len(),
                    max_gap,
                    violation: Some(Violation {
                        reason: format!("line {line} reached a gap of {gap} slots (bound {bound})"),
                        trace: replay(&start, usize::from(params.lines), &drains, &mem),
                    }),
                };
            }
            if seen.insert(key(&next, &next_gaps)) {
                parents.push((id, drain));
                queue.push_back((parents.len() - 1, slot + 1, next, next_gaps));
            }
        }
    }
    CheckOutcome {
        bound,
        states_explored: seen.len(),
        max_gap,
        violation: None,
    }
}

/// One slot at `slot` seconds: `drain` demand reads, then the policy's
/// action. Every gap grows by the slot, and the probed line's restarts
/// after it. Returns the action and the largest gap with its line.
fn step(
    policy: &mut ScrubPolicy,
    gaps: &mut [u32],
    slot: u64,
    drain: u8,
    mem: &Memory,
) -> (ScrubAction, u32, usize) {
    let now = SimTime::from_secs(slot as f64);
    for _ in 0..drain {
        policy.on_demand_read(LineAddr(0), now);
    }
    let action = policy.next_action(&ScrubContext { now, mem });
    for gap in gaps.iter_mut() {
        *gap += 1;
    }
    let (line, &gap) = gaps
        .iter()
        .enumerate()
        .max_by_key(|&(_, gap)| gap)
        .expect("at least one line");
    if let ScrubAction::Probe(addr) = action {
        gaps[addr.0 as usize] = 0;
    }
    (action, gap, line)
}

/// The search state: the policy's checkpoint bytes without the fields
/// that feed no decision, then the gaps.
fn key(policy: &ScrubPolicy, gaps: &[u32]) -> Vec<u8> {
    let mut w = Writer::new();
    policy.save_state(&mut w);
    let mut key = w.into_bytes();
    assert_eq!(
        key.len(),
        TOUR_STATE_LEN,
        "the tour's checkpoint layout changed; UNUSED_FIELDS must follow it"
    );
    for field in UNUSED_FIELDS {
        key[field].fill(0);
    }
    key.extend(gaps.iter().flat_map(|gap| gap.to_le_bytes()));
    key
}

/// Renders the trace of `drains` from the start, one line per slot with
/// the gaps the lines reach in it.
fn replay(start: &ScrubPolicy, lines: usize, drains: &[u8], mem: &Memory) -> Vec<String> {
    let forced = |p: &ScrubPolicy| p.bucket().map_or(0, |b| b.forced_probes());
    let mut policy = start.clone();
    let mut gaps = vec![0u32; lines];
    let mut trace = vec!["init: full bucket at tour position 0".to_string()];
    for (slot, &drain) in drains.iter().enumerate() {
        let before = forced(&policy);
        let reached: Vec<u32> = gaps.iter().map(|gap| gap + 1).collect();
        let (action, _, _) = step(&mut policy, &mut gaps, slot as u64, drain, mem);
        let what = match action {
            ScrubAction::Probe(addr) if forced(&policy) > before => {
                format!("probe line {} (forced)", addr.0)
            }
            ScrubAction::Probe(addr) => format!("probe line {}", addr.0),
            ScrubAction::Idle => "throttled".to_string(),
        };
        trace.push(format!(
            "slot {slot}: drain {drain}, {what}  gaps={reached:?}"
        ));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_scheduler_satisfies_all_properties() {
        for lines in 1..=4 {
            let params = ModelParams {
                lines,
                ..ModelParams::tiny()
            };
            let out = check(params, false);
            assert!(
                out.violation.is_none(),
                "{lines} lines: {:?}",
                out.violation
            );
        }
        assert!(
            check(ModelParams::tiny(), false).states_explored > 50,
            "suspiciously small space"
        );
    }

    #[test]
    fn unfair_scheduler_violates_progress_with_counterexample() {
        let out = check(ModelParams::tiny(), true);
        let v = out.violation.expect("starvation must be found");
        assert!(v.reason.contains("gap of 10 slots"), "reason: {}", v.reason);
        assert_eq!(u64::from(out.max_gap), out.bound + 1);
        // The counterexample is a genuine trace: it starts at the start,
        // and is long enough to exceed the bound.
        assert!(v.trace[0].starts_with("init:"));
        assert!(v.trace.len() as u64 > out.bound);
    }

    #[test]
    fn progress_bound_is_tight_in_the_model() {
        // Demand pinning the bucket empty makes every probe a forced one,
        // so some line waits exactly the bound: it cannot be lowered.
        let out = check(ModelParams::tiny(), false);
        assert!(out.violation.is_none());
        assert_eq!(out.bound, 9);
        assert_eq!(u64::from(out.max_gap), out.bound);
        // A mask that missed a counter would split equal states, and one
        // that hid `pos`, `tokens` or `defer_streak` would merge unequal
        // ones; either moves this count.
        assert_eq!(out.states_explored, 97);
    }

    #[test]
    fn single_line_model_degenerates_sanely() {
        let params = ModelParams {
            lines: 1,
            capacity: 1,
            refill: 1,
            demand_max: 2,
            max_defer: 0,
        };
        let out = check(params, false);
        assert!(out.violation.is_none());
        assert_eq!((out.bound, out.max_gap), (1, 1));
    }
}
