//! The event journal: a bounded ring buffer of typed simulation events.
//!
//! Each worker thread appends to its own journal (no cross-thread
//! contention); a snapshot merges every per-worker journal into one
//! deterministic global order — sorted by simulated time, then by
//! per-journal sequence number, then by worker id — so the merged stream
//! is a pure function of the recorded events, not of thread scheduling.

use std::collections::VecDeque;

/// Coarse event families, used as journal filter bits: a mask of classes
/// selects which events a journal accepts, so a caller interested only in
/// (say) per-simulation summaries is not flooded out of the ring by
/// high-volume probe events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Scrub probes.
    Probe,
    /// Correctable / uncorrectable error observations.
    Error,
    /// Demand and scrub writes (incl. wear-level rotation copies).
    Write,
    /// Policy write-back decisions.
    Decision,
    /// Adaptive-region rate changes.
    Rate,
    /// Demand-write notifications to policies.
    Demand,
    /// Execution-pool worker summaries.
    Exec,
    /// Whole-simulation completion summaries.
    Sim,
    /// Repair-hierarchy transitions (ECP patch, retirement, degradation).
    Repair,
}

impl EventClass {
    /// The class's bit in an event mask.
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Mask accepting every class.
    pub const ALL: u32 = 0x1FF;
}

/// What happened. Payloads carry enough to reconstruct the decision or
/// reconcile against reports; addresses are line numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A scrub probe checked a line.
    ScrubProbe {
        /// Probed line.
        addr: u32,
        /// Persistent errors resident on the line.
        persistent_bits: u32,
        /// Whether the decode came back clean.
        clean: bool,
        /// Energy charged for the probe (read + decode), pJ.
        energy_pj: f64,
    },
    /// ECC corrected errors on a decode.
    Corrected {
        /// Decoded line.
        addr: u32,
        /// Bits corrected.
        bits: u32,
        /// Whether a demand read (vs. a scrub probe) saw it.
        demand: bool,
    },
    /// A new uncorrectable error was recorded.
    Uncorrectable {
        /// Failing line.
        addr: u32,
        /// Whether a demand read hit it.
        demand: bool,
        /// Whether it was a silent miscorrection.
        miscorrected: bool,
    },
    /// A scrub write-back rewrote a line.
    ScrubWriteback {
        /// Rewritten line.
        addr: u32,
        /// Energy charged (write + encode), pJ.
        energy_pj: f64,
    },
    /// A demand write reprogrammed a line.
    DemandWrite {
        /// Written line (physical).
        addr: u32,
        /// Energy charged (write + encode), pJ.
        energy_pj: f64,
    },
    /// The engine decided whether a probed line earns a write-back.
    WritebackDecision {
        /// Probed line.
        addr: u32,
        /// Persistent errors the probe observed.
        observed_bits: u32,
        /// Whether a write-back was issued.
        fired: bool,
        /// Whether it was forced by an uncorrectable outcome.
        forced: bool,
    },
    /// An adaptive region finished a pass and re-paced itself.
    RateChange {
        /// Region index.
        region: u32,
        /// New interval multiplier (AIMD state).
        mult: f64,
        /// Seconds until the region's next pass.
        next_interval_s: f64,
    },
    /// A demand write was forwarded to the scrub policy.
    DemandWriteNotify {
        /// Refreshed line.
        addr: u32,
    },
    /// Start-Gap rotated: a displaced line was copied into the old gap.
    WearLevelRotate {
        /// Copy destination (the old gap slot).
        addr: u32,
    },
    /// One pool worker's lifetime summary.
    ExecWorker {
        /// Worker index within its pool invocation.
        worker: u32,
        /// Tasks it executed.
        tasks: u64,
    },
    /// A whole simulation finished; payload mirrors the report fields the
    /// experiment tables print, for exact reconciliation.
    SimDone {
        /// Policy label (with parameters).
        policy: String,
        /// Workload label.
        workload: String,
        /// Master seed of the run.
        seed: u64,
        /// Scrub probes issued.
        scrub_probes: u64,
        /// Scrub write-backs issued.
        scrub_writes: u64,
        /// Uncorrectable errors (detected + silent).
        ue: u64,
        /// Uncorrectable errors hit by demand reads.
        demand_ue: u64,
        /// Scrub-attributed energy, µJ.
        scrub_energy_uj: f64,
        /// Mean line wear.
        mean_wear: f64,
    },
    /// ECP entries were assigned to patch a line's stuck cells.
    EcpRepair {
        /// Patched line (physical).
        addr: u32,
        /// Stuck cells newly covered by ECP entries.
        cells_patched: u32,
        /// ECP entries still free on the line afterwards.
        free_after: u32,
    },
    /// A line was retired and remapped to a spare.
    LineRetired {
        /// Retired line (physical).
        addr: u32,
        /// Slot index of the spare line it now maps to.
        spare: u32,
    },
    /// A bank exhausted its spare pool and entered degraded mode.
    BankDegraded {
        /// Degraded bank.
        bank: u32,
    },
    /// A failed decode was recovered by the shifted-threshold retry.
    UeRecovered {
        /// Recovered line.
        addr: u32,
        /// Whether a demand read (vs. a scrub probe) hit it.
        demand: bool,
    },
    /// The simulation crossed a fault-campaign boundary (SEU injection
    /// window closing, burst firing, intermittent-fault period tick).
    /// A marker, not a state change: the injector itself is exact
    /// independent of these events.
    CampaignBoundary {
        /// Which boundary was crossed.
        label: String,
    },
}

impl EventKind {
    /// The event's class (for mask filtering).
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::ScrubProbe { .. } => EventClass::Probe,
            EventKind::Corrected { .. } | EventKind::Uncorrectable { .. } => EventClass::Error,
            EventKind::ScrubWriteback { .. }
            | EventKind::DemandWrite { .. }
            | EventKind::WearLevelRotate { .. } => EventClass::Write,
            EventKind::WritebackDecision { .. } => EventClass::Decision,
            EventKind::RateChange { .. } => EventClass::Rate,
            EventKind::DemandWriteNotify { .. } => EventClass::Demand,
            EventKind::ExecWorker { .. } => EventClass::Exec,
            EventKind::SimDone { .. } | EventKind::CampaignBoundary { .. } => EventClass::Sim,
            EventKind::EcpRepair { .. }
            | EventKind::LineRetired { .. }
            | EventKind::BankDegraded { .. }
            | EventKind::UeRecovered { .. } => EventClass::Repair,
        }
    }

    /// The JSON tag naming this variant.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::ScrubProbe { .. } => "scrub_probe",
            EventKind::Corrected { .. } => "corrected",
            EventKind::Uncorrectable { .. } => "uncorrectable",
            EventKind::ScrubWriteback { .. } => "scrub_writeback",
            EventKind::DemandWrite { .. } => "demand_write",
            EventKind::WritebackDecision { .. } => "writeback_decision",
            EventKind::RateChange { .. } => "rate_change",
            EventKind::DemandWriteNotify { .. } => "demand_write_notify",
            EventKind::WearLevelRotate { .. } => "wear_level_rotate",
            EventKind::ExecWorker { .. } => "exec_worker",
            EventKind::SimDone { .. } => "sim_done",
            EventKind::EcpRepair { .. } => "ecp_repair",
            EventKind::LineRetired { .. } => "line_retired",
            EventKind::BankDegraded { .. } => "bank_degraded",
            EventKind::UeRecovered { .. } => "ue_recovered",
            EventKind::CampaignBoundary { .. } => "campaign_boundary",
        }
    }
}

/// One journal entry: simulated timestamp, merge keys, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time of the event, seconds (0 for events outside
    /// simulated time, e.g. pool-worker summaries).
    pub t_s: f64,
    /// Per-journal sequence number (assigned at push).
    pub seq: u64,
    /// Id of the worker thread that recorded it.
    pub worker: u32,
    /// Payload.
    pub kind: EventKind,
}

/// A bounded ring buffer of events. When full, the *oldest* entry is
/// dropped, so the journal always holds the newest `capacity` events it
/// accepted; `dropped` counts the evictions.
#[derive(Debug, Clone)]
pub struct Journal {
    capacity: usize,
    mask: u32,
    worker: u32,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

impl Journal {
    /// Creates a journal keeping at most `capacity` events whose class is
    /// selected by `mask` (see [`EventClass::bit`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, mask: u32, worker: u32) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            capacity,
            mask,
            worker,
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Records an event at simulated time `t_s`, unless its class is
    /// filtered out. Returns whether the event was accepted.
    pub fn push(&mut self, t_s: f64, kind: EventKind) -> bool {
        if kind.class().bit() & self.mask == 0 {
            return false;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            t_s,
            seq: self.next_seq,
            worker: self.worker,
            kind,
        });
        self.next_seq += 1;
        true
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The journal's worker id.
    pub fn worker(&self) -> u32 {
        self.worker
    }
}

/// Merges per-worker journals into one deterministic global order: sorted
/// by simulated time, then per-journal sequence, then worker id. The
/// result depends only on the recorded events, never on iteration order.
pub fn merge_journals<'a>(journals: impl IntoIterator<Item = &'a Journal>) -> Vec<Event> {
    let mut all: Vec<Event> = journals
        .into_iter()
        .flat_map(|j| j.events().cloned())
        .collect();
    all.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then(a.seq.cmp(&b.seq))
            .then(a.worker.cmp(&b.worker))
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(addr: u32) -> EventKind {
        EventKind::ScrubProbe {
            addr,
            persistent_bits: 0,
            clean: true,
            energy_pj: 1.0,
        }
    }

    #[test]
    fn ring_keeps_newest_n_and_counts_drops() {
        let mut j = Journal::new(3, EventClass::ALL, 0);
        for i in 0..10u32 {
            assert!(j.push(i as f64, probe(i)));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let addrs: Vec<u32> = j
            .events()
            .map(|e| match e.kind {
                EventKind::ScrubProbe { addr, .. } => addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![7, 8, 9], "oldest entries evicted first");
        // Sequence numbers keep counting across evictions.
        assert_eq!(j.events().last().unwrap().seq, 9);
    }

    #[test]
    fn mask_filters_classes_without_consuming_capacity() {
        let mut j = Journal::new(2, EventClass::Sim.bit(), 0);
        assert!(!j.push(1.0, probe(0)));
        assert!(j.push(
            2.0,
            EventKind::SimDone {
                policy: "basic".into(),
                workload: "idle".into(),
                seed: 1,
                scrub_probes: 0,
                scrub_writes: 0,
                ue: 0,
                demand_ue: 0,
                scrub_energy_uj: 0.0,
                mean_wear: 0.0,
            }
        ));
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn merge_orders_by_time_then_seq_then_worker() {
        let mut a = Journal::new(8, EventClass::ALL, 0);
        let mut b = Journal::new(8, EventClass::ALL, 1);
        a.push(5.0, probe(50));
        a.push(1.0, probe(10));
        b.push(1.0, probe(11));
        b.push(3.0, probe(31));
        // Worker 1 pushed its t=1.0 event as seq 0; worker 0's t=1.0 event
        // is seq 1, so worker 1's sorts first at the tie.
        let merged = merge_journals([&a, &b]);
        let keys: Vec<(f64, u64, u32)> = merged.iter().map(|e| (e.t_s, e.seq, e.worker)).collect();
        assert_eq!(
            keys,
            vec![(1.0, 0, 1), (1.0, 1, 0), (3.0, 1, 1), (5.0, 0, 0)]
        );
    }

    #[test]
    fn merge_is_independent_of_journal_iteration_order() {
        let mut a = Journal::new(8, EventClass::ALL, 0);
        let mut b = Journal::new(8, EventClass::ALL, 1);
        for i in 0..5u32 {
            a.push(i as f64 * 2.0, probe(i));
            b.push(i as f64 * 2.0 + 1.0, probe(100 + i));
        }
        assert_eq!(merge_journals([&a, &b]), merge_journals([&b, &a]));
    }
}
