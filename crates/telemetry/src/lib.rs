//! Observability for the scrub simulator: typed counters and gauges, a
//! bounded per-worker event journal, named f64 values, and RAII phase
//! scopes — all behind one global recorder that is a no-op until
//! explicitly installed.
//!
//! # Zero cost when disabled
//!
//! Every recording entry point starts with a single relaxed atomic load
//! of the global enable flag and returns immediately when it is off. No
//! allocation, no locking, no clock reads happen on the disabled path,
//! so instrumented code keeps its determinism and performance guarantees
//! when telemetry is not requested (the simulator's byte-identical
//! output contract is tested against this).
//!
//! # Determinism of the record
//!
//! Counters are relaxed atomic integer adds and gauges atomic maxima:
//! totals are exact and independent of thread scheduling. Floating-point
//! metrics are *set once* (never accumulated across threads), keeping
//! them bit-exact. Counters, gauges and values are therefore exact at any
//! thread count.
//!
//! Events go to per-thread journals, bounded rings that keep the newest
//! entries, and are merged into one global order sorted by simulated
//! time, then per-journal sequence, then worker id. The merged journal
//! repeats exactly with one worker, or when no ring evicts. With more
//! workers a full ring keeps the tail of whichever jobs its worker took
//! from the shared queue, and that depends on scheduling.
//!
//! # Usage
//!
//! ```
//! use scrub_telemetry as tel;
//!
//! tel::install(tel::Config::default());
//! tel::counter_add(tel::Counter::ScrubProbes, 3);
//! {
//!     let mut scope = tel::phase("example.work");
//!     scope.add_sim_span(900.0);
//! }
//! let doc = tel::snapshot();
//! assert_eq!(doc.counters["scrub_probes"], 3);
//! tel::set_enabled(false);
//! ```

mod counter;
mod document;
mod journal;
pub mod json;
mod phase;

/// Canonical names for the fleet-service health counters and gauges
/// carried in string-keyed [`Document`]s (the `scrubd` supervision layer
/// publishes these in `health.json` and merges them through
/// [`Document::merge_segments`], so counters sum and gauges keep their
/// maximum across shards). Centralized here so the daemon, the client,
/// the experiments, and CI jq assertions all agree on the spelling.
pub mod keys {
    /// Failed round attempts (panic or corrupt checkpoint) that entered
    /// the retry path. Counter; sums across shards.
    pub const FLEET_RETRIES: &str = "fleet.retries";
    /// Shards currently quarantined after exhausting their retry budget.
    /// Counter; sums across shards (each shard reports 0 or 1).
    pub const FLEET_QUARANTINED: &str = "fleet.quarantined";
    /// Successful recoveries (a retry that returned the shard to
    /// healthy). Counter; sums across shards.
    pub const FLEET_RECOVERIES: &str = "fleet.recoveries";
    /// Simulated cadence rounds re-executed from a last-good checkpoint
    /// while recovering. Counter; sums across shards.
    pub const FLEET_RECOVERY_ROUNDS: &str = "fleet.recovery_rounds";
    /// Worst observed time-to-recovery in simulated milliseconds (from
    /// the round a shard failed to the round it was healthy again).
    /// Gauge; the merged document keeps the fleet-wide maximum.
    pub const FLEET_MTTR_MS: &str = "fleet.mttr_ms";
}

pub use counter::{Counter, Gauge};
pub use document::{Document, PhaseRecord, SCHEMA_VERSION};
pub use journal::{merge_journals, Event, EventClass, EventKind, Journal};
pub use phase::PhaseScope;

use phase::PhaseAgg;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Recorder configuration, fixed at [`install`] time.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Events retained per worker journal (oldest evicted beyond this).
    pub journal_capacity: usize,
    /// Bitmask of [`EventClass`] bits a journal accepts.
    pub event_mask: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            journal_capacity: 4096,
            event_mask: EventClass::ALL,
        }
    }
}

struct Collector {
    config: Mutex<Config>,
    /// Bumped on every reset; invalidates thread-local journal handles.
    epoch: AtomicU64,
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    meta: Mutex<BTreeMap<String, String>>,
    values: Mutex<BTreeMap<String, f64>>,
    phases: Mutex<BTreeMap<String, PhaseAgg>>,
    journals: Mutex<Vec<Arc<Mutex<Journal>>>>,
    next_worker: AtomicU32,
}

impl Collector {
    fn new() -> Self {
        Self {
            config: Mutex::new(Config::default()),
            epoch: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            meta: Mutex::new(BTreeMap::new()),
            values: Mutex::new(BTreeMap::new()),
            phases: Mutex::new(BTreeMap::new()),
            journals: Mutex::new(Vec::new()),
            next_worker: AtomicU32::new(0),
        }
    }

    fn clear(&self) {
        // Bump the epoch first so racing threads re-register instead of
        // writing into journals we are about to drop.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.journals.lock().unwrap().clear();
        self.next_worker.store(0, Ordering::SeqCst);
        for c in &self.counters {
            c.store(0, Ordering::SeqCst);
        }
        for g in &self.gauges {
            g.store(0, Ordering::SeqCst);
        }
        self.meta.lock().unwrap().clear();
        self.values.lock().unwrap().clear();
        self.phases.lock().unwrap().clear();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

thread_local! {
    /// (epoch, journal) — the handle is stale once the epoch moves on.
    static LOCAL_JOURNAL: RefCell<Option<(u64, Arc<Mutex<Journal>>)>> = const { RefCell::new(None) };
}

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::new)
}

/// Whether the recorder is currently accepting measurements.
///
/// This is the one branch instrumented code pays when telemetry is off:
/// a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off without clearing anything already recorded.
pub fn set_enabled(on: bool) {
    if on {
        // Make sure the collector exists before any recording race.
        let _ = collector();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Installs the recorder: applies `config`, clears all prior state, and
/// enables recording.
pub fn install(config: Config) {
    let c = collector();
    *c.config.lock().unwrap() = config;
    c.clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Clears every recorded measurement and invalidates per-thread journal
/// handles. Recording stays in whatever enabled state it was.
pub fn reset() {
    if let Some(c) = COLLECTOR.get() {
        c.clear();
    }
}

/// Adds `n` to a counter. No-op while disabled.
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    collector().counters[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter (0 when nothing was recorded).
pub fn counter_value(counter: Counter) -> u64 {
    COLLECTOR
        .get()
        .map(|c| c.counters[counter as usize].load(Ordering::SeqCst))
        .unwrap_or(0)
}

/// Raises a high-water gauge to at least `value`. No-op while disabled.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    collector().gauges[gauge as usize].fetch_max(value, Ordering::Relaxed);
}

/// Sets a named f64 value (last write wins; values are set, never
/// accumulated, so they stay bit-exact). No-op while disabled.
#[inline]
pub fn set_value(key: &str, value: f64) {
    if !enabled() {
        return;
    }
    collector()
        .values
        .lock()
        .unwrap()
        .insert(key.to_string(), value);
}

/// Sets a free-form metadata string. No-op while disabled.
#[inline]
pub fn set_meta(key: &str, value: &str) {
    if !enabled() {
        return;
    }
    collector()
        .meta
        .lock()
        .unwrap()
        .insert(key.to_string(), value.to_string());
}

/// Records an event at simulated time `t_s` into this thread's journal.
/// No-op while disabled.
#[inline]
pub fn event(t_s: f64, kind: EventKind) {
    if !enabled() {
        return;
    }
    let c = collector();
    let epoch = c.epoch.load(Ordering::SeqCst);
    LOCAL_JOURNAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let config = *c.config.lock().unwrap();
            let worker = c.next_worker.fetch_add(1, Ordering::SeqCst);
            let journal = Arc::new(Mutex::new(Journal::new(
                config.journal_capacity,
                config.event_mask,
                worker,
            )));
            c.journals.lock().unwrap().push(Arc::clone(&journal));
            *slot = Some((epoch, journal));
        }
        let (_, journal) = slot.as_ref().expect("journal registered above");
        journal.lock().unwrap().push(t_s, kind);
    });
}

/// Opens a named phase scope; its wall-clock time (and any simulated
/// span added via [`PhaseScope::add_sim_span`]) commits when it drops.
/// Returns an inert scope while disabled.
pub fn phase(name: &str) -> PhaseScope {
    if !enabled() {
        return PhaseScope::inert();
    }
    PhaseScope::live(name.to_string())
}

pub(crate) fn record_phase(name: &str, wall_s: f64, sim_span_s: f64) {
    if !enabled() {
        return;
    }
    let mut phases = collector().phases.lock().unwrap();
    let agg = phases.entry(name.to_string()).or_default();
    agg.count += 1;
    agg.wall_s += wall_s;
    agg.sim_span_s += sim_span_s;
}

/// Snapshots everything recorded so far into a [`Document`]. All counter
/// and gauge slots are always present (zero-valued when untouched) so
/// the document schema is stable.
pub fn snapshot() -> Document {
    let mut doc = Document::default();
    let Some(c) = COLLECTOR.get() else {
        for counter in Counter::ALL {
            doc.counters.insert(counter.name().to_string(), 0);
        }
        for gauge in Gauge::ALL {
            doc.gauges.insert(gauge.name().to_string(), 0);
        }
        return doc;
    };
    for counter in Counter::ALL {
        doc.counters.insert(
            counter.name().to_string(),
            c.counters[counter as usize].load(Ordering::SeqCst),
        );
    }
    for gauge in Gauge::ALL {
        doc.gauges.insert(
            gauge.name().to_string(),
            c.gauges[gauge as usize].load(Ordering::SeqCst),
        );
    }
    doc.meta = c.meta.lock().unwrap().clone();
    doc.values = c.values.lock().unwrap().clone();
    doc.phases = c
        .phases
        .lock()
        .unwrap()
        .iter()
        .map(|(name, agg)| PhaseRecord {
            name: name.clone(),
            count: agg.count,
            wall_s: agg.wall_s,
            sim_span_s: agg.sim_span_s,
        })
        .collect();
    let journals = c.journals.lock().unwrap();
    let guards: Vec<_> = journals.iter().map(|j| j.lock().unwrap()).collect();
    doc.events_dropped = guards.iter().map(|j| j.dropped()).sum();
    doc.events = merge_journals(guards.iter().map(|g| &**g));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers the whole global lifecycle: the recorder is
    /// process-global state, so splitting this into several parallel
    /// tests would race.
    #[test]
    fn recorder_lifecycle_end_to_end() {
        // Disabled: everything is a no-op and snapshots are all-zero.
        assert!(!enabled());
        counter_add(Counter::ScrubProbes, 5);
        gauge_max(Gauge::ExecJobsHighWater, 9);
        set_value("x", 1.5);
        event(1.0, EventKind::DemandWriteNotify { addr: 1 });
        drop(phase("off"));
        let doc = snapshot();
        assert_eq!(doc.counters["scrub_probes"], 0);
        assert!(doc.values.is_empty());
        assert!(doc.events.is_empty());
        assert!(doc.phases.is_empty());

        // Installed: measurements land.
        install(Config {
            journal_capacity: 2,
            event_mask: EventClass::ALL,
        });
        assert!(enabled());
        counter_add(Counter::ScrubProbes, 5);
        counter_add(Counter::ScrubProbes, 2);
        gauge_max(Gauge::ExecJobsHighWater, 9);
        gauge_max(Gauge::ExecJobsHighWater, 4);
        set_value("e6.basic.ue", 4506.375);
        set_meta("experiment", "e6");
        for i in 0..3u32 {
            event(i as f64, EventKind::DemandWriteNotify { addr: i });
        }
        {
            let mut scope = phase("suite");
            scope.add_sim_span(900.0);
        }
        let doc = snapshot();
        assert_eq!(doc.counters["scrub_probes"], 7);
        assert_eq!(doc.gauges["exec_jobs_high_water"], 9);
        assert_eq!(doc.values["e6.basic.ue"], 4506.375);
        assert_eq!(doc.meta["experiment"], "e6");
        // Ring capacity 2: oldest of the 3 events evicted.
        assert_eq!(doc.events.len(), 2);
        assert_eq!(doc.events_dropped, 1);
        assert_eq!(doc.phases.len(), 1);
        assert_eq!(doc.phases[0].name, "suite");
        assert_eq!(doc.phases[0].count, 1);
        assert_eq!(doc.phases[0].sim_span_s, 900.0);
        assert!(doc.phases[0].wall_s >= 0.0);

        // The snapshot round-trips through its JSON form.
        let back = Document::from_json(&doc.to_json()).expect("parses");
        assert_eq!(back, doc);

        // Reset clears measurements and invalidates journal handles.
        reset();
        let doc = snapshot();
        assert_eq!(doc.counters["scrub_probes"], 0);
        assert!(doc.events.is_empty());
        event(5.0, EventKind::DemandWriteNotify { addr: 9 });
        let doc = snapshot();
        assert_eq!(doc.events.len(), 1, "journal re-registers after reset");

        // Disable again: back to no-ops.
        set_enabled(false);
        counter_add(Counter::ScrubProbes, 1);
        assert_eq!(counter_value(Counter::ScrubProbes), 0);
    }
}
