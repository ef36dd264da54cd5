//! # scrub-exec — deterministic scoped parallel execution
//!
//! A minimal work-stealing job pool built on `std::thread::scope`, with no
//! external dependencies. It exists to fan out *independent, deterministic*
//! jobs — whole simulations in the bench harness's job grids and the
//! fleet's shard rounds — without changing any result bit.
//!
//! One entry point, [`par_map`], maps a function over any exact-size
//! iterator: owned items (a `Vec`, an index range) or disjoint `&mut`
//! borrows (`iter_mut()`). Determinism contract: jobs must not
//! communicate, and every result is keyed by its input index, so the
//! output is identical for any thread count, including the inline
//! `threads <= 1` path (which spawns nothing).
//!
//! A panicking job propagates out of [`par_map`] once every worker has
//! stopped (`std::thread::scope` re-raises it). Callers that recover from
//! a failed job — the fleet supervisor — catch the panic inside the job.
//!
//! Scheduling: the index space is split into one contiguous range per
//! worker, each packed into a single `AtomicU64` (start in the low half,
//! end in the high half). A worker pops from the *front* of its own range
//! and, when empty, steals from the *back* of the longest remaining
//! victim — classic work-stealing without per-task queues.
//!
//! # Examples
//!
//! ```
//! let squares = scrub_exec::par_map(4, 0..100u32, |_, x| x * x);
//! assert_eq!(squares[7], 49);
//!
//! let mut data = vec![1u64; 8];
//! scrub_exec::par_map(2, data.iter_mut(), |i, x| *x += i as u64);
//! assert_eq!(data[7], 8);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use scrub_telemetry as tel;

/// Global default thread count; 0 means "not resolved yet".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Resolves the default worker count: an explicit [`set_default_threads`]
/// wins, then the `SCRUBSIM_THREADS` environment variable, then the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    let cached = DEFAULT_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = std::env::var("SCRUBSIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    DEFAULT_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the default worker count (e.g. from a `--threads` flag).
/// Passing 0 resets to auto-detection.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Strictly parses the `SCRUBSIM_THREADS` environment variable: `Ok(None)`
/// when unset, `Ok(Some(n))` for a positive integer, and an actionable
/// error for anything else. [`default_threads`] stays lenient (a malformed
/// value falls back to auto-detection); binaries call this up front so a
/// typo fails loudly instead of being silently ignored.
pub fn env_threads() -> Result<Option<usize>, String> {
    match std::env::var("SCRUBSIM_THREADS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("SCRUBSIM_THREADS is not valid UTF-8".to_string())
        }
        Ok(raw) => {
            let v = raw.trim();
            match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!(
                    "SCRUBSIM_THREADS must be a positive integer, got {v:?}"
                )),
            }
        }
    }
}

/// One worker's index range, packed start|end into an `AtomicU64` so both
/// the owner (front) and thieves (back) can claim indices lock-free.
struct PackedRange(AtomicU64);

impl PackedRange {
    fn new(start: usize, end: usize) -> Self {
        debug_assert!(end <= u32::MAX as usize);
        Self(AtomicU64::new(Self::pack(start as u64, end as u64)))
    }

    fn pack(start: u64, end: u64) -> u64 {
        (end << 32) | start
    }

    fn unpack(v: u64) -> (u64, u64) {
        (v & 0xFFFF_FFFF, v >> 32)
    }

    /// Claims the lowest remaining index (owner side).
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = Self::unpack(cur);
            if start >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(start + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start as usize),
                Err(v) => cur = v,
            }
        }
    }

    /// Claims the highest remaining index (thief side).
    fn steal_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = Self::unpack(cur);
            if start >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                Self::pack(start, end - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((end - 1) as usize),
                Err(v) => cur = v,
            }
        }
    }

    fn remaining(&self) -> usize {
        let (start, end) = Self::unpack(self.0.load(Ordering::Relaxed));
        end.saturating_sub(start) as usize
    }
}

/// Runs `f(i)` exactly once for every `i in 0..n` across `threads`
/// workers with work stealing. Always spawns; [`par_map`] runs the
/// one-thread and one-item cases inline before it gets here.
fn run_indices<F>(threads: usize, n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    // Sample the flag once per pool invocation: recording toggling
    // mid-pool is not a supported use, and one load keeps the disabled
    // path down to a single branch.
    let tel_on = tel::enabled();
    assert!(n <= u32::MAX as usize, "job count exceeds u32 index space");
    let workers = threads.min(n);
    if tel_on {
        tel::counter_add(tel::Counter::ExecPools, 1);
        tel::gauge_max(tel::Gauge::ExecJobsHighWater, n as u64);
        tel::gauge_max(tel::Gauge::ExecWorkersHighWater, workers as u64);
    }
    // Contiguous initial partition: worker w owns [w*n/W, (w+1)*n/W).
    let ranges: Vec<PackedRange> = (0..workers)
        .map(|w| PackedRange::new(w * n / workers, (w + 1) * n / workers))
        .collect();
    let ranges = &ranges;
    let f = &f;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                let mut tasks = 0u64;
                let mut steals = 0u64;
                // Drain own range front-to-back.
                while let Some(i) = ranges[w].pop_front() {
                    f(i);
                    tasks += 1;
                }
                // Then steal from the victim with the most work left,
                // re-scanning until every range is dry.
                loop {
                    let victim = (0..workers)
                        .filter(|&v| v != w)
                        .max_by_key(|&v| ranges[v].remaining());
                    let Some(v) = victim else { break };
                    if tel_on {
                        tel::gauge_max(
                            tel::Gauge::ExecQueueDepthHighWater,
                            ranges[v].remaining() as u64,
                        );
                    }
                    match ranges[v].steal_back() {
                        Some(i) => {
                            f(i);
                            tasks += 1;
                            steals += 1;
                        }
                        None => {
                            if ranges.iter().all(|r| r.remaining() == 0) {
                                break;
                            }
                        }
                    }
                }
                if tel_on {
                    tel::counter_add(tel::Counter::ExecTasks, tasks);
                    tel::counter_add(tel::Counter::ExecSteals, steals);
                    tel::event(
                        0.0,
                        tel::EventKind::ExecWorker {
                            worker: w as u32,
                            tasks,
                            steals,
                        },
                    );
                }
            });
        }
    });
}

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order regardless of scheduling. `f` receives `(index, item)`; items may
/// be owned values or disjoint `&mut` borrows. With one thread or fewer
/// than two items the map runs inline on the calling thread.
pub fn par_map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<Mutex<Option<I::Item>>> = items.map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_indices(threads, n, |i| {
        let item = slots[i].lock().unwrap().take().expect("item claimed twice");
        let r = f(i, item);
        *results[i].lock().unwrap() = Some(r);
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("run_indices visits every index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn packed_range_pop_and_steal_disjoint() {
        let r = PackedRange::new(0, 10);
        let mut seen = HashSet::new();
        for _ in 0..5 {
            seen.insert(r.pop_front().unwrap());
        }
        for _ in 0..5 {
            seen.insert(r.steal_back().unwrap());
        }
        assert_eq!(seen, (0..10).collect());
        assert!(r.pop_front().is_none());
        assert!(r.steal_back().is_none());
    }

    #[test]
    fn run_indices_visits_each_exactly_once() {
        for threads in [2, 4, 8] {
            let n = 1000;
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            run_indices(threads, n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let got = par_map(threads, items.clone(), |_, x| x * 3 + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_uneven_job_sizes_still_ordered() {
        // Make early indices slow so stealing definitely kicks in.
        let got = par_map(4, 0..64u32, |i, x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(got, (1..=64).collect::<Vec<u32>>());
    }

    #[test]
    fn par_map_over_iter_mut_touches_every_element() {
        let mut data: Vec<u64> = vec![0; 300];
        par_map(4, data.iter_mut(), |i, x| *x = i as u64 * 2);
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64 * 2);
        }
    }

    #[test]
    fn inline_path_used_for_single_thread() {
        // Runs on the calling thread: thread-local state proves no spawn.
        thread_local! {
            static HITS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        par_map(1, 0..10, |_, _| HITS.with(|h| h.set(h.get() + 1)));
        assert_eq!(HITS.with(|h| h.get()), 10);
    }

    #[test]
    fn default_threads_env_override() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        set_default_threads(0); // reset to auto
        assert!(default_threads() >= 1);
    }
}
