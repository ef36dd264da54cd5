//! # scrub-exec — deterministic scoped parallel execution
//!
//! A minimal job pool built on `std::thread::scope`, with no external
//! dependencies. It exists to fan out *independent, deterministic*
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
//! Scheduling: the enumerated items wait in one queue behind a `Mutex`.
//! Each of `min(threads, n)` workers takes the next `(index, item)` until
//! the queue is empty and keeps its `(index, result)` pairs; after the
//! join the results are placed by index.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use scrub_telemetry as tel;

/// Global default thread count; 0 means "not resolved yet".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Resolves the default worker count: an explicit [`set_default_threads`]
/// wins, then a valid `SCRUBSIM_THREADS` (see [`env_threads`]), then the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    let cached = DEFAULT_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = env_threads().ok().flatten().unwrap_or_else(|| {
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

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order regardless of scheduling. `f` receives `(index, item)`; items may
/// be owned values or disjoint `&mut` borrows. With one thread or fewer
/// than two items the map runs inline on the calling thread.
pub fn par_map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.enumerate().map(|(i, x)| f(i, x)).collect();
    }
    // Sample the flag once per pool invocation: recording toggling
    // mid-pool is not a supported use, and one load keeps the disabled
    // path down to a single branch.
    let tel_on = tel::enabled();
    let workers = threads.min(n);
    if tel_on {
        tel::counter_add(tel::Counter::ExecPools, 1);
        tel::gauge_max(tel::Gauge::ExecJobsHighWater, n as u64);
        tel::gauge_max(tel::Gauge::ExecWorkersHighWater, workers as u64);
    }
    let queue = Mutex::new(items.enumerate());
    let (queue, f) = (&queue, &f);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    // The lock is held only to take the next item: jobs
                    // run unlocked, so a panicking job cannot poison it.
                    let next = || queue.lock().expect("no job runs locked").next();
                    let done: Vec<_> = std::iter::from_fn(next)
                        .map(|(i, x)| (i, f(i, x)))
                        .collect();
                    if tel_on {
                        let tasks = done.len() as u64;
                        tel::counter_add(tel::Counter::ExecTasks, tasks);
                        tel::event(
                            0.0,
                            tel::EventKind::ExecWorker {
                                worker: w as u32,
                                tasks,
                            },
                        );
                    }
                    done
                })
            })
            .collect();
        // A worker's panic re-raises here; the scope still waits for
        // every other worker before it unwinds.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Make the first jobs slow so later ones finish first and the
        // workers' results arrive out of index order.
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
