//! The pool's telemetry: one pool invocation, its tasks, its workers'
//! high-water mark and one `exec_worker` event per worker. The recorder
//! is process-global, so everything lives in ONE test function in this
//! binary.

use scrub_exec::par_map;
use scrub_telemetry as tel;

#[test]
fn pool_counts_its_pool_tasks_and_workers() {
    tel::install(tel::Config::default());
    let n = 37usize;

    let out = par_map(2, 0..n, |_, x| x * 2);
    assert_eq!(out, (0..n).map(|x| x * 2).collect::<Vec<_>>());
    let doc = tel::snapshot();
    assert_eq!(doc.counters["exec_pools"], 1);
    assert_eq!(doc.counters["exec_tasks"], n as u64);
    assert_eq!(doc.gauges["exec_workers_high_water"], 2);
    assert_eq!(doc.gauges["exec_jobs_high_water"], n as u64);
    let workers: Vec<(u32, u64)> = doc
        .events
        .iter()
        .filter_map(|e| match e.kind {
            tel::EventKind::ExecWorker { worker, tasks } => Some((worker, tasks)),
            _ => None,
        })
        .collect();
    assert_eq!(workers.len(), 2, "one exec_worker event per worker");
    let mut ids: Vec<u32> = workers.iter().map(|&(w, _)| w).collect();
    ids.sort_unstable();
    assert_eq!(ids, [0, 1]);
    assert_eq!(workers.iter().map(|&(_, t)| t).sum::<u64>(), n as u64);

    // The inline path spawns nothing and records nothing.
    let out = par_map(1, 0..n, |_, x| x + 1);
    assert_eq!(out.len(), n);
    let after = tel::snapshot();
    assert_eq!(after.counters["exec_pools"], 1);
    assert_eq!(after.counters["exec_tasks"], n as u64);
    assert_eq!(after.events.len(), doc.events.len());
    tel::set_enabled(false);
}
