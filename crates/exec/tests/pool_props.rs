//! Property tests for the execution pool's determinism contract: results
//! are identical for any worker count (the inline path, a couple of
//! workers, heavy oversubscription), and empty/degenerate job lists never
//! panic.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// par_map output equals the serial map for 1/2/8 workers over
    /// randomized job counts and contents, including sizes around the
    /// partition boundaries (0, 1, threads, threads ± 1, …).
    #[test]
    fn par_map_matches_serial_for_any_worker_count(
        items in proptest::collection::vec(0u64..1_000_000, 0..80),
        salt in 0u64..1_000,
    ) {
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64 ^ salt))
            .collect();
        for threads in [1usize, 2, 8] {
            let got = scrub_exec::par_map(threads, items.clone(), |i, x| {
                x.wrapping_mul(31).wrapping_add(i as u64 ^ salt)
            });
            prop_assert_eq!(&got, &serial, "threads = {}", threads);
        }
    }

    /// par_map runs every job exactly once for any worker count,
    /// including worker counts exceeding the job count.
    #[test]
    fn par_map_runs_each_job_exactly_once_for_any_worker_count(
        n in 0usize..200,
        threads in 1usize..12,
    ) {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        scrub_exec::par_map(threads, 0..n, |_, i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {} missed or repeated", i);
        }
    }

    /// par_map over `iter_mut()` writes every slot exactly once regardless
    /// of scheduling, so its effect equals the serial loop.
    #[test]
    fn par_map_over_iter_mut_matches_serial(
        data in proptest::collection::vec(0u64..1_000, 0..120),
        threads in 1usize..9,
    ) {
        let mut data = data;
        let mut expect = data.clone();
        for (i, x) in expect.iter_mut().enumerate() {
            *x = x.wrapping_add(i as u64 * 7 + 1);
        }
        scrub_exec::par_map(threads, data.iter_mut(), |i, x| {
            *x = x.wrapping_add(i as u64 * 7 + 1);
        });
        prop_assert_eq!(data, expect);
    }
}

/// Empty job lists are a hard edge case (the scoped-spawn path sizes its
/// worker count by the job count): must be panic-free at every arity.
#[test]
fn empty_job_lists_are_panic_free() {
    for threads in 0..=8 {
        let out: Vec<u64> = scrub_exec::par_map(threads, Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
        let mut empty: [u64; 0] = [];
        scrub_exec::par_map(threads, empty.iter_mut(), |_, _| panic!("no element"));
    }
}

/// Zero workers degrade to the inline path rather than hanging or
/// panicking.
#[test]
fn zero_threads_runs_inline() {
    let got = scrub_exec::par_map(0, vec![1u64, 2, 3], |_, x| x * 2);
    assert_eq!(got, vec![2, 4, 6]);
}
