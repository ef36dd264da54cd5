//! Failure-path tests for the pool: a panicking job must propagate out of
//! `par_map` instead of hanging, and a malformed `SCRUBSIM_THREADS` must
//! fail loudly.

use std::panic;

use scrub_exec::{env_threads, par_map};

/// Runs `f` with the default panic hook silenced, so deliberately
/// panicking jobs don't spray backtraces over the test output.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let r = f();
    panic::set_hook(hook);
    r
}

#[test]
fn par_map_panic_propagates_instead_of_hanging() {
    let r = quietly(|| {
        panic::catch_unwind(panic::AssertUnwindSafe(|| {
            par_map(4, 0..32u32, |i, x| {
                if i == 7 {
                    panic!("worker died");
                }
                x + 1
            })
        }))
    });
    assert!(r.is_err(), "panic must propagate out of par_map");
}

#[test]
fn env_threads_is_strict() {
    // All SCRUBSIM_THREADS manipulation lives in this one test: the
    // variable is process-global and integration tests share a process.
    std::env::remove_var("SCRUBSIM_THREADS");
    assert_eq!(env_threads(), Ok(None));
    std::env::set_var("SCRUBSIM_THREADS", "6");
    assert_eq!(env_threads(), Ok(Some(6)));
    std::env::set_var("SCRUBSIM_THREADS", " 2 ");
    assert_eq!(env_threads(), Ok(Some(2)));
    for bad in ["0", "-3", "eight", "4.5", ""] {
        std::env::set_var("SCRUBSIM_THREADS", bad);
        let err = env_threads().expect_err(bad);
        assert!(err.contains("positive integer"), "{bad:?} -> {err}");
    }
    std::env::remove_var("SCRUBSIM_THREADS");
}
