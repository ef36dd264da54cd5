//! Negative-path coverage for the bench runner's `--scrub-iops` and
//! `--horizon-s` flags on the E14 binary: malformed values die with exit
//! 2 and a one-line stderr before any simulation starts.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_e14_budget"))
        .args(args)
        .output()
        .expect("spawn exp_e14_budget")
}

#[test]
fn scrub_iops_rejects_bad_budgets() {
    for bad in ["0", "-1", "NaN", "inf", "cheap"] {
        let out = run(&["--quick", "--scrub-iops", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--scrub-iops {bad} should exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "one-line stderr expected:\n{stderr}"
        );
        assert!(stderr.contains("--scrub-iops"), "{stderr}");
        assert!(out.stdout.is_empty(), "must fail before running");
    }
}

/// A horizon the simulation clock cannot hold (~146 years of
/// nanoseconds) is a one-line error, not a panic.
#[test]
fn horizon_past_the_clock_is_rejected() {
    let out = run(&["--quick", "--horizon-s", "1e12"]);
    assert_eq!(out.status.code(), Some(2), "--horizon-s 1e12 should exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "one-line stderr expected:\n{stderr}"
    );
    assert!(stderr.contains("--horizon-s"), "{stderr}");
    assert!(out.stdout.is_empty(), "must fail before running");
}

#[test]
fn scrub_iops_requires_a_value() {
    let out = run(&["--quick", "--scrub-iops"]);
    assert_eq!(out.status.code(), Some(2));
}
