//! Negative-path coverage for the tour/budget CLI flags, the simulation
//! clock's bounds, and removed flags.
//!
//! Every malformed invocation must die with exit code 2 and a one-line
//! stderr naming the offending flag — the same contract the campaign and
//! checkpoint flags follow — and never start a simulation. One positive
//! case pins the happy path so these tests cannot all pass vacuously.

use std::process::{Command, Output};

fn scrubsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scrubsim"))
        .args(args)
        .output()
        .expect("spawn scrubsim")
}

/// Asserts the invocation failed with exit 2 and exactly one stderr line
/// mentioning `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = scrubsim(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} should print one line, got:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr should mention {needle:?}:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not start simulating before validation"
    );
}

/// There is one simulation core, so `--engine` is an unknown flag: the
/// usage text and exit 2, before any simulation starts.
#[test]
fn removed_engine_flag_is_rejected() {
    let out = scrubsim(&["--engine", "event"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: scrubsim"));
    assert!(out.stdout.is_empty(), "must not start simulating");
}

/// A simulation runs on one thread, so `--threads` is an unknown flag:
/// the usage text and exit 2, before any simulation starts.
#[test]
fn removed_threads_flag_is_rejected() {
    let out = scrubsim(&["--threads", "2"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: scrubsim"));
    assert!(out.stdout.is_empty(), "must not start simulating");
}

/// The slot clock counts whole nanoseconds up to ~146 years. A horizon
/// past that, a slot gap (`--interval` / `--lines`) outside 1 ns to
/// that bound, or a sweep that schedules more than `tick::MAX_SLOTS`
/// slots is a one-line error instead of a panic or a run that never
/// ends.
#[test]
fn horizons_and_slot_gaps_past_the_clock_are_rejected() {
    let base = ["--lines", "64", "--workload", "idle", "--policy", "basic"];
    for (extra, flag) in [
        (["--hours", "1e7"], "--hours"),
        (["--hours", "1e308"], "--hours"),
        (["--interval", "1e12"], "--interval"),
        (["--interval", "1e-300"], "--interval"),
        // A 16 ns slot gap: 2.3e11 slots in the hour.
        (["--interval", "1e-6"], "--interval"),
    ] {
        assert_rejected(&[&base[..], &extra[..]].concat(), flag);
    }
    // 9,000 s × 125,000 lines ÷ 1.125 s is exactly the 10⁹-slot bound;
    // a slightly shorter interval is one past it.
    assert_rejected(
        &[
            "--lines",
            "125000",
            "--workload",
            "idle",
            "--policy",
            "basic",
            "--hours",
            "2.5",
            "--interval",
            "1.1249999",
        ],
        "--interval",
    );
}

#[test]
fn scrub_iops_rejects_zero() {
    assert_rejected(&["--policy", "tour", "--scrub-iops", "0"], "--scrub-iops");
}

#[test]
fn scrub_iops_rejects_negative() {
    assert_rejected(&["--policy", "tour", "--scrub-iops", "-3"], "--scrub-iops");
}

#[test]
fn scrub_iops_rejects_nan_and_infinity() {
    assert_rejected(&["--policy", "tour", "--scrub-iops", "NaN"], "--scrub-iops");
    assert_rejected(&["--policy", "tour", "--scrub-iops", "inf"], "--scrub-iops");
}

#[test]
fn scrub_iops_rejects_garbage() {
    assert_rejected(
        &["--policy", "tour", "--scrub-iops", "fast"],
        "--scrub-iops",
    );
}

#[test]
fn scrub_burst_rejects_sub_token_bucket() {
    assert_rejected(
        &["--policy", "tour", "--scrub-burst", "0.5"],
        "--scrub-burst",
    );
    assert_rejected(&["--policy", "tour", "--scrub-burst", "0"], "--scrub-burst");
    assert_rejected(
        &["--policy", "tour", "--scrub-burst", "NaN"],
        "--scrub-burst",
    );
}

#[test]
fn max_defer_rejects_non_integers() {
    assert_rejected(&["--policy", "tour", "--max-defer", "2.5"], "--max-defer");
    assert_rejected(&["--policy", "tour", "--max-defer", "-1"], "--max-defer");
    assert_rejected(&["--policy", "tour", "--max-defer", "many"], "--max-defer");
}

#[test]
fn tour_flags_require_the_tour_policy() {
    for flags in [
        vec!["--policy", "basic", "--scrub-iops", "5"],
        vec!["--policy", "threshold", "--scrub-burst", "32"],
        vec!["--policy", "combined", "--max-defer", "4"],
    ] {
        assert_rejected(&flags, "require --policy tour");
    }
}

#[test]
fn unknown_policy_still_rejected_with_tour_flags_present() {
    assert_rejected(
        &["--policy", "grand-tour", "--scrub-iops", "5"],
        "unknown policy",
    );
}

#[test]
fn rs_code_rejects_malformed_shapes() {
    // Zero total symbols.
    assert_rejected(&["--code", "rs:0,5"], "--code");
    // k >= n (no parity at all, or negative).
    assert_rejected(&["--ecc", "rs:80,96"], "--code");
    assert_rejected(&["--code", "rs:72,72"], "--code");
    // Odd parity symbol count (no integer t).
    assert_rejected(&["--code", "rs:71,64"], "--code");
    // Payload does not cover a 512-bit line.
    assert_rejected(&["--code", "rs:40,32"], "--code");
    // Symbols beyond GF(2^8)'s 255-symbol limit.
    assert_rejected(&["--code", "rs:300,64"], "--code");
    // Plain garbage.
    assert_rejected(&["--code", "rs:a,b"], "--code");
    assert_rejected(&["--ecc", "rs:"], "--code");
}

#[test]
fn profiler_flags_reject_garbage_values() {
    let p = ["--policy", "profiled"];
    assert_rejected(
        &[&p[..], &["--profile-capacity", "0"]].concat(),
        "--profile-capacity",
    );
    assert_rejected(
        &[&p[..], &["--profile-capacity", "lots"]].concat(),
        "--profile-capacity",
    );
    assert_rejected(
        &[&p[..], &["--profile-stride", "1"]].concat(),
        "--profile-stride",
    );
    assert_rejected(
        &[&p[..], &["--profile-stride", "-2"]].concat(),
        "--profile-stride",
    );
    assert_rejected(
        &[&p[..], &["--profile-stretch", "0"]].concat(),
        "--profile-stretch",
    );
    assert_rejected(
        &[&p[..], &["--profile-risk", "0"]].concat(),
        "--profile-risk",
    );
    assert_rejected(
        &[&p[..], &["--profile-risk", "high"]].concat(),
        "--profile-risk",
    );
}

#[test]
fn profiler_flags_require_the_profiled_policy() {
    for flags in [
        vec!["--policy", "tour", "--profile-capacity", "64"],
        vec!["--policy", "combined", "--profile-stride", "6"],
        vec!["--policy", "basic", "--profile-stretch", "3"],
        vec!["--policy", "threshold", "--profile-risk", "4"],
    ] {
        assert_rejected(&flags, "require --policy profiled");
    }
}

/// Happy path for the new surfaces: a tiny profiled run under RS(72,64)
/// completes and reports, proving the rejections above come from
/// validation, not a broken policy or code path.
#[test]
fn valid_profiled_rs_invocation_runs() {
    let out = scrubsim(&[
        "--lines",
        "256",
        "--hours",
        "0.1",
        "--policy",
        "profiled",
        "--ecc",
        "rs:72,64",
        "--scrub-iops",
        "2",
        "--profile-capacity",
        "32",
        "--profile-stride",
        "4",
        "--profile-stretch",
        "2",
        "--profile-risk",
        "2",
        "--workload",
        "idle",
    ]);
    assert!(
        out.status.success(),
        "valid profiled+rs invocation failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("profiled"),
        "report should name the policy:\n{stdout}"
    );
}

/// Happy path: a tiny budgeted tour run completes, prints a report, and
/// exits 0 — proving the rejection tests fail on validation, not on some
/// unrelated breakage.
#[test]
fn valid_tour_invocation_runs() {
    let out = scrubsim(&[
        "--lines",
        "256",
        "--hours",
        "0.1",
        "--policy",
        "tour",
        "--scrub-iops",
        "2",
        "--scrub-burst",
        "8",
        "--max-defer",
        "4",
        "--workload",
        "idle",
    ]);
    assert!(
        out.status.success(),
        "valid invocation failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("tour"),
        "report should name the policy:\n{stdout}"
    );
}

/// Memories smaller than the default policies' 64 regions or 8 banks
/// run to completion: the combined policy at 1,000 lines (where 64
/// equal regions would leave the last one empty) and the tour at 4 lines
/// (fewer lines than banks).
#[test]
fn small_memories_run_under_the_default_and_tour_policies() {
    for args in [
        &["--lines", "1000"][..],
        &["--lines", "4", "--policy", "tour"][..],
    ] {
        let out = scrubsim(&[args, &["--hours", "1", "--workload", "idle"]].concat());
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A fault campaign's per-line counts are bounded, so a burst of
/// `u32::MAX` bits is a one-line error instead of an overflowed sum of
/// injected bits.
#[test]
fn campaign_per_line_counts_are_bounded() {
    assert_rejected(
        &[
            "--lines",
            "64",
            "--hours",
            "1",
            "--policy",
            "basic",
            "--seed",
            "1",
            "--fault-campaign",
            "seed=1;burst=lines:4,bits:4294967295,at:1;intermittent=lines:64,cells:1,period:2",
        ],
        "'bits' must be at most 1024",
    );
}
