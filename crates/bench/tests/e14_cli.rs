//! The E14 binary end to end: under a fault campaign and checkpoint
//! resumes the token bucket throttles and the longest tour stays within
//! the published progress bound; and the bench runner's `--scrub-iops`,
//! `--horizon-s` and `--checkpoint-every` flags reject malformed values
//! with exit 2 and a one-line stderr before any simulation starts.

use std::process::Command;

use scrub_telemetry::Document;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_e14_budget"))
        .args(args)
        .output()
        .expect("spawn exp_e14_budget")
}

/// Asserts `args` exit 2 with one stderr line containing `needle` and
/// nothing on stdout.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "one-line stderr expected:\n{stderr}"
    );
    assert!(stderr.contains(needle), "{stderr}");
    assert!(out.stdout.is_empty(), "must fail before running");
}

/// Quick E14 at two threads under a stuck-cell and SEU campaign,
/// checkpointed every 1,800 s: demand drains the bucket, so slots are
/// throttled and probes forced, tours still complete, and no tour runs
/// longer than the `ScrubProgress` bound E14 publishes.
#[test]
fn budget_throttles_and_starvation_stays_within_the_bound() {
    let dir = std::env::temp_dir().join(format!("e14-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (bench, telemetry) = (dir.join("bench.json"), dir.join("telemetry.json"));
    let out = run(&[
        "--quick",
        "--threads",
        "2",
        "--fault-campaign",
        "seed=9;stuck=lines:64,cells:3;seu=lines:128,count:2,window:21600",
        "--checkpoint-every",
        "1800",
        "--bench-out",
        bench.to_str().expect("UTF-8 path"),
        "--telemetry-out",
        telemetry.to_str().expect("UTF-8 path"),
    ]);
    let text = std::fs::read_to_string(&telemetry);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Document::from_json(&text.expect("document")).expect("document");
    for counter in [
        "budget_throttled",
        "budget_forced_probes",
        "tours_completed",
    ] {
        assert!(doc.counters[counter] > 0, "{counter}: {:?}", doc.counters);
    }
    let bound = *doc
        .values
        .get("e14.progress_bound_slots")
        .expect("E14 publishes its progress bound");
    let lag = doc.gauges["starvation_max_lag"];
    assert!(
        lag as f64 <= bound,
        "longest tour {lag} slots, bound {bound}"
    );
}

#[test]
fn scrub_iops_rejects_bad_budgets() {
    for bad in ["0", "-1", "NaN", "inf", "cheap"] {
        assert_rejected(&["--quick", "--scrub-iops", bad], "--scrub-iops");
    }
}

/// A horizon the simulation clock cannot hold (~146 years of
/// nanoseconds) is a one-line error, not a panic.
#[test]
fn horizon_past_the_clock_is_rejected() {
    assert_rejected(&["--quick", "--horizon-s", "1e12"], "--horizon-s");
}

/// A checkpoint cadence that splits the horizon into more than 100,000
/// segments is a one-line error, not a run that never ends. Quick E14's
/// horizon is 43,200 s; `--horizon-s` applies whatever the flag order.
#[test]
fn checkpoint_cadence_past_the_segment_bound_is_rejected() {
    assert_rejected(
        &["--quick", "--checkpoint-every", "1e-300"],
        "--checkpoint-every 1e-300 splits the 43200.0 s horizon",
    );
    // The scale does not matter: the horizon is overridden.
    assert_rejected(
        &["--checkpoint-every", "1", "--horizon-s", "100001"],
        "--checkpoint-every 1.0 splits the 100001.0 s horizon into more than 100000 segments",
    );
}

#[test]
fn scrub_iops_requires_a_value() {
    let out = run(&["--quick", "--scrub-iops"]);
    assert_eq!(out.status.code(), Some(2));
}
