//! The `scrub_modelcheck` binary's contract, which the CI `modelcheck`
//! job's `jq` gates read: the default search passes `ScrubProgress`, the
//! tripwire search catches the unfair scheduler, and each flag past its
//! bound exits 2 with one stderr line naming it, before any search
//! starts.

use std::process::{Command, Output};

fn modelcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scrub_modelcheck"))
        .args(args)
        .output()
        .expect("spawn scrub_modelcheck")
}

/// Runs with `--json` into a temporary file; returns stdout and the JSON.
fn run_with_json(tag: &str, args: &[&str]) -> (String, String) {
    let path = std::env::temp_dir().join(format!(
        "scrub-modelcheck-{tag}-{}.json",
        std::process::id()
    ));
    let path_str = path.to_str().expect("UTF-8 temp path");
    let out = modelcheck(&[args, &["--json", path_str]].concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("JSON record");
    std::fs::remove_file(&path).ok();
    (String::from_utf8_lossy(&out.stdout).into_owned(), json)
}

/// The one line that reports a check, `PASS` or `FAIL`.
fn verdict(stdout: &str) -> &str {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("PASS") || l.starts_with("FAIL"))
        .collect();
    assert_eq!(lines.len(), 1, "one check expected:\n{stdout}");
    lines[0]
}

#[test]
fn default_run_passes_scrub_progress() {
    let (stdout, json) = run_with_json("verify", &[]);
    let line = verdict(&stdout);
    assert!(line.starts_with("PASS ScrubProgress"), "{line}");
    assert!(line.contains("largest gap 9"), "{line}");
    assert!(stdout.contains("mode=verify lines=3"), "{stdout}");
    assert!(stdout.contains("bound=9"), "{stdout}");
    for key in [
        "\"mode\": \"verify\"",
        "\"progress_bound\": 9",
        "\"failures\": 0",
        "\"property\": \"ScrubProgress\"",
        "\"variant\": \"Fair\"",
        "\"violation\": null",
    ] {
        assert!(json.contains(key), "{key} missing from:\n{json}");
    }
    assert_eq!(json.matches("\"property\"").count(), 1, "{json}");
}

#[test]
fn tripwire_catches_the_unfair_scheduler() {
    let (stdout, json) = run_with_json("tripwire", &["--tripwire"]);
    let line = verdict(&stdout);
    assert!(line.starts_with("PASS ScrubProgress"), "{line}");
    assert!(
        line.contains("violation caught: line 0 reached a gap of 10 slots (bound 9)"),
        "{line}"
    );
    for key in [
        "\"mode\": \"tripwire\"",
        "\"failures\": 0",
        "\"variant\": \"Unfair\"",
        "\"trace_len\": 11",
    ] {
        assert!(json.contains(key), "{key} missing from:\n{json}");
    }
}

#[test]
fn flags_past_their_bounds_exit_2_with_one_line() {
    for (flag, value) in [
        ("--lines", "0"),
        ("--lines", "5"),
        ("--capacity", "0"),
        ("--capacity", "9"),
        ("--refill", "0"),
        ("--refill", "9"),
        ("--demand-max", "9"),
        ("--max-defer", "9"),
        ("--max-defer", "254"),
        ("--max-defer", "-1"),
    ] {
        let out = modelcheck(&[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}:\n{stderr}");
        assert!(stderr.contains(flag), "{flag} {value}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} must not search");
    }
}
