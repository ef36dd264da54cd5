//! `scrubsim`'s split-run flags, end to end across processes.
//!
//! Each case runs one invocation straight through, then as three
//! processes at `--checkpoint-every 3000`: each segment writes
//! `--checkpoint-out`, and the second and third `--resume` from it. The
//! two stdouts must be byte-identical. The first segment's snapshot must
//! be non-empty and under 1 MiB, and its `--bench-out` record must report
//! the snapshot's size at `clock_s` 3000.

use std::path::PathBuf;
use std::process::Command;

const CAMPAIGN: &str = "seed=7;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600";

/// Runs `scrubsim` and returns its stdout; any failure fails the test.
fn scrubsim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scrubsim"))
        .args(args)
        .output()
        .expect("spawn scrubsim");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn assert_split_matches_continuous(tag: &str, args: &[&str]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("scrubsim-split-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("ckpt.bin");
    let bench = dir.join("bench.json");
    let (ckpt_str, bench_str) = (
        ckpt.to_str().expect("UTF-8 path"),
        bench.to_str().expect("UTF-8 path"),
    );

    let continuous = scrubsim(args);
    let mut split = String::new();
    for segment in 1..=3 {
        let mut seg_args = args.to_vec();
        seg_args.extend(["--checkpoint-out", ckpt_str, "--checkpoint-every", "3000"]);
        if segment == 1 {
            seg_args.extend(["--bench-out", bench_str]);
        } else {
            seg_args.extend(["--resume", ckpt_str]);
        }
        split.push_str(&scrubsim(&seg_args));
        if segment == 1 {
            let size = std::fs::metadata(&ckpt).expect("snapshot written").len();
            assert!(
                size > 0 && size < 1 << 20,
                "{tag}: snapshot of {size} bytes"
            );
            let record = std::fs::read_to_string(&bench).expect("bench record");
            assert!(record.contains("\"clock_s\": 3000.0,"), "{tag}: {record}");
            assert!(
                record.contains(&format!("\"snapshot_bytes\": {size}\n")),
                "{tag}: {record}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(continuous.contains("UE rate:"), "{tag}: {continuous}");
    assert_eq!(split, continuous, "{tag}: split run diverged");
}

#[test]
fn combined_split_run_matches_continuous() {
    assert_split_matches_continuous(
        "combined",
        &[
            "--workload",
            "kv-cache",
            "--policy",
            "combined",
            "--hours",
            "2",
            "--seed",
            "5",
            "--fault-campaign",
            CAMPAIGN,
        ],
    );
}

#[test]
fn tour_split_run_matches_continuous() {
    assert_split_matches_continuous(
        "tour",
        &[
            "--workload",
            "db-oltp",
            "--policy",
            "tour",
            "--hours",
            "2",
            "--seed",
            "5",
            "--scrub-iops",
            "4",
            "--scrub-burst",
            "16",
            "--max-defer",
            "8",
            "--fault-campaign",
            CAMPAIGN,
        ],
    );
}

#[test]
fn profiled_rs_split_run_matches_continuous() {
    assert_split_matches_continuous(
        "profiled-rs",
        &[
            "--lines",
            "2048",
            "--workload",
            "db-oltp",
            "--policy",
            "profiled",
            "--hours",
            "2",
            "--seed",
            "5",
            "--scrub-iops",
            "8",
            "--scrub-burst",
            "16",
            "--max-defer",
            "8",
            "--profile-capacity",
            "128",
            "--profile-stride",
            "8",
            "--profile-stretch",
            "2",
            "--ecc",
            "rs:72,64",
            "--fault-campaign",
            "seed=7;stuck=lines:16,cells:3;burst=lines:24,bits:17,at:3600",
        ],
    );
}
