//! CLI contract for the `scrubd` daemon binary.
//!
//! Negative paths: every malformed invocation or fleet config dies with
//! exit code 2 and a single stderr line naming the problem, before any
//! control-plane files are written. Positive paths: a tiny fleet runs to
//! its horizon, publishes status/rollup/shard documents, and honours
//! pre-staged control commands — including the CI-critical property that
//! a run with a mid-run migration publishes a rollup byte-identical to a
//! run without one.

use std::path::{Path, PathBuf};
use std::process::{Command as Proc, Output};

use scrubd::status::{self, FleetState};
use scrubd::{Command, ControlDir};

fn scrubd(args: &[&str]) -> Output {
    Proc::new(env!("CARGO_BIN_EXE_scrubd"))
        .args(args)
        .output()
        .expect("spawn scrubd")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scrubd-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const GOOD_CONFIG: &str = "[fleet]\n\
    banks = 8\n\
    lines-per-bank = 32\n\
    shards = 4\n\
    seed = 9\n\
    horizon-s = 600\n\
    cadence-s = 300\n\
    policy = basic@300\n\
    threads = 2\n\
    [tenants]\n\
    mix = alpha:rate=40;beta:rate=10,read=0.5\n";

fn write_config(dir: &Path, text: &str) -> PathBuf {
    let path = dir.join("fleet.conf");
    std::fs::write(&path, text).expect("write config");
    path
}

/// Asserts the invocation failed with exit 2 and exactly one stderr line
/// mentioning `needle`, without touching the control dir.
fn assert_rejected(args: &[&str], needle: &str, control: &Path) {
    let out = scrubd(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2\nstderr: {}",
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
        !control.join("status.json").exists(),
        "{args:?} must not publish status before validation"
    );
}

#[test]
fn rejects_missing_and_malformed_flags() {
    let dir = tmp("flags");
    let conf = write_config(&dir, GOOD_CONFIG);
    let conf = conf.to_str().unwrap();
    let ctl = dir.join("ctl");
    let ctl_s = ctl.to_str().unwrap();
    assert_rejected(&["--control", ctl_s], "--config is required", &ctl);
    assert_rejected(&["--config", conf], "--control is required", &ctl);
    assert_rejected(&["--config"], "--config requires a value", &ctl);
    assert_rejected(
        &["--config", conf, "--control", ctl_s, "--round-wall-ms", "x"],
        "--round-wall-ms",
        &ctl,
    );
    assert_rejected(
        &["--config", conf, "--control", ctl_s, "--sharding", "magic"],
        "usage",
        &ctl,
    );
}

#[test]
fn rejects_unreadable_config() {
    let dir = tmp("noent");
    let ctl = dir.join("ctl");
    assert_rejected(
        &[
            "--config",
            dir.join("missing.conf").to_str().unwrap(),
            "--control",
            ctl.to_str().unwrap(),
        ],
        "cannot read config",
        &ctl,
    );
}

#[test]
fn rejects_malformed_fleet_configs() {
    // One spawn per malformed config: structural breakage, impossible
    // topology, and the tenant-rate validations the SLO math relies on
    // (zero and NaN rates must die here, not divide-by-zero later).
    let cases: &[(&str, &str)] = &[
        ("not even ini", "expected key = value"),
        (&GOOD_CONFIG.replace("banks = 8", "banks = 0"), "banks"),
        (
            &GOOD_CONFIG.replace("shards = 4", "shards = 3"),
            "divide evenly",
        ),
        (
            &GOOD_CONFIG.replace("horizon-s = 600", "horizon-s = -1"),
            "horizon-s",
        ),
        // A horizon past the tick clock (it panicked), and a cadence of
        // 6e8 rounds (it ran until killed).
        (
            &GOOD_CONFIG
                .replace("horizon-s = 600", "horizon-s = 1e12")
                .replace(
                    "mix = alpha:rate=40;beta:rate=10,read=0.5",
                    "mix = alpha:rate=0.000001",
                ),
            "horizon-s",
        ),
        (
            &GOOD_CONFIG.replace("cadence-s = 300", "cadence-s = 1e-6"),
            "cadence-s",
        ),
        // A 16 ns slot gap: 3.8e10 slots per shard (it ran until killed).
        (
            &GOOD_CONFIG.replace("policy = basic@300", "policy = basic@1e-6"),
            "policy interval 1e-6 s over 64 shard lines schedules",
        ),
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = alpha:rate=0",
            ),
            "finite and positive",
        ),
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = alpha:rate=NaN",
            ),
            "finite and positive",
        ),
        (
            &GOOD_CONFIG.replace("threads = 2", "engine = event\nthreads = 2"),
            "unknown key \"engine\"",
        ),
        // Rates the tenant parser accepts that round to zero per shard.
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = alpha:rate=40;beta:rate=5e-324",
            ),
            "tenant \"beta\": rate=5e-324 rounds to a zero demand rate",
        ),
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = alpha:suite=db-oltp,scale=5e-324",
            ),
            "tenant \"alpha\": scale=5e-324 rounds to a zero demand rate",
        ),
        // Rates so high the run would never reach its horizon.
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = a:rate=1e300,read=0.5",
            ),
            "tenant \"a\": rate=1e300 scaled by 0.25 asks for",
        ),
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = a:suite=db-oltp,scale=1e308",
            ),
            "tenant \"a\": scale=1e308 scaled by 0.25 asks for",
        ),
        (
            &GOOD_CONFIG.replace(
                "mix = alpha:rate=40;beta:rate=10,read=0.5",
                "mix = a:rate=1e9,read=0.5",
            ),
            "more than 2^32 operations over the horizon",
        ),
    ];
    for (i, (text, needle)) in cases.iter().enumerate() {
        let dir = tmp(&format!("badconf{i}"));
        let conf = write_config(&dir, text);
        let ctl = dir.join("ctl");
        assert_rejected(
            &[
                "--config",
                conf.to_str().unwrap(),
                "--control",
                ctl.to_str().unwrap(),
            ],
            needle,
            &ctl,
        );
    }
}

fn run_fleet(tag: &str, staged: &[Command]) -> (ControlDir, Output) {
    let dir = tmp(tag);
    let conf = write_config(&dir, GOOD_CONFIG);
    let ctl = ControlDir::new(dir.join("ctl"));
    ctl.ensure_layout().expect("layout");
    for cmd in staged {
        ctl.submit(cmd, None).expect("stage command");
    }
    let out = scrubd(&[
        "--config",
        conf.to_str().unwrap(),
        "--control",
        ctl.root().to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "scrubd should run the tiny fleet\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (ctl, out)
}

fn read_status(ctl: &ControlDir) -> status::FleetStatus {
    let text = std::fs::read_to_string(ctl.status_path()).expect("status.json exists");
    status::parse(&text).expect("status parses")
}

#[test]
fn runs_a_tiny_fleet_to_the_horizon() {
    let (ctl, _) = run_fleet("happy", &[]);
    let st = read_status(&ctl);
    assert_eq!(st.state, FleetState::Finished);
    assert_eq!(st.clock_s, st.horizon_s);
    assert_eq!(st.shards.len(), 4);
    for sh in &st.shards {
        assert!(sh.demand_ops > 0, "shard {} saw no demand", sh.id);
    }
    // Per-shard docs and the rollup are published.
    let rollup = std::fs::read_to_string(ctl.rollup_path()).expect("rollup.json");
    assert!(rollup.contains("fleet.demand_reads"));
    for shard in 0..4 {
        assert!(
            ctl.shard_doc_path(shard).exists(),
            "missing shard doc {shard}"
        );
    }
}

#[test]
fn prestaged_commands_drive_migration_snapshot_and_stop() {
    // Migration at the first boundary must not change the published
    // rollup: compare byte-for-byte against an undisturbed run.
    let (plain_ctl, _) = run_fleet("plain", &[]);
    let (ctl, _) = run_fleet(
        "migrate",
        &[
            Command::Migrate {
                shard: 1,
                worker: Some(0),
            },
            Command::Snapshot,
        ],
    );
    let st = read_status(&ctl);
    assert_eq!(st.state, FleetState::Finished);
    assert_eq!(st.shards[1].migrations, 1);
    assert_eq!(st.shards[1].worker, 0);
    for shard in 0..4 {
        assert!(
            ctl.snapshot_path(shard).exists(),
            "snapshot verb should checkpoint shard {shard}"
        );
    }
    let plain = std::fs::read(plain_ctl.rollup_path()).expect("plain rollup");
    let migrated = std::fs::read(ctl.rollup_path()).expect("migrated rollup");
    assert_eq!(
        plain, migrated,
        "mid-run migration changed the published rollup"
    );

    // A pre-staged stop halts the fleet before the horizon.
    let (ctl, _) = run_fleet("stop", &[Command::Stop]);
    let st = read_status(&ctl);
    assert_eq!(st.state, FleetState::Stopped);
    assert!(st.clock_s < st.horizon_s);
}

#[test]
fn malformed_staged_commands_are_skipped_not_fatal() {
    let dir = tmp("badcmd");
    let conf = write_config(&dir, GOOD_CONFIG);
    let ctl = ControlDir::new(dir.join("ctl"));
    ctl.ensure_layout().expect("layout");
    std::fs::write(ctl.root().join("cmd/000001.cmd"), "reboot the moon\n").expect("stage");
    let out = scrubd(&[
        "--config",
        conf.to_str().unwrap(),
        "--control",
        ctl.root().to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "bad commands must not kill the daemon"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring malformed command"),
        "should log the skip: {stderr}"
    );
    assert_eq!(read_status(&ctl).state, FleetState::Finished);
}
