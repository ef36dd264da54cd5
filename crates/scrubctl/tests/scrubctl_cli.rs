//! CLI contract for `scrubctl`.
//!
//! Negative paths exit 2 with one stderr line (missing flags, a control
//! dir nobody serves, unknown shard ids on migrate, misplaced flags).
//! Positive paths run against a fabricated control dir populated with a
//! real fleet's status/rollup via the `scrubd` library — no daemon
//! process needed, so these are deterministic.

use std::path::PathBuf;
use std::process::{Command as Proc, Output};

use scrubd::status::{self, FleetState};
use scrubd::{ControlDir, Fleet, FleetConfig};

fn scrubctl(args: &[&str]) -> Output {
    Proc::new(env!("CARGO_BIN_EXE_scrubctl"))
        .args(args)
        .output()
        .expect("spawn scrubctl")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = scrubctl(args);
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
}

/// Builds a served control dir: a real 4-shard fleet advanced one round,
/// status + rollup published the way `scrubd` publishes them.
fn served_control(tag: &str) -> (ControlDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("scrubctl-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config: FleetConfig = "[fleet]\n\
         banks = 8\n\
         lines-per-bank = 32\n\
         shards = 4\n\
         seed = 3\n\
         horizon-s = 600\n\
         cadence-s = 300\n\
         policy = basic@300\n\
         threads = 2\n\
         [tenants]\n\
         mix = alpha:rate=40;beta:rate=10,read=0.5\n"
        .parse()
        .expect("valid config");
    let mut fleet = Fleet::new(config);
    fleet.advance_round();
    let ctl = ControlDir::new(&dir);
    ctl.ensure_layout().expect("layout");
    ctl.write_atomic(
        &ctl.status_path(),
        status::render(&fleet, FleetState::Running, None).as_bytes(),
    )
    .expect("publish status");
    ctl.write_atomic(&ctl.rollup_path(), fleet.rollup().to_json().as_bytes())
        .expect("publish rollup");
    (ctl, dir)
}

#[test]
fn rejects_missing_and_misplaced_flags() {
    assert_rejected(&[], "--control is required");
    assert_rejected(&["status"], "--control is required");
    assert_rejected(&["--control"], "--control requires a value");
    let (_, dir) = served_control("flags");
    let ctl = dir.to_str().unwrap();
    assert_rejected(&["--control", ctl], "usage");
    assert_rejected(&["--control", ctl, "reboot"], "usage");
    assert_rejected(&["--control", ctl, "status", "slo"], "usage");
    assert_rejected(
        &["--control", ctl, "status", "--shard", "1"],
        "--shard only applies to migrate",
    );
    assert_rejected(
        &["--control", ctl, "stop", "--worker", "1"],
        "--worker only applies to migrate",
    );
    assert_rejected(
        &["--control", ctl, "migrate", "--shard", "x"],
        "--shard must be a non-negative integer",
    );
    assert_rejected(&["--control", ctl, "migrate"], "migrate requires --shard");
}

#[test]
fn rejects_a_control_dir_nobody_serves() {
    let empty = std::env::temp_dir().join(format!("scrubctl-unserved-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).expect("mkdir");
    let ctl = empty.to_str().unwrap().to_owned();
    assert_rejected(&["--control", &ctl, "status"], "no fleet status");
    assert_rejected(&["--control", &ctl, "stop"], "no fleet status");
    assert_rejected(
        &["--control", &ctl, "migrate", "--shard", "0"],
        "no fleet status",
    );
}

#[test]
fn migrate_validates_the_shard_id_before_submitting() {
    let (ctl, dir) = served_control("badshard");
    assert_rejected(
        &[
            "--control",
            dir.to_str().unwrap(),
            "migrate",
            "--shard",
            "9",
        ],
        "unknown shard id 9",
    );
    assert!(
        ctl.pending().expect("listable").is_empty(),
        "a rejected migrate must not enqueue a command"
    );
}

#[test]
fn status_slo_and_rollup_render_the_published_fleet() {
    let (ctl, dir) = served_control("render");
    let dir = dir.to_str().unwrap();

    let out = scrubctl(&["--control", dir, "status"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("running"), "{text}");
    assert!(text.contains("8 banks in 4 shards"), "{text}");

    let out = scrubctl(&["--control", dir, "slo"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alpha") && text.contains("beta"), "{text}");

    // rollup passes the published JSON through untouched.
    let out = scrubctl(&["--control", dir, "rollup"]);
    assert!(out.status.success());
    let published = std::fs::read(ctl.rollup_path()).expect("rollup.json");
    assert_eq!(out.stdout, published, "rollup must be verbatim");
}

#[test]
fn control_verbs_enqueue_commands_in_order() {
    let (ctl, dir) = served_control("enqueue");
    let dir = dir.to_str().unwrap();
    for args in [
        vec!["--control", dir, "migrate", "--shard", "2", "--worker", "1"],
        vec!["--control", dir, "snapshot"],
        vec!["--control", dir, "stop"],
    ] {
        let out = scrubctl(&args);
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("submitted"));
    }
    let intake = ctl.take_pending(None).expect("consumable");
    let pending: Vec<_> = intake
        .commands
        .into_iter()
        .map(|c| c.expect("well-formed").to_string())
        .collect();
    assert_eq!(
        pending,
        ["migrate shard=2 worker=1", "snapshot", "stop"],
        "commands must drain in submission order"
    );
}
