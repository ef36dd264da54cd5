//! Differential chaos campaign for the self-healing fleet daemon.
//!
//! Every test compares a faulted run against the same fleet run with no
//! faults at all. The service contract under test: whatever the chaos
//! schedule does — shard panics, corrupted round checkpoints, rotted
//! generation files, torn status writes, daemon kills at any point in
//! the round pipeline — `scrubd --resume-fleet` converges to a rollup
//! byte-identical to the uninterrupted control run, or reports a typed
//! quarantine in `status.json`. It never crashes the fleet and never
//! silently loses state.
//!
//! The tripwire test proves the harness has teeth: a deliberately broken
//! recovery (`SCRUBD_UNSAFE_SKIP_WAL=1` skips journal replay) resurrects
//! a quarantined shard as healthy, which the quarantine-persistence
//! assertion catches.

use std::path::PathBuf;
use std::process::{Command as Proc, Output};

use scrubd::status::{self, FleetState};
use scrubd::{Command, ControlDir};

/// 8 banks in 4 shards, 4 cadence rounds to the horizon.
const CONFIG: &str = "[fleet]\n\
    banks = 8\n\
    lines-per-bank = 32\n\
    shards = 4\n\
    seed = 11\n\
    horizon-s = 1200\n\
    cadence-s = 300\n\
    policy = basic@300\n\
    threads = 2\n\
    [tenants]\n\
    mix = alpha:rate=40;beta:rate=10,read=0.5\n";

struct Rig {
    conf: PathBuf,
    ctl: ControlDir,
}

fn rig(tag: &str) -> Rig {
    let dir = std::env::temp_dir().join(format!("scrubd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let conf = dir.join("fleet.conf");
    std::fs::write(&conf, CONFIG).expect("write config");
    let ctl = ControlDir::new(dir.join("ctl"));
    Rig { conf, ctl }
}

impl Rig {
    /// Runs the daemon binary against this rig's config and control dir.
    fn scrubd(&self, extra: &[&str], env: &[(&str, &str)]) -> Output {
        let mut proc = Proc::new(env!("CARGO_BIN_EXE_scrubd"));
        proc.args([
            "--config",
            self.conf.to_str().unwrap(),
            "--control",
            self.ctl.root().to_str().unwrap(),
        ])
        .args(extra);
        for (k, v) in env {
            proc.env(k, v);
        }
        proc.output().expect("spawn scrubd")
    }

    fn status(&self) -> status::FleetStatus {
        let text = std::fs::read_to_string(self.ctl.status_path()).expect("status.json");
        status::parse(&text).expect("status parses")
    }

    fn rollup(&self) -> Vec<u8> {
        std::fs::read(self.ctl.rollup_path()).expect("rollup.json")
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_finished(rig: &Rig, out: &Output) {
    assert!(
        out.status.success(),
        "daemon should finish\nstderr: {}",
        stderr(out)
    );
    assert_eq!(rig.status().state, FleetState::Finished);
}

/// The chaos-free control run every differential compares against.
fn control_rollup(tag: &str) -> Vec<u8> {
    let rig = rig(&format!("{tag}-control"));
    let out = rig.scrubd(&["--quiet"], &[]);
    assert_finished(&rig, &out);
    rig.rollup()
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_kill_point() {
    let control = control_rollup("kill");
    for point in ["pre", "mid", "post"] {
        let rig = rig(&format!("kill-{point}"));
        let spec = format!("seed=5;kill_round=2;kill_point={point}");
        let out = rig.scrubd(&["--chaos", &spec], &[]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "chaos kill must exit 3 ({point})\nstderr: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("chaos: killed at round 2"),
            "kill should be loud ({point}): {}",
            stderr(&out)
        );
        let out = rig.scrubd(&["--resume-fleet"], &[]);
        assert_finished(&rig, &out);
        assert_eq!(
            rig.rollup(),
            control,
            "resumed rollup diverged from the control run (kill_point={point})"
        );
        assert_eq!(
            rig.status().quarantined,
            0,
            "nothing to quarantine ({point})"
        );
    }
}

#[test]
fn injected_panic_retries_and_matches_the_control_rollup() {
    let control = control_rollup("panic");
    let rig = rig("panic-fault");
    let out = rig.scrubd(&["--chaos", "seed=5;panic_shard=1@2"], &[]);
    assert_finished(&rig, &out);
    let log = stderr(&out);
    assert!(
        log.contains("shard 1 failed (panic)"),
        "the failure should be logged: {log}"
    );
    assert!(
        log.contains("shard 1 recovered"),
        "the recovery should be logged: {log}"
    );
    assert_eq!(rig.rollup(), control, "retried run diverged from control");
    let health = std::fs::read_to_string(rig.ctl.health_path()).expect("health.json");
    assert!(
        health.contains("fleet.retries"),
        "supervision counters belong in health.json: {health}"
    );
}

#[test]
fn corrupted_newest_generation_falls_back_to_an_older_one() {
    let control = control_rollup("genrot");
    let rig = rig("genrot-fault");
    let out = rig.scrubd(
        &[
            "--chaos",
            "seed=5;corrupt_gen=0:0@2;kill_round=2;kill_point=post",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let out = rig.scrubd(&["--resume-fleet"], &[]);
    assert!(
        stderr(&out).contains("recovered from generation"),
        "fallback should be logged: {}",
        stderr(&out)
    );
    assert_finished(&rig, &out);
    assert_eq!(
        rig.rollup(),
        control,
        "generation-fallback replay diverged from control"
    );
}

#[test]
fn exhausting_every_generation_is_a_typed_quarantine_not_a_crash() {
    let rig = rig("exhaust");
    let out = rig.scrubd(
        &[
            "--chaos",
            "seed=5;corrupt_gen=0:0@2;corrupt_gen=0:1@2;corrupt_gen=0:2@2;\
             kill_round=2;kill_point=post",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let out = rig.scrubd(&["--resume-fleet"], &[]);
    assert!(
        out.status.success(),
        "a double fault must degrade, never crash\nstderr: {}",
        stderr(&out)
    );
    let log = stderr(&out);
    assert!(
        log.contains("checkpoint generation(s) exhausted") && log.contains("quarantining shard 0"),
        "exhaustion should be reported with the typed error: {log}"
    );
    let st = rig.status();
    assert_eq!(st.state, FleetState::Degraded);
    assert_eq!(st.quarantined, 1);
    assert_eq!(st.shards[0].health, "quarantined");
    for sh in &st.shards[1..] {
        assert_eq!(sh.health, "healthy", "shard {} caught friendly fire", sh.id);
    }
}

#[test]
fn torn_status_write_leaves_the_previous_document_intact() {
    let control = control_rollup("torn");
    let rig = rig("torn-fault");
    let out = rig.scrubd(
        &[
            "--chaos",
            "seed=5;torn_status=1;kill_round=1;kill_point=post",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    // The torn publish never renamed over status.json: readers still see
    // the last complete document (the round-0 publish), and the stranded
    // half-written temp file is visible beside it.
    let st = rig.status();
    assert_eq!(st.state, FleetState::Running);
    assert_eq!(st.round, 0);
    assert!(
        rig.ctl.root().join("status.tmp").exists(),
        "the torn write should strand its temp file"
    );
    let out = rig.scrubd(&["--resume-fleet"], &[]);
    assert_finished(&rig, &out);
    assert_eq!(rig.rollup(), control, "torn-status recovery diverged");
}

#[test]
fn command_watermark_survives_the_crash() {
    let rig = rig("watermark");
    rig.ctl.ensure_layout().expect("layout");
    rig.ctl
        .submit(
            &Command::Migrate {
                shard: 1,
                worker: Some(0),
            },
            None,
        )
        .expect("stage migrate");
    let out = rig.scrubd(&["--chaos", "seed=5;kill_round=1;kill_point=post"], &[]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let out = rig.scrubd(&["--resume-fleet", "--quiet"], &[]);
    assert_finished(&rig, &out);
    // The consumed migrate was sequence 0; the journal carried that
    // watermark across the crash, so a fresh client chains after it
    // instead of reusing the consumed number.
    let st = rig.status();
    assert_eq!(st.cmd_seq, Some(0), "watermark lost across restart");
    let path = rig
        .ctl
        .submit(&Command::Snapshot, st.cmd_seq)
        .expect("post-restart submit");
    assert!(
        path.ends_with("000001.cmd"),
        "fresh submit must sort after the consumed sequence, got {}",
        path.display()
    );
}

#[test]
fn quarantine_survives_restart_and_the_wal_skip_tripwire_is_caught() {
    // A shard that panics every round exhausts its retry budget and is
    // quarantined; the rest of the fleet finishes.
    let rig = rig("tripwire");
    let out = rig.scrubd(&["--chaos", "seed=5;panic_shard=1@1:1000"], &[]);
    assert!(
        out.status.success(),
        "quarantine must not kill the daemon\nstderr: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("shard 1 QUARANTINED (panic)"),
        "stderr: {}",
        stderr(&out)
    );
    let st = rig.status();
    assert_eq!(st.state, FleetState::Degraded);
    assert_eq!(st.quarantined, 1);
    assert_eq!(st.shards[1].health, "quarantined");

    // Correct recovery replays the journal, so the quarantine persists
    // across a daemon restart.
    let out = rig.scrubd(&["--resume-fleet"], &[]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let st = rig.status();
    assert_eq!(
        st.quarantined, 1,
        "journal replay must keep the shard quarantined"
    );
    assert_eq!(st.shards[1].health, "quarantined");

    // Tripwire: recovery that trusts snapshots alone and skips journal
    // replay silently resurrects the quarantined shard as healthy. The
    // quarantine-persistence assertion above is exactly what catches
    // this broken variant — prove the divergence is visible.
    let out = rig.scrubd(&["--resume-fleet"], &[("SCRUBD_UNSAFE_SKIP_WAL", "1")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("UNSAFE: skipping write-ahead journal replay"),
        "stderr: {}",
        stderr(&out)
    );
    let st = rig.status();
    assert_eq!(
        st.quarantined, 0,
        "the tripwire should visibly lose the quarantine (that is the bug it plants)"
    );
    assert_eq!(st.shards[1].health, "healthy");
}

#[test]
fn resume_without_faults_is_idempotent() {
    // Resuming a cleanly finished fleet replays nothing and republishes
    // the identical rollup — restart is always safe.
    let rig = rig("idempotent");
    let out = rig.scrubd(&["--quiet"], &[]);
    assert_finished(&rig, &out);
    let first = rig.rollup();
    let out = rig.scrubd(&["--resume-fleet", "--quiet"], &[]);
    assert_finished(&rig, &out);
    assert_eq!(rig.rollup(), first, "idempotent resume changed the rollup");
}
