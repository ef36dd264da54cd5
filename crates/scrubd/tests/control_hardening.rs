//! Daemon-level hardening of the file-based control plane.
//!
//! The command queue is a plain directory any tool can write into, so
//! the daemon must survive a messy one: sequence gaps, files still
//! being written by a slow client, stale duplicates re-appearing after
//! a crash, and junk file names. Each test drives the real `scrubd`
//! binary and asserts the fleet still reaches its horizon with a
//! one-line warning per oddity — the queue never wedges and a consumed
//! command is never executed twice.

use std::path::PathBuf;
use std::process::{Command as Proc, Output};

use scrubd::status::{self, FleetState};
use scrubd::{Command, ControlDir};

const CONFIG: &str = "[fleet]\n\
    banks = 8\n\
    lines-per-bank = 32\n\
    shards = 4\n\
    seed = 13\n\
    horizon-s = 600\n\
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
    let dir = std::env::temp_dir().join(format!("scrubd-ctlhard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let conf = dir.join("fleet.conf");
    std::fs::write(&conf, CONFIG).expect("write config");
    let ctl = ControlDir::new(dir.join("ctl"));
    ctl.ensure_layout().expect("layout");
    Rig { conf, ctl }
}

impl Rig {
    fn scrubd(&self, extra: &[&str]) -> Output {
        Proc::new(env!("CARGO_BIN_EXE_scrubd"))
            .args([
                "--config",
                self.conf.to_str().unwrap(),
                "--control",
                self.ctl.root().to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("spawn scrubd")
    }

    fn status(&self) -> status::FleetStatus {
        let text = std::fs::read_to_string(self.ctl.status_path()).expect("status.json");
        status::parse(&text).expect("status parses")
    }

    fn stage(&self, name: &str, body: &str) {
        std::fs::write(self.ctl.root().join("cmd").join(name), body).expect("stage file");
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn gaps_partials_and_junk_names_never_wedge_the_queue() {
    let rig = rig("messy");
    // seq 1 valid, seq 2 missing (gap), seq 3 valid, seq 5 still being
    // written (no trailing newline), plus a junk-named file.
    rig.stage("000001.cmd", "snapshot\n");
    rig.stage("000003.cmd", "snapshot\n");
    rig.stage("000005.cmd", "snapshot");
    rig.stage("notes.cmd", "snapshot\n");
    let out = rig.scrubd(&["--quiet"]);
    assert!(
        out.status.success(),
        "a messy queue must not kill the daemon\nstderr: {}",
        stderr(&out)
    );
    let log = stderr(&out);
    assert!(log.contains("sequence gap"), "gap should warn once: {log}");
    assert!(
        log.contains("still being written"),
        "partial file should warn, not consume: {log}"
    );
    assert!(
        log.contains("non-numeric command file name"),
        "junk name should warn: {log}"
    );
    // The half-written file is left for its writer; everything numbered
    // and complete was consumed, and the watermark tracks the highest.
    assert!(
        rig.ctl.root().join("cmd/000005.cmd").exists(),
        "partial file must survive the run"
    );
    assert!(!rig.ctl.root().join("cmd/000001.cmd").exists());
    assert!(!rig.ctl.root().join("cmd/000003.cmd").exists());
    let st = rig.status();
    assert_eq!(st.state, FleetState::Finished);
    assert_eq!(st.cmd_seq, Some(3), "watermark should track the gap jump");
}

#[test]
fn a_stale_duplicate_after_a_crash_is_dropped_not_replayed() {
    let rig = rig("dup");
    rig.ctl
        .submit(&Command::Snapshot, None)
        .expect("stage snapshot as seq 0");
    let out = rig.scrubd(&["--chaos", "seed=5;kill_round=1;kill_point=post"]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "chaos kill expected\nstderr: {}",
        stderr(&out)
    );
    // A confused client re-drops the already-consumed sequence number,
    // this time carrying a stop. If the daemon replayed it, the resumed
    // fleet would halt early; instead the journal's watermark identifies
    // it as stale and it is deleted unexecuted.
    rig.stage("000000.cmd", "stop\n");
    let out = rig.scrubd(&["--resume-fleet"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("stale or duplicate sequence 0"),
        "the drop should be loud: {}",
        stderr(&out)
    );
    let st = rig.status();
    assert_eq!(
        st.state,
        FleetState::Finished,
        "a stale stop must not halt the resumed fleet"
    );
    assert_eq!(st.clock_s, st.horizon_s);
    assert!(!rig.ctl.root().join("cmd/000000.cmd").exists());
}

#[test]
fn torn_publish_never_corrupts_a_read_document() {
    // Direct regression for the fsync-before-rename publish path: a
    // writer that dies mid-publish (modelled by the chaos write hook)
    // leaves the previous complete document in place and its half write
    // stranded in a temp file readers never look at.
    let rig = rig("torn");
    let doc = rig.ctl.status_path();
    rig.ctl
        .write_atomic(&doc, b"{ \"complete\": true }\n")
        .expect("first publish");
    rig.ctl
        .write_torn(&doc, b"{ \"complete\": false, \"half\": ")
        .expect("torn publish");
    assert_eq!(
        std::fs::read(&doc).expect("document still present"),
        b"{ \"complete\": true }\n",
        "torn write must not touch the published document"
    );
    assert!(
        rig.ctl.root().join("status.tmp").exists(),
        "the torn half should be stranded in the temp file"
    );
    // The next atomic publish goes through the same temp name and wins.
    rig.ctl
        .write_atomic(&doc, b"{ \"complete\": true, \"v\": 2 }\n")
        .expect("second publish");
    assert_eq!(
        std::fs::read(&doc).expect("document"),
        b"{ \"complete\": true, \"v\": 2 }\n"
    );
}
