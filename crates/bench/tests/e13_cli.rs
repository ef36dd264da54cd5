//! The E13 binary end to end: a fault campaign drives the repair
//! hierarchy into the telemetry document, whose `values` are the BENCH
//! record's metrics and whose event journal repeats run to run on one
//! thread, and a run split into checkpoint/resume segments prints what
//! the continuous run prints.

use std::path::{Path, PathBuf};
use std::process::Command;

use scrub_telemetry::{json, Document};

const CAMPAIGN: &str = "seed=99;stuck=lines:64,cells:4;seu=lines:128,count:2,window:21600";

/// Runs quick E13 on one thread with `args` and returns its stdout; any
/// failure fails the test.
fn e13(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_e13_lifetime"))
        .args(["--quick", "--threads", "1"])
        .args(args)
        .output()
        .expect("spawn exp_e13_lifetime");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e13-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs quick E13 under [`CAMPAIGN`] with its record and document in
/// `dir`, tagged `tag`; returns the record and the document's text.
fn campaign_run(dir: &Path, tag: &str) -> (json::Value, String) {
    let bench = dir.join(format!("bench-{tag}.json"));
    let telemetry = dir.join(format!("telemetry-{tag}.json"));
    e13(&[
        "--fault-campaign",
        CAMPAIGN,
        "--bench-out",
        bench.to_str().expect("UTF-8 path"),
        "--telemetry-out",
        telemetry.to_str().expect("UTF-8 path"),
    ]);
    let record = json::parse(&std::fs::read_to_string(&bench).expect("record")).expect("JSON");
    let text = std::fs::read_to_string(&telemetry).expect("document");
    (record, text)
}

#[test]
fn campaign_reaches_the_document_and_values_mirror_the_record() {
    let dir = temp_dir("campaign");
    let (record, text) = campaign_run(&dir, "first");
    let (_, again) = campaign_run(&dir, "again");
    std::fs::remove_dir_all(&dir).ok();

    // The schema: version 1, an event journal with its eviction count,
    // and a phase profile.
    let raw = json::parse(&text).expect("JSON");
    assert_eq!(raw.get("version").and_then(json::Value::as_u64), Some(1));
    let events = raw.get("events").expect("events");
    assert!(events.get("dropped").is_some() && events.get("entries").is_some());
    assert!(raw
        .get("phases")
        .and_then(json::Value::as_arr)
        .is_some_and(|p| !p.is_empty()));

    // The campaign drives every repair stage the counters name.
    let doc = Document::from_json(&text).expect("document");
    assert!(doc.counters["ecp_repairs"] > 0, "{:?}", doc.counters);
    assert!(doc.counters["lines_retired"] > 0, "{:?}", doc.counters);
    assert!(doc.counters.contains_key("unrepairable_ue"));
    assert!(doc.meta["fault_campaign"].starts_with("seed=99;"));

    // One name per number: the values are exactly the record's metrics.
    let metrics = record
        .get("metrics")
        .and_then(json::Value::as_obj)
        .expect("metrics");
    assert!(metrics.contains_key("basic.lifetime_s"));
    assert_eq!(doc.values.len(), metrics.len(), "{:?}", doc.values);
    for (name, v) in metrics {
        let want = v.as_f64().expect("numeric metric");
        let got = doc.values.get(&format!("e13.{name}")).copied();
        assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "e13.{name}");
    }
    assert!(!doc.values.keys().any(|k| k.starts_with("bench.")));
    assert!(!doc.counters.keys().any(|k| k.starts_with("report_")));

    // On one worker the journal repeats exactly, though its ring evicts.
    let again = Document::from_json(&again).expect("document");
    assert!(doc.events_dropped > 0, "the ring never evicted");
    assert_eq!(again.events_dropped, doc.events_dropped);
    let differs = |i: &usize| doc.events.get(*i) != again.events.get(*i);
    let first = (0..doc.events.len().max(again.events.len())).find(differs);
    assert_eq!(first, None, "the two journals differ from this entry on");
}

#[test]
fn checkpointed_run_prints_the_continuous_output() {
    let dir = temp_dir("split");
    let bench = dir.join("bench.json");
    let bench = bench.to_str().expect("UTF-8 path");
    let continuous = e13(&["--bench-out", bench]);
    let split = e13(&["--bench-out", bench, "--checkpoint-every", "900"]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(continuous.starts_with("E13:"), "{continuous}");
    assert_eq!(split, continuous, "checkpoint/resume changed E13's output");
}
