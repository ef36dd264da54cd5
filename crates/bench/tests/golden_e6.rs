//! Golden-file regression pin for the E6 headline metrics.
//!
//! The determinism contract makes every E6 metric a pure function of
//! `(scale, seed)`, so the exact f64 values can be pinned. A drift in any
//! bit — a reordered accumulation, a changed RNG draw, an edited energy
//! constant — shows up as a diff against the checked-in golden file, not
//! as a silently shifted headline.
//!
//! Blessing (after an *intentional* behavior change):
//!
//! ```text
//! SCRUBSIM_BLESS=1 cargo test -p scrub-bench --test golden_e6
//! SCRUBSIM_BLESS=1 SCRUBSIM_FULL_TEST=1 cargo test --release -p scrub-bench \
//!     --test golden_e6 -- --ignored
//! ```
//!
//! then commit the regenerated `tests/golden/*.txt` alongside the change
//! that moved the numbers, with the reason in the commit message.

use scrub_bench::experiments::e6::{self, Headline};
use scrub_bench::{RunOptions, Scale};
use std::path::PathBuf;

/// Renders the pinned metrics as stable `key = value` lines. Values use
/// Rust's shortest round-trip f64 formatting, so equality on the rendered
/// text is bit-equality on the floats.
fn render_metrics(h: &Headline) -> String {
    let mut out = String::new();
    for (prefix, m) in [("basic", &h.basic), ("combined", &h.combined)] {
        out.push_str(&format!("{prefix}.ue = {}\n", m.ue));
        out.push_str(&format!("{prefix}.scrub_writes = {}\n", m.scrub_writes));
        out.push_str(&format!("{prefix}.scrub_probes = {}\n", m.scrub_probes));
        out.push_str(&format!(
            "{prefix}.scrub_energy_uj = {}\n",
            m.scrub_energy_uj
        ));
        out.push_str(&format!("{prefix}.mean_wear = {}\n", m.mean_wear));
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Computes E6 at `scale` on one worker (the thread count is already
/// guaranteed not to matter; pinning it keeps this test independent of
/// the process-global default other tests may set) and compares — or,
/// under `SCRUBSIM_BLESS=1`, rewrites — the golden file.
fn check_golden(name: &str, scale: Scale) {
    scrub_exec::set_default_threads(1);
    let h = e6::compute(&scale, &RunOptions::default());
    let got = render_metrics(&h);
    let path = golden_path(name);
    if std::env::var("SCRUBSIM_BLESS").is_ok_and(|v| v != "0" && !v.is_empty()) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("[golden_e6] blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             SCRUBSIM_BLESS=1 (see module docs)",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "E6 {name} metrics drifted from {}.\n\
         If this change is intentional, re-bless per the module docs and\n\
         explain the drift in the commit message.",
        path.display()
    );
}

/// Tiny scale: runs in a few seconds even in debug builds, so it guards
/// every `cargo test`. Same shape as the determinism suite's tiny scale.
#[test]
fn golden_e6_tiny() {
    check_golden(
        "e6_tiny",
        Scale {
            num_lines: 1024,
            horizon_s: 3.0 * 3600.0,
            reps: 2,
            mc_cells: 100,
        },
    );
}

/// Quick (CI) scale: the scale the headline numbers are reported at.
/// Too slow for the default test run, so it is both `#[ignore]`d and
/// gated on `SCRUBSIM_FULL_TEST=1`; run it via
/// `SCRUBSIM_FULL_TEST=1 cargo test --release -p scrub-bench --test golden_e6 -- --ignored`.
#[test]
#[ignore = "quick-scale E6 takes ~40s; set SCRUBSIM_FULL_TEST=1 and run with --ignored"]
fn golden_e6_quick() {
    if !std::env::var("SCRUBSIM_FULL_TEST").is_ok_and(|v| v != "0" && !v.is_empty()) {
        eprintln!("[golden_e6] SCRUBSIM_FULL_TEST not set; skipping quick-scale golden");
        return;
    }
    check_golden("e6_quick", Scale::quick());
}
