//! Disabled-path telemetry overhead: per-call costs of every recorder
//! entry point while recording is off, plus an end-to-end estimate of
//! what those calls add to an E6 quick-scale run.
//!
//! The disabled path cannot be compared against a telemetry-free build
//! from inside one binary, so the estimate is per-call cost × call count:
//! an enabled E6 run counts how many instrumented sites fire, a disabled
//! E6 run provides the wall-clock baseline, and the product of count and
//! per-call cost bounds the disabled-path overhead. The result lands in
//! `BENCH_telemetry.json` (the repo's acceptance bar is < 2%).
//!
//! Run with: `cargo bench -p scrub-bench --bench telemetry_overhead`

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use scrub_bench::experiments::e6;
use scrub_bench::{RunOptions, Scale};
use scrub_telemetry as tel;
use tel::json::fmt_f64;

fn bench_disabled_calls(c: &mut Criterion) {
    tel::set_enabled(false);
    c.bench_function("tel_disabled_counter_add", |b| {
        b.iter(|| tel::counter_add(black_box(tel::Counter::ScrubProbes), black_box(1)))
    });
    c.bench_function("tel_disabled_event", |b| {
        b.iter(|| {
            tel::event(
                black_box(1.0),
                tel::EventKind::DemandWriteNotify { addr: black_box(7) },
            )
        })
    });
    c.bench_function("tel_disabled_gauge_max", |b| {
        b.iter(|| tel::gauge_max(black_box(tel::Gauge::ExecJobsHighWater), black_box(3)))
    });
    c.bench_function("tel_disabled_phase", |b| {
        b.iter(|| drop(tel::phase(black_box("bench"))))
    });
    c.bench_function("tel_disabled_enabled_check", |b| {
        b.iter(|| black_box(tel::enabled()))
    });
}

/// Median ns/call of `f` called in tight 4M-iteration batches.
fn per_call_ns<F: FnMut()>(mut f: F) -> f64 {
    const CALLS: u64 = 4_000_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn overhead_estimate() {
    let scale = Scale::quick();
    tel::set_enabled(false);
    let counter_ns = per_call_ns(|| tel::counter_add(black_box(tel::Counter::ScrubProbes), 1));
    let event_ns = per_call_ns(|| {
        tel::event(
            black_box(0.5),
            tel::EventKind::DemandWriteNotify { addr: black_box(3) },
        )
    });

    // Baseline: E6 quick-scale with the recorder disabled.
    let start = Instant::now();
    let disabled = e6::compute(&scale, &RunOptions::default());
    let wall_disabled_s = start.elapsed().as_secs_f64();

    // Counting run: the counters total the counted operations, and each
    // passes a guarded site. Journal mask Sim keeps the enabled run's
    // event volume negligible.
    tel::install(tel::Config {
        journal_capacity: 1024,
        event_mask: tel::EventClass::Sim.bit(),
    });
    let start = Instant::now();
    let enabled = e6::compute(&scale, &RunOptions::default());
    let wall_enabled_s = start.elapsed().as_secs_f64();
    let doc = tel::snapshot();
    tel::set_enabled(false);
    assert_eq!(
        disabled, enabled,
        "telemetry must not perturb simulation results"
    );
    let guarded_calls: u64 = doc.counters.values().sum();

    // Each counted site costs at most one counter-add check plus one
    // event-path check on the disabled path; double the count to bound
    // sites that only check `enabled()` and record nothing.
    let per_site_ns = counter_ns + event_ns;
    let overhead_s = 2.0 * guarded_calls as f64 * per_site_ns / 1e9;
    let overhead_pct = 100.0 * overhead_s / wall_disabled_s;
    let enabled_delta_pct = 100.0 * (wall_enabled_s - wall_disabled_s) / wall_disabled_s;

    let record = format!(
        "{{\n  \"experiment\": \"telemetry_overhead\",\n  \
         \"disabled_counter_add_ns\": {},\n  \"disabled_event_ns\": {},\n  \
         \"e6_quick_wall_s\": {},\n  \"guarded_calls\": {},\n  \
         \"disabled_overhead_pct\": {},\n  \"enabled_measured_delta_pct\": {}\n}}\n",
        fmt_f64(counter_ns),
        fmt_f64(event_ns),
        fmt_f64(wall_disabled_s),
        guarded_calls,
        fmt_f64(overhead_pct),
        fmt_f64(enabled_delta_pct)
    );
    println!(
        "telemetry disabled-path: {counter_ns:.3} ns/counter, {event_ns:.3} ns/event, \
         {guarded_calls} guarded calls over {wall_disabled_s:.2}s => {overhead_pct:.4}% overhead \
         (enabled run measured {enabled_delta_pct:+.2}%)"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-path overhead {overhead_pct:.4}% exceeds the 2% budget"
    );
    // `cargo bench` runs with the package directory as cwd; the record
    // belongs at the workspace root next to the other BENCH files.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|root| root.join("BENCH_telemetry.json"))
        .unwrap_or_else(|| "BENCH_telemetry.json".into());
    match std::fs::write(&out, &record) {
        Ok(()) => eprintln!("[telemetry_overhead] record: {}", out.display()),
        Err(e) => eprintln!("[telemetry_overhead] could not write record: {e}"),
    }
}

criterion_group!(benches, bench_disabled_calls);

fn main() {
    benches();
    overhead_estimate();
}
