//! Shared entry point for the `exp_*` binaries: flag parsing, wall-clock
//! timing, and the machine-readable `BENCH_<exp>.json` record.
//!
//! Every experiment binary calls [`main`] with its experiment's `run`,
//! which
//!
//! 1. parses `--threads N`, `--quick`, `--full`, `--bench-out PATH` and
//!    the [`RunOptions`] flags,
//! 2. resolves the worker pool (flag > `SCRUBSIM_THREADS` > machine),
//! 3. runs the experiment and prints its tables to stdout, and
//! 4. writes a small JSON record — experiment id, thread count, wall-clock
//!    seconds, scale, and any headline metrics — next to the working
//!    directory (stderr announces the path, keeping stdout diffable), and
//!    with `--telemetry-out`, the telemetry document, whose `values` are
//!    the same metrics named `{exp}.{name}`.

use std::time::Instant;

use pcm_memsim::CampaignSpec;
use scrub_core::tick;
use scrub_telemetry as tel;
use tel::json::{escape, fmt_f64};

use crate::scale::Scale;

/// The flags that change what an experiment simulates, passed to its
/// `run` as one value. The default runs every experiment as built.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// `--fault-campaign`: attached to every simulation, in place of an
    /// experiment's own campaign.
    pub fault_campaign: Option<CampaignSpec>,
    /// `--checkpoint-every`: run each simulation as checkpoint/resume
    /// segments of this many simulated seconds, through
    /// `scrub_core::run_split` (the output is byte-identical).
    pub checkpoint_every_s: Option<f64>,
    /// `--scrub-iops`: the token-bucket refill rate budgeted tour
    /// policies run at, in place of an experiment's nominal rate.
    pub scrub_iops: Option<f64>,
}

/// An experiment's entry point: its stdout and every `(name, value)`
/// number it publishes, for the JSON record and the telemetry values.
pub type Run = fn(&Scale, &RunOptions) -> (String, Vec<(String, f64)>);

struct Opts {
    threads: Option<usize>,
    scale: Option<Scale>,
    bench_out: Option<String>,
    telemetry_out: Option<String>,
    horizon_s: Option<f64>,
    run: RunOptions,
}

fn usage(exp: &str) -> ! {
    eprintln!(
        "usage: exp_{exp} [--threads N] [--quick|--full] [--bench-out PATH] [--telemetry-out PATH]\n\
         \x20                [--fault-campaign SPEC] [--checkpoint-every SECS] [--horizon-s SECS]\n\
         \x20                [--scrub-iops N]\n\
         \x20 --threads N        worker pool size (default: $SCRUBSIM_THREADS or all cores)\n\
         \x20 --quick            CI-sized scale (same as SCRUB_QUICK=1)\n\
         \x20 --full             paper-sized scale (overrides SCRUB_QUICK)\n\
         \x20 --bench-out P      where to write the JSON record (default: BENCH_{exp}.json)\n\
         \x20 --telemetry-out P  enable the telemetry recorder and write its versioned\n\
         \x20                    JSON document (counters, phases, event journal) to P\n\
         \x20 --fault-campaign S deterministic fault campaign attached to every simulation,\n\
         \x20                    e.g. 'seed=1;stuck=lines:8,cells:6;seu=lines:16,count:4,window:3600'\n\
         \x20 --checkpoint-every SECS\n\
         \x20                    run each simulation as checkpoint/resume segments of this\n\
         \x20                    many simulated seconds (results are byte-identical);\n\
         \x20                    e1 runs no simulation and the e15/e16 fleets checkpoint\n\
         \x20                    on their own round cadence, so those three ignore both\n\
         \x20                    --checkpoint-every and --fault-campaign\n\
         \x20 --horizon-s SECS   override the scale's simulated horizon (e.g. 31536000\n\
         \x20                    for a 1-year run)\n\
         \x20 --scrub-iops N     token-bucket refill rate for budgeted tour policies\n\
         \x20                    (experiments that sweep budgets scale their sweep by it)"
    );
    std::process::exit(2);
}

/// One-line fatal error for a malformed flag or environment value: the
/// message names the offending input, stderr gets exactly one line, and
/// the exit code matches usage errors.
fn fail(exp: &str, msg: &str) -> ! {
    eprintln!("exp_{exp}: {msg}");
    std::process::exit(2);
}

fn parse_opts(exp: &str) -> Opts {
    let mut opts = Opts {
        threads: None,
        scale: None,
        bench_out: None,
        telemetry_out: None,
        horizon_s: None,
        run: RunOptions::default(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage(exp));
        match flag.as_str() {
            "--threads" => {
                let raw = value();
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => opts.threads = Some(n),
                    _ => fail(
                        exp,
                        &format!("--threads must be a positive integer, got {raw:?}"),
                    ),
                }
            }
            "--quick" => opts.scale = Some(Scale::quick()),
            "--full" => opts.scale = Some(Scale::full()),
            "--bench-out" => opts.bench_out = Some(value()),
            "--telemetry-out" => opts.telemetry_out = Some(value()),
            "--fault-campaign" => {
                let raw = value();
                match raw.parse::<CampaignSpec>() {
                    Ok(spec) => opts.run.fault_campaign = Some(spec),
                    Err(e) => fail(exp, &e),
                }
            }
            "--checkpoint-every" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.run.checkpoint_every_s = Some(s),
                    _ => fail(
                        exp,
                        &format!(
                            "--checkpoint-every must be a positive finite number, got {raw:?}"
                        ),
                    ),
                }
            }
            "--scrub-iops" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.run.scrub_iops = Some(s),
                    _ => fail(
                        exp,
                        &format!("--scrub-iops must be a positive finite number, got {raw:?}"),
                    ),
                }
            }
            "--horizon-s" => {
                let raw = value();
                // The slot clock holds ~146 years of nanoseconds.
                match raw.parse::<f64>() {
                    Ok(s) if s > 0.0 && tick::checked_ticks_from_secs(s).is_some() => {
                        opts.horizon_s = Some(s)
                    }
                    _ => fail(
                        exp,
                        &format!(
                            "--horizon-s must be a positive number of seconds \
                             the simulation clock can hold (~146 years), got {raw:?}"
                        ),
                    ),
                }
            }
            _ => usage(exp),
        }
    }
    opts
}

fn render_record(
    exp: &str,
    threads: usize,
    wall_s: f64,
    scale: &Scale,
    metrics: &[(String, f64)],
) -> String {
    let metric_fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("    \"{}\": {}", escape(k), fmt_f64(*v)))
        .collect();
    format!(
        "{{\n  \"experiment\": \"{}\",\n  \"threads\": {},\n  \
         \"wall_s\": {},\n  \"horizon_s\": {},\n  \
         \"scale\": {{\n    \"num_lines\": {},\n    \"horizon_s\": {},\n    \
         \"reps\": {},\n    \"mc_cells\": {}\n  }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        escape(exp),
        threads,
        fmt_f64(wall_s),
        fmt_f64(scale.horizon_s),
        scale.num_lines,
        fmt_f64(scale.horizon_s),
        scale.reps,
        scale.mc_cells,
        metric_fields.join(",\n")
    )
}

/// Runs an experiment binary: parses the flags, runs `run` once, prints
/// its stdout and writes its metrics to the JSON record and, as
/// `{exp}.{name}` values, to the telemetry document.
pub fn main(exp: &'static str, run: Run) {
    let opts = parse_opts(exp);
    // Validate the environment up front: a malformed SCRUBSIM_THREADS
    // fails loudly here instead of being silently ignored mid-run.
    if let Err(e) = scrub_exec::env_threads() {
        fail(exp, &e);
    }
    if let Some(n) = opts.threads {
        scrub_exec::set_default_threads(n);
    }
    let threads = scrub_exec::default_threads();
    let mut scale = opts.scale.unwrap_or_else(Scale::from_env);
    if let Some(h) = opts.horizon_s {
        scale.horizon_s = h;
    }
    if let Some(every_s) = opts.run.checkpoint_every_s {
        if scale.horizon_s / every_s > tick::MAX_SEGMENTS as f64 {
            fail(
                exp,
                &format!(
                    "--checkpoint-every {every_s:?} splits the {:?} s horizon into more than {} \
                     segments",
                    scale.horizon_s,
                    tick::MAX_SEGMENTS
                ),
            );
        }
    }
    if opts.telemetry_out.is_some() {
        tel::install(tel::Config::default());
        tel::set_meta("experiment", exp);
        tel::set_meta("threads", &threads.to_string());
        tel::set_meta("num_lines", &scale.num_lines.to_string());
        tel::set_meta("horizon_s", &format!("{}", scale.horizon_s));
        tel::set_meta("reps", &scale.reps.to_string());
        if let Some(spec) = opts.run.fault_campaign {
            tel::set_meta("fault_campaign", &spec.to_string());
        }
    }
    let started = Instant::now();
    let (output, metrics) = {
        let _scope = tel::phase(&format!("exp.{exp}"));
        run(&scale, &opts.run)
    };
    let wall_s = started.elapsed().as_secs_f64();
    println!("{output}");
    let record = render_record(exp, threads, wall_s, &scale, &metrics);
    let path = opts
        .bench_out
        .unwrap_or_else(|| format!("BENCH_{exp}.json"));
    match std::fs::write(&path, &record) {
        Ok(()) => eprintln!("[{exp}] {wall_s:.2}s on {threads} thread(s); record: {path}"),
        Err(e) => eprintln!("[{exp}] could not write {path}: {e}"),
    }
    if let Some(tel_path) = opts.telemetry_out {
        for (name, v) in &metrics {
            tel::set_value(&format!("{exp}.{name}"), *v);
        }
        let doc = tel::snapshot();
        match std::fs::write(&tel_path, doc.to_json()) {
            Ok(()) => eprintln!("[{exp}] telemetry document: {tel_path}"),
            Err(e) => eprintln!("[{exp}] could not write {tel_path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_valid_shape() {
        let scale = Scale::quick();
        let rec = render_record(
            "e6",
            4,
            1.25,
            &scale,
            &[("ue_reduction_pct".to_string(), 96.5)],
        );
        assert!(rec.contains("\"experiment\": \"e6\""));
        assert!(
            !rec.contains("engine"),
            "one simulation core: no engine field"
        );
        assert!(rec.contains("\"threads\": 4"));
        assert!(rec.contains(&format!("\"horizon_s\": {}", scale.horizon_s)));
        assert!(rec.contains("\"ue_reduction_pct\": 96.5"));
        // Balanced braces — cheap sanity check on the hand-rolled JSON.
        let open = rec.matches('{').count();
        let close = rec.matches('}').count();
        assert_eq!(open, close);
    }
}
