//! `scrubsim` — run one scrub simulation from the command line.
//!
//! ```bash
//! scrubsim [--lines N] [--code secded|bch-T] [--policy NAME] \
//!          [--workload NAME|idle] [--hours H] [--interval SECS] [--seed S] \
//!          [--fault-campaign SPEC] \
//!          [--resume SNAP] [--checkpoint-out SNAP --checkpoint-every SECS] \
//!          [--bench-out JSON]
//! ```
//!
//! Policies: `none`, `basic`, `threshold`, `age-aware`, `adaptive`,
//! `tour`, `profiled`, `combined` (default). Workloads: the 8-name suite
//! (see `--help`). Codes: `secded`, `bch-1..16`, `rs:N,K` (Reed–Solomon
//! over GF(2^8), e.g. `rs:72,64`).
//!
//! ## Split-horizon runs
//!
//! With `--checkpoint-out` + `--checkpoint-every`, the process runs ONE
//! segment (to the next cadence boundary), writes a sealed snapshot, and
//! exits without a report. A later invocation with the *same* simulation
//! flags plus `--resume SNAP` continues from the snapshot; the invocation
//! that reaches the horizon prints a report byte-identical to a
//! continuous run's.

use pcm_memsim::CampaignSpec;
use scrub_core::tick;
use scrubsim::prelude::*;

struct Args {
    lines: u32,
    code: CodeSpec,
    policy_name: String,
    workload: Option<WorkloadId>,
    hours: f64,
    interval_s: f64,
    seed: u64,
    campaign: Option<CampaignSpec>,
    resume: Option<String>,
    checkpoint_out: Option<String>,
    checkpoint_every_s: Option<f64>,
    bench_out: Option<String>,
    /// Token-bucket refill rate for `--policy tour`; `None` defaults to
    /// 2x the nominal slot rate (an uncontended tour never throttles).
    scrub_iops: Option<f64>,
    /// Token-bucket capacity for `--policy tour`.
    scrub_burst: f64,
    /// Throttled slots tolerated before a tour probe is forced.
    max_defer: u32,
    /// Risk-table capacity for `--policy profiled`; `None` defaults to
    /// `lines / 16` (min 16).
    profile_capacity: Option<u32>,
    /// Hot-interleave stride for `--policy profiled`.
    profile_stride: u32,
    /// Quiet-line tour stretch for `--policy profiled`.
    profile_stretch: u32,
    /// Hot-line score threshold for `--policy profiled`.
    profile_risk: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: scrubsim [--lines N] [--code secded|bch-1..bch-16|rs:N,K] [--policy NAME]\n\
         \x20               [--workload NAME|idle] [--hours H] [--interval SECS] [--seed S]\n\
         \x20               [--fault-campaign SPEC]  deterministic fault campaign, e.g.\n\
         \x20                                'seed=1;stuck=lines:8,cells:6'\n\
         \x20               [--resume SNAP]          continue from a snapshot file\n\
         \x20               [--checkpoint-out SNAP --checkpoint-every SECS]\n\
         \x20                                run one segment, snapshot, exit (no report)\n\
         \x20               [--bench-out JSON]       write snapshot-size metrics\n\
         \x20               [--scrub-iops N]  token-bucket budget for --policy tour|profiled\n\
         \x20               [--scrub-burst N] bucket capacity (default 64)\n\
         \x20               [--max-defer N]   throttled slots before a forced probe (default 8)\n\
         \x20               [--profile-capacity N] risk-table entries for --policy profiled\n\
         \x20                                (default lines/16)\n\
         \x20               [--profile-stride N]   hot-line interleave stride (default 4, >= 2)\n\
         \x20               [--profile-stretch N]  quiet-line tour stretch (default 2)\n\
         \x20               [--profile-risk N]     hot-line score threshold (default 2)\n\
         policies:  none basic threshold age-aware adaptive tour profiled combined\n\
         workloads: db-oltp db-olap web-serve logging stream batch kv-cache archive idle"
    );
    std::process::exit(2);
}

/// One-line fatal error naming the offending input; exit code matches
/// usage errors so scripts can treat both as "bad invocation".
fn fail(msg: &str) -> ! {
    eprintln!("scrubsim: {msg}");
    std::process::exit(2);
}

/// Parses a duration-like flag, rejecting NaN, infinities, and
/// non-positive values with a one-line error.
fn parse_positive_f64(flag: &str, raw: &str) -> f64 {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => x,
        _ => fail(&format!(
            "{flag} must be a positive finite number, got {raw:?}"
        )),
    }
}

fn parse_code(s: &str) -> Option<CodeSpec> {
    if s == "secded" {
        return Some(CodeSpec::secded_line());
    }
    if let Some(nk) = s.strip_prefix("rs:") {
        let (n, k) = nk.split_once(',')?;
        let n = n.trim().parse::<u32>().ok()?;
        let k = k.trim().parse::<u32>().ok()?;
        // Mirror CodeSpec::rs_line's panics as parse failures: a 512-bit
        // data payload needs k = 64 byte symbols, 1 <= k < n <= 255,
        // even parity.
        if !(1..=255).contains(&n) || k == 0 || k >= n || (n - k) % 2 != 0 || k * 8 != 512 {
            return None;
        }
        return Some(CodeSpec::rs_line(n, k));
    }
    let t = s.strip_prefix("bch-")?.parse::<u32>().ok()?;
    if (1..=16).contains(&t) {
        Some(CodeSpec::bch_line(t))
    } else {
        None
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        lines: 1 << 14,
        code: CodeSpec::bch_line(6),
        policy_name: "combined".to_string(),
        workload: Some(WorkloadId::DbOltp),
        hours: 24.0,
        interval_s: 900.0,
        seed: 0,
        campaign: None,
        resume: None,
        checkpoint_out: None,
        checkpoint_every_s: None,
        bench_out: None,
        scrub_iops: None,
        scrub_burst: 64.0,
        max_defer: 8,
        profile_capacity: None,
        profile_stride: 4,
        profile_stretch: 2,
        profile_risk: 2,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--lines" => {
                let raw = value();
                match raw.parse::<u32>() {
                    Ok(n) if n > 0 => args.lines = n,
                    _ => fail(&format!("--lines must be a positive integer, got {raw:?}")),
                }
            }
            // `--ecc` is an alias kept for symmetry with experiment
            // configs that name the knob by its subsystem.
            "--code" | "--ecc" => {
                let raw = value();
                args.code = parse_code(&raw).unwrap_or_else(|| {
                    fail(&format!(
                        "--code must be secded, bch-1..bch-16, or rs:N,K \
                         (1 <= K < N <= 255, K*8 = 512 data bits, even parity), got {raw:?}"
                    ))
                });
            }
            "--policy" => args.policy_name = value(),
            "--workload" => {
                let v = value();
                args.workload = if v == "idle" {
                    None
                } else {
                    Some(
                        WorkloadId::all()
                            .into_iter()
                            .find(|w| w.name() == v)
                            .unwrap_or_else(|| fail(&format!("unknown workload {v:?}"))),
                    )
                };
            }
            "--hours" => {
                let raw = value();
                args.hours = parse_positive_f64("--hours", &raw);
                if tick::checked_ticks_from_secs(args.hours * 3600.0).is_none() {
                    fail(&format!(
                        "--hours must fit the simulation clock (~146 years), got {raw:?}"
                    ));
                }
            }
            "--interval" => {
                let raw = value();
                args.interval_s = parse_positive_f64("--interval", &raw);
            }
            "--seed" => {
                let raw = value();
                args.seed = raw
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--seed must be a u64, got {raw:?}")));
            }
            "--fault-campaign" => {
                let raw = value();
                args.campaign = Some(raw.parse().unwrap_or_else(|e: String| fail(&e)));
            }
            "--resume" => args.resume = Some(value()),
            "--checkpoint-out" => args.checkpoint_out = Some(value()),
            "--checkpoint-every" => {
                let raw = value();
                args.checkpoint_every_s = Some(parse_positive_f64("--checkpoint-every", &raw));
            }
            "--bench-out" => args.bench_out = Some(value()),
            "--scrub-iops" => {
                let raw = value();
                args.scrub_iops = Some(parse_positive_f64("--scrub-iops", &raw));
            }
            "--scrub-burst" => {
                let raw = value();
                let burst = parse_positive_f64("--scrub-burst", &raw);
                if burst < 1.0 {
                    fail(&format!(
                        "--scrub-burst must hold at least one token, got {raw:?}"
                    ));
                }
                args.scrub_burst = burst;
            }
            "--max-defer" => {
                let raw = value();
                args.max_defer = raw.parse().unwrap_or_else(|_| {
                    fail(&format!(
                        "--max-defer must be a non-negative integer, got {raw:?}"
                    ))
                });
            }
            "--profile-capacity" => {
                let raw = value();
                match raw.parse::<u32>() {
                    Ok(n) if n > 0 => args.profile_capacity = Some(n),
                    _ => fail(&format!(
                        "--profile-capacity must be a positive integer, got {raw:?}"
                    )),
                }
            }
            "--profile-stride" => {
                let raw = value();
                match raw.parse::<u32>() {
                    Ok(n) if n >= 2 => args.profile_stride = n,
                    _ => fail(&format!(
                        "--profile-stride must be an integer >= 2, got {raw:?}"
                    )),
                }
            }
            "--profile-stretch" => {
                let raw = value();
                match raw.parse::<u32>() {
                    Ok(n) if n > 0 => args.profile_stretch = n,
                    _ => fail(&format!(
                        "--profile-stretch must be a positive integer, got {raw:?}"
                    )),
                }
            }
            "--profile-risk" => {
                let raw = value();
                match raw.parse::<u32>() {
                    Ok(n) if n > 0 => args.profile_risk = n,
                    _ => fail(&format!(
                        "--profile-risk must be a positive integer, got {raw:?}"
                    )),
                }
            }
            _ => usage(),
        }
    }
    if args.checkpoint_out.is_some() != args.checkpoint_every_s.is_some() {
        fail("--checkpoint-out and --checkpoint-every must be given together");
    }
    // The slot clock counts whole nanoseconds up to ~146 years, so a slot
    // gap under half a nanosecond rounds to nothing.
    let gap_s = args.interval_s / f64::from(args.lines);
    if matches!(tick::checked_ticks_from_secs(gap_s), None | Some(0)) {
        fail(&format!(
            "--interval {:e} s over {} lines gives a {gap_s:e} s slot gap; \
             the simulation clock holds 1 ns to ~146 years",
            args.interval_s, args.lines
        ));
    }
    let slots = args.hours * 3600.0 * f64::from(args.lines) / args.interval_s;
    if slots > tick::MAX_SLOTS as f64 {
        fail(&format!(
            "--interval {:e} s over {} lines schedules {slots:.3e} scrub slots in {} h; \
             one simulation holds at most {}",
            args.interval_s,
            args.lines,
            args.hours,
            tick::MAX_SLOTS
        ));
    }
    args
}

fn main() {
    let args = parse_args();
    let theta = args.code.guaranteed_t().saturating_sub(2).max(1);
    let policy = match args.policy_name.as_str() {
        "none" => PolicyKind::None,
        "basic" => PolicyKind::Basic {
            interval_s: args.interval_s,
        },
        "threshold" => PolicyKind::Threshold {
            interval_s: args.interval_s,
            theta,
        },
        "age-aware" => PolicyKind::AgeAware {
            interval_s: args.interval_s,
            theta,
            min_age_s: args.interval_s * 2.0 / 3.0,
        },
        "adaptive" => PolicyKind::Adaptive {
            interval_s: args.interval_s,
            theta,
            regions: 64,
        },
        "tour" => PolicyKind::Tour {
            interval_s: args.interval_s,
            theta,
            // Default budget: twice the nominal slot rate, so an
            // uncontended tour never throttles.
            iops: args
                .scrub_iops
                .unwrap_or(2.0 * args.lines as f64 / args.interval_s),
            burst: args.scrub_burst,
            max_defer: args.max_defer,
        },
        "profiled" => PolicyKind::Profiled {
            interval_s: args.interval_s,
            theta,
            // Same default budget as the tour: twice the nominal slot
            // rate, so an uncontended run never throttles.
            iops: args
                .scrub_iops
                .unwrap_or(2.0 * args.lines as f64 / args.interval_s),
            burst: args.scrub_burst,
            max_defer: args.max_defer,
            capacity: args.profile_capacity.unwrap_or((args.lines / 16).max(16)),
            hot_stride: args.profile_stride,
            stretch: args.profile_stretch,
            risk: args.profile_risk,
        },
        "combined" => PolicyKind::Combined {
            interval_s: args.interval_s,
            theta,
            regions: 64,
            min_age_s: args.interval_s * 2.0 / 3.0,
        },
        other => fail(&format!("unknown policy {other:?}")),
    };
    if !matches!(args.policy_name.as_str(), "tour" | "profiled")
        && (args.scrub_iops.is_some() || args.scrub_burst != 64.0 || args.max_defer != 8)
    {
        fail("--scrub-iops/--scrub-burst/--max-defer require --policy tour or profiled");
    }
    if args.policy_name != "profiled"
        && (args.profile_capacity.is_some()
            || args.profile_stride != 4
            || args.profile_stretch != 2
            || args.profile_risk != 2)
    {
        fail("--profile-capacity/--profile-stride/--profile-stretch/--profile-risk require --policy profiled");
    }
    let traffic = match args.workload {
        Some(id) => DemandTraffic::suite(id),
        None => DemandTraffic::Idle,
    };
    let mut builder = SimConfig::builder();
    builder
        .num_lines(args.lines)
        .code(args.code.clone())
        .policy(policy)
        .traffic(traffic)
        .horizon_s(args.hours * 3600.0)
        .seed(args.seed);
    if let Some(spec) = args.campaign {
        builder.fault_campaign(spec);
    }
    let config = builder.build();
    let horizon_s = config.horizon_s;
    let mut sim = match &args.resume {
        Some(path) => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| fail(&format!("cannot read snapshot {path:?}: {e}")));
            Simulation::resume(config, &bytes)
                .unwrap_or_else(|e| fail(&format!("cannot resume from {path:?}: {e}")))
        }
        None => Simulation::new(config),
    };
    // Segment mode: advance to the next cadence boundary, snapshot, exit.
    // The boundary grid is anchored at time zero so any chain of segment
    // invocations visits the same stop times run_split would.
    if let (Some(out), Some(every_s)) = (&args.checkpoint_out, args.checkpoint_every_s) {
        let k = (sim.clock_s() / every_s).floor() as u64 + 1;
        let stop_s = k as f64 * every_s;
        if stop_s < horizon_s {
            sim.run_to(stop_s);
            let bytes = sim
                .checkpoint()
                .unwrap_or_else(|e| fail(&format!("cannot checkpoint: {e}")));
            std::fs::write(out, &bytes)
                .unwrap_or_else(|e| fail(&format!("cannot write snapshot {out:?}: {e}")));
            if let Some(bench) = &args.bench_out {
                write_bench(bench, &args, bytes.len(), sim.clock_s());
            }
            eprintln!(
                "scrubsim: segment done at t={:.0}s / {:.0}s, snapshot {} bytes -> {}",
                sim.clock_s(),
                horizon_s,
                bytes.len(),
                out
            );
            return;
        }
        // Fewer than one cadence left: fall through and finish the run.
    }
    let report = sim.finish();
    println!("{report}");
    println!(
        "\nUE rate: {:.3}/GiB-day   scrub energy: {:.2} nJ/line-day",
        report.ue_per_gib_day(),
        report.scrub_energy_nj_per_line_day()
    );
}

/// Writes the snapshot-size metrics JSON that `tests/cli_split_run.rs`
/// checks (flat keys, stable order, no dependencies).
fn write_bench(path: &str, args: &Args, snapshot_bytes: usize, clock_s: f64) {
    let json = format!(
        "{{\n  \"name\": \"resume\",\n  \"lines\": {},\n  \"policy\": \"{}\",\n  \
         \"clock_s\": {:.1},\n  \"snapshot_bytes\": {}\n}}\n",
        args.lines, args.policy_name, clock_s, snapshot_bytes
    );
    if let Err(e) = std::fs::write(path, json) {
        fail(&format!("cannot write bench file {path:?}: {e}"));
    }
}
