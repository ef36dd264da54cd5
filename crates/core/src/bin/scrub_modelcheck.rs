//! `scrub_modelcheck` — exhaustive check of the budgeted tour's
//! `ScrubProgress` bound on the real policy.
//!
//! ```bash
//! scrub_modelcheck [--lines N] [--capacity N] [--refill N]
//!                  [--demand-max N] [--max-defer N] [--tripwire] [--json OUT]
//! ```
//!
//! Default mode searches every state demand can drive the tour to and
//! exits 1 (printing the counterexample trace) if a line can go more
//! than `progress_bound_slots()` slots without a probe. `--tripwire`
//! runs the same search with the anti-starvation boost disabled and
//! exits 1 if the seeded violation goes *undetected* — the harness
//! checking itself. `--lines` takes 1 to 4 and the other flags at most
//! 8, so every search finishes in seconds.

use std::ops::RangeInclusive;

use scrub_core::modelcheck::{check, CheckOutcome, ModelParams};

fn usage() -> ! {
    eprintln!(
        "usage: scrub_modelcheck [--lines N] [--capacity N] [--refill N]\n\
         \x20                       [--demand-max N] [--max-defer N]\n\
         \x20                       [--tripwire] [--json OUT]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("scrub_modelcheck: {msg}");
    std::process::exit(2);
}

fn parse_u8(flag: &str, raw: &str, range: RangeInclusive<u8>) -> u8 {
    match raw.parse::<u8>() {
        Ok(n) if range.contains(&n) => n,
        _ => fail(&format!(
            "{flag} must be an integer from {} to {}, got {raw:?}",
            range.start(),
            range.end()
        )),
    }
}

fn json_outcome(out: &CheckOutcome, variant: &str) -> String {
    let violation = match &out.violation {
        None => "null".to_string(),
        Some(v) => format!(
            "{{\"reason\": {:?}, \"trace_len\": {}}}",
            v.reason,
            v.trace.len()
        ),
    };
    format!(
        "    {{\"property\": \"ScrubProgress\", \"variant\": \"{variant}\", \"states\": {}, \"violation\": {}}}",
        out.states_explored, violation
    )
}

fn main() {
    let mut params = ModelParams::tiny();
    let mut tripwire = false;
    let mut json_out: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--lines" => params.lines = parse_u8("--lines", &value(), 1..=4),
            "--capacity" => params.capacity = parse_u8("--capacity", &value(), 1..=8),
            "--refill" => params.refill = parse_u8("--refill", &value(), 1..=8),
            "--demand-max" => params.demand_max = parse_u8("--demand-max", &value(), 0..=8),
            "--max-defer" => params.max_defer = parse_u8("--max-defer", &value(), 0..=8),
            "--tripwire" => tripwire = true,
            "--json" => json_out = Some(value()),
            _ => usage(),
        }
    }

    let out = check(params, tripwire);
    let (mode, variant) = if tripwire {
        ("tripwire", "Unfair")
    } else {
        ("verify", "Fair")
    };
    let ok = out.violation.is_some() == tripwire;
    println!(
        "{} {:<19} variant={:<14} states={:<7} {}",
        if ok { "PASS" } else { "FAIL" },
        "ScrubProgress",
        variant,
        out.states_explored,
        match &out.violation {
            Some(v) if tripwire => format!("violation caught: {}", v.reason),
            Some(v) => format!("VIOLATION: {}", v.reason),
            None if tripwire => "seeded violation NOT caught".to_string(),
            None => format!(
                "holds over full reachable space (largest gap {})",
                out.max_gap
            ),
        }
    );
    if let (Some(v), false) = (&out.violation, tripwire) {
        for step in &v.trace {
            println!("    {step}");
        }
    }
    let failures = u32::from(!ok);

    let bound = out.bound;
    println!(
        "mode={mode} lines={} capacity={} refill={} demand_max={} max_defer={} bound={bound}",
        params.lines, params.capacity, params.refill, params.demand_max, params.max_defer
    );

    if let Some(path) = json_out {
        let json = format!(
            "{{\n  \"mode\": \"{mode}\",\n  \"progress_bound\": {bound},\n  \
             \"failures\": {failures},\n  \"checks\": [\n{}\n  ]\n}}\n",
            json_outcome(&out, variant)
        );
        if let Err(e) = std::fs::write(&path, json) {
            fail(&format!("cannot write {path:?}: {e}"));
        }
    }

    if !ok {
        std::process::exit(1);
    }
}
