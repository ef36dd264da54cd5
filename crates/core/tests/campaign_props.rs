//! `CampaignSpec` (`--fault-campaign`) never panics, and every campaign
//! it accepts runs.
//!
//! Each case parses arbitrary text, a random run of grammar tokens, or a
//! spec built clause by clause with edge values: counts of 0, 1,
//! `MAX_PER_LINE`, one past it and `u32::MAX`, and times of NaN, ±inf,
//! zero, subnormal and huge. Parsing must return `Ok` or a one-line
//! `Err`. Every `Ok` attaches to a 64-line memory with the repair
//! hierarchy and UE recovery on, and runs two simulated hours of basic
//! scrub under SECDED, BCH-6 and RS(72,64).
//!
//! Without the per-line bound, `burst=lines:4,bits:4294967295,at:1` and
//! an intermittent clause overflow the sum of a line's injected bits,
//! and `cells` near `u32::MAX` ask `Injector::new` for tens of gigabytes.

use pcm_ecc::CodeSpec;
use pcm_memsim::inject::MAX_PER_LINE;
use pcm_memsim::{CampaignSpec, RecoveryConfig, RepairConfig};
use proptest::prelude::*;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};

const EDGE_COUNTS: [&str; 8] = [
    "0",
    "1",
    "17",
    "576",
    "1024", // MAX_PER_LINE
    "1025",
    "4294967295",
    "4294967296",
];

const EDGE_SECS: [&str; 9] = [
    "NaN", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e308", "3600",
];

const TOKENS: [&str; 24] = [
    "seed=",
    "stuck=",
    "seu=",
    "intermittent=",
    "burst=",
    "lines:",
    "cells:",
    "count:",
    "window:",
    "period:",
    "bits:",
    "at:",
    ",",
    ";",
    "=",
    ":",
    " ",
    "1",
    "1024",
    "1025",
    "4294967295",
    "NaN",
    "-inf",
    "1e308",
];

/// A count: an edge value for even `n`, else a small number.
fn count(n: usize) -> String {
    if n.is_multiple_of(2) {
        EDGE_COUNTS[n / 2 % EDGE_COUNTS.len()].to_string()
    } else {
        (n / 2 % 2048).to_string()
    }
}

/// A time in seconds: an edge value for even `n`, else a plain one.
fn secs(n: usize) -> String {
    if n.is_multiple_of(2) {
        EDGE_SECS[n / 2 % EDGE_SECS.len()].to_string()
    } else {
        format!("{}.5", n / 2 % 20_000)
    }
}

/// One clause per four draws: its kind, then its three fields.
fn clauses(draws: &[usize]) -> String {
    draws
        .chunks_exact(4)
        .map(|d| match d[0] % 5 {
            0 => format!("seed={}", d[1]),
            1 => format!("stuck=lines:{},cells:{}", count(d[1]), count(d[2])),
            2 => format!(
                "seu=lines:{},count:{},window:{}",
                count(d[1]),
                count(d[2]),
                secs(d[3])
            ),
            3 => format!(
                "intermittent=lines:{},cells:{},period:{}",
                count(d[1]),
                count(d[2]),
                secs(d[3])
            ),
            _ => format!(
                "burst=lines:{},bits:{},at:{}",
                count(d[1]),
                count(d[2]),
                secs(d[3])
            ),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Two hours of basic scrub over 64 idle lines with `spec` attached.
fn run(spec: CampaignSpec, code: CodeSpec) {
    let mut b = SimConfig::builder();
    b.num_lines(64)
        .code(code)
        .policy(PolicyKind::Basic { interval_s: 900.0 })
        .traffic(DemandTraffic::Idle)
        .horizon_s(2.0 * 3600.0)
        .seed(5)
        .fault_campaign(spec)
        .repair(RepairConfig::default())
        .ue_recovery(RecoveryConfig::default());
    Simulation::new(b.build()).run();
}

/// Parses `text`; an `Ok` must run under every code, an `Err` must be
/// one line. Returns whether it parsed.
fn check(text: &str) -> bool {
    match text.parse::<CampaignSpec>() {
        Ok(spec) => {
            for code in [
                CodeSpec::secded_line(),
                CodeSpec::bch_line(6),
                CodeSpec::rs_line(72, 64),
            ] {
                run(spec, code);
            }
            true
        }
        Err(e) => {
            assert!(!e.is_empty() && !e.contains('\n'), "{text:?}: {e:?}");
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_text_never_panics(codes in proptest::collection::vec(0u32..0x11_0000, 0..48)) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        check(&text);
    }

    #[test]
    fn token_runs_never_panic(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..24)) {
        let text: String = picks.into_iter().map(|i| TOKENS[i]).collect();
        check(&text);
    }

    #[test]
    fn edge_value_specs_parse_or_run(draws in proptest::collection::vec(0usize..1 << 20, 4..24)) {
        check(&clauses(&draws));
    }
}

/// Every clause at the bound parses and runs, and one past it does not,
/// so the cases above reach both the parser's bound and the simulation.
#[test]
fn campaign_at_the_bound_runs() {
    let spec = |m: u32| {
        format!(
            "seed=1;stuck=lines:64,cells:{m};seu=lines:64,count:{m},window:3600;\
             intermittent=lines:64,cells:{m},period:600;burst=lines:64,bits:{m},at:1"
        )
    };
    assert!(check(&spec(MAX_PER_LINE)), "the bound itself is accepted");
    assert!(!check(&spec(MAX_PER_LINE + 1)));
    assert!(!check(
        "seed=1;burst=lines:4,bits:4294967295,at:1;intermittent=lines:64,cells:1,period:2"
    ));
}
