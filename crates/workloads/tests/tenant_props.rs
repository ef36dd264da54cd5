//! Never-panics property for tenant mix specs: any spec string the parser
//! accepts, split over 1–64 shards the way the fleet splits it and run to
//! a horizon, either fails `check_scaled` with a typed error or expects a
//! finite number of operations of at most 2³² per tenant and builds a mix
//! whose first draws are finite, time-ordered and in range.
//!
//! The vendored proptest subset only draws primitives, so spec strings
//! are derived from `u64` seeds. Rates and scales come from a pool that
//! includes the extremes of `f64` (subnormals, the smallest normals,
//! values near `f64::MAX`) next to ordinary values, and some tenants carry
//! junk, so the parser's rejections, the scaled-rate check and the draws
//! all see their edge cases.

use pcm_memsim::TraceSource;
use pcm_workloads::TenantMixSpec;
use proptest::prelude::*;

/// Splitmix64 step: turns one seed into a stream of well-mixed words.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(state: &mut u64, pool: &[&'a str]) -> &'a str {
    pool[(mix(state) % pool.len() as u64) as usize]
}

/// A positive number as a spec would spell it: the extremes of `f64`,
/// ordinary values, or any positive finite `f64`.
fn positive(state: &mut u64) -> String {
    const POOL: &[&str] = &[
        "5e-324",
        "1e-323",
        "2e-308",
        "2.2250738585072014e-308",
        "1e-306",
        "1e-300",
        "1e308",
        "1.7976931348623157e308",
        "0.5",
        "1",
        "120",
        "0.001",
    ];
    if mix(state).is_multiple_of(4) {
        format!("{}", f64::from_bits(1 + mix(state) % 0x7FEF_FFFF_FFFF_FFFF))
    } else {
        pick(state, POOL).to_string()
    }
}

/// Tenant `i`: usually well formed (a synthetic rate, or a suite with an
/// optional scale, plus optional read, pattern and arrivals fields), and
/// one time in five carrying a junk name, field or value as well.
fn tenant(state: &mut u64, i: u64) -> String {
    let mut parts = vec![if mix(state).is_multiple_of(2) {
        format!("rate={}", positive(state))
    } else {
        format!(
            "suite={}",
            pick(state, &["db-oltp", "kv-cache", "logging", "archive"])
        )
    }];
    if mix(state).is_multiple_of(2) {
        parts.push(format!("scale={}", positive(state)));
    }
    if mix(state).is_multiple_of(2) {
        parts.push(format!(
            "read={}",
            pick(state, &["0", "1e-300", "0.5", "1"])
        ));
    }
    if mix(state).is_multiple_of(2) {
        let pattern = pick(
            state,
            &["uniform", "seq", "zipf:0.99", "zipf:1e308", "zipf:5e-324"],
        );
        parts.push(format!("pattern={pattern}"));
    }
    if mix(state).is_multiple_of(2) {
        parts.push(format!(
            "arrivals={}",
            pick(state, &["poisson", "periodic"])
        ));
    }
    let mut name = format!("t{i}");
    if mix(state).is_multiple_of(5) {
        match mix(state) % 3 {
            0 => name = pick(state, &["bad name", "", "t0"]).to_string(),
            1 => parts.push(pick(state, &["flavor=mild", "rate", "=", ""]).to_string()),
            _ => parts.push(format!(
                "{}={}",
                pick(state, &["rate", "scale", "read"]),
                pick(state, &["0", "-1", "NaN", "inf", "x"])
            )),
        }
    }
    format!("{name}:{}", parts.join(","))
}

fn spec_string(seed: u64) -> String {
    let mut state = seed;
    let tenants = 1 + mix(&mut state) % 3;
    (0..tenants)
        .map(|i| tenant(&mut state, i))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses the spec derived from `seed`; if it is accepted and passes
/// `check_scaled` at `1/shards` over `lines` lines and `horizon_s`,
/// checks each tenant's expected operation count, builds it and draws
/// eight ops.
fn split_and_draw(seed: u64, shards: u32, lines: u32, horizon_s: f64) {
    let text = spec_string(seed);
    let Ok(spec) = text.parse::<TenantMixSpec>() else {
        return;
    };
    let rate_scale = 1.0 / shards as f64;
    if let Err(e) = spec.check_scaled(lines, rate_scale, horizon_s) {
        assert!(
            spec.tenants.iter().any(|t| t.name == e.tenant),
            "{text}: {e}"
        );
        return;
    }
    // The check's products differ from these by a few ulps at most.
    for t in &spec.tenants {
        let ops = t.nominal_rate(lines) * rate_scale * horizon_s;
        assert!(
            ops.is_finite() && ops <= 2f64.powi(32) * (1.0 + 1e-12),
            "{text}: {ops}"
        );
    }
    let mut mix = spec.build(lines, rate_scale, seed);
    let mut last = 0.0f64;
    for _ in 0..8 {
        let Some(op) = mix.next_op() else { break };
        assert!(op.at.secs().is_finite() && op.at.secs() >= last, "{text}");
        assert!(op.addr.0 < lines, "{text}");
        last = op.at.secs();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accepted_specs_never_panic_when_split_over_shards(
        seed in 0u64..u64::MAX,
        shards in 1u32..65,
        lines in 1u32..4097,
        horizon_exp in 0.0f64..9.0,
    ) {
        split_and_draw(seed, shards, lines, 10f64.powf(horizon_exp));
    }
}
