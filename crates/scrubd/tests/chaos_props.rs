//! `ChaosSpec` (`scrubd --chaos`) never panics.
//!
//! Arbitrary text, runs of grammar tokens, and specs built clause by
//! clause from edge values must each parse to `Ok` or to a one-line
//! `Err`. Every parsed spec answers each of its queries without a panic
//! at shard, generation and round values of 0, 1 and the type's maximum,
//! with byte lengths of 0 included.
//!
//! Without the overflow-free window test in `panic_at`, a window such as
//! `panic_shard=0@1:18446744073709551615` overflows its end round.

use proptest::prelude::*;
use scrubd::{ChaosSpec, CorruptMode};

const TOKENS: [&str; 24] = [
    "seed=",
    "panic_shard=",
    "corrupt_ckpt=",
    "corrupt_gen=",
    "kill_round=",
    "kill_point=",
    "torn_status=",
    "pre",
    "mid",
    "post",
    "@",
    ":",
    ";",
    "=",
    " ",
    "0",
    "1",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "\n",
    "θ",
];

/// Shard and generation values at the edges of `u32`.
const EDGE_U32: [&str; 3] = ["0", "1", "4294967295"];

/// Round and window values at the edges of `u64`, 0 included (an invalid
/// window).
const EDGE_U64: [&str; 5] = [
    "0",
    "1",
    "2",
    "18446744073709551614",
    "18446744073709551615",
];

/// One clause per four draws: its kind, then its fields.
fn clauses(draws: &[usize]) -> String {
    draws
        .chunks_exact(4)
        .map(|d| {
            let (s, r, w) = (
                EDGE_U32[d[1] % EDGE_U32.len()],
                EDGE_U64[d[2] % EDGE_U64.len()],
                EDGE_U64[d[3] % EDGE_U64.len()],
            );
            match d[0] % 7 {
                0 => format!("seed={w}"),
                1 => format!("panic_shard={s}@{r}:{w}"),
                2 => format!("corrupt_ckpt={s}@{r}"),
                3 => format!("corrupt_gen={s}:{}@{r}", EDGE_U32[d[3] % EDGE_U32.len()]),
                4 => format!("kill_round={r}"),
                5 => format!("kill_point={}", ["pre", "mid", "post"][d[1] % 3]),
                _ => format!("torn_status={r}"),
            }
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Asks `spec` every query at the edge values.
fn query(spec: &ChaosSpec) {
    for shard in [0, 1, u32::MAX] {
        for round in [0, 1, u64::MAX] {
            spec.panic_at(shard, round);
            spec.corrupt_ckpt_at(shard, round);
            for len in [0, 1, usize::MAX] {
                let at = spec.flip_offset(shard, round, len);
                assert!(at < len.max(1), "offset {at} for length {len}");
            }
        }
        for gen in [0, 1, u32::MAX] {
            for mode in [
                CorruptMode::BitFlip,
                CorruptMode::Truncate,
                CorruptMode::ForeignMagic,
            ] {
                for len in [0, 1, 64] {
                    spec.damage(mode, shard, gen, &mut vec![0u8; len]);
                }
            }
        }
    }
    for round in [0, 1, u64::MAX] {
        spec.corrupt_gens_at(round);
        spec.torn_status_at(round);
    }
}

/// Parses `text`; an `Ok` must answer every query, an `Err` must be one
/// line. Returns whether it parsed.
fn check(text: &str) -> bool {
    match text.parse::<ChaosSpec>() {
        Ok(spec) => {
            query(&spec);
            true
        }
        Err(e) => {
            assert!(!e.is_empty() && !e.contains('\n'), "{text:?}: {e:?}");
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
    fn edge_value_specs_parse_or_answer(draws in proptest::collection::vec(0usize..1 << 20, 4..24)) {
        check(&clauses(&draws));
    }
}

/// The edge-value cases can build the window that overflowed, and it is
/// accepted and answered.
#[test]
fn window_past_u64_max_is_answered() {
    let text = clauses(&[1, 0, 1, 4]);
    assert_eq!(text, "panic_shard=0@1:18446744073709551615");
    assert!(check(&text));
}
