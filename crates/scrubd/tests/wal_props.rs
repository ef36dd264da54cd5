//! The round journal's decoder never panics.
//!
//! `RoundRecord::decode` checks a CRC-32 of the record's text before it
//! parses the fields, so arbitrary text is almost always turned away at
//! the CRC. Three inputs reach past it: arbitrary strings, arbitrary
//! bodies that carry their own correct `crc=` suffix (so the field
//! parser sees them), and whole journals of such lines after a valid
//! header. Each must come back `Ok` or as an error of one line.
//!
//! The vendored proptest speaks range and vec strategies, so text is
//! built from `u16` tokens: a token picks either a fragment of the
//! journal's grammar (keys, health tokens, separators, numbers at the
//! edges of their types) or one arbitrary character.

use std::path::PathBuf;

use pcm_ecc::Crc32;
use proptest::prelude::*;
use scrubd::{RoundRecord, Wal};

const FRAGMENTS: &[&str] = &[
    "round=",
    "t_ms=",
    "seq=",
    "health=",
    "crc=",
    " ",
    "=",
    ",",
    ":",
    "@",
    "+",
    "H",
    "R",
    "Q@",
    "R1@2+3:panic",
    "Q@4:ckpt",
    "exhausted",
    "0",
    "1",
    "42",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "\n",
    "θ",
];

/// Text from tokens: below the fragment count a token is a fragment;
/// above it, one character (any scalar value, replacement for the
/// surrogate gap).
fn text_of(tokens: &[u16]) -> String {
    let mut s = String::new();
    for &t in tokens {
        match FRAGMENTS.get(t as usize % 64) {
            Some(f) => s.push_str(f),
            None => s.push(char::from_u32(u32::from(t) * 17).unwrap_or('\u{FFFD}')),
        }
    }
    s
}

/// `body` with its own correct CRC suffix, the way `RoundRecord::encode`
/// writes one.
fn sealed(body: &str) -> String {
    format!(
        "{body} crc={:08x}",
        Crc32::new().checksum_bytes(body.as_bytes())
    )
}

fn assert_ok_or_one_line(line: &str) {
    match RoundRecord::decode(line) {
        // What decodes must re-encode to a line that decodes to itself.
        Ok(record) => assert_eq!(RoundRecord::decode(&record.encode()), Ok(record)),
        Err(e) => assert!(!e.is_empty() && !e.contains('\n'), "{line:?} -> {e:?}"),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scrubd-wal-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_decode_or_fail_on_one_line(
        tokens in proptest::collection::vec(0u16..=u16::MAX, 0..40),
    ) {
        assert_ok_or_one_line(&text_of(&tokens));
    }

    #[test]
    fn crc_valid_bodies_decode_or_fail_on_one_line(
        tokens in proptest::collection::vec(0u16..=u16::MAX, 0..40),
    ) {
        assert_ok_or_one_line(&sealed(&text_of(&tokens)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After a valid header, a journal of arbitrary lines (CRC-valid or
    /// not, with or without the final newline) loads or fails on one
    /// line, and everything it loads decodes again.
    #[test]
    fn journals_of_arbitrary_lines_load_or_fail_on_one_line(
        lines in proptest::collection::vec(
            proptest::collection::vec(0u16..=u16::MAX, 0..24),
            0..8,
        ),
        sealed_mask in 0u8..=255,
        terminated in 0u8..2,
    ) {
        let dir = temp_dir("journal");
        Wal::create(&dir, 0xFEED).expect("create");
        let mut text = std::fs::read_to_string(Wal::path_in(&dir)).expect("header");
        for (i, tokens) in lines.iter().enumerate() {
            let body = text_of(tokens);
            text.push_str(&if sealed_mask >> (i % 8) & 1 == 1 { sealed(&body) } else { body });
            text.push('\n');
        }
        if terminated == 0 {
            text.pop();
        }
        std::fs::write(Wal::path_in(&dir), &text).expect("write journal");
        match Wal::load(&dir, 0xFEED) {
            Ok((records, _)) => {
                for r in records {
                    prop_assert_eq!(RoundRecord::decode(&r.encode()), Ok(r));
                }
            }
            Err(e) => prop_assert!(!e.is_empty() && !e.contains('\n'), "{:?}", e),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
