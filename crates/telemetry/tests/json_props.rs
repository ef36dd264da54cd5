//! Property tests for the telemetry JSON layer: arbitrary documents
//! round-trip bit-exactly through `to_json` → `from_json`, and the parser
//! returns errors (never panics) on malformed or truncated input.
//!
//! The vendored proptest subset only draws primitives, so documents are
//! derived from vectors of `u64` seeds through a small splitmix-style
//! expander — every field is still a pure function of the drawn seeds.

use proptest::collection;
use proptest::prelude::*;
use scrub_telemetry::{Document, Event, EventKind, PhaseRecord};

/// Splitmix64 step: turns one seed into a stream of well-mixed words.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite f64 derived from a seed word; mixes magnitudes, fractions,
/// negatives, and exact zero so shortest-round-trip formatting is pushed
/// through all its shapes.
fn finite_f64(w: u64) -> f64 {
    match w % 5 {
        0 => 0.0,
        1 => (w >> 8) as f64,
        2 => -((w >> 40) as f64) / 3.0,
        3 => (w >> 12) as f64 * 1e-9,
        _ => f64::from_bits(w & 0x7FEF_FFFF_FFFF_FFFF).abs(), // clamp exp below inf
    }
}

/// A string containing escape-worthy characters (quotes, backslashes,
/// control bytes, non-ASCII) as a pure function of the seed.
fn wild_string(w: u64) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '_', '.', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{7f}', 'é', '→', '🦀',
        ' ', '/', '{', '}', '[', ']',
    ];
    let mut state = w;
    let len = (mix(&mut state) % 12) as usize;
    (0..len)
        .map(|_| ALPHABET[(mix(&mut state) as usize) % ALPHABET.len()])
        .collect()
}

/// One event of any kind, derived from a seed word.
fn event_from_seed(w: u64) -> Event {
    let mut s = w;
    let addr = (mix(&mut s) % 100_000) as u32;
    let kind = match mix(&mut s) % 15 {
        0 => EventKind::ScrubProbe {
            addr,
            persistent_bits: (mix(&mut s) % 64) as u32,
            clean: mix(&mut s).is_multiple_of(2),
            energy_pj: finite_f64(mix(&mut s)),
        },
        1 => EventKind::Corrected {
            addr,
            bits: (mix(&mut s) % 8) as u32,
            demand: mix(&mut s).is_multiple_of(2),
        },
        2 => EventKind::Uncorrectable {
            addr,
            demand: mix(&mut s).is_multiple_of(2),
            miscorrected: mix(&mut s).is_multiple_of(2),
        },
        3 => EventKind::ScrubWriteback {
            addr,
            energy_pj: finite_f64(mix(&mut s)),
        },
        4 => EventKind::DemandWrite {
            addr,
            energy_pj: finite_f64(mix(&mut s)),
        },
        5 => EventKind::WritebackDecision {
            addr,
            observed_bits: (mix(&mut s) % 64) as u32,
            fired: mix(&mut s).is_multiple_of(2),
            forced: mix(&mut s).is_multiple_of(2),
        },
        6 => EventKind::RateChange {
            region: addr,
            mult: finite_f64(mix(&mut s)),
            next_interval_s: finite_f64(mix(&mut s)),
        },
        7 => EventKind::DemandWriteNotify { addr },
        8 => EventKind::WearLevelRotate { addr },
        9 => EventKind::ExecWorker {
            worker: (mix(&mut s) % 64) as u32,
            tasks: mix(&mut s) % 1_000_000,
        },
        10 => EventKind::SimDone {
            policy: wild_string(mix(&mut s)),
            workload: wild_string(mix(&mut s)),
            seed: mix(&mut s) % (1 << 53),
            scrub_probes: mix(&mut s) % 1_000_000,
            scrub_writes: mix(&mut s) % 1_000_000,
            ue: mix(&mut s) % 1_000,
            demand_ue: mix(&mut s) % 1_000,
            scrub_energy_uj: finite_f64(mix(&mut s)),
            mean_wear: finite_f64(mix(&mut s)),
        },
        11 => EventKind::EcpRepair {
            addr,
            cells_patched: (mix(&mut s) % 8) as u32,
            free_after: (mix(&mut s) % 8) as u32,
        },
        12 => EventKind::LineRetired {
            addr,
            spare: (mix(&mut s) % 64) as u32,
        },
        13 => EventKind::BankDegraded {
            bank: (mix(&mut s) % 16) as u32,
        },
        _ => EventKind::UeRecovered {
            addr,
            demand: mix(&mut s).is_multiple_of(2),
        },
    };
    Event {
        t_s: finite_f64(mix(&mut s)).abs(),
        seq: mix(&mut s) % (1 << 40),
        worker: (mix(&mut s) % 32) as u32,
        kind,
    }
}

/// A whole document as a pure function of the drawn seeds.
fn document_from_seeds(seeds: &[u64]) -> Document {
    let mut doc = Document::default();
    for &w in seeds {
        let mut s = w;
        match mix(&mut s) % 6 {
            0 => {
                doc.meta
                    .insert(wild_string(mix(&mut s)), wild_string(mix(&mut s)));
            }
            // Integer values stay below 2^53: the parser goes through f64,
            // so larger u64s cannot round-trip exactly by construction.
            1 => {
                doc.counters
                    .insert(wild_string(mix(&mut s)), mix(&mut s) % (1 << 53));
            }
            2 => {
                doc.gauges
                    .insert(wild_string(mix(&mut s)), mix(&mut s) % (1 << 53));
            }
            3 => {
                doc.values
                    .insert(wild_string(mix(&mut s)), finite_f64(mix(&mut s)));
            }
            4 => doc.phases.push(PhaseRecord {
                name: wild_string(mix(&mut s)),
                count: mix(&mut s) % 1_000,
                wall_s: finite_f64(mix(&mut s)).abs(),
                sim_span_s: finite_f64(mix(&mut s)).abs(),
            }),
            _ => doc.events.push(event_from_seed(mix(&mut s))),
        }
        doc.events_dropped = mix(&mut s) % 100;
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_documents_round_trip_bit_exactly(
        seeds in collection::vec(0u64..=u64::MAX, 0..24),
    ) {
        let doc = document_from_seeds(&seeds);
        let text = doc.to_json();
        let back = Document::from_json(&text).expect("emitted document parses");
        prop_assert_eq!(&back, &doc);
        // Idempotence: a second emit of the parsed document is the same text.
        prop_assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(
        codes in collection::vec(0u32..0x300, 0..64),
    ) {
        let text: String = codes
            .iter()
            .filter_map(|&c| char::from_u32(c))
            .collect();
        // Must return (Ok or Err), never panic.
        let _ = scrub_telemetry::json::parse(&text);
        let _ = Document::from_json(&text);
    }

    #[test]
    fn parser_never_panics_on_json_shaped_input(
        picks in collection::vec(0usize..32, 0..64),
    ) {
        // Draw from a JSON-flavored alphabet so the parser's deeper states
        // (nesting, escapes, number tails) are actually reached.
        const ALPHABET: &[u8; 32] = br#"{}[]",:0123456789.eE+-trufalsn \"#;
        let text: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
        let _ = scrub_telemetry::json::parse(&text);
        let _ = Document::from_json(&text);
    }

    #[test]
    fn truncated_documents_error_instead_of_panicking(
        seeds in collection::vec(0u64..=u64::MAX, 1..12),
        cut_sel in 0usize..10_000,
    ) {
        let text = document_from_seeds(&seeds).to_json();
        let mut cut = cut_sel % text.len();
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &text[..cut];
        // A prefix may only parse when everything chopped off was
        // whitespace (the emitter's trailing newline).
        if scrub_telemetry::json::parse(prefix).is_ok() {
            prop_assert!(text[cut..].trim().is_empty());
        }
    }
}
