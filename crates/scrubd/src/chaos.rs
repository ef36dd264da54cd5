//! Deterministic service-level fault injection for the fleet layer —
//! the `scrubd --chaos SPEC` harness.
//!
//! Where `memsim::inject` corrupts the *simulated memory*, this module
//! corrupts the *service itself*: shard round jobs panic, round
//! checkpoints arrive with flipped bits, persisted checkpoint generations
//! rot on disk, status publishes tear mid-write, and the daemon dies at a
//! chosen round. Every injection is a pure function of the spec — the
//! schedule is fixed at parse time and derived only from the spec's own
//! seed — so a chaos campaign replays identically and differential tests
//! can compare a chaotic run against a continuous control run.
//!
//! Spec grammar (`;`-separated clauses, repeated clauses accumulate):
//!
//! ```text
//! seed=N                  corruption-mode / schedule seed (default 0)
//! panic_shard=S@R[:W]     shard S's round job panics during rounds
//!                         [R, R+W) (W defaults to 1)
//! corrupt_ckpt=S@R        shard S's round-R checkpoint bytes get one
//!                         flipped bit before validation
//! corrupt_gen=S:G@R       after the round-R persist, generation G of
//!                         shard S is corrupted on disk (mode seeded:
//!                         bit-flip / truncate / foreign magic)
//! kill_round=R            the daemon exits (exit code 3) at round R
//! kill_point=pre|mid|post where in round R the kill lands: before any
//!                         persist, after persisting half the shards
//!                         (no WAL record), or after WAL+publish
//! torn_status=R           round R's status publish leaves a torn
//!                         `status.json.tmp` (prefix only, no rename)
//! ```
//!
//! Example: `--chaos "seed=7;panic_shard=2@3:4;kill_round=6;kill_point=mid"`.

use std::str::FromStr;

use pcm_memsim::splitmix64;

/// Where inside a round the injected daemon kill happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After advancing, before any generation/WAL persist — the whole
    /// round's progress exists only in memory and is lost.
    Pre,
    /// After persisting generations for the first half of the shards,
    /// before the WAL record — recovery sees mixed generations.
    Mid,
    /// After WAL append and publish — a clean crash.
    Post,
}

impl KillPoint {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pre" => Ok(KillPoint::Pre),
            "mid" => Ok(KillPoint::Mid),
            "post" => Ok(KillPoint::Post),
            other => Err(format!("kill_point must be pre|mid|post, got {other:?}")),
        }
    }
}

/// How a persisted generation file is damaged (chosen by seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// One bit flipped somewhere in the payload.
    BitFlip,
    /// File truncated to half its length.
    Truncate,
    /// The 8-byte magic replaced with a foreign one.
    ForeignMagic,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PanicWindow {
    shard: u32,
    from_round: u64,
    rounds: u64,
}

/// Parsed, immutable chaos schedule. All queries are pure functions of
/// `(shard, round)`, so the engine is freely shared across pool workers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed for corruption-mode and offset choices.
    pub seed: u64,
    panics: Vec<PanicWindow>,
    corrupt_ckpt: Vec<(u32, u64)>,
    corrupt_gen: Vec<(u32, u32, u64)>,
    /// Round at which the daemon kills itself, if any.
    pub kill_round: Option<u64>,
    /// Where in the kill round the exit lands.
    pub kill_point: KillPoint,
    torn_status: Vec<u64>,
}

impl ChaosSpec {
    /// Whether shard `shard`'s round job must panic at fleet round
    /// `round` (retry attempts inside the window fail too — that is how
    /// a campaign drives a shard into quarantine). A window may reach
    /// past `u64::MAX`; its end is never computed.
    pub fn panic_at(&self, shard: u32, round: u64) -> bool {
        self.panics
            .iter()
            .any(|p| p.shard == shard && round >= p.from_round && round - p.from_round < p.rounds)
    }

    /// Whether shard `shard`'s round-`round` checkpoint bytes must be
    /// corrupted before validation.
    pub fn corrupt_ckpt_at(&self, shard: u32, round: u64) -> bool {
        self.corrupt_ckpt
            .iter()
            .any(|&(s, r)| s == shard && r == round)
    }

    /// Generations to damage on disk after the round-`round` persist, as
    /// `(shard, generation, mode)`.
    pub fn corrupt_gens_at(&self, round: u64) -> Vec<(u32, u32, CorruptMode)> {
        self.corrupt_gen
            .iter()
            .filter(|&&(_, _, r)| r == round)
            .map(|&(s, g, _)| {
                let pick = splitmix64(self.seed ^ ((s as u64) << 20) ^ g as u64) % 3;
                let mode = match pick {
                    0 => CorruptMode::BitFlip,
                    1 => CorruptMode::Truncate,
                    _ => CorruptMode::ForeignMagic,
                };
                (s, g, mode)
            })
            .collect()
    }

    /// Whether the round-`round` status publish must tear.
    pub fn torn_status_at(&self, round: u64) -> bool {
        self.torn_status.contains(&round)
    }

    /// Byte offset (within `len`) the seeded bit-flip lands on.
    pub fn flip_offset(&self, shard: u32, round: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (splitmix64(self.seed ^ 0xC0FF_EE00 ^ ((shard as u64) << 24) ^ round) % len as u64) as usize
    }

    /// Applies `mode` to file contents in memory (the daemon writes the
    /// result back over the generation file).
    pub fn damage(&self, mode: CorruptMode, shard: u32, gen: u32, bytes: &mut Vec<u8>) {
        match mode {
            CorruptMode::BitFlip => {
                if !bytes.is_empty() {
                    let at = (splitmix64(self.seed ^ ((shard as u64) << 8) ^ gen as u64)
                        % bytes.len() as u64) as usize;
                    bytes[at] ^= 0x20;
                }
            }
            CorruptMode::Truncate => bytes.truncate(bytes.len() / 2),
            CorruptMode::ForeignMagic => {
                for (i, b) in b"NOTACKPT".iter().enumerate() {
                    if i < bytes.len() {
                        bytes[i] = *b;
                    }
                }
            }
        }
    }
}

fn parse_u64(what: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("chaos {what} must be a non-negative integer, got {v:?}"))
}

fn parse_u32(what: &str, v: &str) -> Result<u32, String> {
    v.parse()
        .map_err(|_| format!("chaos {what} must be a non-negative integer, got {v:?}"))
}

impl FromStr for ChaosSpec {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        let mut spec = ChaosSpec {
            seed: 0,
            panics: Vec::new(),
            corrupt_ckpt: Vec::new(),
            corrupt_gen: Vec::new(),
            kill_round: None,
            kill_point: KillPoint::Mid,
            torn_status: Vec::new(),
        };
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("chaos clause {clause:?} is not key=value"))?;
            match key {
                "seed" => spec.seed = parse_u64("seed", value)?,
                "panic_shard" => {
                    let (shard, rest) = value
                        .split_once('@')
                        .ok_or_else(|| format!("panic_shard wants S@R[:W], got {value:?}"))?;
                    let (round, window) = match rest.split_once(':') {
                        Some((r, w)) => (r, parse_u64("panic window", w)?),
                        None => (rest, 1),
                    };
                    if window == 0 {
                        return Err("chaos panic window must be at least 1 round".to_string());
                    }
                    spec.panics.push(PanicWindow {
                        shard: parse_u32("panic shard", shard)?,
                        from_round: parse_u64("panic round", round)?,
                        rounds: window,
                    });
                }
                "corrupt_ckpt" => {
                    let (shard, round) = value
                        .split_once('@')
                        .ok_or_else(|| format!("corrupt_ckpt wants S@R, got {value:?}"))?;
                    spec.corrupt_ckpt
                        .push((parse_u32("shard", shard)?, parse_u64("round", round)?));
                }
                "corrupt_gen" => {
                    let (sg, round) = value
                        .split_once('@')
                        .ok_or_else(|| format!("corrupt_gen wants S:G@R, got {value:?}"))?;
                    let (shard, gen) = sg
                        .split_once(':')
                        .ok_or_else(|| format!("corrupt_gen wants S:G@R, got {value:?}"))?;
                    spec.corrupt_gen.push((
                        parse_u32("shard", shard)?,
                        parse_u32("generation", gen)?,
                        parse_u64("round", round)?,
                    ));
                }
                "kill_round" => spec.kill_round = Some(parse_u64("kill_round", value)?),
                "kill_point" => spec.kill_point = KillPoint::parse(value)?,
                "torn_status" => spec.torn_status.push(parse_u64("torn_status", value)?),
                other => return Err(format!("unknown chaos clause {other:?}")),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let spec: ChaosSpec = "seed=7;panic_shard=2@3:4;corrupt_ckpt=1@2;corrupt_gen=0:1@4;\
             kill_round=6;kill_point=pre;torn_status=5"
            .parse()
            .expect("parses");
        assert_eq!(spec.seed, 7);
        assert!(spec.panic_at(2, 3));
        assert!(spec.panic_at(2, 6));
        assert!(!spec.panic_at(2, 7), "window is [3, 7)");
        assert!(!spec.panic_at(1, 3), "only the named shard");
        assert!(spec.corrupt_ckpt_at(1, 2));
        assert!(!spec.corrupt_ckpt_at(1, 3));
        let gens = spec.corrupt_gens_at(4);
        assert_eq!(gens.len(), 1);
        assert_eq!((gens[0].0, gens[0].1), (0, 1));
        assert_eq!(spec.kill_round, Some(6));
        assert_eq!(spec.kill_point, KillPoint::Pre);
        assert!(spec.torn_status_at(5));
        assert!(!spec.torn_status_at(4));
    }

    /// A window that reaches past `u64::MAX` covers every round from its
    /// start; summing its start and length would overflow.
    #[test]
    fn window_past_u64_max_covers_every_later_round() {
        let spec: ChaosSpec = "panic_shard=0@1:18446744073709551615"
            .parse()
            .expect("parses");
        assert!(!spec.panic_at(0, 0));
        assert!(spec.panic_at(0, 1));
        assert!(spec.panic_at(0, 5));
        assert!(spec.panic_at(0, u64::MAX));
        assert!(!spec.panic_at(1, 5), "only the named shard");
    }

    #[test]
    fn schedule_is_deterministic() {
        let a: ChaosSpec = "seed=9;corrupt_gen=3:0@2".parse().unwrap();
        let b: ChaosSpec = "seed=9;corrupt_gen=3:0@2".parse().unwrap();
        assert_eq!(a.corrupt_gens_at(2), b.corrupt_gens_at(2));
        assert_eq!(a.flip_offset(3, 2, 1000), b.flip_offset(3, 2, 1000));
    }

    #[test]
    fn damage_modes_change_bytes() {
        let spec: ChaosSpec = "seed=1".parse().unwrap();
        let original: Vec<u8> = (0..64u8).collect();

        let mut flipped = original.clone();
        spec.damage(CorruptMode::BitFlip, 0, 0, &mut flipped);
        assert_eq!(flipped.len(), original.len());
        assert_ne!(flipped, original);

        let mut short = original.clone();
        spec.damage(CorruptMode::Truncate, 0, 0, &mut short);
        assert_eq!(short.len(), 32);

        let mut foreign = original.clone();
        spec.damage(CorruptMode::ForeignMagic, 0, 0, &mut foreign);
        assert_eq!(&foreign[..8], b"NOTACKPT");
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("panic_shard=3", "S@R"),
            ("panic_shard=x@1", "integer"),
            ("panic_shard=1@2:0", "at least 1"),
            ("corrupt_gen=1@2", "S:G@R"),
            ("kill_point=sideways", "pre|mid|post"),
            ("warp=1", "unknown chaos clause"),
            ("seed", "key=value"),
        ] {
            let err = text.parse::<ChaosSpec>().expect_err(text);
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
    }

    #[test]
    fn empty_spec_is_inert() {
        let spec: ChaosSpec = "".parse().expect("empty spec is fine");
        assert!(!spec.panic_at(0, 1));
        assert!(spec.kill_round.is_none());
        assert!(spec.corrupt_gens_at(1).is_empty());
    }
}
