//! The per-shard health state machine the fleet supervisor runs:
//!
//! ```text
//!            round fails (panic / corrupt checkpoint)
//!   Healthy ────────────────────────────────────────► Retrying
//!      ▲                                                 │ │
//!      │ retry succeeds (replay from last good           │ │ retry fails,
//!      │ checkpoint reaches the fleet round)             │ │ attempts ≤ N
//!      └─────────────────────────────────────────────────┘ │ (backoff
//!                                                          ▼  doubles)
//!                                   attempts > N      Quarantined
//! ```
//!
//! A shard whose cadence round panics (caught inside the fleet's round
//! job) or whose round checkpoint fails CRC is
//! reset to its last good checkpoint and retried after a bounded
//! exponential backoff measured in *cadence rounds*, with deterministic
//! seeded jitter so two shards failing together do not retry in lockstep.
//! After `max_retries` failed attempts the shard is quarantined: it stops
//! advancing, stays visible (frozen at its last good state) in status,
//! roll-ups, and `scrubctl status`, and never takes the fleet down with
//! it. Quarantine survives daemon restarts via the write-ahead round
//! journal (`wal.rs`).

use std::fmt;

use pcm_memsim::splitmix64;

/// Why a shard's round attempt failed — the classes the supervisor
/// distinguishes (and the WAL persists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The round job panicked (caught inside the job itself).
    Panic,
    /// The round checkpoint failed envelope validation (CRC/truncation).
    CorruptCheckpoint,
    /// Every persisted checkpoint generation was unreadable — recovery
    /// has nothing to resume from (see `RecoveryError::Exhausted`).
    Exhausted,
}

impl FailureKind {
    /// Canonical short code (used in the WAL and status documents).
    pub fn code(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::CorruptCheckpoint => "ckpt",
            FailureKind::Exhausted => "exhausted",
        }
    }

    /// Parses [`FailureKind::code`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(FailureKind::Panic),
            "ckpt" => Ok(FailureKind::CorruptCheckpoint),
            "exhausted" => Ok(FailureKind::Exhausted),
            other => Err(format!("unknown failure kind {other:?}")),
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One shard's supervision state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Advancing normally every round.
    Healthy,
    /// Failed at least once; frozen at its last good checkpoint until the
    /// backoff expires, then retried.
    Retrying {
        /// Failed attempts so far (1 after the first failure).
        attempts: u32,
        /// First round that failed (MTTR is measured from here).
        failed_round: u64,
        /// Fleet round at which the next retry is due.
        next_retry_round: u64,
        /// What the most recent failure was.
        kind: FailureKind,
    },
    /// Retry budget exhausted; the shard no longer advances. The fleet
    /// keeps running without it.
    Quarantined {
        /// Round the quarantine was declared.
        at_round: u64,
        /// The failure class that exhausted the budget.
        kind: FailureKind,
    },
}

impl Health {
    /// Canonical lowercase state name for status documents.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Retrying { .. } => "retrying",
            Health::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether the shard is quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, Health::Quarantined { .. })
    }

    /// Compact single-token encoding for the WAL:
    /// `H`, `R<attempts>@<failed_round>+<next_retry_round>:<kind>`, or
    /// `Q@<at_round>:<kind>`.
    pub fn encode(&self) -> String {
        match self {
            Health::Healthy => "H".to_string(),
            Health::Retrying {
                attempts,
                failed_round,
                next_retry_round,
                kind,
            } => format!("R{attempts}@{failed_round}+{next_retry_round}:{kind}"),
            Health::Quarantined { at_round, kind } => format!("Q@{at_round}:{kind}"),
        }
    }

    /// Parses [`Health::encode`].
    pub fn decode(s: &str) -> Result<Self, String> {
        if s == "H" {
            return Ok(Health::Healthy);
        }
        let bad = || format!("malformed health token {s:?}");
        if let Some(rest) = s.strip_prefix('R') {
            let (attempts, rest) = rest.split_once('@').ok_or_else(bad)?;
            let (failed, rest) = rest.split_once('+').ok_or_else(bad)?;
            let (next, kind) = rest.split_once(':').ok_or_else(bad)?;
            return Ok(Health::Retrying {
                attempts: attempts.parse().map_err(|_| bad())?,
                failed_round: failed.parse().map_err(|_| bad())?,
                next_retry_round: next.parse().map_err(|_| bad())?,
                kind: FailureKind::parse(kind)?,
            });
        }
        if let Some(rest) = s.strip_prefix("Q@") {
            let (at, kind) = rest.split_once(':').ok_or_else(bad)?;
            return Ok(Health::Quarantined {
                at_round: at.parse().map_err(|_| bad())?,
                kind: FailureKind::parse(kind)?,
            });
        }
        Err(bad())
    }
}

/// Knobs of the supervision layer (the `[supervisor]` config section).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Failed attempts before a shard is quarantined.
    pub max_retries: u32,
    /// Backoff after the first failure, in cadence rounds.
    pub backoff_base_rounds: u64,
    /// Backoff ceiling, in cadence rounds (the exponential is clamped).
    pub backoff_cap_rounds: u64,
    /// Upper bound on the deterministic seeded jitter added to each
    /// backoff, in rounds (0 disables jitter).
    pub backoff_jitter_rounds: u64,
    /// Rotated checkpoint generations kept per shard (K ≥ 1).
    pub generations: u32,
    /// A fresh last-good checkpoint is taken every this many rounds.
    pub checkpoint_every_rounds: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_rounds: 1,
            backoff_cap_rounds: 8,
            backoff_jitter_rounds: 1,
            generations: 3,
            checkpoint_every_rounds: 1,
        }
    }
}

impl SupervisorConfig {
    /// Rounds to wait before retry attempt `attempts` (1-based):
    /// `min(base · 2^(attempts-1), cap)` plus seeded jitter in
    /// `0..=backoff_jitter_rounds`. Deterministic in
    /// `(fleet seed, shard, attempts)`, so a replayed run retries on
    /// exactly the same schedule.
    pub fn backoff_rounds(&self, fleet_seed: u64, shard: u32, attempts: u32) -> u64 {
        let exp = self
            .backoff_base_rounds
            .saturating_mul(1u64 << (attempts.saturating_sub(1)).min(62))
            .min(self.backoff_cap_rounds)
            .max(1);
        let jitter = if self.backoff_jitter_rounds == 0 {
            0
        } else {
            splitmix64(
                fleet_seed ^ 0xBAC0_0FF5_EED0_0000 ^ ((shard as u64) << 32) ^ attempts as u64,
            ) % (self.backoff_jitter_rounds + 1)
        };
        exp + jitter
    }
}

/// Why a shard could not be restored from its persisted checkpoint
/// generations. Typed so a double-fault (every generation corrupt)
/// surfaces as data, never as a panic or a silently re-zeroed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Every generation was tried and none yielded a valid snapshot.
    /// `tried` lists `(generation, reason)` in walk order.
    Exhausted {
        /// The shard that has no recovery point left.
        shard: u32,
        /// What was wrong with each generation, newest first.
        tried: Vec<(u32, String)>,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Exhausted { shard, tried } => {
                write!(
                    f,
                    "shard {shard}: all {} checkpoint generation(s) exhausted: ",
                    tried.len()
                )?;
                let mut first = true;
                for (gen, why) in tried {
                    if !first {
                        write!(f, "; ")?;
                    }
                    first = false;
                    write!(f, "gen{gen}: {why}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_tokens_round_trip() {
        let cases = [
            Health::Healthy,
            Health::Retrying {
                attempts: 2,
                failed_round: 5,
                next_retry_round: 9,
                kind: FailureKind::Panic,
            },
            Health::Retrying {
                attempts: 1,
                failed_round: 1,
                next_retry_round: 2,
                kind: FailureKind::CorruptCheckpoint,
            },
            Health::Quarantined {
                at_round: 12,
                kind: FailureKind::Exhausted,
            },
        ];
        for h in cases {
            let tok = h.encode();
            assert_eq!(Health::decode(&tok).expect("decodes"), h, "{tok}");
        }
    }

    #[test]
    fn malformed_health_tokens_rejected() {
        for tok in [
            "",
            "X",
            "R@1:panic",
            "R2@1:panic",
            "Q@x:panic",
            "Q@3:warp",
            "Q@3:lost",
        ] {
            assert!(Health::decode(tok).is_err(), "{tok:?} should not decode");
        }
        assert_eq!(
            Health::decode("Q@3:lost"),
            Err("unknown failure kind \"lost\"".to_string())
        );
    }

    #[test]
    fn backoff_is_bounded_exponential_and_deterministic() {
        let cfg = SupervisorConfig {
            backoff_jitter_rounds: 0,
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff_rounds(7, 0, 1), 1);
        assert_eq!(cfg.backoff_rounds(7, 0, 2), 2);
        assert_eq!(cfg.backoff_rounds(7, 0, 3), 4);
        assert_eq!(cfg.backoff_rounds(7, 0, 4), 8);
        assert_eq!(cfg.backoff_rounds(7, 0, 10), 8, "clamped at the cap");

        let jittered = SupervisorConfig::default();
        // Deterministic: same inputs, same backoff.
        assert_eq!(
            jittered.backoff_rounds(42, 3, 2),
            jittered.backoff_rounds(42, 3, 2)
        );
        // Jitter never exceeds its bound.
        for shard in 0..16 {
            for attempts in 1..6 {
                let b = jittered.backoff_rounds(42, shard, attempts);
                let base = SupervisorConfig {
                    backoff_jitter_rounds: 0,
                    ..SupervisorConfig::default()
                }
                .backoff_rounds(42, shard, attempts);
                assert!(b >= base && b <= base + jittered.backoff_jitter_rounds);
            }
        }
    }

    #[test]
    fn recovery_error_names_every_generation() {
        let e = RecoveryError::Exhausted {
            shard: 4,
            tried: vec![
                (0, "bad CRC".into()),
                (1, "truncated".into()),
                (2, "missing".into()),
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("shard 4"), "{msg}");
        assert!(msg.contains("gen0: bad CRC"), "{msg}");
        assert!(msg.contains("gen2: missing"), "{msg}");
    }
}
