//! Deterministic fault-injection campaigns.
//!
//! A [`CampaignSpec`] describes a reproducible set of manufactured faults
//! layered *on top of* the stochastic [`crate::FaultEngine`]: stuck-at
//! clusters, transient single-event upsets (SEUs), intermittent
//! variable-retention cells that flip in and out, and correlated
//! multi-bit bursts within a line. Experiment binaries accept it via
//! `--fault-campaign`.
//!
//! Determinism contract: **all** campaign randomness is drawn from a
//! dedicated RNG seeded by the spec's own seed, at attach time, in fixed
//! address order. The per-bank RNG streams are never touched, so a run
//! with no campaign is byte-identical to a run built without this module,
//! and a run with a fixed campaign seed repeats byte for byte. At runtime
//! the injector is read-only: injected error bits are a pure function of
//! `(address, last-write time, current time)`.
//!
//! # Spec grammar
//!
//! Semicolon-separated clauses, e.g.
//!
//! ```text
//! seed=42;stuck=lines:8,cells:6;seu=lines:16,count:4,window:3600;\
//! intermittent=lines:4,cells:2,period:600;burst=lines:2,bits:5,at:3600
//! ```
//!
//! * `seed=N` — campaign RNG seed (default 0).
//! * `stuck=lines:L,cells:C` — `L` random lines each get a cluster of `C`
//!   permanently stuck cells at attach time.
//! * `seu=lines:L,count:N,window:W` — `L` random lines each suffer `N`
//!   single-bit upsets at random times in `(0, W]` seconds; an upset
//!   persists until the line is rewritten.
//! * `intermittent=lines:L,cells:C,period:P` — `L` random lines each get
//!   `C` variable-retention cells that are bad for half of every `P`-second
//!   cycle (random phase per cell).
//! * `burst=lines:L,bits:B,at:T` — `L` random lines each take a correlated
//!   `B`-bit burst at `T` seconds, persisting until rewritten.
//!
//! Every count is positive. The per-line counts (`cells`, `count`, `bits`)
//! are at most [`MAX_PER_LINE`]; `lines` is clamped to the memory's size.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The largest per-line count a clause accepts (cells, upsets or burst
/// bits): above the widest codeword (576 bits), yet small enough that a
/// line's summed injected bits cannot overflow and the per-line
/// schedules [`Injector::new`] builds stay small.
pub const MAX_PER_LINE: u32 = 1024;

/// Stuck-at cluster clause: `lines` lines × `cells` stuck cells each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckClause {
    /// Lines to afflict.
    pub lines: u32,
    /// Stuck cells injected per afflicted line.
    pub cells: u32,
}

/// Single-event-upset clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuClause {
    /// Lines to afflict.
    pub lines: u32,
    /// Upsets per afflicted line.
    pub count: u32,
    /// Upset times are uniform in `(0, window_s]`.
    pub window_s: f64,
}

/// Intermittent (variable-retention) cell clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittentClause {
    /// Lines to afflict.
    pub lines: u32,
    /// Intermittent cells per afflicted line.
    pub cells: u32,
    /// Full on/off cycle length in seconds (bad half of each cycle).
    pub period_s: f64,
}

/// Correlated multi-bit burst clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstClause {
    /// Lines to afflict.
    pub lines: u32,
    /// Bit errors deposited per burst.
    pub bits: u32,
    /// When the burst strikes, seconds.
    pub at_s: f64,
}

/// A parsed, validated fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignSpec {
    /// Seed of the dedicated campaign RNG.
    pub seed: u64,
    /// Stuck-at cluster clause, if any.
    pub stuck: Option<StuckClause>,
    /// SEU clause, if any.
    pub seu: Option<SeuClause>,
    /// Intermittent-cell clause, if any.
    pub intermittent: Option<IntermittentClause>,
    /// Burst clause, if any.
    pub burst: Option<BurstClause>,
}

fn fields(clause: &str, body: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for part in body.split(',') {
        let (k, v) = part.split_once(':').ok_or_else(|| {
            format!("campaign clause '{clause}': expected key:value, got {part:?}")
        })?;
        if map
            .insert(k.trim().to_string(), v.trim().to_string())
            .is_some()
        {
            return Err(format!("campaign clause '{clause}': duplicate field {k:?}"));
        }
    }
    Ok(map)
}

/// Takes a count in `1..=max`; `max` is [`MAX_PER_LINE`] for a per-line
/// count.
fn take_u32(
    clause: &str,
    map: &mut BTreeMap<String, String>,
    key: &str,
    max: u32,
) -> Result<u32, String> {
    let raw = map
        .remove(key)
        .ok_or_else(|| format!("campaign clause '{clause}': missing field '{key}'"))?;
    let n: u32 = raw.parse().map_err(|_| {
        format!("campaign clause '{clause}': '{key}' must be a non-negative integer, got {raw:?}")
    })?;
    if n == 0 {
        return Err(format!(
            "campaign clause '{clause}': '{key}' must be positive"
        ));
    }
    if n > max {
        return Err(format!(
            "campaign clause '{clause}': '{key}' must be at most {max} per line, got {n}"
        ));
    }
    Ok(n)
}

fn take_f64(clause: &str, map: &mut BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    let raw = map
        .remove(key)
        .ok_or_else(|| format!("campaign clause '{clause}': missing field '{key}'"))?;
    let x: f64 = raw.parse().map_err(|_| {
        format!("campaign clause '{clause}': '{key}' must be a number, got {raw:?}")
    })?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!(
            "campaign clause '{clause}': '{key}' must be finite and positive, got {raw:?}"
        ));
    }
    Ok(x)
}

fn no_extras(clause: &str, map: BTreeMap<String, String>) -> Result<(), String> {
    if let Some(k) = map.into_keys().next() {
        return Err(format!("campaign clause '{clause}': unknown field {k:?}"));
    }
    Ok(())
}

impl FromStr for CampaignSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut spec = CampaignSpec::default();
        let mut seen: Vec<&str> = Vec::new();
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, body) = clause
                .split_once('=')
                .ok_or_else(|| format!("campaign: expected clause key=..., got {clause:?}"))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!("campaign: duplicate clause '{key}'"));
            }
            match key {
                "seed" => {
                    spec.seed = body.trim().parse().map_err(|_| {
                        format!("campaign: seed must be a non-negative integer, got {body:?}")
                    })?;
                }
                "stuck" => {
                    let mut m = fields(key, body)?;
                    spec.stuck = Some(StuckClause {
                        lines: take_u32(key, &mut m, "lines", u32::MAX)?,
                        cells: take_u32(key, &mut m, "cells", MAX_PER_LINE)?,
                    });
                    no_extras(key, m)?;
                }
                "seu" => {
                    let mut m = fields(key, body)?;
                    spec.seu = Some(SeuClause {
                        lines: take_u32(key, &mut m, "lines", u32::MAX)?,
                        count: take_u32(key, &mut m, "count", MAX_PER_LINE)?,
                        window_s: take_f64(key, &mut m, "window")?,
                    });
                    no_extras(key, m)?;
                }
                "intermittent" => {
                    let mut m = fields(key, body)?;
                    spec.intermittent = Some(IntermittentClause {
                        lines: take_u32(key, &mut m, "lines", u32::MAX)?,
                        cells: take_u32(key, &mut m, "cells", MAX_PER_LINE)?,
                        period_s: take_f64(key, &mut m, "period")?,
                    });
                    no_extras(key, m)?;
                }
                "burst" => {
                    let mut m = fields(key, body)?;
                    spec.burst = Some(BurstClause {
                        lines: take_u32(key, &mut m, "lines", u32::MAX)?,
                        bits: take_u32(key, &mut m, "bits", MAX_PER_LINE)?,
                        at_s: take_f64(key, &mut m, "at")?,
                    });
                    no_extras(key, m)?;
                }
                other => {
                    return Err(format!(
                        "campaign: unknown clause '{other}' (expected seed, stuck, seu, \
                         intermittent, or burst)"
                    ))
                }
            }
            seen.push(key);
        }
        if spec.stuck.is_none()
            && spec.seu.is_none()
            && spec.intermittent.is_none()
            && spec.burst.is_none()
        {
            return Err(
                "campaign: needs at least one fault clause (stuck, seu, intermittent, burst)"
                    .into(),
            );
        }
        Ok(spec)
    }
}

impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if let Some(s) = &self.stuck {
            write!(f, ";stuck=lines:{},cells:{}", s.lines, s.cells)?;
        }
        if let Some(s) = &self.seu {
            write!(
                f,
                ";seu=lines:{},count:{},window:{}",
                s.lines, s.count, s.window_s
            )?;
        }
        if let Some(s) = &self.intermittent {
            write!(
                f,
                ";intermittent=lines:{},cells:{},period:{}",
                s.lines, s.cells, s.period_s
            )?;
        }
        if let Some(s) = &self.burst {
            write!(f, ";burst=lines:{},bits:{},at:{}", s.lines, s.bits, s.at_s)?;
        }
        Ok(())
    }
}

/// One variable-retention cell: bad for the first half of every period,
/// offset by a random phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IntermittentCell {
    period_s: f64,
    phase: f64,
}

impl IntermittentCell {
    fn active_at(&self, now_s: f64) -> bool {
        (now_s / self.period_s + self.phase).fract() < 0.5
    }
}

/// A campaign compiled against a concrete memory size: fixed schedules of
/// injected faults, queryable as a pure function of time.
#[derive(Debug, Clone)]
pub struct Injector {
    spec: CampaignSpec,
    /// Stuck clusters to apply at attach time, sorted by address.
    stuck: Vec<(u32, u32)>,
    /// Per-line SEU strike times, ascending.
    seu: BTreeMap<u32, Vec<f64>>,
    /// Per-line intermittent cells.
    intermittent: BTreeMap<u32, Vec<IntermittentCell>>,
    /// Per-line correlated bursts `(bits, at_s)`.
    burst: BTreeMap<u32, (u32, f64)>,
}

impl Injector {
    /// Compiles `spec` for a memory of `num_lines` lines. All randomness
    /// (line selection, strike times, phases) is drawn here, from an RNG
    /// seeded by the campaign seed — nothing is drawn at runtime.
    pub fn new(spec: &CampaignSpec, num_lines: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let pick_lines = |count: u32, rng: &mut StdRng| -> Vec<u32> {
            let want = count.min(num_lines) as usize;
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < want {
                chosen.insert(rng.gen_range(0..num_lines));
            }
            chosen.into_iter().collect()
        };
        let stuck = match &spec.stuck {
            Some(c) => pick_lines(c.lines, &mut rng)
                .into_iter()
                .map(|a| (a, c.cells))
                .collect(),
            None => Vec::new(),
        };
        let seu = match &spec.seu {
            Some(c) => pick_lines(c.lines, &mut rng)
                .into_iter()
                .map(|a| {
                    let mut times: Vec<f64> = (0..c.count)
                        .map(|_| rng.gen_range(0.0..c.window_s).max(f64::MIN_POSITIVE))
                        .collect();
                    times.sort_by(f64::total_cmp);
                    (a, times)
                })
                .collect(),
            None => BTreeMap::new(),
        };
        let intermittent = match &spec.intermittent {
            Some(c) => pick_lines(c.lines, &mut rng)
                .into_iter()
                .map(|a| {
                    let cells = (0..c.cells)
                        .map(|_| IntermittentCell {
                            period_s: c.period_s,
                            phase: rng.gen_range(0.0..1.0),
                        })
                        .collect();
                    (a, cells)
                })
                .collect(),
            None => BTreeMap::new(),
        };
        let burst = match &spec.burst {
            Some(c) => pick_lines(c.lines, &mut rng)
                .into_iter()
                .map(|a| (a, (c.bits, c.at_s)))
                .collect(),
            None => BTreeMap::new(),
        };
        Self {
            spec: *spec,
            stuck,
            seu,
            intermittent,
            burst,
        }
    }

    /// The spec this injector was compiled from.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Stuck clusters `(addr, cells)` to apply at attach time, in address
    /// order.
    pub fn stuck_clusters(&self) -> &[(u32, u32)] {
        &self.stuck
    }

    /// Injected persistent error bits resident on `addr` at `now_s`, given
    /// the line's data was last written at `last_write_s`. SEUs and bursts
    /// corrupt stored data, so a rewrite clears them; intermittent cells
    /// are physical and come and go regardless of writes. Pure function —
    /// no randomness, no mutation.
    pub fn extra_bits(&self, addr: u32, last_write_s: f64, now_s: f64) -> u32 {
        let mut bits = 0u32;
        if let Some(times) = self.seu.get(&addr) {
            bits += times
                .iter()
                .filter(|&&t| t > last_write_s && t <= now_s)
                .count() as u32;
        }
        if let Some(&(b, at)) = self.burst.get(&addr) {
            if at > last_write_s && at <= now_s {
                bits += b;
            }
        }
        if let Some(cells) = self.intermittent.get(&addr) {
            bits += cells.iter().filter(|c| c.active_at(now_s)).count() as u32;
        }
        bits
    }

    /// The correlated-burst subset of [`Injector::extra_bits`]: bits from
    /// the burst clause resident on `addr` at `now_s` (contiguous within
    /// the line, unlike SEUs/intermittents). Symbol-ECC decode paths
    /// classify these separately — a contiguous span occupies few symbols.
    pub fn burst_bits(&self, addr: u32, last_write_s: f64, now_s: f64) -> u32 {
        match self.burst.get(&addr) {
            Some(&(b, at)) if at > last_write_s && at <= now_s => b,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "seed=42;stuck=lines:8,cells:6;seu=lines:16,count:4,window:3600;\
                        intermittent=lines:4,cells:2,period:600;burst=lines:2,bits:5,at:3600";

    #[test]
    fn full_spec_parses_and_round_trips() {
        let spec: CampaignSpec = FULL.parse().unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.stuck, Some(StuckClause { lines: 8, cells: 6 }));
        assert_eq!(
            spec.seu,
            Some(SeuClause {
                lines: 16,
                count: 4,
                window_s: 3600.0
            })
        );
        let display = spec.to_string();
        let back: CampaignSpec = display.parse().unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_string(), display);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "seed=1",                                      // no fault clause
            "stuck=lines:0,cells:4",                       // zero count
            "stuck=lines:4",                               // missing field
            "stuck=lines:4,cells:2,extra:1",               // unknown field
            "seu=lines:2,count:1,window:NaN",              // non-finite
            "seu=lines:2,count:1,window:-5",               // negative
            "warp=lines:2",                                // unknown clause
            "stuck=lines:2,cells:1;stuck=lines:3,cells:1", // duplicate
            "seed=-3;stuck=lines:1,cells:1",               // negative seed
            "stuck=lines:1,cells:1025",                    // past MAX_PER_LINE
            "seu=lines:1,count:1025,window:60",            // past MAX_PER_LINE
            "intermittent=lines:1,cells:1025,period:60",   // past MAX_PER_LINE
            "burst=lines:1,bits:1025,at:60",               // past MAX_PER_LINE
            "burst=lines:4,bits:4294967295,at:1",          // u32::MAX bits
        ] {
            assert!(bad.parse::<CampaignSpec>().is_err(), "accepted {bad:?}");
        }
        let at_bound = "stuck=lines:1,cells:1024;seu=lines:1,count:1024,window:60;\
                        intermittent=lines:1,cells:1024,period:60;burst=lines:1,bits:1024,at:60";
        assert!(
            at_bound.parse::<CampaignSpec>().is_ok(),
            "MAX_PER_LINE itself"
        );
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let spec: CampaignSpec = FULL.parse().unwrap();
        let a = Injector::new(&spec, 1024);
        let b = Injector::new(&spec, 1024);
        assert_eq!(a.stuck_clusters(), b.stuck_clusters());
        for addr in 0..1024 {
            for now in [10.0, 100.0, 4000.0] {
                assert_eq!(a.extra_bits(addr, 0.0, now), b.extra_bits(addr, 0.0, now));
            }
        }
        let other = CampaignSpec { seed: 43, ..spec };
        let c = Injector::new(&other, 1024);
        assert_ne!(a.stuck_clusters(), c.stuck_clusters());
    }

    #[test]
    fn rewrite_clears_seus_and_bursts_but_not_intermittents() {
        let spec: CampaignSpec = "seed=7;seu=lines:1024,count:3,window:100;\
                                  burst=lines:1024,bits:4,at:50;\
                                  intermittent=lines:1024,cells:2,period:10"
            .parse()
            .unwrap();
        let inj = Injector::new(&spec, 1024);
        // Every line is afflicted (lines >= num_lines), so line 0 has all
        // three fault types.
        let before = inj.extra_bits(0, 0.0, 200.0);
        assert!(before >= 7, "3 seus + 4 burst bits pending: {before}");
        // After a rewrite at t=150, data faults are gone; only intermittent
        // cells can remain.
        let after = inj.extra_bits(0, 150.0, 200.0);
        assert!(after <= 2, "only intermittent cells survive: {after}");
        // Intermittent cells flip in and out over a period.
        let states: Vec<u32> = (0..40)
            .map(|k| inj.extra_bits(0, 150.0, 150.0 + k as f64 * 0.5))
            .collect();
        assert!(states.iter().any(|&b| b > 0), "sometimes bad");
        assert!(states.contains(&0), "sometimes clean");
    }

    #[test]
    fn line_counts_cap_at_memory_size() {
        let spec: CampaignSpec = "stuck=lines:4096,cells:1".parse().unwrap();
        let inj = Injector::new(&spec, 64);
        assert_eq!(inj.stuck_clusters().len(), 64);
    }
}
