//! The fleet status document: the daemon's view of the world, as JSON.
//!
//! Written atomically to `status.json` every cadence round and parsed
//! back by `scrubctl` (which also uses it to validate commands — e.g.
//! rejecting a migrate naming a shard the fleet does not have — without
//! having to talk to the daemon synchronously). Besides the simulation
//! view, the document carries the supervision surface: each shard's
//! health, the fleet quarantine count, and the command-sequence
//! watermark (`cmd_seq`) clients chain new submissions after.

use scrub_telemetry::json::{self, fmt_f64, Value};

use crate::fleet::{Fleet, TenantSlo};

/// Daemon lifecycle state recorded in the status document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetState {
    /// Rounds are still advancing.
    Running,
    /// The horizon was reached with every shard healthy.
    Finished,
    /// The horizon was reached (or nothing is left to do) but at least
    /// one shard sits in quarantine.
    Degraded,
    /// A `stop` command ended the run early.
    Stopped,
}

impl FleetState {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FleetState::Running => "running",
            FleetState::Finished => "finished",
            FleetState::Degraded => "degraded",
            FleetState::Stopped => "stopped",
        }
    }

    /// Parses the canonical name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "running" => Ok(FleetState::Running),
            "finished" => Ok(FleetState::Finished),
            "degraded" => Ok(FleetState::Degraded),
            "stopped" => Ok(FleetState::Stopped),
            other => Err(format!("unknown fleet state {other:?}")),
        }
    }
}

/// One shard's row in the status document.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard id.
    pub id: u32,
    /// Worker it is placed on.
    pub worker: u32,
    /// Simulated time covered.
    pub clock_s: f64,
    /// Times it has been migrated.
    pub migrations: u64,
    /// Demand ops delivered so far (reads + writes).
    pub demand_ops: u64,
    /// Uncorrectable errors observed.
    pub ue: u64,
    /// Supervision state name (`healthy` / `retrying` / `quarantined`).
    pub health: String,
}

/// The parsed status document.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStatus {
    /// Lifecycle state.
    pub state: FleetState,
    /// Completed cadence rounds.
    pub round: u64,
    /// Fleet simulated clock.
    pub clock_s: f64,
    /// Configured horizon.
    pub horizon_s: f64,
    /// Total banks.
    pub banks: u64,
    /// Shards currently quarantined.
    pub quarantined: u64,
    /// Highest command sequence consumed so far (absent until the first
    /// command is consumed) — new submissions chain after this.
    pub cmd_seq: Option<u64>,
    /// Policy spec string.
    pub policy: String,
    /// Tenant mix spec string.
    pub tenants_spec: String,
    /// Per-shard rows, in id order.
    pub shards: Vec<ShardStatus>,
    /// Per-tenant service-level rows, in spec order.
    pub slo: Vec<TenantSlo>,
}

/// Renders the status document for a fleet in `state`. `cmd_seq` is the
/// daemon's command watermark (omitted until a command was consumed).
pub fn render(fleet: &Fleet, state: FleetState, cmd_seq: Option<u64>) -> String {
    let shards = fleet
        .shards()
        .iter()
        .map(|s| {
            let stats = s.stats();
            format!(
                "    {{\"id\": {}, \"worker\": {}, \"clock_s\": {}, \"migrations\": {}, \
                 \"demand_ops\": {}, \"ue\": {}, \"health\": \"{}\"}}",
                s.id,
                s.worker,
                fmt_f64(s.clock_s()),
                s.migrations,
                stats.demand_reads + stats.demand_writes,
                stats.uncorrectable(),
                s.health().name()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let slo = fleet
        .slo()
        .iter()
        .map(|t| {
            format!(
                "    {{\"tenant\": {}, \"name\": \"{}\", \"expected_ops\": {}, \"reads\": {}, \
                 \"writes\": {}, \"attainment\": {}}}",
                t.tenant,
                json::escape(&t.name),
                fmt_f64(t.expected_ops),
                t.reads,
                t.writes,
                fmt_f64(t.attainment)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let cmd_seq_line = cmd_seq.map_or(String::new(), |w| format!("  \"cmd_seq\": {w},\n"));
    format!(
        "{{\n  \"state\": \"{}\",\n  \"round\": {},\n  \"clock_s\": {},\n  \"horizon_s\": {},\n  \
         \"banks\": {},\n  \"shards\": {},\n  \"quarantined\": {},\n{}  \"policy\": \"{}\",\n  \
         \"tenants\": \"{}\",\n  \
         \"shard_table\": [\n{}\n  ],\n  \"slo\": [\n{}\n  ]\n}}\n",
        state.name(),
        fleet.round(),
        fmt_f64(fleet.clock_s()),
        fmt_f64(fleet.config().horizon_s),
        fleet.config().banks,
        fleet.config().shards,
        fleet.quarantined(),
        cmd_seq_line,
        json::escape(&fleet.config().policy_spec),
        json::escape(&fleet.config().tenants.to_string()),
        shards,
        slo
    )
}

/// Parses a status document, rejecting anything structurally off.
pub fn parse(text: &str) -> Result<FleetStatus, String> {
    let v = json::parse(text)?;
    let str_of = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("status missing {key}"))
    };
    let u64_of = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("status missing {key}"))
    };
    let f64_of = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("status missing {key}"))
    };
    let shards = v
        .get("shard_table")
        .and_then(Value::as_arr)
        .ok_or("status missing shard_table")?
        .iter()
        .map(|row| {
            let get = |k: &str| {
                row.get(k)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("shard row missing {k}"))
            };
            Ok(ShardStatus {
                id: get("id")? as u32,
                worker: get("worker")? as u32,
                clock_s: row
                    .get("clock_s")
                    .and_then(Value::as_f64)
                    .ok_or("shard row missing clock_s")?,
                migrations: get("migrations")?,
                demand_ops: get("demand_ops")?,
                ue: get("ue")?,
                health: row
                    .get("health")
                    .and_then(Value::as_str)
                    .ok_or("shard row missing health")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let slo = v
        .get("slo")
        .and_then(Value::as_arr)
        .ok_or("status missing slo")?
        .iter()
        .map(|row| {
            Ok(TenantSlo {
                tenant: row
                    .get("tenant")
                    .and_then(Value::as_u64)
                    .ok_or("slo row missing tenant")? as u32,
                name: row
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("slo row missing name")?
                    .to_string(),
                expected_ops: row
                    .get("expected_ops")
                    .and_then(Value::as_f64)
                    .ok_or("slo row missing expected_ops")?,
                reads: row
                    .get("reads")
                    .and_then(Value::as_u64)
                    .ok_or("slo row missing reads")?,
                writes: row
                    .get("writes")
                    .and_then(Value::as_u64)
                    .ok_or("slo row missing writes")?,
                attainment: row
                    .get("attainment")
                    .and_then(Value::as_f64)
                    .ok_or("slo row missing attainment")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FleetStatus {
        state: FleetState::parse(&str_of("state")?)?,
        round: u64_of("round")?,
        clock_s: f64_of("clock_s")?,
        horizon_s: f64_of("horizon_s")?,
        banks: u64_of("banks")?,
        quarantined: u64_of("quarantined")?,
        cmd_seq: v.get("cmd_seq").and_then(Value::as_u64),
        policy: str_of("policy")?,
        tenants_spec: str_of("tenants")?,
        shards,
        slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;

    fn tiny_fleet() -> Fleet {
        let config: FleetConfig = "[fleet]\n\
             banks = 4\nlines-per-bank = 32\nshards = 2\nseed = 3\n\
             horizon-s = 600\ncadence-s = 300\npolicy = basic@300\n\
             [tenants]\nmix = alpha:rate=30\n"
            .parse()
            .expect("valid");
        Fleet::new(config)
    }

    #[test]
    fn status_round_trips() {
        let mut fleet = tiny_fleet();
        fleet.advance_round();
        let text = render(&fleet, FleetState::Running, Some(4));
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.state, FleetState::Running);
        assert_eq!(parsed.round, 1);
        assert_eq!(parsed.quarantined, 0);
        assert_eq!(parsed.cmd_seq, Some(4));
        assert_eq!(parsed.shards.len(), 2);
        assert_eq!(parsed.slo.len(), 1);
        assert_eq!(parsed.slo[0].name, "alpha");
        assert!(parsed.shards.iter().all(|s| s.clock_s == 300.0));
        assert!(parsed.shards.iter().all(|s| s.health == "healthy"));
    }

    #[test]
    fn cmd_seq_is_optional_until_first_consume() {
        let fleet = tiny_fleet();
        let text = render(&fleet, FleetState::Running, None);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.cmd_seq, None);
    }

    #[test]
    fn quarantine_shows_in_state_and_rows() {
        let mut fleet = tiny_fleet();
        fleet.set_chaos(Some("panic_shard=1@1:1000".parse().unwrap()));
        while !fleet.done() {
            fleet.advance_round();
        }
        let text = render(&fleet, FleetState::Degraded, None);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.state, FleetState::Degraded);
        assert_eq!(parsed.quarantined, 1);
        assert_eq!(parsed.shards[1].health, "quarantined");
        assert_eq!(parsed.shards[0].health, "healthy");
    }

    #[test]
    fn parse_rejects_wrong_shape() {
        assert!(parse("{}").is_err());
        assert!(parse("not json").is_err());
        let mut fleet = tiny_fleet();
        fleet.advance_round();
        let broken =
            render(&fleet, FleetState::Running, None).replace("\"shard_table\"", "\"nope\"");
        assert!(parse(&broken).unwrap_err().contains("shard_table"));
    }
}
