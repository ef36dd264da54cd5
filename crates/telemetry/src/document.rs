//! The versioned telemetry document: everything one run recorded, as a
//! plain value that serializes to JSON and parses back losslessly.

use std::collections::BTreeMap;

use crate::journal::{Event, EventKind};
use crate::json::{self, escape, fmt_f64, Value};

/// Schema version emitted in every document.
pub const SCHEMA_VERSION: u64 = 1;

/// Aggregated wall-clock / simulated-time span for one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase name (e.g. `"e6.basic_suite"`).
    pub name: String,
    /// Times the phase was entered.
    pub count: u64,
    /// Total wall-clock seconds spent inside.
    pub wall_s: f64,
    /// Total simulated seconds covered (0 when no sim span was set).
    pub sim_span_s: f64,
}

/// One run's telemetry: counters, gauges, named f64 values, phase
/// profile, and the merged event journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// Free-form string metadata (experiment id, thread count, …).
    pub meta: BTreeMap<String, String>,
    /// Monotonic counters by canonical name.
    pub counters: BTreeMap<String, u64>,
    /// High-water gauges by canonical name.
    pub gauges: BTreeMap<String, u64>,
    /// Named f64 values (headline metrics recorded by experiments).
    pub values: BTreeMap<String, f64>,
    /// Phase profile, sorted by name.
    pub phases: Vec<PhaseRecord>,
    /// Events evicted from per-worker ring buffers.
    pub events_dropped: u64,
    /// Merged event journal in deterministic global order.
    pub events: Vec<Event>,
}

fn kv_u64(map: &BTreeMap<String, u64>) -> String {
    map.iter()
        .map(|(k, v)| format!("    \"{}\": {}", escape(k), v))
        .collect::<Vec<_>>()
        .join(",\n")
}

impl Document {
    /// Renders the document as pretty-printed JSON (schema version
    /// [`SCHEMA_VERSION`]; top-level keys: `version`, `meta`, `counters`,
    /// `gauges`, `values`, `phases`, `events`).
    pub fn to_json(&self) -> String {
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(",\n");
        let values = self
            .values
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", escape(k), fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(",\n");
        let phases = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "    {{\"name\": \"{}\", \"count\": {}, \"wall_s\": {}, \"sim_span_s\": {}}}",
                    escape(&p.name),
                    p.count,
                    fmt_f64(p.wall_s),
                    fmt_f64(p.sim_span_s)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let events = self
            .events
            .iter()
            .map(|e| format!("      {}", event_to_json(e)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"version\": {},\n  \"meta\": {{\n{}\n  }},\n  \"counters\": {{\n{}\n  }},\n  \
             \"gauges\": {{\n{}\n  }},\n  \"values\": {{\n{}\n  }},\n  \"phases\": [\n{}\n  ],\n  \
             \"events\": {{\n    \"dropped\": {},\n    \"entries\": [\n{}\n    ]\n  }}\n}}\n",
            SCHEMA_VERSION,
            meta,
            kv_u64(&self.counters),
            kv_u64(&self.gauges),
            values,
            phases,
            self.events_dropped,
            events
        )
    }

    /// Parses a document back from its JSON form.
    ///
    /// Rejects unknown schema versions and malformed events, so a drifted
    /// writer fails loudly instead of round-tripping garbage.
    pub fn from_json(text: &str) -> Result<Document, String> {
        let v = json::parse(text)?;
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing version")?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported schema version {version}"));
        }
        let str_map = |key: &str| -> Result<BTreeMap<String, String>, String> {
            let obj = v.get(key).and_then(Value::as_obj).ok_or("missing map")?;
            obj.iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("{key}.{k} is not a string"))
                })
                .collect()
        };
        let u64_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let obj = v
                .get(key)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("missing {key}"))?;
            obj.iter()
                .map(|(k, val)| {
                    val.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("{key}.{k} is not a u64"))
                })
                .collect()
        };
        let values_obj = v
            .get("values")
            .and_then(Value::as_obj)
            .ok_or("missing values")?;
        let values = values_obj
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("values.{k} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let phases = v
            .get("phases")
            .and_then(Value::as_arr)
            .ok_or("missing phases")?
            .iter()
            .map(|p| {
                Ok(PhaseRecord {
                    name: p
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("phase without name")?
                        .to_string(),
                    count: p
                        .get("count")
                        .and_then(Value::as_u64)
                        .ok_or("phase count")?,
                    wall_s: p
                        .get("wall_s")
                        .and_then(Value::as_f64)
                        .ok_or("phase wall")?,
                    sim_span_s: p
                        .get("sim_span_s")
                        .and_then(Value::as_f64)
                        .ok_or("phase sim span")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let events_obj = v.get("events").ok_or("missing events")?;
        let events_dropped = events_obj
            .get("dropped")
            .and_then(Value::as_u64)
            .ok_or("missing events.dropped")?;
        let events = events_obj
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("missing events.entries")?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Document {
            meta: str_map("meta")?,
            counters: u64_map("counters")?,
            gauges: u64_map("gauges")?,
            values,
            phases,
            events_dropped,
            events,
        })
    }

    /// Folds the documents of a segmented (checkpoint/resume) run into
    /// the one document the run would have produced in a single process:
    /// counters and `events_dropped` sum, gauges keep their high-water
    /// maximum, `meta`/`values` take the latest segment's word, phases
    /// aggregate by name, and the event journals concatenate into one
    /// stream re-sorted by simulated time (stable, so same-time events
    /// keep segment order) with `seq` renumbered globally.
    ///
    /// Merging a single document is the identity up to `seq` renumbering,
    /// so `merge_segments(&[continuous])` is the canonical form to diff a
    /// merged split run against.
    pub fn merge_segments(segments: &[Document]) -> Document {
        let mut out = Document::default();
        for seg in segments {
            for (k, v) in &seg.meta {
                out.meta.insert(k.clone(), v.clone());
            }
            for (k, v) in &seg.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &seg.gauges {
                let slot = out.gauges.entry(k.clone()).or_insert(0);
                *slot = (*slot).max(*v);
            }
            for (k, v) in &seg.values {
                out.values.insert(k.clone(), *v);
            }
            for p in &seg.phases {
                match out.phases.iter_mut().find(|q| q.name == p.name) {
                    Some(q) => {
                        q.count += p.count;
                        q.wall_s += p.wall_s;
                        q.sim_span_s += p.sim_span_s;
                    }
                    None => out.phases.push(p.clone()),
                }
            }
            out.events_dropped += seg.events_dropped;
            out.events.extend(seg.events.iter().cloned());
        }
        out.phases.sort_by(|a, b| a.name.cmp(&b.name));
        out.events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        for (i, e) in out.events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        out
    }
}

fn event_to_json(e: &Event) -> String {
    let payload = match &e.kind {
        EventKind::ScrubProbe {
            addr,
            persistent_bits,
            clean,
            energy_pj,
        } => format!(
            "\"addr\": {addr}, \"persistent_bits\": {persistent_bits}, \"clean\": {clean}, \
             \"energy_pj\": {}",
            fmt_f64(*energy_pj)
        ),
        EventKind::Corrected { addr, bits, demand } => {
            format!("\"addr\": {addr}, \"bits\": {bits}, \"demand\": {demand}")
        }
        EventKind::Uncorrectable {
            addr,
            demand,
            miscorrected,
        } => format!("\"addr\": {addr}, \"demand\": {demand}, \"miscorrected\": {miscorrected}"),
        EventKind::ScrubWriteback { addr, energy_pj } => {
            format!("\"addr\": {addr}, \"energy_pj\": {}", fmt_f64(*energy_pj))
        }
        EventKind::DemandWrite { addr, energy_pj } => {
            format!("\"addr\": {addr}, \"energy_pj\": {}", fmt_f64(*energy_pj))
        }
        EventKind::WritebackDecision {
            addr,
            observed_bits,
            fired,
            forced,
        } => format!(
            "\"addr\": {addr}, \"observed_bits\": {observed_bits}, \"fired\": {fired}, \
             \"forced\": {forced}"
        ),
        EventKind::RateChange {
            region,
            mult,
            next_interval_s,
        } => format!(
            "\"region\": {region}, \"mult\": {}, \"next_interval_s\": {}",
            fmt_f64(*mult),
            fmt_f64(*next_interval_s)
        ),
        EventKind::DemandWriteNotify { addr } => format!("\"addr\": {addr}"),
        EventKind::WearLevelRotate { addr } => format!("\"addr\": {addr}"),
        EventKind::ExecWorker { worker, tasks } => {
            format!("\"worker_id\": {worker}, \"tasks\": {tasks}")
        }
        EventKind::SimDone {
            policy,
            workload,
            seed,
            scrub_probes,
            scrub_writes,
            ue,
            demand_ue,
            scrub_energy_uj,
            mean_wear,
        } => format!(
            "\"policy\": \"{}\", \"workload\": \"{}\", \"seed\": {seed}, \
             \"scrub_probes\": {scrub_probes}, \"scrub_writes\": {scrub_writes}, \"ue\": {ue}, \
             \"demand_ue\": {demand_ue}, \"scrub_energy_uj\": {}, \"mean_wear\": {}",
            escape(policy),
            escape(workload),
            fmt_f64(*scrub_energy_uj),
            fmt_f64(*mean_wear)
        ),
        EventKind::EcpRepair {
            addr,
            cells_patched,
            free_after,
        } => format!(
            "\"addr\": {addr}, \"cells_patched\": {cells_patched}, \"free_after\": {free_after}"
        ),
        EventKind::LineRetired { addr, spare } => {
            format!("\"addr\": {addr}, \"spare\": {spare}")
        }
        EventKind::BankDegraded { bank } => format!("\"bank\": {bank}"),
        EventKind::UeRecovered { addr, demand } => {
            format!("\"addr\": {addr}, \"demand\": {demand}")
        }
        EventKind::CampaignBoundary { label } => {
            format!("\"label\": \"{}\"", escape(label))
        }
    };
    format!(
        "{{\"t_s\": {}, \"seq\": {}, \"worker\": {}, \"kind\": \"{}\", {payload}}}",
        fmt_f64(e.t_s),
        e.seq,
        e.worker,
        e.kind.tag()
    )
}

fn event_from_json(v: &Value) -> Result<Event, String> {
    let u64_of = |k: &str| v.get(k).and_then(Value::as_u64).ok_or(format!("event {k}"));
    let u32_of = |k: &str| u64_of(k).map(|n| n as u32);
    let f64_of = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("event {k}"));
    let bool_of = |k: &str| {
        v.get(k)
            .and_then(Value::as_bool)
            .ok_or(format!("event {k}"))
    };
    let str_of = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("event {k}"))
    };
    let tag = str_of("kind")?;
    let kind = match tag.as_str() {
        "scrub_probe" => EventKind::ScrubProbe {
            addr: u32_of("addr")?,
            persistent_bits: u32_of("persistent_bits")?,
            clean: bool_of("clean")?,
            energy_pj: f64_of("energy_pj")?,
        },
        "corrected" => EventKind::Corrected {
            addr: u32_of("addr")?,
            bits: u32_of("bits")?,
            demand: bool_of("demand")?,
        },
        "uncorrectable" => EventKind::Uncorrectable {
            addr: u32_of("addr")?,
            demand: bool_of("demand")?,
            miscorrected: bool_of("miscorrected")?,
        },
        "scrub_writeback" => EventKind::ScrubWriteback {
            addr: u32_of("addr")?,
            energy_pj: f64_of("energy_pj")?,
        },
        "demand_write" => EventKind::DemandWrite {
            addr: u32_of("addr")?,
            energy_pj: f64_of("energy_pj")?,
        },
        "writeback_decision" => EventKind::WritebackDecision {
            addr: u32_of("addr")?,
            observed_bits: u32_of("observed_bits")?,
            fired: bool_of("fired")?,
            forced: bool_of("forced")?,
        },
        "rate_change" => EventKind::RateChange {
            region: u32_of("region")?,
            mult: f64_of("mult")?,
            next_interval_s: f64_of("next_interval_s")?,
        },
        "demand_write_notify" => EventKind::DemandWriteNotify {
            addr: u32_of("addr")?,
        },
        "wear_level_rotate" => EventKind::WearLevelRotate {
            addr: u32_of("addr")?,
        },
        "exec_worker" => EventKind::ExecWorker {
            worker: u32_of("worker_id")?,
            tasks: u64_of("tasks")?,
        },
        "sim_done" => EventKind::SimDone {
            policy: str_of("policy")?,
            workload: str_of("workload")?,
            seed: u64_of("seed")?,
            scrub_probes: u64_of("scrub_probes")?,
            scrub_writes: u64_of("scrub_writes")?,
            ue: u64_of("ue")?,
            demand_ue: u64_of("demand_ue")?,
            scrub_energy_uj: f64_of("scrub_energy_uj")?,
            mean_wear: f64_of("mean_wear")?,
        },
        "ecp_repair" => EventKind::EcpRepair {
            addr: u32_of("addr")?,
            cells_patched: u32_of("cells_patched")?,
            free_after: u32_of("free_after")?,
        },
        "line_retired" => EventKind::LineRetired {
            addr: u32_of("addr")?,
            spare: u32_of("spare")?,
        },
        "bank_degraded" => EventKind::BankDegraded {
            bank: u32_of("bank")?,
        },
        "ue_recovered" => EventKind::UeRecovered {
            addr: u32_of("addr")?,
            demand: bool_of("demand")?,
        },
        "campaign_boundary" => EventKind::CampaignBoundary {
            label: str_of("label")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Event {
        t_s: f64_of("t_s")?,
        seq: u64_of("seq")?,
        worker: u32_of("worker")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        let mut doc = Document::default();
        doc.meta.insert("experiment".into(), "e6".into());
        doc.counters.insert("scrub_probes".into(), 12345);
        doc.counters.insert("scrub_writebacks".into(), 67);
        doc.gauges.insert("exec_jobs_high_water".into(), 16);
        doc.values.insert("e6.basic.ue".into(), 4506.375);
        doc.phases.push(PhaseRecord {
            name: "e6.basic_suite".into(),
            count: 1,
            wall_s: 1.25,
            sim_span_s: 43_200.0,
        });
        doc.events_dropped = 3;
        doc.events = vec![
            Event {
                t_s: 900.0,
                seq: 0,
                worker: 0,
                kind: EventKind::ScrubProbe {
                    addr: 17,
                    persistent_bits: 2,
                    clean: false,
                    energy_pj: 41.5,
                },
            },
            Event {
                t_s: 901.0,
                seq: 1,
                worker: 0,
                kind: EventKind::WritebackDecision {
                    addr: 17,
                    observed_bits: 2,
                    fired: false,
                    forced: false,
                },
            },
            Event {
                t_s: 43_200.0,
                seq: 2,
                worker: 1,
                kind: EventKind::SimDone {
                    policy: "combined(i=900s)".into(),
                    workload: "db-oltp".into(),
                    seed: 0xE6,
                    scrub_probes: 12345,
                    scrub_writes: 67,
                    ue: 2,
                    demand_ue: 1,
                    scrub_energy_uj: 12.3456789,
                    mean_wear: 1.0625,
                },
            },
        ];
        doc
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = sample_doc();
        let text = doc.to_json();
        let back = Document::from_json(&text).expect("round trip parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = vec![
            EventKind::Corrected {
                addr: 1,
                bits: 2,
                demand: true,
            },
            EventKind::Uncorrectable {
                addr: 3,
                demand: false,
                miscorrected: true,
            },
            EventKind::ScrubWriteback {
                addr: 4,
                energy_pj: 1000.5,
            },
            EventKind::DemandWrite {
                addr: 5,
                energy_pj: 0.25,
            },
            EventKind::RateChange {
                region: 6,
                mult: 0.5,
                next_interval_s: 450.0,
            },
            EventKind::DemandWriteNotify { addr: 7 },
            EventKind::WearLevelRotate { addr: 8 },
            EventKind::ExecWorker {
                worker: 2,
                tasks: 100,
            },
            EventKind::EcpRepair {
                addr: 9,
                cells_patched: 3,
                free_after: 1,
            },
            EventKind::LineRetired { addr: 10, spare: 2 },
            EventKind::BankDegraded { bank: 1 },
            EventKind::UeRecovered {
                addr: 11,
                demand: true,
            },
        ];
        let doc = Document {
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Event {
                    t_s: i as f64,
                    seq: i as u64,
                    worker: 0,
                    kind,
                })
                .collect(),
            ..Document::default()
        };
        let back = Document::from_json(&doc.to_json()).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn schema_has_required_top_level_keys() {
        let text = sample_doc().to_json();
        let v = crate::json::parse(&text).unwrap();
        for key in ["version", "counters", "phases", "events"] {
            assert!(v.get(key).is_some(), "missing required key {key}");
        }
        assert_eq!(v.get("version").unwrap().as_u64(), Some(SCHEMA_VERSION));
        assert!(v.get("events").unwrap().get("dropped").is_some());
    }

    #[test]
    fn merge_of_one_document_is_identity_up_to_seq() {
        let doc = sample_doc();
        let merged = Document::merge_segments(std::slice::from_ref(&doc));
        // sample_doc's events are already time-ordered with seq 0..n.
        assert_eq!(merged, doc);
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_interleaves_events() {
        let mut a = Document::default();
        a.meta.insert("experiment".into(), "e13".into());
        a.counters.insert("scrub_probes".into(), 100);
        a.gauges.insert("exec_jobs_high_water".into(), 8);
        a.values.insert("x".into(), 1.0);
        a.phases.push(PhaseRecord {
            name: "exp.e13".into(),
            count: 1,
            wall_s: 2.0,
            sim_span_s: 100.0,
        });
        a.events_dropped = 1;
        a.events.push(Event {
            t_s: 5.0,
            seq: 0,
            worker: 0,
            kind: EventKind::WearLevelRotate { addr: 1 },
        });
        let mut b = Document::default();
        b.counters.insert("scrub_probes".into(), 50);
        b.counters.insert("demand_reads".into(), 7);
        b.gauges.insert("exec_jobs_high_water".into(), 4);
        b.values.insert("x".into(), 2.0);
        b.phases.push(PhaseRecord {
            name: "exp.e13".into(),
            count: 1,
            wall_s: 3.0,
            sim_span_s: 200.0,
        });
        b.events_dropped = 2;
        b.events.push(Event {
            t_s: 2.0,
            seq: 0,
            worker: 1,
            kind: EventKind::WearLevelRotate { addr: 2 },
        });
        let merged = Document::merge_segments(&[a, b]);
        assert_eq!(merged.counters["scrub_probes"], 150);
        assert_eq!(merged.counters["demand_reads"], 7);
        assert_eq!(merged.gauges["exec_jobs_high_water"], 8);
        assert_eq!(merged.values["x"], 2.0, "later segment wins");
        assert_eq!(merged.phases.len(), 1);
        assert_eq!(merged.phases[0].count, 2);
        assert_eq!(merged.phases[0].wall_s, 5.0);
        assert_eq!(merged.events_dropped, 3);
        // Events re-sorted by time, seq renumbered globally.
        assert_eq!(merged.events[0].t_s, 2.0);
        assert_eq!(merged.events[0].seq, 0);
        assert_eq!(merged.events[1].t_s, 5.0);
        assert_eq!(merged.events[1].seq, 1);
    }

    #[test]
    fn rejects_future_schema_version() {
        let text = sample_doc().to_json().replace(
            &format!("\"version\": {SCHEMA_VERSION}"),
            "\"version\": 999",
        );
        assert!(Document::from_json(&text).is_err());
    }
}
