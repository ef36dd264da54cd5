//! The fleet engine: many shard simulations advanced in cadence rounds
//! over the `scrub-exec` pool, supervised by a per-shard health state
//! machine, with checkpoint-backed shard migration and telemetry
//! roll-ups.
//!
//! A *shard* is one complete [`Simulation`] covering `banks/shards` banks
//! under the full tenant mix at `1/shards` rate. Shards are independent
//! and seed-deterministic, so the fleet advances them in parallel —
//! results are bit-identical for every worker count — and a shard drained
//! to a checkpoint resumes byte-identically on any other worker
//! (migration changes *where* a shard runs, never *what* it computes).
//!
//! The supervisor rides on the same determinism: each round every
//! runnable shard advances inside a pool job ([`scrub_exec::par_map`])
//! that catches its own panic, and then seals a round checkpoint.
//! A panic or a corrupt checkpoint rolls the shard back to
//! its last good checkpoint and schedules a retry after a bounded
//! exponential backoff ([`SupervisorConfig::backoff_rounds`]); because
//! replay is deterministic, a recovered shard re-computes the *same*
//! rounds and the fleet roll-up converges byte-identically to an
//! undisturbed run. A shard that exhausts its retry budget is
//! [quarantined](Health::Quarantined): frozen at its last good state,
//! visible everywhere, never fatal to the fleet.

use pcm_memsim::MemStats;
use scrub_core::Simulation;
use scrub_telemetry::{keys, Document};

use crate::chaos::ChaosSpec;
use crate::config::FleetConfig;
use crate::health::{FailureKind, Health, RecoveryError};

/// One shard: a simulation plus its placement and supervision state.
#[derive(Debug)]
pub struct Shard {
    /// Shard id, `0..config.shards`.
    pub id: u32,
    /// Worker the shard is currently placed on (round-robin at start;
    /// migration moves it).
    pub worker: u32,
    /// Times this shard has been drained and resumed elsewhere.
    pub migrations: u64,
    /// Supervision state (healthy / retrying / quarantined).
    health: Health,
    /// Last validated sealed checkpoint and the round it captured.
    /// Failures roll back to exactly these bytes.
    last_good: Vec<u8>,
    /// Round `last_good` was taken at.
    last_good_round: u64,
    /// `None` only when quarantine left nothing to resume (every
    /// recovery source exhausted).
    sim: Option<Simulation>,
}

impl Shard {
    /// Simulated time this shard has covered (frozen while quarantined).
    pub fn clock_s(&self) -> f64 {
        self.sim.as_ref().map_or(0.0, Simulation::clock_s)
    }

    /// Cumulative memory statistics (zeroed when no state survived).
    pub fn stats(&self) -> MemStats {
        self.sim
            .as_ref()
            .map_or_else(MemStats::default, |s| s.memory().stats())
    }

    /// Per-tenant `(name, reads, writes)` delivered-op rows.
    pub fn tenant_ops(&self) -> Vec<(String, u64, u64)> {
        self.sim
            .as_ref()
            .and_then(|s| s.tenant_ops())
            .unwrap_or_default()
    }

    /// Supervision state.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Last validated sealed checkpoint and the round it captured — what
    /// the daemon persists as generation 0.
    pub fn last_good(&self) -> (&[u8], u64) {
        (&self.last_good, self.last_good_round)
    }
}

/// What a completed migration did, for status output and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// Which shard moved.
    pub shard: u32,
    /// Worker it was drained from.
    pub from_worker: u32,
    /// Worker it resumed on.
    pub to_worker: u32,
    /// The drained snapshot (sealed checkpoint bytes) — the exact bytes
    /// the destination resumed from.
    pub snapshot: Vec<u8>,
}

/// What the supervisor did during one [`Fleet::advance_round`], for
/// daemon logging and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundEvent {
    /// A shard's round attempt failed and was rolled back for retry.
    Failed {
        /// Which shard.
        shard: u32,
        /// Failure class.
        kind: FailureKind,
        /// Failed attempts so far.
        attempts: u32,
        /// Round the next retry is due.
        next_retry_round: u64,
    },
    /// A retrying shard replayed back to the fleet round.
    Recovered {
        /// Which shard.
        shard: u32,
        /// Rounds from first failure to recovery (MTTR in rounds).
        mttr_rounds: u64,
    },
    /// A shard exhausted its retry budget.
    Quarantined {
        /// Which shard.
        shard: u32,
        /// The failure class that exhausted the budget.
        kind: FailureKind,
    },
}

/// Fleet-wide supervision counters, mirrored into
/// [`Fleet::health_document`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Failed round attempts rolled back for retry.
    pub retries: u64,
    /// Shards that returned from Retrying to Healthy.
    pub recoveries: u64,
    /// Rounds of lost progress replayed from checkpoints (failures and
    /// resume catch-up).
    pub recovery_rounds: u64,
    /// Worst observed recovery time, in rounds (first failure →
    /// recovered).
    pub mttr_max_rounds: u64,
}

/// How one shard comes back in [`Fleet::resume`].
#[derive(Debug)]
pub struct ShardRestore {
    /// Health recorded in the write-ahead journal at the crash point.
    pub health: Health,
    /// The newest checkpoint generation that still validates, or the
    /// typed exhaustion when none did.
    pub snapshot: Result<Vec<u8>, RecoveryError>,
}

/// The whole fleet: every shard plus round bookkeeping.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<Shard>,
    round: u64,
    chaos: Option<ChaosSpec>,
    stats: SupervisionStats,
}

/// One shard's pool job for a round; owns the simulation while the pool
/// runs so a panic can only damage this shard.
struct RoundJob {
    idx: usize,
    id: u32,
    target: f64,
    inject_panic: bool,
    corrupt_ckpt: bool,
    want_ckpt: bool,
    sim: Option<Simulation>,
}

impl Fleet {
    /// Builds every shard simulation; shard `i` starts on worker
    /// `i % pool_threads()`. Each shard's initial (t = 0) checkpoint is
    /// taken immediately so the supervisor always has a rollback point.
    pub fn new(config: FleetConfig) -> Fleet {
        let workers = config.pool_threads() as u32;
        let shards = (0..config.shards)
            .map(|id| {
                let sim = Simulation::new(config.shard_config(id));
                let mut sh = Shard {
                    id,
                    worker: id % workers.max(1),
                    migrations: 0,
                    health: Health::Healthy,
                    last_good: Vec::new(),
                    last_good_round: 0,
                    sim: Some(sim),
                };
                sh.last_good = sh
                    .sim
                    .as_mut()
                    .expect("fresh shard")
                    .checkpoint()
                    .expect("t=0 checkpoint of a fresh simulation cannot fail");
                sh
            })
            .collect();
        Fleet {
            config,
            shards,
            round: 0,
            chaos: None,
            stats: SupervisionStats::default(),
        }
    }

    /// Installs a deterministic fault-injection schedule (round panics
    /// and checkpoint corruption; daemon-level faults are handled by the
    /// binary). `None` clears it.
    pub fn set_chaos(&mut self, chaos: Option<ChaosSpec>) {
        self.chaos = chaos;
    }

    /// Rebuilds a fleet from persisted state: per-shard health tokens and
    /// the newest checkpoint generation that validated (from the
    /// write-ahead journal and generation store). Shards behind `round`
    /// replay forward deterministically; a shard whose every generation
    /// was exhausted comes back as a typed quarantine, never an error.
    pub fn resume(
        config: FleetConfig,
        round: u64,
        restores: Vec<ShardRestore>,
    ) -> Result<Fleet, String> {
        if restores.len() != config.shards as usize {
            return Err(format!(
                "resume wants {} shard restores, got {}",
                config.shards,
                restores.len()
            ));
        }
        let workers = config.pool_threads() as u32;
        let target = (round as f64 * config.cadence_s).min(config.horizon_s);
        let mut stats = SupervisionStats::default();
        let mut shards = Vec::with_capacity(restores.len());
        for (id, restore) in (0u32..).zip(restores) {
            let shard = match restore.snapshot {
                Ok(snapshot) => {
                    let mut sim = Simulation::resume(config.shard_config(id), &snapshot)
                        .map_err(|e| format!("shard {id}: cannot resume: {e}"))?;
                    // A shard restored from an older generation (or killed
                    // after WAL-append but before its persist) replays the
                    // missing rounds; determinism makes the replay exact.
                    // Retrying/quarantined shards stay frozen at their
                    // checkpoint — the round loop owns their replay.
                    if matches!(restore.health, Health::Healthy) && sim.clock_s() < target {
                        let behind = ((target - sim.clock_s()) / config.cadence_s).ceil() as u64;
                        stats.recovery_rounds += behind;
                        sim.run_to(target);
                    }
                    let ckpt_round = (sim.clock_s() / config.cadence_s).floor() as u64;
                    Shard {
                        id,
                        worker: id % workers.max(1),
                        migrations: 0,
                        health: restore.health,
                        last_good: snapshot,
                        last_good_round: ckpt_round.min(round),
                        sim: Some(sim),
                    }
                }
                Err(err) => {
                    let RecoveryError::Exhausted { .. } = &err;
                    Shard {
                        id,
                        worker: id % workers.max(1),
                        migrations: 0,
                        health: Health::Quarantined {
                            at_round: round,
                            kind: FailureKind::Exhausted,
                        },
                        last_good: Vec::new(),
                        last_good_round: 0,
                        sim: None,
                    }
                }
            };
            shards.push(shard);
        }
        Ok(Fleet {
            config,
            shards,
            round,
            chaos: None,
            stats,
        })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Completed cadence rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Fleet-wide supervision counters.
    pub fn stats(&self) -> &SupervisionStats {
        &self.stats
    }

    /// Shards currently quarantined.
    pub fn quarantined(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.health.is_quarantined())
            .count() as u64
    }

    /// Fleet simulated clock: the furthest time any shard has covered
    /// (retrying shards lag until their replay catches up).
    pub fn clock_s(&self) -> f64 {
        self.shards.iter().map(Shard::clock_s).fold(0.0, f64::max)
    }

    /// Whether the fleet has nothing left to do: every shard has either
    /// reached the horizon or been quarantined. Retrying shards keep the
    /// fleet running until they recover or exhaust their budget.
    pub fn done(&self) -> bool {
        self.shards.iter().all(|s| match &s.health {
            Health::Healthy => s.clock_s() >= self.config.horizon_s,
            Health::Retrying { .. } => false,
            Health::Quarantined { .. } => true,
        })
    }

    /// Advances every runnable shard to the next cadence boundary
    /// (clamped to the horizon), fanning shards out over the pool with
    /// per-job panic isolation, then validates each shard's round
    /// checkpoint. Failures roll the shard back to its last good
    /// checkpoint and schedule a deterministic retry; determinism makes
    /// the eventual replay byte-identical, so supervision never shows up
    /// in the roll-up of a recovered fleet.
    pub fn advance_round(&mut self) -> Vec<RoundEvent> {
        self.round += 1;
        let round = self.round;
        let target = (round as f64 * self.config.cadence_s).min(self.config.horizon_s);
        let want_ckpt = round.is_multiple_of(self.config.supervisor.checkpoint_every_rounds);

        let mut jobs: Vec<RoundJob> = Vec::new();
        for (idx, sh) in self.shards.iter_mut().enumerate() {
            let runnable = match &sh.health {
                Health::Healthy => sh.clock_s() < target,
                Health::Retrying {
                    next_retry_round, ..
                } => round >= *next_retry_round,
                Health::Quarantined { .. } => false,
            };
            if !runnable {
                continue;
            }
            let inject_panic = self
                .chaos
                .as_ref()
                .is_some_and(|c| c.panic_at(sh.id, round));
            let corrupt_ckpt = self
                .chaos
                .as_ref()
                .is_some_and(|c| c.corrupt_ckpt_at(sh.id, round));
            jobs.push(RoundJob {
                idx,
                id: sh.id,
                target,
                inject_panic,
                corrupt_ckpt,
                // A retrying shard always reseals on success so its
                // recovery point moves forward with it.
                want_ckpt: want_ckpt || corrupt_ckpt || !matches!(sh.health, Health::Healthy),
                sim: sh.sim.take(),
            });
        }

        let threads = self.config.pool_threads();
        let chaos = self.chaos.clone();
        let outcomes = scrub_exec::par_map(threads, jobs.iter_mut(), |_, job| {
            // Panic isolation lives here, in the supervisor that recovers
            // from it: a panicking round fails only its own shard.
            let round_job = std::panic::AssertUnwindSafe(|| -> Result<_, FailureKind> {
                if job.inject_panic {
                    panic!("chaos: injected panic in shard {} round {round}", job.id);
                }
                let sim = job.sim.as_mut().expect("job owns the simulation");
                sim.run_to(job.target);
                if !job.want_ckpt {
                    return Ok(None);
                }
                let mut sealed = sim
                    .checkpoint()
                    .map_err(|_| FailureKind::CorruptCheckpoint)?;
                if job.corrupt_ckpt {
                    if let Some(spec) = chaos.as_ref() {
                        let at = spec.flip_offset(job.id, round, sealed.len());
                        sealed[at] ^= 0x01;
                    }
                }
                scrub_checkpoint::verify(&sealed).map_err(|_| FailureKind::CorruptCheckpoint)?;
                Ok(Some(sealed))
            });
            std::panic::catch_unwind(round_job).unwrap_or(Err(FailureKind::Panic))
        });

        let mut events = Vec::new();
        for (job, outcome) in jobs.into_iter().zip(outcomes) {
            match outcome {
                Ok(maybe_sealed) => {
                    let was = self.shards[job.idx].health.clone();
                    let sh = &mut self.shards[job.idx];
                    sh.sim = job.sim;
                    if let Some(sealed) = maybe_sealed {
                        sh.last_good = sealed;
                        sh.last_good_round = round;
                    }
                    if let Health::Retrying { failed_round, .. } = was {
                        let mttr = round.saturating_sub(failed_round);
                        self.stats.recoveries += 1;
                        self.stats.mttr_max_rounds = self.stats.mttr_max_rounds.max(mttr);
                        self.shards[job.idx].health = Health::Healthy;
                        events.push(RoundEvent::Recovered {
                            shard: job.id,
                            mttr_rounds: mttr,
                        });
                    }
                }
                Err(kind) => {
                    // The job's simulation may be partially mutated (a
                    // panic mid-round) — discard it and roll back.
                    drop(job.sim);
                    events.push(self.fail_shard(job.idx, kind));
                }
            }
        }
        events
    }

    /// Rolls shard `idx` back to its last good checkpoint and either
    /// schedules a retry or quarantines it.
    fn fail_shard(&mut self, idx: usize, kind: FailureKind) -> RoundEvent {
        let round = self.round;
        let seed = self.config.seed;
        let sup = self.config.supervisor.clone();
        let sh = &mut self.shards[idx];
        self.stats.retries += 1;
        self.stats.recovery_rounds += round.saturating_sub(sh.last_good_round);
        let (attempts, failed_round) = match &sh.health {
            Health::Retrying {
                attempts,
                failed_round,
                ..
            } => (*attempts + 1, *failed_round),
            _ => (1, round),
        };
        // Re-arm from the last validated bytes; these were verified when
        // sealed, so a resume failure means the budget is gone too.
        let resumed = Simulation::resume(self.config.shard_config(sh.id), &sh.last_good);
        match resumed {
            Ok(sim) if attempts <= sup.max_retries => {
                sh.sim = Some(sim);
                let next_retry_round = round + sup.backoff_rounds(seed, sh.id, attempts);
                sh.health = Health::Retrying {
                    attempts,
                    failed_round,
                    next_retry_round,
                    kind,
                };
                RoundEvent::Failed {
                    shard: sh.id,
                    kind,
                    attempts,
                    next_retry_round,
                }
            }
            other => {
                sh.sim = other.ok();
                sh.health = Health::Quarantined {
                    at_round: round,
                    kind,
                };
                RoundEvent::Quarantined { shard: sh.id, kind }
            }
        }
    }

    /// Drains `shard` to a checkpoint and resumes it on `to_worker` (or
    /// the next worker round-robin) — the destination rebuilds the
    /// simulation from config and overlays the drained state, continuing
    /// bit-identically. Fails on an unknown shard id, a worker outside
    /// the pool, a shard that is not healthy, or a checkpoint error; the
    /// shard is untouched on failure.
    pub fn migrate(&mut self, shard: u32, to_worker: Option<u32>) -> Result<Migration, String> {
        self.migrate_impl(shard, to_worker, false)
    }

    /// Test-only tripwire: a migration whose drained snapshot silently
    /// drops the in-flight demand op (via
    /// `Simulation::checkpoint_dropping_pending`). Exists so the
    /// differential harness can prove byte-identity checks catch a lossy
    /// migration.
    #[doc(hidden)]
    pub fn migrate_dropping_pending(
        &mut self,
        shard: u32,
        to_worker: Option<u32>,
    ) -> Result<Migration, String> {
        self.migrate_impl(shard, to_worker, true)
    }

    fn migrate_impl(
        &mut self,
        shard: u32,
        to_worker: Option<u32>,
        drop_pending: bool,
    ) -> Result<Migration, String> {
        let workers = self.config.pool_threads() as u32;
        let idx = self
            .shards
            .iter()
            .position(|s| s.id == shard)
            .ok_or_else(|| format!("unknown shard id {shard} (fleet has {})", self.shards.len()))?;
        if !matches!(self.shards[idx].health, Health::Healthy) {
            return Err(format!(
                "cannot migrate shard {shard}: shard is {}",
                self.shards[idx].health.name()
            ));
        }
        if let Some(to) = to_worker.filter(|&to| to >= workers) {
            return Err(format!(
                "cannot migrate shard {shard}: worker {to} is outside the {workers}-worker pool"
            ));
        }
        let from_worker = self.shards[idx].worker;
        let to_worker = to_worker.unwrap_or((from_worker + 1) % workers.max(1));
        let sim = self.shards[idx]
            .sim
            .as_mut()
            .expect("healthy shard has state");
        let snapshot = if drop_pending {
            sim.checkpoint_dropping_pending()
        } else {
            sim.checkpoint()
        }
        .map_err(|e| format!("cannot drain shard {shard}: {e}"))?;
        let resumed = Simulation::resume(self.config.shard_config(shard), &snapshot)
            .map_err(|e| format!("cannot resume shard {shard}: {e}"))?;
        let sh = &mut self.shards[idx];
        sh.sim = Some(resumed);
        sh.worker = to_worker;
        sh.migrations += 1;
        sh.last_good = snapshot.clone();
        sh.last_good_round = self.round;
        Ok(Migration {
            shard,
            from_worker,
            to_worker,
            snapshot,
        })
    }

    /// Checkpoints `shard` without moving it (the `snapshot` control
    /// verb). A quarantined shard serves its last good checkpoint.
    pub fn snapshot_shard(&mut self, shard: u32) -> Result<Vec<u8>, String> {
        let idx = self
            .shards
            .iter()
            .position(|s| s.id == shard)
            .ok_or_else(|| format!("unknown shard id {shard} (fleet has {})", self.shards.len()))?;
        let sh = &mut self.shards[idx];
        match (&sh.health, sh.sim.as_mut()) {
            (Health::Healthy, Some(sim)) => sim
                .checkpoint()
                .map_err(|e| format!("cannot snapshot shard {shard}: {e}")),
            (_, _) if !sh.last_good.is_empty() => Ok(sh.last_good.clone()),
            _ => Err(format!(
                "cannot snapshot shard {shard}: shard is {} with no recovery point",
                sh.health.name()
            )),
        }
    }

    /// Total completed migrations across all shards.
    pub fn migrations(&self) -> u64 {
        self.shards.iter().map(|s| s.migrations).sum()
    }

    /// One shard's telemetry document: cumulative `fleet.*` counters (so
    /// [`Document::merge_segments`] sums them into exact fleet totals),
    /// per-tenant delivered-op counters, and shard-keyed values.
    pub fn shard_document(&self, shard: u32) -> Option<Document> {
        let sh = self.shards.iter().find(|s| s.id == shard)?;
        let stats = sh.stats();
        let mut doc = Document::default();
        doc.meta.insert("shard".into(), sh.id.to_string());
        doc.counters
            .insert("fleet.demand_reads".into(), stats.demand_reads);
        doc.counters
            .insert("fleet.demand_writes".into(), stats.demand_writes);
        doc.counters
            .insert("fleet.scrub_probes".into(), stats.scrub_probes);
        doc.counters
            .insert("fleet.scrub_writebacks".into(), stats.scrub_writebacks);
        doc.counters
            .insert("fleet.corrected_bits".into(), stats.corrected_bits);
        doc.counters
            .insert("fleet.detected_ue".into(), stats.detected_ue);
        doc.counters
            .insert("fleet.demand_ue".into(), stats.demand_ue);
        for (tenant, reads, writes) in sh.tenant_ops() {
            doc.counters.insert(format!("tenant.{tenant}.reads"), reads);
            doc.counters
                .insert(format!("tenant.{tenant}.writes"), writes);
        }
        // Gauges keep their maximum across a merge: the rollup reports
        // the fleet high-water clock even if a shard lags a partial
        // round at the horizon.
        doc.gauges.insert(
            "fleet.clock_ms".into(),
            (sh.clock_s() * 1000.0).round() as u64,
        );
        // Placement and supervision bookkeeping (worker, migrations,
        // retries, health) deliberately stay out of shard documents:
        // where a shard runs — and whether it had to be replayed — must
        // never shape what it reports, so a recovered fleet's documents
        // are byte-identical to a continuous run's (the differential
        // suite relies on this). Supervision lives in
        // [`Fleet::health_document`] instead.
        doc.values
            .insert(format!("shard.{}.clock_s", sh.id), sh.clock_s());
        Some(doc)
    }

    /// The fleet roll-up: every shard document folded through
    /// [`Document::merge_segments`] (counters sum, gauges max, shard-keyed
    /// values coexist), plus fleet-level meta. Deliberately carries no
    /// round number or supervision state: a recovered run may have spent
    /// extra rounds replaying, and its roll-up must still be
    /// byte-identical to the continuous control run.
    pub fn rollup(&self) -> Document {
        let docs: Vec<Document> = self
            .shards
            .iter()
            .map(|s| self.shard_document(s.id).expect("shard exists"))
            .collect();
        let mut doc = Document::merge_segments(&docs);
        doc.meta
            .insert("banks".into(), self.config.banks.to_string());
        doc.meta
            .insert("shards".into(), self.config.shards.to_string());
        doc.meta
            .insert("policy".into(), self.config.policy_spec.clone());
        doc.meta
            .insert("tenants".into(), self.config.tenants.to_string());
        doc.meta.insert("shard".into(), "fleet".to_string());
        doc
    }

    /// The supervision telemetry document (`health.json`): retry /
    /// quarantine / recovery counters and the MTTR high-water gauge,
    /// kept separate from [`Fleet::rollup`] so recovery bookkeeping can
    /// never perturb the byte-identity of simulation results.
    pub fn health_document(&self) -> Document {
        let mut doc = Document::default();
        doc.meta.insert("shard".into(), "supervisor".to_string());
        doc.counters
            .insert(keys::FLEET_RETRIES.into(), self.stats.retries);
        doc.counters
            .insert(keys::FLEET_QUARANTINED.into(), self.quarantined());
        doc.counters
            .insert(keys::FLEET_RECOVERIES.into(), self.stats.recoveries);
        doc.counters.insert(
            keys::FLEET_RECOVERY_ROUNDS.into(),
            self.stats.recovery_rounds,
        );
        doc.gauges.insert(
            keys::FLEET_MTTR_MS.into(),
            (self.stats.mttr_max_rounds as f64 * self.config.cadence_s * 1000.0).round() as u64,
        );
        for sh in &self.shards {
            doc.meta
                .insert(format!("shard.{}.health", sh.id), sh.health.encode());
        }
        doc
    }

    /// Per-tenant service-level rows: configured demand vs. delivered
    /// ops across the whole fleet.
    pub fn slo(&self) -> Vec<TenantSlo> {
        let clock = self.clock_s();
        let per_shard_rate_scale = 1.0 / self.config.shards as f64;
        self.config
            .tenants
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut reads = 0;
                let mut writes = 0;
                for sh in &self.shards {
                    for (name, r, w) in sh.tenant_ops() {
                        if name == t.name {
                            reads += r;
                            writes += w;
                        }
                    }
                }
                // Fleet-wide expectation: each of the `shards` shards
                // carries the tenant at 1/shards rate over its own line
                // space, so the fleet total is the nominal per-shard rate.
                let expected_ops = t.nominal_rate(self.config.shard_lines())
                    * per_shard_rate_scale
                    * self.config.shards as f64
                    * clock;
                let delivered = (reads + writes) as f64;
                TenantSlo {
                    tenant: i as u32,
                    name: t.name.clone(),
                    expected_ops,
                    reads,
                    writes,
                    attainment: if expected_ops > 0.0 {
                        delivered / expected_ops
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

/// One tenant's service-level summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant index in spec order.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// Ops the configured rate promises by the current fleet clock.
    pub expected_ops: f64,
    /// Reads delivered across all shards.
    pub reads: u64,
    /// Writes delivered across all shards.
    pub writes: u64,
    /// Delivered / expected (open-loop attainment; ~1.0 when the fleet
    /// keeps up).
    pub attainment: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FleetConfig {
        "[fleet]\n\
         banks = 8\n\
         lines-per-bank = 32\n\
         shards = 4\n\
         seed = 11\n\
         horizon-s = 900\n\
         cadence-s = 300\n\
         policy = basic@300\n\
         threads = 2\n\
         [tenants]\n\
         mix = alpha:rate=40;beta:rate=10,read=0.5\n"
            .parse()
            .expect("valid config")
    }

    #[test]
    fn rounds_advance_every_shard_in_lockstep() {
        let mut fleet = Fleet::new(tiny_config());
        assert_eq!(fleet.clock_s(), 0.0);
        fleet.advance_round();
        for s in fleet.shards() {
            assert_eq!(s.clock_s(), 300.0);
            assert_eq!(s.health().name(), "healthy");
            assert_eq!(s.last_good().1, 1, "round checkpoint refreshed");
        }
        fleet.advance_round();
        fleet.advance_round();
        assert!(fleet.done());
        assert_eq!(fleet.round(), 3);
        assert_eq!(*fleet.stats(), SupervisionStats::default());
    }

    #[test]
    fn migration_preserves_the_final_rollup() {
        let mut continuous = Fleet::new(tiny_config());
        let mut migrated = Fleet::new(tiny_config());
        continuous.advance_round();
        migrated.advance_round();
        let m = migrated.migrate(2, Some(0)).expect("shard 2 exists");
        assert_eq!(m.shard, 2);
        while !continuous.done() {
            continuous.advance_round();
        }
        while !migrated.done() {
            migrated.advance_round();
        }
        assert_eq!(migrated.migrations(), 1);
        assert_eq!(continuous.rollup().to_json(), migrated.rollup().to_json());
    }

    /// A worker outside the pool is refused and leaves the shard where it
    /// was, so a later round-robin move starts from a worker the pool has.
    #[test]
    fn migrate_rejects_a_worker_outside_the_pool() {
        let mut fleet = Fleet::new(tiny_config());
        let err = fleet
            .migrate(0, Some(u32::MAX))
            .expect_err("worker outside the pool");
        assert!(
            err.contains("worker 4294967295") && err.contains("2-worker pool"),
            "{err}"
        );
        assert_eq!(fleet.shards()[0].worker, 0);
        assert_eq!(fleet.migrations(), 0);
        let m = fleet.migrate(0, None).expect("round-robin move");
        assert_eq!((m.from_worker, m.to_worker), (0, 1));
    }

    /// Shards smaller than the combined policy's 64 regions scrub
    /// cleanly: an 80-line shard gets 40 two-line regions, none of them
    /// past its last line.
    #[test]
    fn small_combined_shards_never_quarantine() {
        let config: FleetConfig = "[fleet]\n\
             banks = 64\n\
             lines-per-bank = 5\n\
             shards = 4\n\
             seed = 11\n\
             horizon-s = 3600\n\
             cadence-s = 900\n\
             policy = combined@900\n\
             threads = 2\n\
             [tenants]\n\
             mix = alpha:rate=40\n"
            .parse()
            .expect("valid config");
        assert_eq!(config.shard_lines(), 80);
        let mut fleet = Fleet::new(config);
        while !fleet.done() {
            fleet.advance_round();
        }
        assert_eq!(fleet.quarantined(), 0);
        assert_eq!(
            *fleet.stats(),
            SupervisionStats::default(),
            "no shard failed"
        );
    }

    #[test]
    fn migrate_rejects_unknown_shard() {
        let mut fleet = Fleet::new(tiny_config());
        let err = fleet.migrate(9, None).expect_err("no shard 9");
        assert!(err.contains("unknown shard id 9"), "{err}");
    }

    #[test]
    fn rollup_sums_shard_counters_exactly() {
        let mut fleet = Fleet::new(tiny_config());
        fleet.advance_round();
        let rollup = fleet.rollup();
        let by_hand: u64 = fleet.shards().iter().map(|s| s.stats().demand_reads).sum();
        assert_eq!(rollup.counters["fleet.demand_reads"], by_hand);
        assert!(by_hand > 0, "open-loop tenants deliver demand");
    }

    #[test]
    fn slo_rows_cover_every_tenant() {
        let mut fleet = Fleet::new(tiny_config());
        while !fleet.done() {
            fleet.advance_round();
        }
        let slo = fleet.slo();
        assert_eq!(slo.len(), 2);
        for row in &slo {
            assert!(row.expected_ops > 0.0);
            assert!(
                (row.attainment - 1.0).abs() < 0.25,
                "open-loop delivery should track the configured rate: {row:?}"
            );
        }
    }

    #[test]
    fn injected_panic_retries_and_converges_to_the_control_rollup() {
        let mut control = Fleet::new(tiny_config());
        while !control.done() {
            control.advance_round();
        }

        let mut chaotic = Fleet::new(tiny_config());
        chaotic.set_chaos(Some("panic_shard=1@2".parse().unwrap()));
        let mut saw_failure = false;
        let mut saw_recovery = false;
        while !chaotic.done() {
            for ev in chaotic.advance_round() {
                match ev {
                    RoundEvent::Failed { shard, kind, .. } => {
                        assert_eq!(shard, 1);
                        assert_eq!(kind, FailureKind::Panic);
                        saw_failure = true;
                    }
                    RoundEvent::Recovered { shard, mttr_rounds } => {
                        assert_eq!(shard, 1);
                        assert!(mttr_rounds >= 1);
                        saw_recovery = true;
                    }
                    RoundEvent::Quarantined { .. } => panic!("one panic must not quarantine"),
                }
            }
        }
        assert!(saw_failure && saw_recovery);
        assert_eq!(chaotic.stats().retries, 1);
        assert_eq!(chaotic.stats().recoveries, 1);
        assert_eq!(chaotic.quarantined(), 0);
        assert_eq!(
            control.rollup().to_json(),
            chaotic.rollup().to_json(),
            "deterministic replay must reconverge on the control roll-up"
        );
    }

    #[test]
    fn persistent_panic_quarantines_without_taking_the_fleet_down() {
        let mut fleet = Fleet::new(tiny_config());
        // Panic window far wider than the retry budget.
        fleet.set_chaos(Some("panic_shard=0@1:1000".parse().unwrap()));
        let mut quarantined_at = None;
        while !fleet.done() {
            for ev in fleet.advance_round() {
                if let RoundEvent::Quarantined { shard, kind } = ev {
                    assert_eq!(shard, 0);
                    assert_eq!(kind, FailureKind::Panic);
                    quarantined_at = Some(fleet.round());
                }
            }
            assert!(fleet.round() < 200, "fleet must terminate");
        }
        assert!(quarantined_at.is_some(), "budget must exhaust");
        assert_eq!(fleet.quarantined(), 1);
        let max_retries = fleet.config().supervisor.max_retries;
        assert_eq!(fleet.stats().retries as u32, max_retries + 1);
        // The healthy shards all finished.
        for sh in fleet.shards().iter().filter(|s| s.id != 0) {
            assert_eq!(sh.health().name(), "healthy");
            assert!(sh.clock_s() >= fleet.config().horizon_s);
        }
        let health = fleet.health_document();
        assert_eq!(health.counters[scrub_telemetry::keys::FLEET_QUARANTINED], 1);
        assert!(health.meta["shard.0.health"].starts_with("Q@"));
    }

    #[test]
    fn corrupt_round_checkpoint_is_caught_and_retried() {
        let mut control = Fleet::new(tiny_config());
        while !control.done() {
            control.advance_round();
        }
        let mut fleet = Fleet::new(tiny_config());
        fleet.set_chaos(Some("seed=3;corrupt_ckpt=2@1".parse().unwrap()));
        let mut kinds = Vec::new();
        while !fleet.done() {
            for ev in fleet.advance_round() {
                if let RoundEvent::Failed { kind, .. } = ev {
                    kinds.push(kind);
                }
            }
        }
        assert_eq!(kinds, vec![FailureKind::CorruptCheckpoint]);
        assert_eq!(fleet.quarantined(), 0);
        assert_eq!(control.rollup().to_json(), fleet.rollup().to_json());
    }

    #[test]
    fn migrate_refuses_unhealthy_shards() {
        let mut fleet = Fleet::new(tiny_config());
        fleet.set_chaos(Some("panic_shard=3@1:1000".parse().unwrap()));
        fleet.advance_round();
        let err = fleet.migrate(3, None).expect_err("shard 3 is retrying");
        assert!(err.contains("retrying"), "{err}");
    }

    #[test]
    fn resume_replays_lagging_shards_to_the_fleet_round() {
        let mut control = Fleet::new(tiny_config());
        while !control.done() {
            control.advance_round();
        }

        // Build restore snapshots by hand: shard 0 one round behind (as
        // if its gen0 was corrupt and recovery fell back to gen1).
        let mut donor = Fleet::new(tiny_config());
        donor.advance_round(); // round 1
        let old = donor.shards()[0].last_good().0.to_vec();
        donor.advance_round(); // round 2
        let restores: Vec<ShardRestore> = donor
            .shards()
            .iter()
            .map(|s| ShardRestore {
                health: Health::Healthy,
                snapshot: Ok(if s.id == 0 {
                    old.clone()
                } else {
                    s.last_good().0.to_vec()
                }),
            })
            .collect();
        let mut resumed = Fleet::resume(tiny_config(), 2, restores).expect("resumes");
        assert!(resumed.stats().recovery_rounds >= 1, "shard 0 replayed");
        while !resumed.done() {
            resumed.advance_round();
        }
        assert_eq!(
            control.rollup().to_json(),
            resumed.rollup().to_json(),
            "resume from mixed generations must converge"
        );
    }

    #[test]
    fn resume_with_exhausted_generations_is_a_typed_quarantine() {
        let mut donor = Fleet::new(tiny_config());
        donor.advance_round();
        let restores: Vec<ShardRestore> = donor
            .shards()
            .iter()
            .map(|s| {
                if s.id == 1 {
                    ShardRestore {
                        health: Health::Healthy,
                        snapshot: Err(RecoveryError::Exhausted {
                            shard: 1,
                            tried: vec![(0, "bad CRC".into()), (1, "truncated".into())],
                        }),
                    }
                } else {
                    ShardRestore {
                        health: Health::Healthy,
                        snapshot: Ok(s.last_good().0.to_vec()),
                    }
                }
            })
            .collect();
        let mut fleet = Fleet::resume(tiny_config(), 1, restores).expect("fleet survives");
        assert_eq!(fleet.quarantined(), 1);
        assert!(matches!(
            fleet.shards()[1].health(),
            Health::Quarantined {
                kind: FailureKind::Exhausted,
                ..
            }
        ));
        while !fleet.done() {
            fleet.advance_round();
        }
        // The other three shards finished; the fleet never crashed.
        assert_eq!(fleet.quarantined(), 1);
        let finished = fleet
            .shards()
            .iter()
            .filter(|s| s.clock_s() >= fleet.config().horizon_s)
            .count();
        assert_eq!(finished, 3);
    }
}
