//! Top-level simulation: workload + memory + scrub engine, one event loop.

use pcm_ecc::CodeSpec;
use pcm_memsim::{
    load_pending_op, save_pending_op, CampaignSpec, MemGeometry, MemOp, Memory, OpKind, ProbeKind,
    RecoveryConfig, RepairConfig, SimTime, TraceSource,
};
use pcm_model::DeviceConfig;
use pcm_workloads::{TenantMixSpec, WorkloadId};
use scrub_checkpoint::{CheckpointError, Reader, Writer};
use scrub_telemetry as tel;

use crate::config::PolicyKind;
use crate::engine::ScrubEngine;
use crate::profiled::{ProfileStats, RiskProfile};
use crate::report::SimReport;
use crate::tour::TourCursor;

/// How many counters [`Simulation::tallies`] reads from the run.
const TALLIED: usize = 26;

/// Demand-traffic selection for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandTraffic {
    /// No demand traffic: an idle (worst-case-drift) memory.
    Idle,
    /// One of the named suite workloads at a rate multiplier.
    Suite {
        /// Which workload.
        id: WorkloadId,
        /// Rate multiplier (1.0 = nominal).
        rate_scale: f64,
    },
    /// Open-loop multi-tenant demand: several per-tenant arrival streams
    /// (seeded Poisson/periodic or suite-driven) merged in time order.
    /// This is the fleet service's workload; unlike a custom trace
    /// installed via [`Simulation::with_trace`], it is part of the config,
    /// so checkpoints taken under it resume natively.
    OpenLoop {
        /// The tenant mix (names, rates, patterns).
        spec: TenantMixSpec,
        /// Rate multiplier applied to every tenant (1.0 = nominal). A
        /// fleet that spreads the mix over `n` shards passes `1/n` here so
        /// aggregate demand matches the spec.
        rate_scale: f64,
    },
}

impl DemandTraffic {
    /// Nominal-rate suite traffic.
    pub fn suite(id: WorkloadId) -> Self {
        DemandTraffic::Suite {
            id,
            rate_scale: 1.0,
        }
    }

    /// Nominal-rate open-loop tenant-mix traffic.
    pub fn open_loop(spec: TenantMixSpec) -> Self {
        DemandTraffic::OpenLoop {
            spec,
            rate_scale: 1.0,
        }
    }

    fn label(&self) -> String {
        match self {
            DemandTraffic::Idle => "idle".to_string(),
            DemandTraffic::Suite { id, rate_scale } => {
                if (*rate_scale - 1.0).abs() < 1e-12 {
                    id.name().to_string()
                } else {
                    format!("{}(x{rate_scale})", id.name())
                }
            }
            DemandTraffic::OpenLoop { spec, rate_scale } => {
                if (*rate_scale - 1.0).abs() < 1e-12 {
                    format!("open-loop({spec})")
                } else {
                    format!("open-loop({spec})(x{rate_scale})")
                }
            }
        }
    }
}

/// Everything a run needs, as data. Construct with
/// [`SimConfig::builder`].
///
/// # Examples
///
/// ```
/// use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};
/// use pcm_workloads::WorkloadId;
///
/// let config = SimConfig::builder()
///     .num_lines(2048)
///     .policy(PolicyKind::Basic { interval_s: 900.0 })
///     .traffic(DemandTraffic::suite(WorkloadId::KvCache))
///     .horizon_s(3600.0)
///     .seed(7)
///     .build();
/// let report = Simulation::new(config).run();
/// assert!(report.stats.scrub_probes > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Memory geometry.
    pub geometry: MemGeometry,
    /// Device physics.
    pub device: DeviceConfig,
    /// Line code.
    pub code: CodeSpec,
    /// Scrub mechanism.
    pub policy: PolicyKind,
    /// Demand traffic.
    pub traffic: DemandTraffic,
    /// Simulated horizon (seconds).
    pub horizon_s: f64,
    /// Seed for every stochastic component.
    pub seed: u64,
    /// Start-Gap wear leveling rotation period (writes per gap move), or
    /// `None` to disable. See [`pcm_memsim::StartGap`].
    pub wear_leveling: Option<u32>,
    /// In-band scrub: a demand read observing at least this many resident
    /// errors triggers an immediate corrective write-back (an extension
    /// mechanism; `None` = scrub probes only).
    pub inband_writeback_theta: Option<u32>,
    /// How scrub probes check lines (full decode vs. CRC-first).
    pub probe_kind: ProbeKind,
    /// Deterministic fault campaign layered on the stochastic fault
    /// engine ([`pcm_memsim::CampaignSpec`]), or `None` for the baseline.
    pub fault_campaign: Option<CampaignSpec>,
    /// Graceful-degradation repair hierarchy (ECP sparing → line
    /// retirement → bank-degraded), or `None` to only count UEs.
    pub repair: Option<RepairConfig>,
    /// Shifted-threshold retry on failed ECC decodes, or `None` to
    /// declare UEs on the first failed decode.
    pub ue_recovery: Option<RecoveryConfig>,
}

impl SimConfig {
    /// Starts a builder with evaluation defaults: 64 Ki lines, nominal
    /// MLC-2 device, BCH-6, combined policy at a 15-minute sweep,
    /// `db-oltp` traffic, a 1-day horizon, seed 0.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    num_lines: u32,
    banks: u32,
    device: DeviceConfig,
    code: CodeSpec,
    policy: PolicyKind,
    traffic: DemandTraffic,
    horizon_s: f64,
    seed: u64,
    wear_leveling: Option<u32>,
    inband_writeback_theta: Option<u32>,
    probe_kind: ProbeKind,
    fault_campaign: Option<CampaignSpec>,
    repair: Option<RepairConfig>,
    ue_recovery: Option<RecoveryConfig>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self {
            num_lines: 65_536,
            banks: 8,
            device: DeviceConfig::default(),
            code: CodeSpec::bch_line(6),
            policy: PolicyKind::combined_default(900.0),
            traffic: DemandTraffic::suite(WorkloadId::DbOltp),
            horizon_s: 86_400.0,
            seed: 0,
            wear_leveling: None,
            inband_writeback_theta: None,
            probe_kind: ProbeKind::FullDecode,
            fault_campaign: None,
            repair: None,
            ue_recovery: None,
        }
    }
}

impl SimConfigBuilder {
    /// Sets the number of 64-byte lines.
    pub fn num_lines(&mut self, n: u32) -> &mut Self {
        self.num_lines = n;
        self
    }

    /// Sets the bank count.
    pub fn banks(&mut self, b: u32) -> &mut Self {
        self.banks = b;
        self
    }

    /// Sets the device physics.
    pub fn device(&mut self, d: DeviceConfig) -> &mut Self {
        self.device = d;
        self
    }

    /// Sets the line code.
    pub fn code(&mut self, c: CodeSpec) -> &mut Self {
        self.code = c;
        self
    }

    /// Sets the scrub policy.
    pub fn policy(&mut self, p: PolicyKind) -> &mut Self {
        self.policy = p;
        self
    }

    /// Sets the demand traffic.
    pub fn traffic(&mut self, t: DemandTraffic) -> &mut Self {
        self.traffic = t;
        self
    }

    /// Sets the simulated horizon in seconds.
    pub fn horizon_s(&mut self, h: f64) -> &mut Self {
        self.horizon_s = h;
        self
    }

    /// Sets the seed.
    pub fn seed(&mut self, s: u64) -> &mut Self {
        self.seed = s;
        self
    }

    /// Enables Start-Gap wear leveling with the given rotation period.
    pub fn wear_leveling(&mut self, rotate_period: u32) -> &mut Self {
        self.wear_leveling = Some(rotate_period);
        self
    }

    /// Enables in-band write-back on demand reads seeing ≥ `theta` errors.
    pub fn inband_writeback(&mut self, theta: u32) -> &mut Self {
        self.inband_writeback_theta = Some(theta);
        self
    }

    /// Selects the scrub-probe kind (full decode vs. CRC-first).
    pub fn probe_kind(&mut self, kind: ProbeKind) -> &mut Self {
        self.probe_kind = kind;
        self
    }

    /// Does nothing: a simulation runs on the thread that calls it. Kept
    /// only because `scrub_perf/src/workload.rs` calls it, and that file
    /// changes only with the benchmark; the next benchmark change drops
    /// the call and this method.
    #[doc(hidden)]
    pub fn threads(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Attaches a deterministic fault campaign.
    pub fn fault_campaign(&mut self, spec: CampaignSpec) -> &mut Self {
        self.fault_campaign = Some(spec);
        self
    }

    /// Enables the graceful-degradation repair hierarchy.
    pub fn repair(&mut self, config: RepairConfig) -> &mut Self {
        self.repair = Some(config);
        self
    }

    /// Enables the shifted-threshold UE recovery retry.
    pub fn ue_recovery(&mut self, config: RecoveryConfig) -> &mut Self {
        self.ue_recovery = Some(config);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is NaN, infinite, non-positive, or long
    /// enough to overflow the engine's integer tick clock (~146 years;
    /// see [`crate::tick::MAX_TICK`]).
    pub fn build(&self) -> SimConfig {
        assert!(
            self.horizon_s.is_finite(),
            "horizon must be finite, got {}",
            self.horizon_s
        );
        assert!(self.horizon_s > 0.0, "horizon must be positive");
        // Panics past MAX_TICK: rejects year-scale typos (e.g. ns passed
        // as s) before they silently wrap the slot grid.
        let _ = crate::tick::ticks_from_secs(self.horizon_s);
        SimConfig {
            geometry: MemGeometry::new(self.num_lines, self.banks),
            device: self.device.clone(),
            code: self.code.clone(),
            policy: self.policy.clone(),
            traffic: self.traffic.clone(),
            horizon_s: self.horizon_s,
            seed: self.seed,
            wear_leveling: self.wear_leveling,
            inband_writeback_theta: self.inband_writeback_theta,
            probe_kind: self.probe_kind,
            fault_campaign: self.fault_campaign,
            repair: self.repair,
            ue_recovery: self.ue_recovery,
        }
    }
}

/// A runnable simulation instance.
///
/// Runs either straight through ([`Simulation::run`]) or in segments:
/// [`Simulation::run_to`] advances the event loop to an intermediate stop
/// time, [`Simulation::checkpoint`] serializes the complete simulator
/// state, and [`Simulation::resume`] reconstructs an instance that
/// continues *bit-identically* to the run that was snapshotted — same RNG
/// draws, same float accumulation order, same report.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    memory: Memory,
    engine: Option<ScrubEngine>,
    custom_trace: Option<Box<dyn TraceSource>>,
    /// The active demand trace once the event loop has started.
    trace: Option<Box<dyn TraceSource>>,
    /// Next demand op, already drawn from the trace but not yet executed.
    pending: Option<MemOp>,
    /// Whether the event loop has started (trace built, first op drawn).
    started: bool,
    /// High-water mark of simulated time covered so far: every event with
    /// `time <= clock` has been executed.
    clock: SimTime,
}

impl Simulation {
    /// Instantiates memory, policy, and workload from a config. The memory
    /// derives its per-bank RNG streams from `config.seed`; the workload
    /// trace seeds itself independently from the same master seed.
    pub fn new(config: SimConfig) -> Self {
        let mut memory = Memory::new(
            config.geometry,
            config.device.clone(),
            config.code.clone(),
            config.seed,
        );
        if let Some(period) = config.wear_leveling {
            memory.enable_wear_leveling(period);
        }
        memory.set_probe_kind(config.probe_kind);
        if let Some(spec) = &config.fault_campaign {
            memory.attach_campaign(spec);
        }
        if let Some(repair) = config.repair {
            memory.enable_repair(repair);
        }
        if let Some(recovery) = config.ue_recovery {
            memory.enable_ue_recovery(recovery);
        }
        let engine = config
            .policy
            .build(
                config.geometry.num_lines(),
                config.geometry.banks(),
                config.seed,
            )
            .map(ScrubEngine::new);
        Self {
            config,
            memory,
            engine,
            custom_trace: None,
            trace: None,
            pending: None,
            started: false,
            clock: SimTime::ZERO,
        }
    }

    /// Replaces the configured demand traffic with an arbitrary trace
    /// source (e.g. a [`pcm_workloads::DiurnalTrace`] or a recorded
    /// trace). The config's `traffic` field is ignored for generation but
    /// still used for labeling unless the source provides its own name.
    pub fn with_trace(config: SimConfig, trace: Box<dyn TraceSource>) -> Self {
        let mut sim = Self::new(config);
        sim.custom_trace = Some(trace);
        sim
    }

    /// Runs to the horizon and produces the report.
    ///
    /// The event loop merges the demand-trace stream with scrub slots in
    /// timestamp order, so policies see a realistic interleaving of
    /// drift-clock resets and probes. Every slot, for every policy, runs
    /// through [`ScrubEngine::step`].
    pub fn run(self) -> SimReport {
        self.finish()
    }

    /// Advances the event loop through every event with time at most
    /// `stop_at_s` (clamped to the horizon), leaving the simulation ready
    /// to be checkpointed or advanced further. Splitting a horizon into
    /// any sequence of `run_to` segments executes exactly the events a
    /// straight [`Simulation::run`] would, in the same order.
    pub fn run_to(&mut self, stop_at_s: f64) {
        self.advance_to(SimTime::from_secs(stop_at_s.min(self.config.horizon_s)));
    }

    /// Runs any remaining events to the horizon and produces the report —
    /// the segmented-run counterpart of [`Simulation::run`].
    pub fn finish(mut self) -> SimReport {
        let horizon = SimTime::from_secs(self.config.horizon_s);
        self.advance_to(horizon);
        self.into_report()
    }

    /// Simulated time covered so far: every event with time at most this
    /// has been executed.
    pub fn clock_s(&self) -> f64 {
        self.clock.secs()
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The simulated memory (for inspecting state mid-run).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The risk profile's probe tallies so far, for a policy with one.
    pub(crate) fn profile_stats(&self) -> Option<ProfileStats> {
        Some(self.engine.as_ref()?.policy().profile()?.stats())
    }

    /// Per-tenant delivered-op accounting as `(tenant, reads, writes)`
    /// rows, when the active demand trace multiplexes several tenant
    /// streams ([`DemandTraffic::OpenLoop`]). `None` for single-stream or
    /// idle traffic, or before the event loop has started.
    pub fn tenant_ops(&self) -> Option<Vec<(String, u64, u64)>> {
        self.trace.as_ref().and_then(|t| t.tenant_ops())
    }

    /// Serializes the complete simulator state into a sealed snapshot
    /// (magic, schema version, CRC-32): per-bank RNG streams and line
    /// state, repair hierarchy, Start-Gap positions, policy and engine
    /// state, the demand-trace generator position, the in-flight demand
    /// op, and every statistics/energy accumulator. Feeding the bytes to
    /// [`Simulation::resume`] with the same config continues the run
    /// bit-identically.
    ///
    /// Checkpointing starts the event loop if it has not started yet (the
    /// trace is built and the first op drawn — exactly what the first
    /// `run_to` would do), so a snapshot at time zero is well-defined.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::Malformed`] if a custom trace source
    /// (installed via [`Simulation::with_trace`]) does not implement
    /// [`TraceSource::save_state`].
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        self.checkpoint_impl(false, false)
    }

    /// Test-only tripwire: identical to [`Simulation::checkpoint`] except
    /// bank 0's RNG stream is replaced by a default-seeded one — same byte
    /// length, wrong contents. Exists so the differential resume harness
    /// can prove it actually detects a single omitted/corrupted state
    /// field.
    #[doc(hidden)]
    pub fn checkpoint_omitting_bank0_rng(&mut self) -> Result<Vec<u8>, CheckpointError> {
        self.checkpoint_impl(true, false)
    }

    /// Test-only tripwire: identical to [`Simulation::checkpoint`] except
    /// the in-flight (drawn but not yet executed) demand op is dropped
    /// from the snapshot — a structurally valid checkpoint that silently
    /// loses one tenant's pending access. Exists so the shard-migration
    /// differential harness can prove byte-identity checks catch a lossy
    /// migration.
    #[doc(hidden)]
    pub fn checkpoint_dropping_pending(&mut self) -> Result<Vec<u8>, CheckpointError> {
        self.checkpoint_impl(false, true)
    }

    fn checkpoint_impl(
        &mut self,
        omit_bank0_rng: bool,
        drop_pending: bool,
    ) -> Result<Vec<u8>, CheckpointError> {
        self.start();
        let mut w = Writer::new();
        w.put_bytes(&fingerprint(&self.config));
        w.put_f64(self.clock.secs());
        match &self.trace {
            Some(t) => {
                let state = t.save_state().ok_or_else(|| {
                    CheckpointError::Malformed(format!(
                        "trace source '{}' does not support checkpoint/resume",
                        t.name()
                    ))
                })?;
                w.put_u8(1);
                w.put_bytes(&state);
            }
            None => w.put_u8(0),
        }
        save_pending_op(&mut w, self.pending.as_ref().filter(|_| !drop_pending));
        match &self.engine {
            Some(e) => {
                w.put_u8(1);
                e.save_state(&mut w);
            }
            None => w.put_u8(0),
        }
        if omit_bank0_rng {
            self.memory.save_state_omitting_bank0_rng(&mut w);
        } else {
            self.memory.save_state(&mut w);
        }
        Ok(scrub_checkpoint::seal(w.into_bytes()))
    }

    /// Reconstructs a simulation from a [`Simulation::checkpoint`]
    /// snapshot, ready to continue bit-identically to the run that was
    /// snapshotted.
    ///
    /// The config must describe the *same run* as the one checkpointed:
    /// a fingerprint (seed, geometry, horizon, policy, code, traffic,
    /// campaign, repair knobs) is embedded in the snapshot and verified.
    /// Custom trace sources installed via [`Simulation::with_trace`]
    /// cannot be rebuilt from config alone and are rejected at checkpoint
    /// time, not here.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: a damaged envelope (truncated, bad CRC,
    /// wrong schema version), a config/fingerprint mismatch, or payload
    /// fields that fail validation. Never panics on hostile input.
    pub fn resume(config: SimConfig, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let payload = scrub_checkpoint::open(bytes)?;
        let mut r = Reader::new(payload);
        let stored_fp = r.bytes()?;
        if stored_fp != fingerprint(&config).as_slice() {
            return Err(CheckpointError::Malformed(
                "config fingerprint mismatch: snapshot was taken under a different \
                 seed/geometry/policy/code/traffic/campaign configuration"
                    .to_string(),
            ));
        }
        let clock = r.time_f64("checkpoint clock")?;
        let mut sim = Simulation::new(config);
        match r.u8()? {
            0 => {}
            1 => {
                sim.build_trace();
                let state = r.bytes()?.to_vec();
                let trace = sim.trace.as_mut().ok_or_else(|| {
                    CheckpointError::Malformed(
                        "snapshot has trace state but config traffic is idle".to_string(),
                    )
                })?;
                trace
                    .load_state(&state)
                    .map_err(CheckpointError::Malformed)?;
            }
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "invalid trace-presence flag {other}"
                )))
            }
        }
        sim.pending = load_pending_op(&mut r, sim.memory.demand_lines())?;
        match (r.u8()?, &mut sim.engine) {
            (0, None) => {}
            (1, Some(engine)) => engine.restore_state(&mut r)?,
            (flag, engine) => {
                return Err(CheckpointError::Malformed(format!(
                    "engine presence mismatch: snapshot flag {flag}, config builds {}",
                    if engine.is_some() {
                        "an engine"
                    } else {
                        "no engine"
                    }
                )))
            }
        }
        sim.memory.restore_state(&mut r)?;
        r.finish()?;
        sim.started = true;
        sim.clock = SimTime::from_secs(clock);
        Ok(sim)
    }

    /// Builds the demand trace and draws the first op, exactly once.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.build_trace();
        self.pending = self.trace.as_mut().and_then(|t| t.next_op());
        self.started = true;
    }

    /// Installs the active trace (custom if provided, else from config)
    /// without drawing from it. Split out of [`Simulation::start`] so
    /// resume can rebuild the generator and then overlay its saved RNG
    /// position instead of consuming the first op.
    pub(crate) fn build_trace(&mut self) {
        self.trace = match self.custom_trace.take() {
            Some(t) => Some(t),
            None => match &self.config.traffic {
                DemandTraffic::Idle => None,
                DemandTraffic::Suite { id, rate_scale } => Some(Box::new(id.build(
                    self.memory.demand_lines(),
                    *rate_scale,
                    self.config.seed.wrapping_add(0x9E37_79B9),
                ))),
                DemandTraffic::OpenLoop { spec, rate_scale } => Some(Box::new(spec.build(
                    self.memory.demand_lines(),
                    *rate_scale,
                    self.config.seed.wrapping_add(0x9E37_79B9),
                ))),
            },
        };
    }

    /// The simulation loop: executes every event with time at most `stop`
    /// in time order — the pending demand op, the next scrub slot, and
    /// (with telemetry on) the fault-campaign markers of this segment. At
    /// equal times demand runs before scrub and markers come after both,
    /// so an event landing exactly on a segment boundary executes in that
    /// segment.
    ///
    /// Each stream has at most one event due at a time, so a direct merge
    /// orders them. The payloads live in `pending` and the engine's slot
    /// clock, and the markers derive from the config and the segment
    /// bounds, so no loop state needs checkpointing.
    ///
    /// With telemetry on, the segment publishes what it added to the
    /// run's tallies when it returns ([`Simulation::publish`]). The
    /// tallies are checkpointed, so any split of a run publishes the
    /// same totals as the straight run.
    fn advance_to(&mut self, stop: SimTime) {
        self.start();
        let before = tel::enabled().then(|| self.tallies());
        let markers = match &self.config.fault_campaign {
            Some(spec) if tel::enabled() => campaign_boundaries(spec, self.clock, stop),
            _ => Vec::new(),
        };
        let mut markers = markers.into_iter().peekable();
        loop {
            let scrub = self
                .engine
                .as_ref()
                .map(ScrubEngine::next_slot)
                .filter(|&t| t <= stop);
            // Demand wins a tie with scrub.
            let demand = self
                .pending
                .filter(|op| op.at <= stop && scrub.is_none_or(|s| op.at <= s));
            let at = match (demand, scrub) {
                (Some(op), _) => op.at,
                (None, Some(s)) => s,
                (None, None) => break,
            };
            while let Some((t, label)) = markers.next_if(|&(t, _)| t < at.secs()) {
                emit_campaign_marker(t, label);
            }
            match demand {
                Some(op) => self.exec_demand_op(op),
                None => self.exec_scrub_slots(stop),
            }
        }
        for (t, label) in markers {
            emit_campaign_marker(t, label);
        }
        if stop > self.clock {
            self.clock = stop;
        }
        if let Some(before) = before {
            self.publish(&before);
        }
    }

    /// The run's running totals of every quantity a telemetry counter
    /// counts, paired with that counter: the one map from the memory's,
    /// the engine's, the tour's and the risk profile's tallies to
    /// telemetry.
    fn tallies(&self) -> [(tel::Counter, u64); TALLIED] {
        use tel::Counter as C;
        let m = self.memory.stats();
        let e = self.engine.as_ref().map(|e| *e.stats()).unwrap_or_default();
        let policy = self.engine.as_ref().map(ScrubEngine::policy);
        let (throttled, forced) = policy
            .and_then(|p| p.bucket())
            .map_or((0, 0), |b| (b.throttled_slots(), b.forced_probes()));
        let tours = policy
            .and_then(|p| p.tour_cursor())
            .map_or(0, TourCursor::tours_completed);
        let profile = policy.and_then(|p| p.profile());
        let p = profile.map(RiskProfile::stats).unwrap_or_default();
        let (evictions, hot_probes) = profile.map_or((0, 0), |p| (p.evictions(), p.hot_probes()));
        [
            (C::DemandReads, m.demand_reads),
            (C::DemandWrites, m.demand_writes),
            (C::ScrubProbes, m.scrub_probes),
            (C::ScrubWritebacks, m.scrub_writebacks),
            (C::CorrectedBits, m.corrected_bits),
            (C::DetectedUe, m.detected_ue),
            (C::Miscorrections, m.miscorrections),
            (C::DemandUe, m.demand_ue),
            (C::WearLevelWrites, m.wear_level_writes),
            (C::EcpRepairs, m.ecp_repairs),
            (C::EcpCellsPatched, m.ecp_cells_patched),
            (C::LinesRetired, m.lines_retired),
            (C::UnrepairableUe, m.unrepairable_ue),
            (C::UeRecoveries, m.recovered_ue),
            (C::EngineProbeSlots, e.probe_slots),
            (C::EngineIdleSlots, e.idle_slots),
            (C::EnginePolicyWritebacks, e.policy_writebacks),
            (C::EngineForcedWritebacks, e.forced_writebacks),
            (C::BudgetThrottled, throttled),
            (C::BudgetForcedProbes, forced),
            (C::ToursCompleted, tours),
            (C::ProfilerHits, p.hits),
            (C::ProfilerMisses, p.misses),
            (C::ProfilerDirtyProbes, p.dirty_probes),
            (C::ProfilerEvictions, evictions),
            (C::ProfilerHotProbes, hot_probes),
        ]
    }

    /// Adds what the run tallied since `before` to the telemetry
    /// counters, and raises the lag gauge to the longest tour so far.
    fn publish(&self, before: &[(tel::Counter, u64); TALLIED]) {
        for ((counter, now), (_, then)) in self.tallies().into_iter().zip(before) {
            tel::counter_add(counter, now - then);
        }
        let bucket = self.engine.as_ref().and_then(|e| e.policy().bucket());
        if let Some(bucket) = bucket {
            tel::gauge_max(tel::Gauge::StarvationMaxLag, bucket.max_tour_slots());
        }
    }

    /// Executes one demand op and draws the next from the trace.
    fn exec_demand_op(&mut self, op: MemOp) {
        match op.kind {
            OpKind::Read => {
                let result = self.memory.demand_read(op.addr, op.at);
                if let Some(e) = &mut self.engine {
                    e.notify_demand_read(op.addr, op.at);
                }
                // Optional in-band scrub: repair heavily drifted
                // lines the program happens to touch.
                if let Some(theta) = self.config.inband_writeback_theta {
                    if result.persistent_bits >= theta || result.outcome.is_uncorrectable() {
                        self.memory.demand_write(op.addr, op.at);
                    }
                }
            }
            OpKind::Write => {
                self.memory.demand_write(op.addr, op.at);
                if let Some(e) = &mut self.engine {
                    e.notify_demand_write(op.addr, op.at);
                }
            }
        }
        self.pending = self.trace.as_mut().and_then(|t| t.next_op());
    }

    /// Steps the due scrub slot at the engine's clock and every later slot
    /// up to `stop` that comes before the next demand op (demand wins a
    /// tie). Campaign markers due inside that run are emitted after it.
    fn exec_scrub_slots(&mut self, stop: SimTime) {
        let demand_due = self.pending.map(|op| op.at);
        self.engine
            .as_mut()
            .expect("a due scrub slot implies an engine")
            .step_until(&mut self.memory, stop, demand_due);
    }

    /// Consumes the simulation and produces the final report (plus its
    /// `sim_done` event). Private: reached via `run`/`finish`.
    fn into_report(self) -> SimReport {
        let window_ns = self.config.horizon_s * 1e9;
        let bw = self.memory.bandwidth();
        let base_read = self.memory.timing().read_ns;
        let report = SimReport {
            workload: self.config.traffic.label(),
            policy: self.config.policy.label(),
            code: self.memory.code().name().to_string(),
            horizon_s: self.config.horizon_s,
            num_lines: self.config.geometry.num_lines(),
            stats: self.memory.stats(),
            engine: self.engine.as_ref().map(|e| *e.stats()).unwrap_or_default(),
            scrub_energy_uj: self.memory.energy().scrub_total_pj() / 1e6,
            demand_energy_uj: self.memory.energy().demand_total_pj() / 1e6,
            mean_wear: self.memory.mean_wear(),
            max_wear: self.memory.max_wear(),
            worn_cells: self.memory.total_worn_cells(),
            scrub_utilization: bw.scrub_utilization(window_ns),
            demand_read_latency_ns: bw.demand_read_latency_ns(base_read, window_ns),
            measured_read_latency_ns: self.memory.measured_demand_read_latency_ns(),
            first_unrepairable_s: self.memory.first_unrepairable_s(),
            degraded_banks: self.memory.degraded_banks(),
        };
        if tel::enabled() {
            tel::event(
                self.config.horizon_s,
                tel::EventKind::SimDone {
                    policy: report.policy.clone(),
                    workload: report.workload.clone(),
                    seed: self.config.seed,
                    scrub_probes: report.stats.scrub_probes,
                    scrub_writes: report.stats.scrub_writebacks,
                    ue: report.uncorrectable(),
                    demand_ue: report.stats.demand_ue,
                    scrub_energy_uj: report.scrub_energy_uj,
                    mean_wear: report.mean_wear,
                },
            );
        }
        report
    }
}

/// Recurring intermittent-fault boundaries are capped at this many
/// markers per advance segment (telemetry-only; the injector itself is
/// exact regardless).
const MAX_INTERMITTENT_MARKERS: usize = 1024;

/// The fault-campaign boundaries (SEU window closing, burst firing,
/// intermittent periods) crossed in the half-open window `(after, upto]`,
/// in time order. A pure function of the spec, so any segmentation of a
/// run emits the same marker set as the straight run.
fn campaign_boundaries(
    spec: &CampaignSpec,
    after: SimTime,
    upto: SimTime,
) -> Vec<(f64, &'static str)> {
    let mut out: Vec<(f64, &'static str)> = Vec::new();
    let (lo, hi) = (after.secs(), upto.secs());
    let mut push = |t: f64, label: &'static str| {
        if t > lo && t <= hi {
            out.push((t, label));
        }
    };
    if let Some(seu) = &spec.seu {
        push(seu.window_s, "seu_window_end");
    }
    if let Some(burst) = &spec.burst {
        push(burst.at_s, "burst");
    }
    if let Some(im) = &spec.intermittent {
        if im.period_s > 0.0 {
            let mut n = 0usize;
            // First period boundary strictly after `lo`.
            let mut k = (lo / im.period_s).floor() as u64 + 1;
            loop {
                let t = k as f64 * im.period_s;
                if t > hi || n >= MAX_INTERMITTENT_MARKERS {
                    break;
                }
                push(t, "intermittent_period");
                k += 1;
                n += 1;
            }
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

fn emit_campaign_marker(t: f64, label: &str) {
    tel::counter_add(tel::Counter::CampaignBoundaries, 1);
    tel::event(
        t,
        tel::EventKind::CampaignBoundary {
            label: label.to_string(),
        },
    );
}

/// Canonical encoding of everything in a [`SimConfig`] that determines the
/// simulated trajectory. Embedded in snapshots and verified on resume so a
/// snapshot cannot silently continue under a different run's configuration.
fn fingerprint(config: &SimConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(config.seed);
    w.put_u32(config.geometry.num_lines());
    w.put_u32(config.geometry.banks());
    w.put_f64(config.horizon_s);
    w.put_str(&config.policy.label());
    w.put_str(config.code.name());
    w.put_str(&config.traffic.label());
    match &config.fault_campaign {
        Some(spec) => {
            w.put_u8(1);
            w.put_str(&spec.to_string());
        }
        None => w.put_u8(0),
    }
    match config.wear_leveling {
        Some(period) => {
            w.put_u8(1);
            w.put_u32(period);
        }
        None => w.put_u8(0),
    }
    match config.inband_writeback_theta {
        Some(theta) => {
            w.put_u8(1);
            w.put_u32(theta);
        }
        None => w.put_u8(0),
    }
    w.put_u8(match config.probe_kind {
        ProbeKind::FullDecode => 0,
        ProbeKind::CrcThenDecode => 1,
    });
    match config.repair {
        Some(rc) => {
            w.put_u8(1);
            w.put_u16(rc.ecp_entries_per_line);
            w.put_u32(rc.spare_lines_per_bank);
        }
        None => w.put_u8(0),
    }
    match config.ue_recovery {
        Some(rc) => {
            w.put_u8(1);
            w.put_f64(rc.recover_prob);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(policy: PolicyKind, code: CodeSpec) -> SimConfig {
        SimConfig::builder()
            .num_lines(1024)
            .policy(policy)
            .code(code)
            .traffic(DemandTraffic::suite(WorkloadId::KvCache))
            .horizon_s(4.0 * 3600.0)
            .seed(11)
            .build()
    }

    /// At equal times a demand op runs before the scrub slot. Slot 1
    /// probes line 1 at exactly one month; a write to line 1 at that
    /// instant must land first, leaving basic scrub a fresh, clean line
    /// and nothing to write back. The month-old line, probed unwritten,
    /// needs a write-back.
    #[test]
    fn demand_wins_a_tie_with_a_scrub_slot() {
        let month = 30.0 * 86_400.0;
        let run = |write_at: f64| {
            let config = SimConfig::builder()
                .num_lines(8)
                .code(CodeSpec::secded_line())
                .policy(PolicyKind::Basic {
                    interval_s: 8.0 * month,
                })
                .horizon_s(month)
                .seed(5)
                .build();
            let write = MemOp {
                at: SimTime::from_secs(write_at),
                kind: OpKind::Write,
                addr: pcm_memsim::LineAddr(1),
            };
            let trace = pcm_workloads::RecordedTrace::new("tie", vec![write]);
            Simulation::with_trace(config, Box::new(trace)).run()
        };
        let tied = run(month);
        assert_eq!(tied.stats.demand_writes, 1);
        assert_eq!(tied.stats.scrub_probes, 2);
        assert_eq!(tied.stats.scrub_writebacks, 0);
        // Past the horizon the write never runs, and the probe finds drift.
        assert!(run(2.0 * month).stats.scrub_writebacks > 0);
    }

    #[test]
    fn boundaries_cover_half_open_window() {
        let spec: CampaignSpec =
            "seed=1;seu=lines:4,count:2,window:100;burst=lines:2,bits:3,at:50;\
             intermittent=lines:1,cells:2,period:30"
                .parse()
                .expect("valid spec");
        let all = campaign_boundaries(&spec, SimTime::ZERO, SimTime::from_secs(100.0));
        let times: Vec<f64> = all.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![30.0, 50.0, 60.0, 90.0, 100.0]);
        // Exactly-at-`after` boundaries belong to the previous segment.
        let tail = campaign_boundaries(&spec, SimTime::from_secs(50.0), SimTime::from_secs(100.0));
        assert!(tail.iter().all(|(t, _)| *t > 50.0));
        // Split segments partition the straight-run marker set.
        let head = campaign_boundaries(&spec, SimTime::ZERO, SimTime::from_secs(50.0));
        let mut joined = head;
        joined.extend(tail);
        assert_eq!(joined, all);
    }

    #[test]
    fn runs_and_reports() {
        let r = Simulation::new(quick_config(
            PolicyKind::Basic { interval_s: 900.0 },
            CodeSpec::secded_line(),
        ))
        .run();
        // 16 sweeps over 1024 lines in 4 hours.
        assert!(r.stats.scrub_probes >= 15 * 1024);
        assert!(r.stats.demand_reads > 0);
        assert!(r.scrub_energy_uj > 0.0);
    }

    #[test]
    fn idle_traffic_runs_scrub_only() {
        let config = SimConfig::builder()
            .num_lines(512)
            .policy(PolicyKind::Basic { interval_s: 1800.0 })
            .traffic(DemandTraffic::Idle)
            .horizon_s(3600.0)
            .seed(12)
            .build();
        let r = Simulation::new(config).run();
        assert_eq!(r.stats.demand_reads, 0);
        assert_eq!(r.stats.demand_writes, 0);
        assert!(r.stats.scrub_probes > 0);
        assert_eq!(r.workload, "idle");
    }

    #[test]
    fn no_policy_no_traffic_terminates() {
        let config = SimConfig::builder()
            .num_lines(64)
            .policy(PolicyKind::None)
            .traffic(DemandTraffic::Idle)
            .horizon_s(100.0)
            .seed(13)
            .build();
        let r = Simulation::new(config).run();
        assert_eq!(r.stats.scrub_probes, 0);
        assert_eq!(r.stats.demand_reads, 0);
    }

    #[test]
    fn campaign_repair_and_recovery_flow_through_config() {
        let mk = |campaign: bool| {
            let mut b = SimConfig::builder();
            b.num_lines(512)
                .code(CodeSpec::secded_line())
                .policy(PolicyKind::Basic { interval_s: 900.0 })
                .traffic(DemandTraffic::Idle)
                .horizon_s(3600.0)
                .seed(17)
                .repair(pcm_memsim::RepairConfig::default())
                .ue_recovery(pcm_memsim::RecoveryConfig { recover_prob: 0.0 });
            if campaign {
                b.fault_campaign(
                    "seed=3;seu=lines:512,count:6,window:1800"
                        .parse()
                        .expect("valid spec"),
                );
            }
            Simulation::new(b.build()).run()
        };
        let baseline = mk(false);
        let bombarded = mk(true);
        // 6 SEUs per line overwhelm SECDED (though the basic policy's
        // unconditional write-backs keep clearing them between probes):
        // the campaign must surface as extra uncorrectable errors.
        assert!(
            bombarded.uncorrectable() > baseline.uncorrectable() + 100,
            "campaign {} vs baseline {}",
            bombarded.uncorrectable(),
            baseline.uncorrectable()
        );
        // SEUs are data faults, not worn cells: the repair hierarchy
        // rightly leaves them to scrub write-backs.
        assert_eq!(bombarded.stats.lines_retired, 0);
        assert_eq!(bombarded.degraded_banks, 0);
        assert!(bombarded.first_unrepairable_s.is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            Simulation::new(quick_config(
                PolicyKind::combined_default(900.0),
                CodeSpec::bch_line(6),
            ))
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.scrub_energy_uj, b.scrub_energy_uj);
    }

    #[test]
    fn wear_leveling_runs_and_copies() {
        let mut b = SimConfig::builder();
        b.num_lines(512)
            .policy(PolicyKind::None)
            .traffic(DemandTraffic::suite(WorkloadId::Logging))
            .horizon_s(4.0 * 3600.0)
            .seed(21)
            .wear_leveling(8);
        let r = Simulation::new(b.build()).run();
        assert!(r.stats.wear_level_writes > 0);
        assert_eq!(
            r.stats.wear_level_writes,
            r.stats.demand_writes / 8,
            "one rotation copy per 8 demand writes"
        );
    }

    #[test]
    fn inband_writeback_cuts_demand_ues_without_scrub() {
        let mk = |inband: bool| {
            let mut b = SimConfig::builder();
            b.num_lines(1024)
                .code(CodeSpec::secded_line())
                .policy(PolicyKind::None)
                .traffic(DemandTraffic::suite(WorkloadId::WebServe))
                .horizon_s(12.0 * 3600.0)
                .seed(22);
            if inband {
                b.inband_writeback(1);
            }
            Simulation::new(b.build()).run()
        };
        let plain = mk(false);
        let inband = mk(true);
        assert!(
            inband.stats.demand_ue < plain.stats.demand_ue.max(1),
            "inband {} vs plain {}",
            inband.stats.demand_ue,
            plain.stats.demand_ue
        );
    }

    #[test]
    fn combined_beats_basic_on_writes_and_ues() {
        let basic = Simulation::new(quick_config(
            PolicyKind::Basic { interval_s: 900.0 },
            CodeSpec::secded_line(),
        ))
        .run();
        let combined = Simulation::new(quick_config(
            PolicyKind::combined_default(900.0),
            CodeSpec::bch_line(6),
        ))
        .run();
        assert!(
            combined.scrub_writes() * 4 < basic.scrub_writes().max(4),
            "combined {} vs basic {} scrub writes",
            combined.scrub_writes(),
            basic.scrub_writes()
        );
        assert!(
            combined.uncorrectable() <= basic.uncorrectable(),
            "combined {} vs basic {} UEs",
            combined.uncorrectable(),
            basic.uncorrectable()
        );
    }
}
