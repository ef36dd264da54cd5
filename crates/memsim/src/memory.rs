//! The simulated main memory: bank-sharded line array + fault engine +
//! ECC + ledgers.
//!
//! # Randomness ownership
//!
//! The memory owns its randomness: each bank shard carries an independent
//! `StdRng` stream derived (SplitMix-style) from `(master seed, bank)`,
//! and every stochastic draw an operation makes comes from the stream of
//! the bank the target line lives in. Because draws are keyed to the bank
//! rather than to global execution order, a line's outcome depends only
//! on the operations its own bank has seen, in order. Counters and energy
//! ledgers are likewise kept per bank and merged in fixed bank order at
//! read time, so floating-point accumulation is order-stable too.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scrub_checkpoint::{CheckpointError, Reader, Writer};

use pcm_ecc::{ClassifyOutcome, CodeSpec};
use pcm_model::math::sample_binomial;
use pcm_model::DeviceConfig;
use scrub_telemetry as tel;

use crate::energy::EnergyLedger;
use crate::fault::FaultEngine;
use crate::geometry::{LineAddr, MemGeometry};
use crate::inject::{CampaignSpec, Injector};
use crate::line::LineState;
use crate::repair::{RecoveryConfig, RepairConfig, RepairState};
use crate::stats::MemStats;
use crate::time::SimTime;
use crate::timing::{BandwidthTracker, TimingModel};
use crate::wear_level::StartGap;

/// How scrub probes check a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeKind {
    /// Every probe runs the full ECC decode (syndromes + locator).
    #[default]
    FullDecode,
    /// Two-phase lightweight probe: a CRC check first; the full decode
    /// runs only when the CRC trips. Saves decode energy on the (common)
    /// clean lines at no loss of detection.
    CrcThenDecode,
}

/// Result of a demand read or scrub probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// How the decoder classified the line.
    pub outcome: ClassifyOutcome,
    /// Persistent bit errors resident on the line (excludes the transient
    /// draw of this read).
    pub persistent_bits: u32,
    /// Whether this access recorded a *new* uncorrectable error (first
    /// discovery for the current write epoch).
    pub new_ue: bool,
}

/// One SplitMix64 step: adds the golden-ratio increment to `x` and
/// applies the finalizer. Every seeded derivation in the workspace (bank
/// streams, shard seeds, tour origins, tenant seeds, chaos schedules)
/// mixes its inputs through this function, so adjacent seeds and indices
/// never yield correlated streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lines of bank `bank` under low-order interleaving (the first
/// `num_lines % banks` banks hold one more), spares not included.
fn bank_lines(geom: &MemGeometry, bank: usize) -> usize {
    let banks = geom.banks() as usize;
    (geom.num_lines() as usize + banks - 1 - bank) / banks
}

/// Derives the RNG seed for one bank's stream from the master seed: the
/// `bank + 1`-th SplitMix64 output of the sequence started at `master`.
fn bank_stream_seed(master: u64, bank: u32) -> u64 {
    splitmix64(master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(bank))))
}

/// One bank's partition of the memory: its lines (addresses congruent to
/// the bank index modulo the bank count), its RNG stream, and its slice of
/// every ledger. Shards are fully independent of one another.
#[derive(Debug, Clone)]
struct BankShard {
    lines: Vec<LineState>,
    rng: StdRng,
    stats: MemStats,
    energy: EnergyLedger,
    bandwidth: BandwidthTracker,
    busy_until_ns: f64,
    demand_read_delay_ns_sum: f64,
    /// Repair hierarchy state (spares, remap, degradation); `None` keeps
    /// the bank on the exact baseline code path.
    repair: Option<RepairState>,
}

impl BankShard {
    fn new(seed: u64) -> Self {
        Self {
            lines: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: MemStats::default(),
            energy: EnergyLedger::default(),
            bandwidth: BandwidthTracker::default(),
            busy_until_ns: 0.0,
            demand_read_delay_ns_sum: 0.0,
            repair: None,
        }
    }

    /// Resolves an original slot through the retirement remap (identity
    /// when repair is disabled; idempotent, since spare slots are never
    /// remap keys).
    fn resolve(&self, slot: usize) -> usize {
        match &self.repair {
            Some(r) => r.resolve(slot),
            None => slot,
        }
    }

    /// Issues an operation of `dur_ns` on this bank at `at_ns`; returns
    /// the queueing delay it suffered.
    fn issue(&mut self, at_ns: f64, dur_ns: f64) -> f64 {
        let start = at_ns.max(self.busy_until_ns);
        self.busy_until_ns = start + dur_ns;
        start - at_ns
    }
}

/// Immutable model state an operation reads beside the bank shard it
/// mutates.
#[derive(Clone, Copy)]
struct OpCtx<'a> {
    engine: &'a FaultEngine,
    code: &'a CodeSpec,
    device: &'a DeviceConfig,
    timing: &'a TimingModel,
    mlc: bool,
    probe_kind: ProbeKind,
    /// Attached fault campaign, read-only at runtime.
    injector: Option<&'a Injector>,
    /// Shifted-threshold UE recovery retry, when enabled.
    recovery: Option<RecoveryConfig>,
}

impl OpCtx<'_> {
    fn decode_line(
        &self,
        shard: &mut BankShard,
        orig_slot: usize,
        addr: u32,
        now: SimTime,
        demand: bool,
    ) -> AccessResult {
        let slot = shard.resolve(orig_slot);
        let line = &mut shard.lines[slot];
        let (persistent, transient) = self.engine.advance_and_transient(line, now, &mut shard.rng);
        // Campaign-injected resident errors: a pure function of the line's
        // write epoch and the current time — no randomness drawn.
        let injected = match self.injector {
            Some(inj) => inj.extra_bits(addr, line.last_write.secs(), now.secs()),
            None => 0,
        };
        let persistent = persistent + injected;
        // Contiguous campaign bursts occupy few symbols: classify them
        // separately so symbol codes (RS) see the correlation. For bit
        // codes, or when no burst is resident, `classify_split` is
        // draw-for-draw identical to plain `classify`.
        let injected_burst = match self.injector {
            Some(inj) => inj.burst_bits(addr, line.last_write.secs(), now.secs()),
            None => 0,
        };
        let mut outcome = self.code.classify_split(
            persistent + transient - injected_burst,
            injected_burst,
            &mut shard.rng,
        );
        if outcome.is_uncorrectable() {
            if let Some(rc) = self.recovery {
                // Retry the read with shifted drift thresholds: transient
                // noise averages out, and each drift-failed bit (a cell
                // sitting just past its sense boundary) reads back
                // correctly w.p. `recover_prob`. Stuck cells and injected
                // data corruption don't benefit.
                let drift_bits = persistent - injected - line.worn_conflict_bits as u32;
                let recovered = sample_binomial(&mut shard.rng, drift_bits, rc.recover_prob);
                let retry = self.code.classify_split(
                    persistent - recovered - injected_burst,
                    injected_burst,
                    &mut shard.rng,
                );
                if retry.data_intact() {
                    outcome = retry;
                    shard.stats.recovered_ue += 1;
                    if tel::enabled() {
                        tel::event(now.secs(), tel::EventKind::UeRecovered { addr, demand });
                    }
                }
            }
        }
        if let ClassifyOutcome::Corrected { bits } = outcome {
            shard.stats.corrected_bits += bits as u64;
            if tel::enabled() {
                tel::event(now.secs(), tel::EventKind::Corrected { addr, bits, demand });
            }
        }
        let mut new_ue = false;
        if outcome.is_uncorrectable() && !line.ue_recorded {
            line.ue_recorded = true;
            new_ue = true;
            match outcome {
                ClassifyOutcome::Miscorrected => shard.stats.miscorrections += 1,
                _ => shard.stats.detected_ue += 1,
            }
            if demand {
                shard.stats.demand_ue += 1;
            }
            if tel::enabled() {
                tel::event(
                    now.secs(),
                    tel::EventKind::Uncorrectable {
                        addr,
                        demand,
                        miscorrected: matches!(outcome, ClassifyOutcome::Miscorrected),
                    },
                );
            }
        }
        if new_ue {
            self.try_repair(shard, orig_slot, slot, addr, now);
        }
        AccessResult {
            outcome,
            persistent_bits: persistent,
            new_ue,
        }
    }

    /// Escalates a new true UE through the repair hierarchy: ECP sparing →
    /// line retirement → unrepairable (bank degraded). Only *hard* faults
    /// escalate — a UE on a line with no unpatched stuck cells is left to
    /// the forced scrub write-back, which rewrites the data and clears it.
    fn try_repair(
        &self,
        shard: &mut BankShard,
        orig_slot: usize,
        slot: usize,
        addr: u32,
        now: SimTime,
    ) {
        if shard.repair.is_none() {
            return;
        }
        let line = &shard.lines[slot];
        let unpatched = line.worn_cells - line.ecp_assigned;
        if unpatched == 0 {
            return;
        }
        let repair = shard.repair.as_mut().expect("checked above");
        let free = repair
            .config
            .ecp_entries_per_line
            .saturating_sub(line.ecp_assigned);
        if free >= unpatched {
            // Stage 1: the free ECP entries cover every unpatched stuck
            // cell; assign them. The pointers hold correct values, so the
            // line's stuck-cell conflicts vanish permanently.
            let line = &mut shard.lines[slot];
            line.ecp_assigned += unpatched;
            line.worn_conflict_bits = 0;
            shard.stats.ecp_repairs += 1;
            shard.stats.ecp_cells_patched += unpatched as u64;
            if tel::enabled() {
                tel::event(
                    now.secs(),
                    tel::EventKind::EcpRepair {
                        addr,
                        cells_patched: unpatched as u32,
                        free_after: (free - unpatched) as u32,
                    },
                );
            }
        } else if repair.spare_available() {
            // Stage 2: retire the line into the bank's spare pool. The
            // spare is a fresh line drawn from the bank's own RNG stream
            // (independent of other banks); the remap table points
            // the address at it from now on.
            repair.spares_used += 1;
            let fresh = self.engine.fresh_line(now, &mut shard.rng);
            shard.lines.push(fresh);
            let spare_slot = (shard.lines.len() - 1) as u32;
            let repair = shard.repair.as_mut().expect("checked above");
            repair.remap.insert(orig_slot as u32, spare_slot);
            shard.stats.lines_retired += 1;
            if tel::enabled() {
                tel::event(
                    now.secs(),
                    tel::EventKind::LineRetired {
                        addr,
                        spare: spare_slot,
                    },
                );
            }
        } else {
            // Stage 3: spares exhausted — the bank is degraded and the
            // error is unrepairable.
            let first = repair.record_unrepairable(now.secs());
            let bank = repair.bank;
            shard.stats.unrepairable_ue += 1;
            if first && tel::enabled() {
                tel::event(now.secs(), tel::EventKind::BankDegraded { bank });
            }
        }
    }

    fn demand_read(
        &self,
        shard: &mut BankShard,
        slot: usize,
        addr: u32,
        now: SimTime,
    ) -> AccessResult {
        let result = self.decode_line(shard, slot, addr, now, true);
        shard.stats.demand_reads += 1;
        let e = self.device.energy();
        shard
            .energy
            .add_demand_read(e.line_read_pj(self.code.total_bits()));
        shard
            .energy
            .add_demand_decode(e.decode_pj(self.code.guaranteed_t()));
        let dur = self.timing.read_ns + self.timing.decode_ns(self.code.guaranteed_t());
        shard.bandwidth.add_demand_ns(dur);
        let delay = shard.issue(now.secs() * 1e9, dur);
        shard.demand_read_delay_ns_sum += delay;
        result
    }

    /// Rewrites the line's cells: shared tail of demand writes, scrub
    /// write-backs, and wear-leveling rotation copies.
    fn write_cells(&self, shard: &mut BankShard, slot: usize, now: SimTime) {
        let slot = shard.resolve(slot);
        let had_worn = shard.lines[slot].worn_cells > 0;
        self.engine
            .on_write(&mut shard.lines[slot], now, &mut shard.rng);
        if !had_worn && shard.lines[slot].worn_cells > 0 {
            shard.stats.lines_with_worn_cells += 1;
        }
    }

    fn demand_write(&self, shard: &mut BankShard, slot: usize, addr: u32, now: SimTime) {
        self.write_cells(shard, slot, now);
        shard.stats.demand_writes += 1;
        let e = self.device.energy();
        let write_pj = e.line_write_pj(self.code.total_bits(), self.mlc) + e.encode_pj;
        shard.energy.add_demand_write(write_pj);
        shard
            .bandwidth
            .add_demand_ns(self.timing.write_ns(self.mlc));
        shard.issue(now.secs() * 1e9, self.timing.write_ns(self.mlc));
        if tel::enabled() {
            tel::event(
                now.secs(),
                tel::EventKind::DemandWrite {
                    addr,
                    energy_pj: write_pj,
                },
            );
        }
    }

    fn scrub_probe(
        &self,
        shard: &mut BankShard,
        slot: usize,
        addr: u32,
        now: SimTime,
    ) -> AccessResult {
        let result = self.decode_line(shard, slot, addr, now, false);
        shard.stats.scrub_probes += 1;
        let e = self.device.energy();
        let read_pj = e.line_read_pj(self.code.total_bits());
        shard.energy.add_scrub_probe(read_pj);
        let t = self.code.guaranteed_t();
        let decode_pj = match self.probe_kind {
            ProbeKind::FullDecode => e.decode_pj(t),
            ProbeKind::CrcThenDecode => {
                // CRC always; full decode only when something is wrong.
                if matches!(result.outcome, ClassifyOutcome::Clean) {
                    e.crc_check_pj
                } else {
                    e.crc_check_pj + e.decode_pj(t)
                }
            }
        };
        shard.energy.add_scrub_decode(decode_pj);
        let dur = self.timing.read_ns + self.timing.decode_ns(t);
        shard.bandwidth.add_scrub_ns(dur);
        shard.issue(now.secs() * 1e9, dur);
        if tel::enabled() {
            tel::event(
                now.secs(),
                tel::EventKind::ScrubProbe {
                    addr,
                    persistent_bits: result.persistent_bits,
                    clean: matches!(result.outcome, ClassifyOutcome::Clean),
                    energy_pj: read_pj + decode_pj,
                },
            );
        }
        result
    }

    fn scrub_writeback(&self, shard: &mut BankShard, slot: usize, addr: u32, now: SimTime) {
        self.write_cells(shard, slot, now);
        shard.stats.scrub_writebacks += 1;
        let e = self.device.energy();
        let write_pj = e.line_write_pj(self.code.total_bits(), self.mlc) + e.encode_pj;
        shard.energy.add_scrub_writeback(write_pj);
        shard.bandwidth.add_scrub_ns(self.timing.write_ns(self.mlc));
        shard.issue(now.secs() * 1e9, self.timing.write_ns(self.mlc));
        if tel::enabled() {
            tel::event(
                now.secs(),
                tel::EventKind::ScrubWriteback {
                    addr,
                    energy_pj: write_pj,
                },
            );
        }
    }
}

/// A PCM main memory at line granularity.
///
/// Combines geometry, the stochastic fault engine, a line code, and
/// energy/timing/statistics ledgers. Storage is sharded by bank (low-order
/// address interleaving), each shard owning an independent RNG stream
/// derived from the construction seed — see the module docs for why this
/// makes results independent of the order in which banks are touched.
///
/// # Examples
///
/// ```
/// use pcm_memsim::{LineAddr, Memory, MemGeometry, SimTime};
/// use pcm_ecc::CodeSpec;
/// use pcm_model::DeviceConfig;
///
/// let mut mem = Memory::new(
///     MemGeometry::small(),
///     DeviceConfig::default(),
///     CodeSpec::bch_line(4),
///     2,
/// );
/// let r = mem.demand_read(LineAddr(17), SimTime::from_secs(1.0));
/// assert!(r.outcome.data_intact());
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    geom: MemGeometry,
    device: DeviceConfig,
    code: CodeSpec,
    engine: FaultEngine,
    timing: TimingModel,
    mlc: bool,
    wear_leveler: Option<StartGap>,
    probe_kind: ProbeKind,
    shards: Vec<BankShard>,
    /// Attached deterministic fault campaign ([`Memory::attach_campaign`]).
    injector: Option<Arc<Injector>>,
    /// Shifted-threshold UE recovery ([`Memory::enable_ue_recovery`]).
    recovery: Option<RecoveryConfig>,
}

impl Memory {
    /// Builds a memory whose lines were all written at time zero; `seed`
    /// keys every per-bank RNG stream.
    pub fn new(geom: MemGeometry, device: DeviceConfig, code: CodeSpec, seed: u64) -> Self {
        let bits_per_cell = device.stack().bits_per_cell();
        let cells = code.total_bits().div_ceil(bits_per_cell);
        let engine = FaultEngine::new(&device, cells);
        let banks = geom.banks();
        let mut shards: Vec<BankShard> = (0..banks)
            .map(|b| BankShard::new(bank_stream_seed(seed, b)))
            .collect();
        for (b, shard) in shards.iter_mut().enumerate() {
            shard.lines = (0..bank_lines(&geom, b))
                .map(|_| engine.fresh_line(SimTime::ZERO, &mut shard.rng))
                .collect();
        }
        let mlc = bits_per_cell > 1;
        Self {
            geom,
            device,
            code,
            engine,
            timing: TimingModel::default(),
            mlc,
            wear_leveler: None,
            probe_kind: ProbeKind::FullDecode,
            shards,
            injector: None,
            recovery: None,
        }
    }

    /// Attaches a deterministic fault campaign. Stuck-at clusters are
    /// injected into their target lines immediately (from the campaign's
    /// own RNG, in address order — independent of bank streams); SEUs,
    /// intermittent cells, and bursts manifest at decode time as pure
    /// functions of the line's write epoch.
    pub fn attach_campaign(&mut self, spec: &CampaignSpec) {
        let injector = Injector::new(spec, self.geom.num_lines());
        // The campaign's physical cell placement draws from its own
        // stream, so attaching never perturbs the bank streams.
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC0FF_EE00_D15E_A5E5);
        for &(addr, cells) in injector.stuck_clusters() {
            let (bank, slot) = self.locate(LineAddr(addr));
            let had_worn = self.shards[bank].lines[slot].worn_cells > 0;
            self.engine
                .inject_stuck_cells(&mut self.shards[bank].lines[slot], cells, &mut rng);
            if !had_worn && self.shards[bank].lines[slot].worn_cells > 0 {
                self.shards[bank].stats.lines_with_worn_cells += 1;
            }
        }
        self.injector = Some(Arc::new(injector));
    }

    /// The attached campaign spec, if any.
    pub fn campaign(&self) -> Option<&CampaignSpec> {
        self.injector.as_ref().map(|i| i.spec())
    }

    /// Enables the graceful-degradation repair hierarchy (ECP sparing →
    /// line retirement → bank-degraded mode) on every bank.
    pub fn enable_repair(&mut self, config: RepairConfig) {
        for (b, shard) in self.shards.iter_mut().enumerate() {
            shard.repair = Some(RepairState::new(config, b as u32));
        }
    }

    /// Enables the shifted-threshold retry on failed ECC decodes.
    pub fn enable_ue_recovery(&mut self, config: RecoveryConfig) {
        self.recovery = Some(config);
    }

    /// Simulated time of the memory's first unrepairable error, if any
    /// bank has degraded.
    pub fn first_unrepairable_s(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.repair.as_ref().and_then(|r| r.first_unrepairable_s))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Number of banks that have exhausted their spares.
    pub fn degraded_banks(&self) -> u32 {
        self.shards
            .iter()
            .filter(|s| s.repair.as_ref().is_some_and(|r| r.degraded))
            .count() as u32
    }

    /// Serializes the memory's complete mutable state — Start-Gap
    /// position, and per bank: line states, RNG stream, stat/energy/
    /// bandwidth ledgers, bank-timer state, and repair hierarchy — into
    /// `w`. Configuration (geometry, device, code, campaign spec, probe
    /// kind) is *not* written: a resume rebuilds it from the run config
    /// and then overwrites the mutable state with [`Memory::restore_state`].
    pub fn save_state(&self, w: &mut Writer) {
        self.save_state_impl(w, false);
    }

    /// Test-only tripwire hook: serializes state but *omits* bank 0's RNG
    /// stream (writing a default-seeded state instead), so the
    /// differential resume harness can prove it detects a missing field.
    #[doc(hidden)]
    pub fn save_state_omitting_bank0_rng(&self, w: &mut Writer) {
        self.save_state_impl(w, true);
    }

    fn save_state_impl(&self, w: &mut Writer, omit_bank0_rng: bool) {
        match &self.wear_leveler {
            Some(sg) => {
                w.put_u8(1);
                let (gap, start, writes) = sg.dynamic_state();
                w.put_u32(gap);
                w.put_u32(start);
                w.put_u32(writes);
            }
            None => w.put_u8(0),
        }
        w.put_u32(self.shards.len() as u32);
        for (b, shard) in self.shards.iter().enumerate() {
            let rng_state = if omit_bank0_rng && b == 0 {
                StdRng::seed_from_u64(0).state()
            } else {
                shard.rng.state()
            };
            for word in rng_state {
                w.put_u64(word);
            }
            w.put_u32(shard.lines.len() as u32);
            for line in &shard.lines {
                w.put_f64(line.last_write.secs());
                w.put_f64(line.last_eval.secs());
                for &o in &line.occupancy {
                    w.put_u16(o);
                }
                for &d in &line.drift_failed {
                    w.put_u16(d);
                }
                w.put_u32(line.wear);
                w.put_u16(line.worn_cells);
                w.put_u16(line.worn_conflict_bits);
                w.put_u16(line.ecp_assigned);
                w.put_bool(line.ue_recorded);
            }
            let s = &shard.stats;
            for v in [
                s.demand_reads,
                s.demand_writes,
                s.scrub_probes,
                s.scrub_writebacks,
                s.corrected_bits,
                s.detected_ue,
                s.miscorrections,
                s.demand_ue,
                s.lines_with_worn_cells,
                s.wear_level_writes,
                s.ecp_repairs,
                s.ecp_cells_patched,
                s.lines_retired,
                s.unrepairable_ue,
                s.recovered_ue,
            ] {
                w.put_u64(v);
            }
            for c in shard.energy.components() {
                w.put_f64(c);
            }
            w.put_f64(shard.bandwidth.demand_busy_ns());
            w.put_f64(shard.bandwidth.scrub_busy_ns());
            w.put_f64(shard.busy_until_ns);
            w.put_f64(shard.demand_read_delay_ns_sum);
            match &shard.repair {
                Some(r) => {
                    w.put_u8(1);
                    w.put_u32(r.spares_used);
                    w.put_bool(r.degraded);
                    w.put_opt_f64(r.first_unrepairable_s);
                    w.put_u64(r.unrepairable);
                    // The remap is a HashMap; serialize sorted by key so
                    // the snapshot bytes are a pure function of the state.
                    let mut remap: Vec<(u32, u32)> =
                        r.remap.iter().map(|(&k, &v)| (k, v)).collect();
                    remap.sort_unstable();
                    w.put_u32(remap.len() as u32);
                    for (k, v) in remap {
                        w.put_u32(k);
                        w.put_u32(v);
                    }
                }
                None => w.put_u8(0),
            }
        }
    }

    /// Restores state captured by [`Memory::save_state`] onto a memory
    /// freshly constructed from the *same* configuration (same geometry,
    /// seed, campaign, repair/recovery settings — the caller validates
    /// that; this method validates structural consistency). All mutable
    /// state is overwritten, so restoring is idempotent: in particular, a
    /// campaign's stuck-cell injection performed at construction is
    /// replaced wholesale by the snapshot's line states, never re-applied
    /// on top of them.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let malformed = |msg: String| CheckpointError::Malformed(msg);
        let has_wl = r.bool()?;
        if has_wl != self.wear_leveler.is_some() {
            return Err(malformed(format!(
                "wear-leveler presence mismatch: snapshot {has_wl}, config {}",
                self.wear_leveler.is_some()
            )));
        }
        if has_wl {
            let gap = r.u32()?;
            let start = r.u32()?;
            let writes = r.u32()?;
            let sg = self.wear_leveler.as_mut().expect("presence checked");
            sg.restore_dynamic_state(gap, start, writes)
                .map_err(|e| malformed(format!("start-gap: {e}")))?;
        }
        let shard_count = r.u32()? as usize;
        if shard_count != self.shards.len() {
            return Err(malformed(format!(
                "bank count mismatch: snapshot {shard_count}, config {}",
                self.shards.len()
            )));
        }
        for (b, shard) in self.shards.iter_mut().enumerate() {
            let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let line_count = r.u32()? as usize;
            // A bank holds its own lines plus, under repair, the spares
            // it has used: check before sizing anything by the count.
            let base_lines = bank_lines(&self.geom, b);
            let spare_pool = shard
                .repair
                .as_ref()
                .map_or(0, |r| r.config.spare_lines_per_bank as usize);
            if !(base_lines..=base_lines + spare_pool).contains(&line_count) {
                return Err(malformed(format!(
                    "bank {b}: {line_count} lines, but the bank has {base_lines} and a pool of \
                     {spare_pool} spares"
                )));
            }
            let mut lines = Vec::with_capacity(line_count);
            for i in 0..line_count {
                let what = |f: &str| format!("bank {b} line {i} {f}");
                let last_write = r.time_f64(&what("last_write"))?;
                let last_eval = r.time_f64(&what("last_eval"))?;
                let mut occupancy = [0u16; crate::line::MAX_LEVELS];
                for o in &mut occupancy {
                    *o = r.u16()?;
                }
                let mut drift_failed = [0u16; crate::line::MAX_LEVELS];
                for d in &mut drift_failed {
                    *d = r.u16()?;
                }
                let line = LineState {
                    last_write: SimTime::from_secs(last_write),
                    last_eval: SimTime::from_secs(last_eval),
                    occupancy,
                    drift_failed,
                    wear: r.u32()?,
                    worn_cells: r.u16()?,
                    worn_conflict_bits: r.u16()?,
                    ecp_assigned: r.u16()?,
                    ue_recorded: r.bool()?,
                };
                self.engine
                    .check_line(&line)
                    .map_err(|e| malformed(format!("bank {b} line {i}: {e}")))?;
                lines.push(line);
            }
            let stats = MemStats {
                demand_reads: r.u64()?,
                demand_writes: r.u64()?,
                scrub_probes: r.u64()?,
                scrub_writebacks: r.u64()?,
                corrected_bits: r.u64()?,
                detected_ue: r.u64()?,
                miscorrections: r.u64()?,
                demand_ue: r.u64()?,
                lines_with_worn_cells: r.u64()?,
                wear_level_writes: r.u64()?,
                ecp_repairs: r.u64()?,
                ecp_cells_patched: r.u64()?,
                lines_retired: r.u64()?,
                unrepairable_ue: r.u64()?,
                recovered_ue: r.u64()?,
            };
            let energy = EnergyLedger::from_components([
                r.f64()?,
                r.f64()?,
                r.f64()?,
                r.f64()?,
                r.f64()?,
                r.f64()?,
            ]);
            let bandwidth = BandwidthTracker::from_busy_ns(r.f64()?, r.f64()?);
            let busy_until_ns = r.f64()?;
            let demand_read_delay_ns_sum = r.f64()?;
            let repair = if r.bool()? {
                let config = match &shard.repair {
                    Some(existing) => existing.config,
                    None => {
                        return Err(malformed(format!(
                            "bank {b}: snapshot has repair state but repair is not configured"
                        )))
                    }
                };
                let spares_used = r.u32()?;
                if spares_used > config.spare_lines_per_bank {
                    return Err(malformed(format!(
                        "bank {b}: {spares_used} spares used exceeds pool of {}",
                        config.spare_lines_per_bank
                    )));
                }
                let degraded = r.bool()?;
                let first_unrepairable_s = r.opt_f64()?;
                let unrepairable = r.u64()?;
                let remap_len = r.u32()? as usize;
                // Each retired line took one spare.
                if remap_len > spares_used as usize {
                    return Err(malformed(format!(
                        "bank {b}: {remap_len} remapped lines but {spares_used} spares used"
                    )));
                }
                let mut remap = HashMap::with_capacity(remap_len);
                for _ in 0..remap_len {
                    let k = r.u32()?;
                    let v = r.u32()?;
                    if (k as usize) >= base_lines || (v as usize) >= line_count {
                        return Err(malformed(format!(
                            "bank {b}: remap {k}→{v} out of range ({line_count} lines)"
                        )));
                    }
                    remap.insert(k, v);
                }
                if line_count != base_lines + spares_used as usize {
                    return Err(malformed(format!(
                        "bank {b}: {line_count} lines inconsistent with {base_lines} base + \
                         {spares_used} spares"
                    )));
                }
                let mut state = RepairState::new(config, b as u32);
                state.spares_used = spares_used;
                state.degraded = degraded;
                state.first_unrepairable_s = first_unrepairable_s;
                state.unrepairable = unrepairable;
                state.remap = remap;
                Some(state)
            } else {
                if shard.repair.is_some() {
                    return Err(malformed(format!(
                        "bank {b}: repair configured but snapshot has no repair state"
                    )));
                }
                // Without repair the pool is empty, so the count was
                // checked against the bank's own lines above.
                None
            };
            shard.rng = StdRng::from_state(rng_state);
            shard.lines = lines;
            shard.stats = stats;
            shard.energy = energy;
            shard.bandwidth = bandwidth;
            shard.busy_until_ns = busy_until_ns;
            shard.demand_read_delay_ns_sum = demand_read_delay_ns_sum;
            shard.repair = repair;
        }
        Ok(())
    }

    /// Splits an address into `(bank, slot-within-bank)` under low-order
    /// interleaving: bank `b` holds addresses `b, b+B, b+2B, …`.
    fn locate(&self, addr: LineAddr) -> (usize, usize) {
        let banks = self.geom.banks();
        ((addr.0 % banks) as usize, (addr.0 / banks) as usize)
    }

    /// Split borrow: an immutable op context over the model fields plus
    /// the mutable shard array, so ops can hold both at once.
    fn parts(&mut self) -> (OpCtx<'_>, &mut [BankShard]) {
        (
            OpCtx {
                engine: &self.engine,
                code: &self.code,
                device: &self.device,
                timing: &self.timing,
                mlc: self.mlc,
                probe_kind: self.probe_kind,
                injector: self.injector.as_deref(),
                recovery: self.recovery,
            },
            &mut self.shards,
        )
    }

    /// Measured mean demand-read latency (service time plus queueing
    /// delays actually suffered behind scrub/demand traffic on the same
    /// bank), in nanoseconds.
    pub fn measured_demand_read_latency_ns(&self) -> f64 {
        let service = self.timing.read_ns + self.timing.decode_ns(self.code.guaranteed_t());
        let stats = self.stats();
        if stats.demand_reads == 0 {
            service
        } else {
            let delay: f64 = self.shards.iter().map(|s| s.demand_read_delay_ns_sum).sum();
            service + delay / stats.demand_reads as f64
        }
    }

    /// Selects how scrub probes check lines (see [`ProbeKind`]).
    pub fn set_probe_kind(&mut self, kind: ProbeKind) {
        self.probe_kind = kind;
    }

    /// The probe kind in force.
    pub fn probe_kind(&self) -> ProbeKind {
        self.probe_kind
    }

    /// Enables Start-Gap wear leveling: demand addresses become *logical*
    /// (one line is sacrificed as the rotating gap) and the mapping shifts
    /// every `rotate_period` demand writes. Scrub continues to address
    /// physical lines — it maintains the array, not the data view.
    ///
    /// # Panics
    ///
    /// Panics if the memory has fewer than two lines.
    pub fn enable_wear_leveling(&mut self, rotate_period: u32) {
        self.wear_leveler = Some(StartGap::new(self.geom.num_lines(), rotate_period));
    }

    /// The number of lines demand traffic may address (one fewer than
    /// physical when wear leveling is on).
    pub fn demand_lines(&self) -> u32 {
        match &self.wear_leveler {
            Some(sg) => sg.logical_lines(),
            None => self.geom.num_lines(),
        }
    }

    /// Translates a demand (logical) address to a physical line.
    fn demand_to_physical(&self, addr: LineAddr) -> LineAddr {
        match &self.wear_leveler {
            Some(sg) => sg.map(addr),
            None => addr,
        }
    }

    /// Advances the wear leveler after a demand write, paying for the
    /// rotation copy when one occurs.
    fn rotate_wear_leveler(&mut self, now: SimTime) {
        let copied_to = match &mut self.wear_leveler {
            Some(sg) => sg.on_write(),
            None => return,
        };
        let Some(copied_to) = copied_to else { return };
        // The displaced line's contents are rewritten into the old gap
        // slot: one extra array write of fresh data. The copy draws from
        // the destination line's bank stream; it does not hold the channel
        // (the controller overlaps rotation copies with foreground work).
        let (bank, slot) = self.locate(copied_to);
        let (ctx, shards) = self.parts();
        let shard = &mut shards[bank];
        ctx.write_cells(shard, slot, now);
        shard.stats.wear_level_writes += 1;
        let e = ctx.device.energy();
        shard
            .energy
            .add_demand_write(e.line_write_pj(ctx.code.total_bits(), ctx.mlc) + e.encode_pj);
        shard.bandwidth.add_demand_ns(ctx.timing.write_ns(ctx.mlc));
        if tel::enabled() {
            tel::event(
                now.secs(),
                tel::EventKind::WearLevelRotate { addr: copied_to.0 },
            );
        }
    }

    /// The geometry in force.
    pub fn geometry(&self) -> &MemGeometry {
        &self.geom
    }

    /// The device configuration in force.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The line code in force.
    pub fn code(&self) -> &CodeSpec {
        &self.code
    }

    /// The fault engine (for policies that consult the drift model).
    pub fn fault_engine(&self) -> &FaultEngine {
        &self.engine
    }

    /// Counters, merged over banks in fixed bank order.
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats);
        }
        total
    }

    /// Accumulated energy, merged over banks in fixed bank order.
    pub fn energy(&self) -> EnergyLedger {
        let mut total = EnergyLedger::default();
        for shard in &self.shards {
            total.absorb(&shard.energy);
        }
        total
    }

    /// Channel-time totals, merged over banks in fixed bank order.
    pub fn bandwidth(&self) -> BandwidthTracker {
        let mut total = BandwidthTracker::default();
        for shard in &self.shards {
            total.absorb(&shard.bandwidth);
        }
        total
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Immutable view of a line's state.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn line(&self, addr: LineAddr) -> &LineState {
        assert!(self.geom.contains(addr), "address {addr} out of range");
        let (bank, slot) = self.locate(addr);
        let shard = &self.shards[bank];
        &shard.lines[shard.resolve(slot)]
    }

    /// Mean wear (writes) across all lines.
    pub fn mean_wear(&self) -> f64 {
        let total: f64 = self
            .geom
            .iter_lines()
            .map(|a| self.line(a).wear as f64)
            .sum();
        total / self.geom.num_lines() as f64
    }

    /// Maximum wear across all lines.
    pub fn max_wear(&self) -> u32 {
        self.geom
            .iter_lines()
            .map(|a| self.line(a).wear)
            .max()
            .unwrap_or(0)
    }

    /// Total permanently worn cells across the memory.
    pub fn total_worn_cells(&self) -> u64 {
        self.geom
            .iter_lines()
            .map(|a| self.line(a).worn_cells as u64)
            .sum()
    }

    /// Per-line wear counts in address order (for distribution analyses,
    /// e.g. wear-leveling flatness histograms).
    pub fn wear_values(&self) -> Vec<u32> {
        self.geom.iter_lines().map(|a| self.line(a).wear).collect()
    }

    /// Serves a demand read: array read + decode, no write-back.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn demand_read(&mut self, addr: LineAddr, now: SimTime) -> AccessResult {
        assert!(
            addr.0 < self.demand_lines(),
            "address {addr} out of demand range"
        );
        let addr = self.demand_to_physical(addr);
        let (bank, slot) = self.locate(addr);
        let (ctx, shards) = self.parts();
        ctx.demand_read(&mut shards[bank], slot, addr.0, now)
    }

    /// Serves a demand write: reprograms the line (resetting its drift
    /// clock) and pays MLC write energy.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn demand_write(&mut self, addr: LineAddr, now: SimTime) {
        assert!(
            addr.0 < self.demand_lines(),
            "address {addr} out of demand range"
        );
        let addr = self.demand_to_physical(addr);
        let (bank, slot) = self.locate(addr);
        let (ctx, shards) = self.parts();
        ctx.demand_write(&mut shards[bank], slot, addr.0, now);
        self.rotate_wear_leveler(now);
    }

    /// Issues a scrub probe: array read + decode *only* (the lightweight
    /// detection operation). Never writes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn scrub_probe(&mut self, addr: LineAddr, now: SimTime) -> AccessResult {
        assert!(self.geom.contains(addr), "address {addr} out of range");
        let (bank, slot) = self.locate(addr);
        let (ctx, shards) = self.parts();
        ctx.scrub_probe(&mut shards[bank], slot, addr.0, now)
    }

    /// Issues a scrub write-back: reprograms the line with corrected data,
    /// clearing accumulated soft errors at the cost of write energy and
    /// wear.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn scrub_writeback(&mut self, addr: LineAddr, now: SimTime) {
        assert!(self.geom.contains(addr), "address {addr} out of range");
        let (bank, slot) = self.locate(addr);
        let (ctx, shards) = self.parts();
        ctx.scrub_writeback(&mut shards[bank], slot, addr.0, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(code: CodeSpec) -> Memory {
        Memory::new(MemGeometry::new(256, 4), DeviceConfig::default(), code, 61)
    }

    #[test]
    fn fresh_memory_reads_clean() {
        let mut m = mem(CodeSpec::bch_line(4));
        for i in 0..256 {
            let r = m.demand_read(LineAddr(i), SimTime::from_secs(1.0));
            assert!(r.outcome.data_intact(), "line {i}: {:?}", r.outcome);
        }
        assert_eq!(m.stats().demand_reads, 256);
        assert_eq!(m.stats().uncorrectable(), 0);
    }

    #[test]
    fn old_memory_with_secded_sees_ues() {
        let mut m = mem(CodeSpec::secded_line());
        let week = SimTime::from_secs(604_800.0);
        let mut ues = 0;
        for i in 0..256 {
            if m.demand_read(LineAddr(i), week).new_ue {
                ues += 1;
            }
        }
        assert!(
            ues > 100,
            "week-old SECDED memory should be riddled with UEs, got {ues}"
        );
    }

    #[test]
    fn strong_ecc_survives_where_secded_fails() {
        let hour = SimTime::from_secs(3600.0);
        let mut weak = mem(CodeSpec::secded_line());
        let mut strong = mem(CodeSpec::bch_line(6));
        let mut weak_ues = 0;
        let mut strong_ues = 0;
        for i in 0..256 {
            weak_ues += weak.demand_read(LineAddr(i), hour).new_ue as u32;
            strong_ues += strong.demand_read(LineAddr(i), hour).new_ue as u32;
        }
        assert!(
            strong_ues * 4 < weak_ues.max(4),
            "BCH-6 ({strong_ues}) should beat SECDED ({weak_ues})"
        );
    }

    #[test]
    fn writeback_clears_soft_errors() {
        let mut m = mem(CodeSpec::bch_line(4));
        let day = SimTime::from_secs(86_400.0);
        let a = LineAddr(7);
        let before = m.scrub_probe(a, day);
        assert!(before.persistent_bits > 0);
        m.scrub_writeback(a, day);
        let after = m.scrub_probe(a, day + 1.0);
        assert_eq!(after.persistent_bits, 0);
        assert_eq!(m.stats().scrub_writebacks, 1);
    }

    #[test]
    fn ue_deduplicated_per_epoch() {
        let mut m = mem(CodeSpec::secded_line());
        let week = SimTime::from_secs(604_800.0);
        // Find a UE line, then probe it again: no double count.
        let mut target = None;
        for i in 0..256 {
            if m.scrub_probe(LineAddr(i), week).new_ue {
                target = Some(LineAddr(i));
                break;
            }
        }
        let t = target.expect("some line must be uncorrectable after a week");
        let ue_before = m.stats().uncorrectable();
        let again = m.scrub_probe(t, week + 10.0);
        assert!(!again.new_ue);
        assert_eq!(m.stats().uncorrectable(), ue_before);
        // After a write-back the epoch resets and a future UE counts anew.
        m.scrub_writeback(t, week + 20.0);
        assert!(!m.line(t).ue_recorded);
    }

    #[test]
    fn energy_flows_to_right_buckets() {
        let mut m = mem(CodeSpec::bch_line(2));
        let t = SimTime::from_secs(10.0);
        m.demand_read(LineAddr(0), t);
        m.demand_write(LineAddr(1), t);
        m.scrub_probe(LineAddr(2), t);
        m.scrub_writeback(LineAddr(3), t);
        assert!(m.energy().demand_total_pj() > 0.0);
        assert!(m.energy().scrub_total_pj() > 0.0);
        assert!(m.energy().scrub_writeback_pj() > m.energy().scrub_probe_pj());
    }

    #[test]
    fn wear_tracks_writes() {
        let mut m = mem(CodeSpec::bch_line(2));
        for _ in 0..10 {
            m.demand_write(LineAddr(5), SimTime::from_secs(1.0));
        }
        assert_eq!(m.line(LineAddr(5)).wear, 11); // 1 initial + 10 demand
        assert_eq!(m.max_wear(), 11);
        assert!(m.mean_wear() > 1.0);
    }

    #[test]
    #[should_panic(expected = "out of demand range")]
    fn read_out_of_range_panics() {
        let mut m = mem(CodeSpec::bch_line(2));
        m.demand_read(LineAddr(9999), SimTime::from_secs(1.0));
    }

    #[test]
    fn crc_probe_mode_saves_decode_energy_on_clean_lines() {
        let t = SimTime::from_secs(1.0); // fresh memory: everything clean
        let mut full = mem(CodeSpec::bch_line(6));
        let mut cheap = mem(CodeSpec::bch_line(6));
        cheap.set_probe_kind(ProbeKind::CrcThenDecode);
        for i in 0..256 {
            full.scrub_probe(LineAddr(i), t);
            cheap.scrub_probe(LineAddr(i), t);
        }
        assert!(
            cheap.energy().scrub_decode_pj() < full.energy().scrub_decode_pj() / 3.0,
            "crc {} vs full {}",
            cheap.energy().scrub_decode_pj(),
            full.energy().scrub_decode_pj()
        );
    }

    #[test]
    fn crc_probe_mode_pays_decode_on_dirty_lines() {
        let week = SimTime::from_secs(604_800.0); // heavily drifted
        let mut m = mem(CodeSpec::bch_line(6));
        m.set_probe_kind(ProbeKind::CrcThenDecode);
        let crc_only = m.device().energy().crc_check_pj;
        for i in 0..256 {
            m.scrub_probe(LineAddr(i), week);
        }
        // Most week-old lines are dirty: decode energy well above CRC-only.
        assert!(m.energy().scrub_decode_pj() > crc_only * 256.0 * 2.0);
    }

    #[test]
    fn wear_leveling_shrinks_demand_space_and_rotates() {
        let mut m = mem(CodeSpec::bch_line(2));
        m.enable_wear_leveling(4);
        assert_eq!(m.demand_lines(), 255);
        for i in 0..40u32 {
            m.demand_write(LineAddr(0), SimTime::from_secs(i as f64));
        }
        // 40 demand writes at period 4 => 10 rotation copies.
        assert_eq!(m.stats().wear_level_writes, 10);
        assert_eq!(m.stats().demand_writes, 40);
    }

    #[test]
    fn wear_leveling_spreads_hot_line_wear() {
        let horizon = 4000u32;
        // Without leveling: all wear lands on one physical line.
        let mut plain = mem(CodeSpec::bch_line(2));
        for i in 0..horizon {
            plain.demand_write(LineAddr(7), SimTime::from_secs(i as f64));
        }
        // With leveling (fast rotation for test speed): wear spreads.
        let mut leveled = mem(CodeSpec::bch_line(2));
        leveled.enable_wear_leveling(2);
        for i in 0..horizon {
            leveled.demand_write(LineAddr(7), SimTime::from_secs(i as f64));
        }
        assert!(
            (leveled.max_wear() as f64) < plain.max_wear() as f64 * 0.5,
            "leveled max wear {} vs plain {}",
            leveled.max_wear(),
            plain.max_wear()
        );
    }

    #[test]
    #[should_panic(expected = "out of demand range")]
    fn wear_leveling_rejects_the_sacrificed_line() {
        let mut m = mem(CodeSpec::bch_line(2));
        m.enable_wear_leveling(4);
        m.demand_read(LineAddr(255), SimTime::from_secs(1.0));
    }

    #[test]
    fn bank_streams_are_independent_of_touch_order() {
        // Probing lines in different global orders must give identical
        // per-line results, because draws are keyed to banks, not to
        // execution order. Line 0 and line 1 live in different banks.
        let day = SimTime::from_secs(86_400.0);
        let mut fwd = mem(CodeSpec::bch_line(4));
        let r0_fwd = fwd.scrub_probe(LineAddr(0), day);
        let r1_fwd = fwd.scrub_probe(LineAddr(1), day);
        let mut rev = mem(CodeSpec::bch_line(4));
        let r1_rev = rev.scrub_probe(LineAddr(1), day);
        let r0_rev = rev.scrub_probe(LineAddr(0), day);
        assert_eq!(r0_fwd, r0_rev);
        assert_eq!(r1_fwd, r1_rev);
    }

    fn checkpointable_mem(spec: &CampaignSpec) -> Memory {
        let mut m = Memory::new(
            MemGeometry::new(256, 4),
            DeviceConfig::default(),
            CodeSpec::bch_line(4),
            61,
        );
        m.enable_wear_leveling(16);
        m.attach_campaign(spec);
        m.enable_repair(RepairConfig::default());
        m.enable_ue_recovery(RecoveryConfig::default());
        m
    }

    #[test]
    fn checkpoint_round_trip_restores_every_ledger() {
        let spec: CampaignSpec = "seed=9;stuck=lines:32,cells:3".parse().unwrap();
        let mut original = checkpointable_mem(&spec);
        // Drive traffic so every ledger, RNG stream, and the start-gap
        // mapper have moved off their construction values.
        let n = original.demand_lines();
        for i in 0..256u32 {
            original.demand_write(LineAddr(i % n), SimTime::from_secs(i as f64));
        }
        for i in 0..256u32 {
            original.scrub_probe(LineAddr(i % n), SimTime::from_secs(300.0 + i as f64));
        }
        let mut w = Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut resumed = checkpointable_mem(&spec);
        let mut r = Reader::new(&bytes);
        resumed.restore_state(&mut r).unwrap();
        r.finish().unwrap();

        // Re-snapshotting the restored memory must reproduce the bytes…
        let mut w2 = Writer::new();
        resumed.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "snapshot not idempotent");
        // …and the two memories must behave identically afterwards.
        for i in 0..64u32 {
            let t = SimTime::from_secs(700.0 + i as f64);
            assert_eq!(
                original.demand_read(LineAddr(i), t),
                resumed.demand_read(LineAddr(i), t),
                "divergence at line {i}"
            );
        }
        assert_eq!(original.stats(), resumed.stats());
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let spec: CampaignSpec = "seed=9;stuck=lines:32,cells:3".parse().unwrap();
        let m = checkpointable_mem(&spec);
        let mut w = Writer::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        // Different bank count.
        let mut other = Memory::new(
            MemGeometry::new(256, 8),
            DeviceConfig::default(),
            CodeSpec::bch_line(4),
            61,
        );
        other.enable_wear_leveling(16);
        other.enable_repair(RepairConfig::default());
        let err = other.restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");

        // No wear leveler configured.
        let mut other = Memory::new(
            MemGeometry::new(256, 4),
            DeviceConfig::default(),
            CodeSpec::bch_line(4),
            61,
        );
        other.enable_repair(RepairConfig::default());
        let err = other.restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn restore_checks_the_line_count_before_allocating() {
        let spec: CampaignSpec = "seed=9;stuck=lines:32,cells:3".parse().unwrap();
        let mut w = Writer::new();
        checkpointable_mem(&spec).save_state(&mut w);
        let bytes = w.into_bytes();
        // Bank 0's line count follows the wear-leveler flag and its three
        // u32s, the bank count and the bank's four RNG words. 64 lines and
        // a pool of 4 spares admit 64..=68.
        let at = 1 + 12 + 4 + 32;
        assert_eq!(bytes[at..at + 4], 64u32.to_le_bytes());
        for (count, ok) in [(63u32, false), (69, false), (u32::MAX, false), (64, true)] {
            let mut damaged = bytes.clone();
            damaged[at..at + 4].copy_from_slice(&count.to_le_bytes());
            let result = checkpointable_mem(&spec).restore_state(&mut Reader::new(&damaged));
            match result {
                Err(CheckpointError::Malformed(msg)) => {
                    assert!(!ok && msg.contains("a pool of 4 spares"), "{count}: {msg}")
                }
                other => assert!(ok && other.is_ok(), "{count}: {other:?}"),
            }
        }
    }

    #[test]
    fn tripwire_save_variant_differs_only_in_bank0_rng() {
        let spec: CampaignSpec = "seed=9;stuck=lines:32,cells:3".parse().unwrap();
        let mut m = checkpointable_mem(&spec);
        for i in 0..64u32 {
            m.demand_write(LineAddr(i), SimTime::from_secs(i as f64));
        }
        let mut honest = Writer::new();
        m.save_state(&mut honest);
        let honest = honest.into_bytes();
        let mut lying = Writer::new();
        m.save_state_omitting_bank0_rng(&mut lying);
        let lying = lying.into_bytes();
        assert_eq!(honest.len(), lying.len(), "hook must not change layout");
        assert_ne!(honest, lying, "hook must actually drop bank 0's RNG");
    }
}
