//! Typed counters and gauges: fixed enums, so every metric has one
//! canonical name, one storage slot, and no string hashing on the hot
//! path.

/// Monotonic event counters, one slot per variant. Additions are relaxed
/// atomic adds, so totals are exact and independent of thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Demand line reads served by the memory.
    DemandReads,
    /// Demand line writes served by the memory.
    DemandWrites,
    /// Scrub probes (read + syndrome check) issued by the memory.
    ScrubProbes,
    /// Scrub write-backs issued by the memory.
    ScrubWritebacks,
    /// Bit errors corrected by ECC across all decodes.
    CorrectedBits,
    /// Detected-uncorrectable error events.
    DetectedUe,
    /// Silent-miscorrection events.
    Miscorrections,
    /// Uncorrectable errors first hit by demand reads.
    DemandUe,
    /// Wear-leveling rotation copies.
    WearLevelWrites,
    /// Engine slots spent probing.
    EngineProbeSlots,
    /// Engine slots spent idle.
    EngineIdleSlots,
    /// Write-backs requested by policy decisions.
    EnginePolicyWritebacks,
    /// Write-backs forced by uncorrectable outcomes.
    EngineForcedWritebacks,
    /// Demand-write notifications forwarded to policies.
    DemandWriteNotifies,
    /// Adaptive-region passes completed.
    RegionPasses,
    /// Adaptive-region interval halvings (error pressure).
    RegionSpeedups,
    /// Adaptive-region interval doublings (clean passes).
    RegionSlowdowns,
    /// Parallel pool invocations.
    ExecPools,
    /// Tasks executed by pool workers (the inline path counts none).
    ExecTasks,
    /// Lines patched by assigning ECP entries to stuck cells.
    EcpRepairs,
    /// Individual stuck cells patched by ECP entries.
    EcpCellsPatched,
    /// Lines retired into the spare pool.
    LinesRetired,
    /// Uncorrectable errors the repair hierarchy could not absorb.
    UnrepairableUe,
    /// Failed decodes recovered by the shifted-threshold retry path.
    UeRecoveries,
    /// Fault-campaign boundaries crossed (SEU window end, burst,
    /// intermittent period) — identical under both simulation cores.
    CampaignBoundaries,
    /// Scrub slots deferred because the IOPS token bucket was empty.
    BudgetThrottled,
    /// Probes forced by the anti-starvation boost after `max_defer`
    /// consecutive throttled slots.
    BudgetForcedProbes,
    /// Complete tours (every line probed once) finished by a tour policy.
    ToursCompleted,
    /// Probes of lines resident in the profiler's risk table at probe
    /// time that reported a nonzero persistent error count (the profile
    /// predicted correctly).
    ProfilerHits,
    /// Probes of profiled lines that came back clean (stale profile).
    ProfilerMisses,
    /// Risk-table evictions (lowest-score entry displaced at capacity).
    ProfilerEvictions,
    /// Extra probes granted to hot lines by the profiler's interleave.
    ProfilerHotProbes,
    /// Probes issued by a profiled policy that found at least one
    /// persistent error (profiled or not) — the base dirty rate the
    /// profiler's hit rate is judged against.
    ProfilerDirtyProbes,
}

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; 33] = [
        Counter::DemandReads,
        Counter::DemandWrites,
        Counter::ScrubProbes,
        Counter::ScrubWritebacks,
        Counter::CorrectedBits,
        Counter::DetectedUe,
        Counter::Miscorrections,
        Counter::DemandUe,
        Counter::WearLevelWrites,
        Counter::EngineProbeSlots,
        Counter::EngineIdleSlots,
        Counter::EnginePolicyWritebacks,
        Counter::EngineForcedWritebacks,
        Counter::DemandWriteNotifies,
        Counter::RegionPasses,
        Counter::RegionSpeedups,
        Counter::RegionSlowdowns,
        Counter::ExecPools,
        Counter::ExecTasks,
        Counter::EcpRepairs,
        Counter::EcpCellsPatched,
        Counter::LinesRetired,
        Counter::UnrepairableUe,
        Counter::UeRecoveries,
        Counter::CampaignBoundaries,
        Counter::BudgetThrottled,
        Counter::BudgetForcedProbes,
        Counter::ToursCompleted,
        Counter::ProfilerHits,
        Counter::ProfilerMisses,
        Counter::ProfilerEvictions,
        Counter::ProfilerHotProbes,
        Counter::ProfilerDirtyProbes,
    ];

    /// Number of counter slots.
    pub const COUNT: usize = Counter::ALL.len();

    /// The canonical (JSON) name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DemandReads => "demand_reads",
            Counter::DemandWrites => "demand_writes",
            Counter::ScrubProbes => "scrub_probes",
            Counter::ScrubWritebacks => "scrub_writebacks",
            Counter::CorrectedBits => "corrected_bits",
            Counter::DetectedUe => "detected_ue",
            Counter::Miscorrections => "miscorrections",
            Counter::DemandUe => "demand_ue",
            Counter::WearLevelWrites => "wear_level_writes",
            Counter::EngineProbeSlots => "engine_probe_slots",
            Counter::EngineIdleSlots => "engine_idle_slots",
            Counter::EnginePolicyWritebacks => "engine_policy_writebacks",
            Counter::EngineForcedWritebacks => "engine_forced_writebacks",
            Counter::DemandWriteNotifies => "demand_write_notifies",
            Counter::RegionPasses => "region_passes",
            Counter::RegionSpeedups => "region_speedups",
            Counter::RegionSlowdowns => "region_slowdowns",
            Counter::ExecPools => "exec_pools",
            Counter::ExecTasks => "exec_tasks",
            Counter::EcpRepairs => "ecp_repairs",
            Counter::EcpCellsPatched => "ecp_cells_patched",
            Counter::LinesRetired => "lines_retired",
            Counter::UnrepairableUe => "unrepairable_ue",
            Counter::UeRecoveries => "ue_recoveries",
            Counter::CampaignBoundaries => "campaign_boundaries",
            Counter::BudgetThrottled => "budget_throttled",
            Counter::BudgetForcedProbes => "budget_forced_probes",
            Counter::ToursCompleted => "tours_completed",
            Counter::ProfilerHits => "profiler_hits",
            Counter::ProfilerMisses => "profiler_misses",
            Counter::ProfilerEvictions => "profiler_evictions",
            Counter::ProfilerHotProbes => "profiler_hot_probes",
            Counter::ProfilerDirtyProbes => "profiler_dirty_probes",
        }
    }
}

/// High-water-mark gauges: `record` keeps the maximum value observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Largest job list handed to one pool invocation.
    ExecJobsHighWater,
    /// Largest worker count spawned by one pool invocation.
    ExecWorkersHighWater,
    /// Longest observed tour (in scrub slots) for a budgeted tour policy;
    /// the `ScrubProgress` bound caps this at `lines * (max_defer + 1)`.
    StarvationMaxLag,
    /// Largest number of lines resident in a profiler's risk table.
    ProfilerOccupancy,
}

impl Gauge {
    /// Every gauge, in slot order.
    pub const ALL: [Gauge; 4] = [
        Gauge::ExecJobsHighWater,
        Gauge::ExecWorkersHighWater,
        Gauge::StarvationMaxLag,
        Gauge::ProfilerOccupancy,
    ];

    /// Number of gauge slots.
    pub const COUNT: usize = Gauge::ALL.len();

    /// The canonical (JSON) name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ExecJobsHighWater => "exec_jobs_high_water",
            Gauge::ExecWorkersHighWater => "exec_workers_high_water",
            Gauge::StarvationMaxLag => "starvation_max_lag",
            Gauge::ProfilerOccupancy => "profiler_occupancy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counter_slots_and_names_are_unique() {
        let names: HashSet<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        let slots: HashSet<usize> = Counter::ALL.iter().map(|&c| c as usize).collect();
        assert_eq!(slots.len(), Counter::COUNT);
        assert_eq!(slots.iter().max(), Some(&(Counter::COUNT - 1)));
    }

    #[test]
    fn gauge_slots_and_names_are_unique() {
        let names: HashSet<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        assert_eq!(names.len(), Gauge::COUNT);
    }
}
