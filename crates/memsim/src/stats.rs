//! Event counters for everything the experiments report.

/// Counters accumulated by a [`crate::Memory`] over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Demand line reads served.
    pub demand_reads: u64,
    /// Demand line writes served.
    pub demand_writes: u64,
    /// Scrub probes (read + syndrome check) issued.
    pub scrub_probes: u64,
    /// Scrub write-backs (corrective rewrites) issued.
    pub scrub_writebacks: u64,
    /// Total bit errors corrected by ECC across all decodes.
    pub corrected_bits: u64,
    /// Detected-uncorrectable error events (deduplicated per line per
    /// write epoch).
    pub detected_ue: u64,
    /// Silent-miscorrection events (deduplicated likewise).
    pub miscorrections: u64,
    /// Uncorrectable errors first encountered by *demand* reads — the ones
    /// a running program actually consumes.
    pub demand_ue: u64,
    /// Lines that currently contain at least one permanently worn cell.
    pub lines_with_worn_cells: u64,
    /// Extra line writes issued by the wear-leveling rotation copies.
    pub wear_level_writes: u64,
    /// Lines patched by assigning ECP entries (repair hierarchy stage 1).
    pub ecp_repairs: u64,
    /// Individual stuck cells covered by ECP entries.
    pub ecp_cells_patched: u64,
    /// Lines retired into the spare pool (repair hierarchy stage 2).
    pub lines_retired: u64,
    /// Uncorrectable errors the repair hierarchy could not absorb
    /// (stage 3: bank degraded).
    pub unrepairable_ue: u64,
    /// Failed decodes recovered by the shifted-threshold retry path.
    pub recovered_ue: u64,
}

impl MemStats {
    /// All uncorrectable-error events (DUE + SDC).
    pub fn uncorrectable(&self) -> u64 {
        self.detected_ue + self.miscorrections
    }

    /// Folds another counter set into this one (merging per-bank shards).
    pub fn absorb(&mut self, other: &MemStats) {
        self.demand_reads += other.demand_reads;
        self.demand_writes += other.demand_writes;
        self.scrub_probes += other.scrub_probes;
        self.scrub_writebacks += other.scrub_writebacks;
        self.corrected_bits += other.corrected_bits;
        self.detected_ue += other.detected_ue;
        self.miscorrections += other.miscorrections;
        self.demand_ue += other.demand_ue;
        self.lines_with_worn_cells += other.lines_with_worn_cells;
        self.wear_level_writes += other.wear_level_writes;
        self.ecp_repairs += other.ecp_repairs;
        self.ecp_cells_patched += other.ecp_cells_patched;
        self.lines_retired += other.lines_retired;
        self.unrepairable_ue += other.unrepairable_ue;
        self.recovered_ue += other.recovered_ue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = MemStats {
            detected_ue: 3,
            miscorrections: 2,
            demand_writes: 10,
            scrub_writebacks: 5,
            ..MemStats::default()
        };
        assert_eq!(s.uncorrectable(), 5);
    }
}
