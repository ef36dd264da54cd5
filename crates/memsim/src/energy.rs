//! Energy accounting, split by traffic class so "scrub energy" can be
//! reported exactly as the paper does.

/// Running energy totals in picojoules.
///
/// # Examples
///
/// ```
/// use pcm_memsim::EnergyLedger;
/// let mut e = EnergyLedger::default();
/// e.add_scrub_probe(100.0);
/// e.add_scrub_writeback(500.0);
/// assert_eq!(e.scrub_total_pj(), 600.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    demand_read_pj: f64,
    demand_write_pj: f64,
    demand_decode_pj: f64,
    scrub_probe_pj: f64,
    scrub_writeback_pj: f64,
    scrub_decode_pj: f64,
}

impl EnergyLedger {
    /// Adds demand-read array energy.
    pub fn add_demand_read(&mut self, pj: f64) {
        self.demand_read_pj += pj;
    }

    /// Adds demand-write array energy.
    pub fn add_demand_write(&mut self, pj: f64) {
        self.demand_write_pj += pj;
    }

    /// Adds decode energy attributed to demand traffic.
    pub fn add_demand_decode(&mut self, pj: f64) {
        self.demand_decode_pj += pj;
    }

    /// Adds scrub-probe (read) array energy.
    pub fn add_scrub_probe(&mut self, pj: f64) {
        self.scrub_probe_pj += pj;
    }

    /// Adds scrub write-back array energy.
    pub fn add_scrub_writeback(&mut self, pj: f64) {
        self.scrub_writeback_pj += pj;
    }

    /// Adds decode energy attributed to scrubbing.
    pub fn add_scrub_decode(&mut self, pj: f64) {
        self.scrub_decode_pj += pj;
    }

    /// Scrub-attributed total (probes + write-backs + decode): the
    /// quantity the paper's "scrub energy" reductions refer to.
    pub fn scrub_total_pj(&self) -> f64 {
        self.scrub_probe_pj + self.scrub_writeback_pj + self.scrub_decode_pj
    }

    /// Demand-attributed total.
    pub fn demand_total_pj(&self) -> f64 {
        self.demand_read_pj + self.demand_write_pj + self.demand_decode_pj
    }

    /// Scrub probe (read) component.
    pub fn scrub_probe_pj(&self) -> f64 {
        self.scrub_probe_pj
    }

    /// Scrub write-back component.
    pub fn scrub_writeback_pj(&self) -> f64 {
        self.scrub_writeback_pj
    }

    /// Scrub decode component.
    pub fn scrub_decode_pj(&self) -> f64 {
        self.scrub_decode_pj
    }

    /// The six raw components in declaration order (demand read / write /
    /// decode, scrub probe / write-back / decode), for checkpointing.
    pub fn components(&self) -> [f64; 6] {
        [
            self.demand_read_pj,
            self.demand_write_pj,
            self.demand_decode_pj,
            self.scrub_probe_pj,
            self.scrub_writeback_pj,
            self.scrub_decode_pj,
        ]
    }

    /// Rebuilds a ledger from [`EnergyLedger::components`] output,
    /// bit-exactly.
    pub fn from_components(c: [f64; 6]) -> Self {
        Self {
            demand_read_pj: c[0],
            demand_write_pj: c[1],
            demand_decode_pj: c[2],
            scrub_probe_pj: c[3],
            scrub_writeback_pj: c[4],
            scrub_decode_pj: c[5],
        }
    }

    /// Folds another ledger into this one (merging per-bank shards). Call
    /// in a fixed shard order: float addition is not associative, so the
    /// merge order is part of the determinism contract.
    pub fn absorb(&mut self, other: &EnergyLedger) {
        self.demand_read_pj += other.demand_read_pj;
        self.demand_write_pj += other.demand_write_pj;
        self.demand_decode_pj += other.demand_decode_pj;
        self.scrub_probe_pj += other.scrub_probe_pj;
        self.scrub_writeback_pj += other.scrub_writeback_pj;
        self.scrub_decode_pj += other.scrub_decode_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_conserve_components() {
        let mut e = EnergyLedger::default();
        e.add_demand_read(1.0);
        e.add_demand_write(2.0);
        e.add_demand_decode(3.0);
        e.add_scrub_probe(4.0);
        e.add_scrub_writeback(5.0);
        e.add_scrub_decode(6.0);
        assert_eq!(e.demand_total_pj(), 6.0);
        assert_eq!(e.scrub_total_pj(), 15.0);
    }

    #[test]
    fn default_is_zero() {
        let e = EnergyLedger::default();
        assert_eq!(e.demand_total_pj() + e.scrub_total_pj(), 0.0);
    }
}
