//! Cell-exact Monte-Carlo arrays for validating the analytic model.

use rand::Rng;
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::cell::Cell;
use crate::device::DeviceConfig;
use crate::threshold::Thresholds;

/// A small array of cell-exact PCM cells.
///
/// This is the ground-truth model: every cell carries its own programming
/// noise, drift exponent, and wear. Experiment E1 compares its measured
/// misread rates against [`crate::DriftModel`]'s analytic predictions.
///
/// # Examples
///
/// ```
/// use pcm_model::{CellArray, DeviceConfig};
/// use rand::SeedableRng;
/// let dev = DeviceConfig::default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let mut arr = CellArray::new(dev, 1024);
/// arr.program_uniform(0.0, &mut rng);
/// let report = arr.read_all(1.0, &mut rng);
/// assert_eq!(report.cells_read, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CellArray {
    dev: DeviceConfig,
    thresholds: Thresholds,
    cells: Vec<Cell>,
}

/// Result of reading an entire array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArrayReadReport {
    /// Cells sensed.
    pub cells_read: usize,
    /// Cells whose sensed level differed from the programmed level.
    pub cell_misreads: usize,
    /// Total data-bit errors implied by the misreads (Gray-coded).
    pub bit_errors: u64,
    /// Cells that are permanently stuck.
    pub stuck_cells: usize,
}

impl CellArray {
    /// Allocates `n` fresh cells of the given device.
    pub fn new(dev: DeviceConfig, n: usize) -> Self {
        let thresholds = dev.thresholds();
        Self {
            dev,
            thresholds,
            cells: vec![Cell::new(); n],
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The device configuration in force.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Serializes every cell's drift state for checkpointing. The device
    /// config and thresholds are configuration, rebuilt by the resuming
    /// run.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u32(self.cells.len() as u32);
        for c in &self.cells {
            c.save_state(w);
        }
    }

    /// Restores state captured by [`CellArray::save_state`] onto an array
    /// of the same size and device.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = r.u32()? as usize;
        if n != self.cells.len() {
            return Err(CheckpointError::Malformed(format!(
                "cell count mismatch: snapshot {n}, array {}",
                self.cells.len()
            )));
        }
        let num_levels = self.dev.stack().num_levels();
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(Cell::restore_state(r, num_levels)?);
        }
        self.cells = cells;
        Ok(())
    }

    /// Programs every cell to `level` at time `now_s`.
    pub fn program_all<R: Rng + ?Sized>(&mut self, level: usize, now_s: f64, rng: &mut R) {
        for c in &mut self.cells {
            c.write(level, now_s, &self.dev, rng);
        }
    }

    /// Programs every cell to an independently uniform random level
    /// (the random-data assumption used by the analytic model).
    pub fn program_uniform<R: Rng + ?Sized>(&mut self, now_s: f64, rng: &mut R) {
        let n_levels = self.dev.stack().num_levels();
        for c in &mut self.cells {
            let lv = rng.gen_range(0..n_levels);
            c.write(lv, now_s, &self.dev, rng);
        }
    }

    /// Senses every cell at `now_s` and tallies misreads against the
    /// programmed levels.
    pub fn read_all<R: Rng + ?Sized>(&self, now_s: f64, rng: &mut R) -> ArrayReadReport {
        let stack = self.dev.stack();
        let mut report = ArrayReadReport {
            cells_read: self.cells.len(),
            ..ArrayReadReport::default()
        };
        for c in &self.cells {
            let observed = c.read(now_s, &self.dev, &self.thresholds, rng);
            let actual = c.programmed_level();
            if observed != actual {
                report.cell_misreads += 1;
                report.bit_errors += u64::from(stack.bit_errors(actual, observed));
            }
            if c.stuck_at().is_some() {
                report.stuck_cells += 1;
            }
        }
        report
    }

    /// Measured misread fraction for cells programmed to `level` when read
    /// at `now_s` (Monte-Carlo estimate of `DriftModel::p_misread`).
    pub fn misread_fraction_for_level<R: Rng + ?Sized>(
        &self,
        level: usize,
        now_s: f64,
        rng: &mut R,
    ) -> f64 {
        let mut total = 0usize;
        let mut miss = 0usize;
        for c in &self.cells {
            if c.programmed_level() != level {
                continue;
            }
            total += 1;
            if c.read(now_s, &self.dev, &self.thresholds, rng) != level {
                miss += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        }
    }

    /// Access to the raw cells (for tests and custom experiments).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn monte_carlo_matches_analytic_model() {
        // The keystone validation: MC misread rates track DriftModel.
        let dev = DeviceConfig::default();
        let model = dev.drift_model();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 40_000;
        for (level, t) in [(2usize, 3600.0f64), (1, 86_400.0), (2, 86_400.0)] {
            let mut arr = CellArray::new(dev.clone(), n);
            arr.program_all(level, 0.0, &mut rng);
            let mc = arr.misread_fraction_for_level(level, t, &mut rng);
            let analytic = model.p_misread(level, t);
            // Binomial noise: tolerate 5 sigma plus small model residue.
            let sd = (analytic * (1.0 - analytic) / n as f64).sqrt();
            let tol = 5.0 * sd + 0.1 * analytic + 2e-4;
            assert!(
                (mc - analytic).abs() < tol,
                "level {level} t {t}: MC {mc} vs analytic {analytic} (tol {tol})"
            );
        }
    }

    #[test]
    fn uniform_programming_covers_levels() {
        let dev = DeviceConfig::default();
        let mut rng = StdRng::seed_from_u64(78);
        let mut arr = CellArray::new(dev, 4000);
        arr.program_uniform(0.0, &mut rng);
        let mut counts = [0usize; 4];
        for c in arr.cells() {
            counts[c.programmed_level()] += 1;
        }
        for (lv, &k) in counts.iter().enumerate() {
            assert!(k > 800, "level {lv} only {k}/4000");
        }
    }

    #[test]
    fn errors_grow_with_age() {
        let dev = DeviceConfig::default();
        let mut rng = StdRng::seed_from_u64(79);
        let mut arr = CellArray::new(dev, 20_000);
        arr.program_uniform(0.0, &mut rng);
        let early = arr.read_all(1.0, &mut rng);
        let late = arr.read_all(604_800.0, &mut rng); // one week
        assert!(
            late.cell_misreads > early.cell_misreads * 5,
            "early {} late {}",
            early.cell_misreads,
            late.cell_misreads
        );
    }

    #[test]
    fn stuck_cells_accounting_matches_cell_state() {
        // Hammer a low-endurance array until a meaningful fraction of
        // cells wear out, then check the report's stuck_cells tally
        // against the ground truth visible through `Cell::stuck_at`.
        let dev = DeviceConfig::builder()
            .endurance(crate::EnduranceSpec::new(40.0, 0.3))
            .build();
        let mut rng = StdRng::seed_from_u64(81);
        let n = 2000;
        let mut arr = CellArray::new(dev, n);
        let mut prev_stuck = 0usize;
        for round in 0..120u32 {
            arr.program_uniform(round as f64, &mut rng);
            let report = arr.read_all(round as f64 + 0.5, &mut rng);
            let truth = arr
                .cells()
                .iter()
                .filter(|c| c.stuck_at().is_some())
                .count();
            assert_eq!(report.stuck_cells, truth, "round {round}");
            // Stuck cells never recover: the tally is monotone.
            assert!(report.stuck_cells >= prev_stuck, "round {round}");
            prev_stuck = report.stuck_cells;
        }
        // Median endurance 40 with 120 writes: nearly everything is dead.
        assert!(
            prev_stuck > n * 9 / 10,
            "only {prev_stuck}/{n} stuck after 120 writes at median-40 endurance"
        );
    }

    #[test]
    fn extreme_endurance_kills_everything_immediately() {
        // median_writes near 1 with a tight sigma: the second write already
        // exceeds almost every cell's sampled limit, and the report must
        // count every such cell exactly once (no double counting).
        let dev = DeviceConfig::builder()
            .endurance(crate::EnduranceSpec::new(1.01, 0.01))
            .build();
        let mut rng = StdRng::seed_from_u64(82);
        let n = 500;
        let mut arr = CellArray::new(dev, n);
        arr.program_all(2, 0.0, &mut rng);
        arr.program_all(1, 1.0, &mut rng);
        arr.program_all(3, 2.0, &mut rng);
        let report = arr.read_all(2.5, &mut rng);
        assert_eq!(report.cells_read, n);
        assert!(
            report.stuck_cells > n * 9 / 10,
            "only {}/{n} stuck under near-unit endurance",
            report.stuck_cells
        );
        // A dead cell froze at its level of death and ignores later writes,
        // so its recorded programmed level must equal its stuck level and
        // its wear must still count every attempted write.
        for c in arr.cells() {
            if let Some(lv) = c.stuck_at() {
                assert_eq!(lv, c.programmed_level());
            }
            assert_eq!(c.wear(), 3);
        }
    }

    #[test]
    fn checkpoint_round_trip_preserves_drift_state() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut arr = CellArray::new(DeviceConfig::default(), 64);
        arr.program_uniform(5.0, &mut rng);
        let mut w = Writer::new();
        arr.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = CellArray::new(DeviceConfig::default(), 64);
        let mut r = Reader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(arr.cells(), restored.cells());

        // Re-snapshot is byte-identical.
        let mut w2 = Writer::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Size mismatch is a typed error, not a panic.
        let mut wrong = CellArray::new(DeviceConfig::default(), 32);
        assert!(wrong.restore_state(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn empty_array() {
        let arr = CellArray::new(DeviceConfig::default(), 0);
        assert!(arr.is_empty());
        let mut rng = StdRng::seed_from_u64(80);
        let r = arr.read_all(10.0, &mut rng);
        assert_eq!(r.cells_read, 0);
        assert_eq!(r.cell_misreads, 0);
    }
}
