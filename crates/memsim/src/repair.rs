//! The graceful-degradation repair hierarchy.
//!
//! When a line produces a *new* uncorrectable error, the memory escalates
//! through three stages instead of only counting it:
//!
//! 1. **ECP sparing** — each line carries `ecp_entries_per_line`
//!    error-correction-pointer entries; if the free entries cover every
//!    unpatched stuck cell, they are assigned and the line's stuck-cell
//!    conflicts vanish permanently (the pointers hold the correct values).
//! 2. **Line retirement** — otherwise the line is retired into the bank's
//!    spare pool: a fresh spare replaces it behind a remap table, and
//!    every future access to the address lands on the spare. Retirement
//!    coexists with Start-Gap wear leveling, which permutes *demand*
//!    addresses above this layer.
//! 3. **Bank-degraded mode** — when the spare pool is exhausted the bank
//!    degrades: further unrepairable errors are counted (and the time of
//!    the first one recorded), modelling the end of the device's
//!    serviceable life.
//!
//! All state lives per bank shard, so repair decisions stay independent
//! of the order in which banks are touched: they depend only on the
//! bank's own line states and RNG stream.

use std::collections::HashMap;

/// Configuration of the repair hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// ECP entries available per line (ECP-6 in the literature).
    pub ecp_entries_per_line: u16,
    /// Spare lines each bank may retire into.
    pub spare_lines_per_bank: u32,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            ecp_entries_per_line: 6,
            spare_lines_per_bank: 4,
        }
    }
}

/// Configuration of the shifted-threshold UE recovery retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Probability an individual drift-failed bit reads back correctly
    /// when the read is retried with shifted sense thresholds (the
    /// lightweight-detection idea: drifted cells sit just past the
    /// boundary, so a shifted reference recovers most of them).
    pub recover_prob: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { recover_prob: 0.9 }
    }
}

impl RecoveryConfig {
    /// Validates the probability is in `[0, 1]`.
    pub fn validated(self) -> Result<Self, String> {
        if self.recover_prob.is_finite() && (0.0..=1.0).contains(&self.recover_prob) {
            Ok(self)
        } else {
            Err(format!(
                "recover_prob must be in [0, 1], got {}",
                self.recover_prob
            ))
        }
    }
}

/// Per-bank repair state: spare accounting, the retirement remap table,
/// and degradation bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct RepairState {
    pub(crate) config: RepairConfig,
    pub(crate) bank: u32,
    /// Spares consumed so far.
    pub(crate) spares_used: u32,
    /// Original slot → replacement slot (the newest spare serving it).
    pub(crate) remap: HashMap<u32, u32>,
    /// Whether the bank has exhausted its spares.
    pub(crate) degraded: bool,
    /// Simulated time of the bank's first unrepairable error.
    pub(crate) first_unrepairable_s: Option<f64>,
    /// Unrepairable errors seen by this bank.
    pub(crate) unrepairable: u64,
}

impl RepairState {
    pub(crate) fn new(config: RepairConfig, bank: u32) -> Self {
        Self {
            config,
            bank,
            spares_used: 0,
            remap: HashMap::new(),
            degraded: false,
            first_unrepairable_s: None,
            unrepairable: 0,
        }
    }

    /// Resolves an original slot through the retirement remap.
    pub(crate) fn resolve(&self, slot: usize) -> usize {
        match self.remap.get(&(slot as u32)) {
            Some(&s) => s as usize,
            None => slot,
        }
    }

    /// Whether a spare is still available.
    pub(crate) fn spare_available(&self) -> bool {
        self.spares_used < self.config.spare_lines_per_bank
    }

    /// Records an unrepairable error at `now_s`; returns whether this is
    /// the bank's transition into degraded mode.
    pub(crate) fn record_unrepairable(&mut self, now_s: f64) -> bool {
        self.unrepairable += 1;
        let first_for_bank = !self.degraded;
        self.degraded = true;
        if self.first_unrepairable_s.is_none() {
            self.first_unrepairable_s = Some(now_s);
        }
        first_for_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_follows_remap() {
        let mut r = RepairState::new(RepairConfig::default(), 0);
        assert_eq!(r.resolve(5), 5);
        r.remap.insert(5, 100);
        assert_eq!(r.resolve(5), 100);
        // A retired spare is replaced by updating the same original key.
        r.remap.insert(5, 101);
        assert_eq!(r.resolve(5), 101);
    }

    #[test]
    fn spares_exhaust_and_degrade() {
        let mut r = RepairState::new(
            RepairConfig {
                ecp_entries_per_line: 2,
                spare_lines_per_bank: 2,
            },
            1,
        );
        assert!(r.spare_available());
        r.spares_used = 2;
        assert!(!r.spare_available());
        assert!(r.record_unrepairable(123.0), "first degrades the bank");
        assert!(!r.record_unrepairable(456.0), "already degraded");
        assert_eq!(r.first_unrepairable_s, Some(123.0));
        assert_eq!(r.unrepairable, 2);
    }

    #[test]
    fn recovery_config_validates() {
        assert!(RecoveryConfig { recover_prob: 0.5 }.validated().is_ok());
        assert!(RecoveryConfig { recover_prob: 1.5 }.validated().is_err());
        assert!(RecoveryConfig {
            recover_prob: f64::NAN
        }
        .validated()
        .is_err());
    }
}
