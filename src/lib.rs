//! # scrubsim — efficient scrub mechanisms for error-prone emerging memories
//!
//! A full Rust reproduction of the HPCA 2012 paper *"Efficient scrub
//! mechanisms for error-prone emerging memories"* (Awasthi, Shevgoor,
//! Sudan, Rajendran, Balasubramonian, Srinivasan): drift-aware scrubbing
//! for multi-level-cell PCM, together with every substrate the evaluation
//! needs — an MLC-PCM device model with resistance drift and wear, BCH and
//! SECDED codecs, a line-granularity main-memory simulator, synthetic
//! workloads, and an analysis/reporting layer.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`device`] | `pcm-model` | cells, drift, noise, endurance, energy |
//! | [`ecc`] | `pcm-ecc` | GF(2^m), BCH, SECDED, count-level code specs |
//! | [`memsim`] | `pcm-memsim` | memory array, fault engine, ledgers |
//! | [`workloads`] | `pcm-workloads` | synthetic trace suite |
//! | [`scrub`] | `scrub-core` | the paper's scrub mechanisms + simulation |
//! | [`analysis`] | `pcm-analysis` | statistics and table rendering |
//!
//! ## Five-minute tour
//!
//! ```
//! use scrubsim::prelude::*;
//!
//! // Compare the paper's combined mechanism against DRAM-style scrub on
//! // a small memory for a few simulated hours.
//! let basic = Simulation::new(
//!     SimConfig::builder()
//!         .num_lines(2048)
//!         .code(CodeSpec::secded_line())
//!         .policy(PolicyKind::Basic { interval_s: 900.0 })
//!         .traffic(DemandTraffic::suite(WorkloadId::KvCache))
//!         .horizon_s(4.0 * 3600.0)
//!         .build(),
//! )
//! .run();
//!
//! let combined = Simulation::new(
//!     SimConfig::builder()
//!         .num_lines(2048)
//!         .code(CodeSpec::bch_line(6))
//!         .policy(PolicyKind::combined_default(900.0))
//!         .traffic(DemandTraffic::suite(WorkloadId::KvCache))
//!         .horizon_s(4.0 * 3600.0)
//!         .build(),
//! )
//! .run();
//!
//! assert!(combined.scrub_writes() < basic.scrub_writes());
//! ```

/// MLC/SLC PCM device physics (re-export of `pcm-model`).
pub mod device {
    pub use pcm_model::*;
}

/// Error-correcting codes (re-export of `pcm-ecc`).
pub mod ecc {
    pub use pcm_ecc::*;
}

/// Main-memory simulator (re-export of `pcm-memsim`).
pub mod memsim {
    pub use pcm_memsim::*;
}

/// Synthetic workload generators (re-export of `pcm-workloads`).
pub mod workloads {
    pub use pcm_workloads::*;
}

/// Scrub mechanisms and simulation driver (re-export of `scrub-core`).
pub mod scrub {
    pub use scrub_core::*;
}

/// Statistics and report rendering (re-export of `pcm-analysis`).
pub mod analysis {
    pub use pcm_analysis::*;
}

/// The common imports for working with the library.
pub mod prelude {
    pub use pcm_ecc::{ClassifyOutcome, CodeSpec};
    pub use pcm_memsim::{LineAddr, MemGeometry, Memory, ProbeKind, SimTime};
    pub use pcm_model::{
        DeviceConfig, DriftParams, EnduranceSpec, LevelStack, SensingMode, ThresholdPlacement,
    };
    pub use pcm_workloads::WorkloadId;
    pub use scrub_core::{
        DemandTraffic, PolicyKind, ScrubPolicy, SimConfig, SimReport, Simulation,
    };
}
