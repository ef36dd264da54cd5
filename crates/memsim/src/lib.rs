//! # pcm-memsim — line-granularity PCM main-memory simulator
//!
//! The evaluation substrate for the HPCA 2012 scrub-mechanisms
//! reproduction. Simulates a multi-gigabyte PCM memory at 64-byte-line
//! granularity:
//!
//! * [`Memory`] — line array + ECC + energy/timing/statistics ledgers,
//!   with `demand_read`/`demand_write` for program traffic and
//!   `scrub_probe`/`scrub_writeback` as the primitives scrub policies
//!   compose;
//! * [`FaultEngine`] — lazy, exact stochastic evolution of per-line drift
//!   and wear failures via incremental binomial sampling (DESIGN.md "Key
//!   algorithms");
//! * [`TimingModel`]/[`BandwidthTracker`] — channel-utilization bookkeeping
//!   behind the performance-overhead experiment;
//! * [`TraceSource`] — the workload interface.
//!
//! The memory owns its randomness: construction takes a seed, and each
//! bank shard runs an independent RNG stream derived from it, so results
//! do not depend on the order in which banks are touched (see the
//! [`memory`] module docs).
//!
//! # Quick start
//!
//! ```
//! use pcm_memsim::{LineAddr, Memory, MemGeometry, SimTime};
//! use pcm_ecc::CodeSpec;
//! use pcm_model::DeviceConfig;
//!
//! let mut mem = Memory::new(
//!     MemGeometry::small(),
//!     DeviceConfig::default(),
//!     CodeSpec::secded_line(),
//!     0, // master RNG seed
//! );
//! // A day of unattended drift later, probe a line:
//! let r = mem.scrub_probe(LineAddr(0), SimTime::from_secs(86_400.0));
//! println!("persistent errors: {}", r.persistent_bits);
//! ```

mod energy;
mod fault;
mod geometry;
pub mod inject;
mod line;
pub mod memory;
mod repair;
mod stats;
mod time;
mod timing;
mod trace;
mod wear_level;

pub use energy::EnergyLedger;
pub use fault::FaultEngine;
pub use geometry::{LineAddr, MemGeometry};
pub use inject::{CampaignSpec, Injector};
pub use line::{LineState, MAX_LEVELS};
pub use memory::{splitmix64, AccessResult, Memory, ProbeKind};
pub use repair::{RecoveryConfig, RepairConfig};
pub use stats::MemStats;
pub use time::SimTime;
pub use timing::{BandwidthTracker, TimingModel};
pub use trace::{load_pending_op, save_pending_op, MemOp, OpKind, TraceSource};
pub use wear_level::StartGap;
