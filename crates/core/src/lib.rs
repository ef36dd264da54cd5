//! # scrub-core — drift-aware scrub mechanisms for error-prone memories
//!
//! The primary contribution of the HPCA 2012 reproduction: scrub
//! mechanisms tailored to MLC-PCM resistance drift, which trade off soft
//! errors (drift accumulating past ECC capability) against hard errors and
//! energy (every corrective write-back wears cells and burns ~15× a read's
//! energy).
//!
//! ## Mechanisms
//!
//! Every mechanism is one [`ScrubPolicy`], composed of a schedule (which
//! line next), a gate (may we probe now), a write-back rule (what a
//! detection triggers), and an optional risk profile; each
//! [`PolicyKind`] is one constructor (table on [`ScrubPolicy`]).
//!
//! | Kind | Idea |
//! |------|------|
//! | [`ScrubPolicy::basic`] | DRAM-style baseline: sweep + write back on any error |
//! | [`ScrubPolicy::threshold`] | lightweight detection, lazy write-back at θ errors |
//! | [`ScrubPolicy::age_aware`] | skip lines too young to have drifted |
//! | [`ScrubPolicy::adaptive`] | per-region AIMD sweep pacing |
//! | [`ScrubPolicy::combined`] | all of the above (the paper's proposal) |
//! | [`ScrubPolicy::tour`] | IOPS-budgeted tour sharing a token bucket with demand |
//! | [`ScrubPolicy::profiled`] | per-line risk profiling over the budgeted tour |
//!
//! [`modelcheck`] searches every state demand can drive a few-line
//! budgeted tour to and checks its `ScrubProgress` bound; the
//! `scrub_modelcheck` binary is its command line.
//!
//! ## Running an experiment
//!
//! ```
//! use scrub_core::{DemandTraffic, PolicyKind, SimConfig, Simulation};
//! use pcm_workloads::WorkloadId;
//!
//! let report = Simulation::new(
//!     SimConfig::builder()
//!         .num_lines(4096)
//!         .policy(PolicyKind::combined_default(900.0))
//!         .traffic(DemandTraffic::suite(WorkloadId::WebServe))
//!         .horizon_s(6.0 * 3600.0)
//!         .build(),
//! )
//! .run();
//! println!("{report}");
//! ```

mod adaptive;
mod age_aware;
mod checkpoint;
mod config;
mod engine;
pub mod modelcheck;
mod policy;
mod profiled;
mod report;
mod sim;
mod threshold;
pub mod tick;
mod tour;

pub use checkpoint::{run_split, SplitRunOutcome};
pub use config::PolicyKind;
pub use engine::{EngineStats, ScrubEngine};
pub use policy::{ScrubAction, ScrubContext, ScrubPolicy, SweepCursor};
pub use profiled::{ProfileParams, ProfileStats, RiskProfile};
pub use report::SimReport;
pub use sim::{DemandTraffic, SimConfig, SimConfigBuilder, Simulation};
pub use tour::{TokenBucket, TourBudget, TourCursor};
