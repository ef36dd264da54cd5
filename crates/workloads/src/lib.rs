//! # pcm-workloads — deterministic synthetic memory-trace generators
//!
//! Stand-in for the benchmark traces of the HPCA 2012 scrub-mechanisms
//! paper (which used proprietary simulator traces; see DESIGN.md
//! "Substitutions"). Scrub policies interact with workloads through the
//! write-recency profile of lines and demand bandwidth; the generators
//! here expose exactly those knobs:
//!
//! * [`SyntheticTrace`] — address pattern ([`AddrPattern`]) × read/write
//!   mix × arrival process ([`ArrivalProcess`]), fully seed-deterministic;
//! * [`WorkloadId`] — the named eight-workload suite used by every
//!   experiment (`db-oltp`, `db-olap`, `web-serve`, `logging`, `stream`,
//!   `batch`, `kv-cache`, `archive`);
//! * [`Zipf`] — exact zipfian rank sampling;
//! * [`TenantMixSpec`] / [`TenantMix`] — open-loop multi-tenant demand
//!   (seeded Poisson or suite-driven per-tenant arrival streams merged in
//!   time order), the fleet service's "millions of users" workload.
//!
//! # Quick start
//!
//! ```
//! use pcm_workloads::WorkloadId;
//! use pcm_memsim::TraceSource;
//!
//! let mut trace = WorkloadId::DbOltp.build(65_536, 1.0, 42);
//! let op = trace.next_op().expect("traces are infinite");
//! println!("{:?} at t={}", op.kind, op.at);
//! ```

mod generator;
mod phased;
mod record;
mod suite;
mod tenant;
mod zipf;

pub use generator::{AddrPattern, ArrivalProcess, SyntheticTrace, SyntheticTraceBuilder};
pub use phased::{DiurnalTrace, Phase};
pub use record::RecordedTrace;
pub use suite::WorkloadId;
pub use tenant::{
    TenantKind, TenantMix, TenantMixSpec, TenantPattern, TenantRateError, TenantSpec,
};
pub use zipf::Zipf;
