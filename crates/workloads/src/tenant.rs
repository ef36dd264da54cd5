//! Open-loop multi-tenant demand: many independent per-tenant arrival
//! streams merged into one time-ordered trace.
//!
//! This is the "millions of users" workload model the fleet service
//! (`scrubd`) drives shards with. Unlike the closed-loop suite traces —
//! where one generator's clock advances only as ops are consumed — each
//! tenant here is an *open-loop* arrival process: a seeded Poisson stream
//! (or a suite workload reinterpreted as one tenant's demand) whose
//! arrival times are fixed by the seed alone, independent of service.
//! Tenants are described as data ([`TenantMixSpec`], a compact
//! `FromStr`/`Display` spec string like fault campaigns), so a mix can
//! ride inside a `SimConfig`, a checkpoint fingerprint, or a fleet config
//! file.
//!
//! # Spec grammar
//!
//! ```text
//! SPEC   := TENANT (';' TENANT)*
//! TENANT := NAME ':' FIELD (',' FIELD)*
//! FIELD  := 'rate=' F64          ops/s (synthetic tenants; > 0, finite)
//!         | 'read=' F64          read fraction in [0,1] (default 0.7)
//!         | 'pattern=' PAT       uniform | zipf:THETA | seq (default zipf:0.99)
//!         | 'arrivals=' ARR      poisson | periodic (default poisson)
//!         | 'suite=' WORKLOAD    one of the 8 suite names (trace-driven tenant)
//!         | 'scale=' F64         suite rate multiplier (default 1.0)
//! ```
//!
//! A tenant is either synthetic (`rate=` given) or suite-driven
//! (`suite=` given) — never both.
//!
//! # Examples
//!
//! ```
//! use pcm_workloads::TenantMixSpec;
//! use pcm_memsim::TraceSource;
//!
//! let spec: TenantMixSpec = "alpha:rate=120,read=0.7,pattern=zipf:0.99;\
//!                            beta:suite=db-oltp,scale=0.5"
//!     .parse()
//!     .expect("valid spec");
//! let mut mix = spec.build(4096, 1.0, 7);
//! let op = mix.next_op().expect("open-loop streams are infinite");
//! assert!(op.addr.index() < 4096);
//! ```

use std::fmt;
use std::str::FromStr;

use pcm_memsim::{load_pending_op, save_pending_op, splitmix64, MemOp, OpKind, TraceSource};
use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::generator::{AddrPattern, ArrivalProcess, SyntheticTrace};
use crate::suite::WorkloadId;

/// Address-pattern selection for a synthetic tenant, restricted to the
/// spec-expressible subset of [`AddrPattern`].
#[derive(Debug, Clone, PartialEq)]
pub enum TenantPattern {
    /// Uniform random lines.
    Uniform,
    /// Zipfian popularity at the given skew.
    Zipf(f64),
    /// Sequential wrap-around sweep.
    Sequential,
}

impl TenantPattern {
    fn to_addr_pattern(&self) -> AddrPattern {
        match self {
            TenantPattern::Uniform => AddrPattern::Uniform,
            TenantPattern::Zipf(theta) => AddrPattern::Zipf { theta: *theta },
            TenantPattern::Sequential => AddrPattern::Sequential,
        }
    }
}

impl fmt::Display for TenantPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantPattern::Uniform => write!(f, "uniform"),
            TenantPattern::Zipf(theta) => write!(f, "zipf:{theta}"),
            TenantPattern::Sequential => write!(f, "seq"),
        }
    }
}

/// How one tenant generates demand.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantKind {
    /// A synthetic open-loop stream: seeded arrivals at `rate` ops/s.
    Synthetic {
        /// Mean arrival rate (ops/s), finite and positive.
        rate: f64,
        /// Fraction of ops that are reads, in `[0, 1]`.
        read_frac: f64,
        /// Spatial pattern.
        pattern: TenantPattern,
        /// `true` = Poisson (exponential gaps), `false` = periodic.
        poisson: bool,
    },
    /// A suite workload serving as this tenant's recorded-demand profile.
    Suite {
        /// Which suite workload.
        id: WorkloadId,
        /// Rate multiplier applied to the suite's nominal rate.
        scale: f64,
    },
}

/// One tenant: a name plus its demand model.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (reports, SLO rollups); `[A-Za-z0-9_-]+`.
    pub name: String,
    /// Demand model.
    pub kind: TenantKind,
}

impl TenantSpec {
    /// The tenant's configured mean demand rate in ops/s for a given
    /// address-space size (suite tenants scale with capacity exactly like
    /// [`WorkloadId::build`] does).
    pub fn nominal_rate(&self, num_lines: u32) -> f64 {
        match &self.kind {
            TenantKind::Synthetic { rate, .. } => *rate,
            TenantKind::Suite { id, scale } => id.nominal_rate(num_lines) * scale,
        }
    }
}

impl fmt::Display for TenantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TenantKind::Synthetic {
                rate,
                read_frac,
                pattern,
                poisson,
            } => write!(
                f,
                "{}:rate={rate},read={read_frac},pattern={pattern},arrivals={}",
                self.name,
                if *poisson { "poisson" } else { "periodic" }
            ),
            TenantKind::Suite { id, scale } => {
                write!(f, "{}:suite={},scale={scale}", self.name, id.name())
            }
        }
    }
}

/// A tenant whose scaled demand rate no run can serve: the rejection
/// [`TenantMixSpec::check_scaled`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRateError {
    /// The tenant's name.
    pub tenant: String,
    /// The spec field at fault: `"rate"` or `"scale"`.
    pub field: &'static str,
    /// The field's value in the spec.
    pub value: f64,
    /// The factor the mix was scaled by.
    pub rate_scale: f64,
    /// The scaled rate in ops/s: zero, or too high for the horizon.
    pub scaled_rate: f64,
}

impl fmt::Display for TenantRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, field, value, by) = (&self.tenant, self.field, self.value, self.rate_scale);
        if self.scaled_rate > 0.0 {
            write!(
                f,
                "tenant {name:?}: {field}={value:?} scaled by {by:?} asks for {:e} ops/s, \
                 more than 2^32 operations over the horizon",
                self.scaled_rate
            )
        } else {
            write!(
                f,
                "tenant {name:?}: {field}={value:?} rounds to a zero demand rate when scaled by {by:?}"
            )
        }
    }
}

impl std::error::Error for TenantRateError {}

/// A full tenant mix, as plain data. Parses from and displays as the
/// compact spec string (the `Display` form is canonical and round-trips).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMixSpec {
    /// The tenants, in spec order.
    pub tenants: Vec<TenantSpec>,
}

impl TenantMixSpec {
    /// Checks that every tenant's demand rate, once the mix is built over
    /// `num_lines` lines at `rate_scale`, is one a run of `horizon_s`
    /// seconds can serve: positive, since a small `rate_scale` (a fleet
    /// passes `1/shards`) can round a rate to zero, and expecting at most
    /// 2³² operations, at which the mean gap is still 2²⁰ ulps of any clock
    /// value up to the horizon. The products are the ones
    /// [`TenantMixSpec::build`] computes, so a mix that passes builds.
    pub fn check_scaled(
        &self,
        num_lines: u32,
        rate_scale: f64,
        horizon_s: f64,
    ) -> Result<(), TenantRateError> {
        for t in &self.tenants {
            let (field, value, scaled_rate) = match &t.kind {
                TenantKind::Synthetic { rate, .. } => ("rate", *rate, rate * rate_scale),
                TenantKind::Suite { id, scale } => (
                    "scale",
                    *scale,
                    id.nominal_rate(num_lines) * (scale * rate_scale),
                ),
            };
            let ops = scaled_rate * horizon_s;
            if scaled_rate <= 0.0 || !ops.is_finite() || ops > 4_294_967_296.0 {
                return Err(TenantRateError {
                    tenant: t.name.clone(),
                    field,
                    value,
                    rate_scale,
                    scaled_rate,
                });
            }
        }
        Ok(())
    }

    /// Instantiates the mix over `num_lines` lines. Every tenant's rate
    /// is multiplied by `rate_scale` (a fleet divides tenant demand evenly
    /// across shards by passing `1/shards`); per-tenant RNG streams are
    /// derived from `seed` and the tenant index, so two tenants never
    /// share randomness. A tenant stream ends at its first arrival past
    /// `f64::MAX` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `rate_scale` is not finite and positive, or if a
    /// tenant's scaled rate rounds to zero. [`TenantMixSpec::check_scaled`]
    /// reports that as an error beforehand, as it does rates too high for
    /// a horizon, which build but never reach it.
    /// Spec-level validation (rates, fractions, names) happens at parse
    /// time.
    pub fn build(&self, num_lines: u32, rate_scale: f64, seed: u64) -> TenantMix {
        assert!(
            rate_scale.is_finite() && rate_scale > 0.0,
            "rate_scale must be finite and positive, got {rate_scale}"
        );
        let mut streams = Vec::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            let tseed = splitmix64(seed ^ (0xF1EE7 + i as u64));
            let trace = match &t.kind {
                TenantKind::Synthetic {
                    rate,
                    read_frac,
                    pattern,
                    poisson,
                } => SyntheticTrace::builder(&t.name, num_lines)
                    .rate_ops_per_sec(rate * rate_scale)
                    .read_fraction(*read_frac)
                    .pattern(pattern.to_addr_pattern())
                    .arrivals(if *poisson {
                        ArrivalProcess::Poisson
                    } else {
                        ArrivalProcess::Periodic
                    })
                    .seed(tseed)
                    .build(),
                TenantKind::Suite { id, scale } => id.build(num_lines, scale * rate_scale, tseed),
            };
            streams.push(trace);
        }
        let mut pending = Vec::with_capacity(streams.len());
        for s in &mut streams {
            pending.push(s.next_op());
        }
        TenantMix {
            label: format!("open-loop({self})"),
            names: self.tenants.iter().map(|t| t.name.clone()).collect(),
            num_lines,
            streams,
            pending,
            reads: vec![0; self.tenants.len()],
            writes: vec![0; self.tenants.len()],
        }
    }
}

impl fmt::Display for TenantMixSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

fn parse_f64(field: &str, raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .map_err(|_| format!("tenant spec: {field} must be a number, got {raw:?}"))
}

impl FromStr for TenantMixSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut tenants: Vec<TenantSpec> = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                return Err("tenant spec: empty tenant entry".to_string());
            }
            let (name, fields) = part
                .split_once(':')
                .ok_or_else(|| format!("tenant spec: missing ':' in {part:?}"))?;
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!(
                    "tenant spec: tenant name must be [A-Za-z0-9_-]+, got {name:?}"
                ));
            }
            if tenants.iter().any(|t| t.name == name) {
                return Err(format!("tenant spec: duplicate tenant {name:?}"));
            }
            let mut rate: Option<f64> = None;
            let mut read_frac = 0.7;
            let mut pattern = TenantPattern::Zipf(0.99);
            let mut poisson = true;
            let mut suite: Option<WorkloadId> = None;
            let mut scale = 1.0;
            for field in fields.split(',') {
                let field = field.trim();
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("tenant spec: expected key=value, got {field:?}"))?;
                match key {
                    "rate" => {
                        let r = parse_f64("rate", value)?;
                        if !r.is_finite() || r <= 0.0 {
                            return Err(format!(
                                "tenant spec: tenant {name:?} rate must be finite and positive, \
                                 got {value:?}"
                            ));
                        }
                        rate = Some(r);
                    }
                    "read" => {
                        let f = parse_f64("read", value)?;
                        if !(0.0..=1.0).contains(&f) {
                            return Err(format!(
                                "tenant spec: tenant {name:?} read fraction must be in [0,1], \
                                 got {value:?}"
                            ));
                        }
                        read_frac = f;
                    }
                    "pattern" => {
                        pattern = match value {
                            "uniform" => TenantPattern::Uniform,
                            "seq" => TenantPattern::Sequential,
                            z => {
                                let theta = z
                                    .strip_prefix("zipf:")
                                    .ok_or_else(|| {
                                        format!(
                                            "tenant spec: pattern must be uniform|zipf:THETA|seq, \
                                             got {value:?}"
                                        )
                                    })
                                    .and_then(|t| parse_f64("pattern", t))?;
                                if !theta.is_finite() || theta <= 0.0 {
                                    return Err(format!(
                                        "tenant spec: zipf theta must be finite and positive, \
                                         got {value:?}"
                                    ));
                                }
                                TenantPattern::Zipf(theta)
                            }
                        };
                    }
                    "arrivals" => {
                        poisson = match value {
                            "poisson" => true,
                            "periodic" => false,
                            other => {
                                return Err(format!(
                                    "tenant spec: arrivals must be poisson or periodic, \
                                     got {other:?}"
                                ))
                            }
                        };
                    }
                    "suite" => {
                        suite = Some(
                            WorkloadId::all()
                                .into_iter()
                                .find(|w| w.name() == value)
                                .ok_or_else(|| {
                                    format!("tenant spec: unknown suite workload {value:?}")
                                })?,
                        );
                    }
                    "scale" => {
                        let x = parse_f64("scale", value)?;
                        if !x.is_finite() || x <= 0.0 {
                            return Err(format!(
                                "tenant spec: tenant {name:?} scale must be finite and positive, \
                                 got {value:?}"
                            ));
                        }
                        scale = x;
                    }
                    other => return Err(format!("tenant spec: unknown field {other:?}")),
                }
            }
            let kind = match (rate, suite) {
                (Some(_), Some(_)) => {
                    return Err(format!(
                        "tenant spec: tenant {name:?} cannot set both rate= and suite="
                    ))
                }
                (None, None) => {
                    return Err(format!(
                        "tenant spec: tenant {name:?} needs rate= (synthetic) or suite= \
                         (trace-driven)"
                    ))
                }
                (Some(rate), None) => TenantKind::Synthetic {
                    rate,
                    read_frac,
                    pattern,
                    poisson,
                },
                (None, Some(id)) => TenantKind::Suite { id, scale },
            };
            tenants.push(TenantSpec {
                name: name.to_string(),
                kind,
            });
        }
        if tenants.is_empty() {
            return Err("tenant spec: at least one tenant required".to_string());
        }
        Ok(TenantMixSpec { tenants })
    }
}

/// The live open-loop mix: per-tenant generators merged into one
/// time-ordered stream, with per-tenant delivered-op accounting.
///
/// Ties on arrival time break by tenant index (spec order), so the merged
/// stream is a pure function of the spec and seed. Fully supports
/// checkpoint/resume: the saved state carries every tenant's generator
/// position, its buffered head-of-stream op, and the op counters.
#[derive(Debug)]
pub struct TenantMix {
    label: String,
    names: Vec<String>,
    /// The address space the mix was built over; a restored pending op
    /// must fall inside it.
    num_lines: u32,
    streams: Vec<SyntheticTrace>,
    /// Head-of-stream op per tenant, already drawn but not yet emitted.
    pending: Vec<Option<MemOp>>,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl TraceSource for TenantMix {
    fn next_op(&mut self) -> Option<MemOp> {
        let mut winner: Option<usize> = None;
        for (i, p) in self.pending.iter().enumerate() {
            if let Some(op) = p {
                let better = match winner {
                    None => true,
                    // Strict < keeps the tie-break on the lowest index.
                    Some(w) => op.at < self.pending[w].expect("winner pending").at,
                };
                if better {
                    winner = Some(i);
                }
            }
        }
        let i = winner?;
        let op = self.pending[i].take().expect("winner pending");
        self.pending[i] = self.streams[i].next_op();
        match op.kind {
            OpKind::Read => self.reads[i] += 1,
            OpKind::Write => self.writes[i] += 1,
        }
        Some(op)
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::new();
        w.put_u32(self.streams.len() as u32);
        for (i, s) in self.streams.iter().enumerate() {
            w.put_bytes(&s.save_state()?);
            save_pending_op(&mut w, self.pending[i].as_ref());
            w.put_u64(self.reads[i]);
            w.put_u64(self.writes[i]);
        }
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let restore = |mix: &mut TenantMix| -> Result<(), CheckpointError> {
            let n = r.u32()? as usize;
            if n != mix.streams.len() {
                return Err(CheckpointError::Malformed(format!(
                    "tenant mix state has {n} tenants, config builds {}",
                    mix.streams.len()
                )));
            }
            for i in 0..n {
                let sub = r.bytes()?.to_vec();
                mix.streams[i]
                    .load_state(&sub)
                    .map_err(CheckpointError::Malformed)?;
                mix.pending[i] = load_pending_op(&mut r, mix.num_lines)?;
                mix.reads[i] = r.u64()?;
                mix.writes[i] = r.u64()?;
            }
            r.finish()?;
            Ok(())
        };
        restore(self).map_err(|e| format!("tenant mix state: {e}"))
    }

    fn tenant_ops(&self) -> Option<Vec<(String, u64, u64)>> {
        Some(
            self.names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), self.reads[i], self.writes[i]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_memsim::SimTime;

    const SPEC: &str = "alpha:rate=120,read=0.7,pattern=zipf:0.99,arrivals=poisson;\
                        beta:rate=40,read=0.5,pattern=uniform,arrivals=poisson;\
                        batch:suite=db-olap,scale=0.5";

    #[test]
    fn spec_round_trips_through_display() {
        let spec: TenantMixSpec = SPEC.parse().expect("valid");
        let canon = spec.to_string();
        let back: TenantMixSpec = canon.parse().expect("canonical form parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_string(), canon);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (bad, needle) in [
            ("", "empty"),
            ("alpha", "missing ':'"),
            ("alpha:rate=0", "finite and positive"),
            ("alpha:rate=NaN", "finite and positive"),
            ("alpha:rate=-5", "finite and positive"),
            ("alpha:rate=inf", "finite and positive"),
            ("alpha:read=0.5", "needs rate="),
            ("alpha:rate=10,suite=db-oltp", "both"),
            ("alpha:rate=10,read=1.5", "[0,1]"),
            ("alpha:rate=10,pattern=hot", "pattern"),
            ("alpha:rate=10,arrivals=sometimes", "arrivals"),
            ("alpha:suite=db-nosuch", "unknown suite"),
            ("alpha:rate=10;alpha:rate=20", "duplicate"),
            ("a!b:rate=10", "name"),
            ("alpha:rate=10,flavor=mild", "unknown field"),
        ] {
            let err = bad.parse::<TenantMixSpec>().expect_err(bad);
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn check_scaled_names_the_tenant_whose_rate_rounds_to_zero() {
        let ok: TenantMixSpec = "a:rate=1e-306;b:suite=db-oltp,scale=1e-300"
            .parse()
            .expect("valid");
        assert_eq!(ok.check_scaled(1024, 0.5, 3600.0), Ok(()));
        for (spec, field) in [
            ("a:rate=1;b:rate=5e-324", "rate"),
            ("a:rate=1;b:suite=db-oltp,scale=5e-324", "scale"),
        ] {
            let spec: TenantMixSpec = spec.parse().expect("valid");
            assert_eq!(spec.check_scaled(1024, 1.0, 3600.0), Ok(()));
            let err = spec
                .check_scaled(1024, 0.5, 3600.0)
                .expect_err("rounds to zero");
            assert_eq!((err.tenant.as_str(), err.field), ("b", field));
            assert!(err.to_string().contains("tenant \"b\""), "{err}");
        }
    }

    #[test]
    fn merged_stream_is_time_ordered_and_counts_per_tenant() {
        let spec: TenantMixSpec = SPEC.parse().expect("valid");
        let mut mix = spec.build(1024, 1.0, 9);
        let mut prev = SimTime::ZERO;
        for _ in 0..2000 {
            let op = mix.next_op().expect("infinite");
            assert!(op.at >= prev, "stream must be time-ordered");
            assert!(op.addr.0 < 1024);
            prev = op.at;
        }
        let ops = mix.tenant_ops().expect("mix reports tenants");
        assert_eq!(ops.len(), 3);
        let total: u64 = ops.iter().map(|(_, r, w)| r + w).sum();
        assert_eq!(total, 2000);
        // alpha (120 ops/s) must dominate beta (40 ops/s).
        let by_name = |n: &str| {
            ops.iter()
                .find(|(name, _, _)| name == n)
                .map(|(_, r, w)| r + w)
                .expect("tenant present")
        };
        assert!(by_name("alpha") > 2 * by_name("beta"));
    }

    #[test]
    fn rate_scale_divides_demand() {
        let spec: TenantMixSpec = "a:rate=100".parse().expect("valid");
        let measure = |scale: f64| {
            let mut mix = spec.build(256, scale, 3);
            let n = 4000;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = mix.next_op().expect("infinite").at;
            }
            n as f64 / last.secs()
        };
        let full = measure(1.0);
        let quarter = measure(0.25);
        assert!((full - 100.0).abs() < 10.0, "full-rate measured {full}");
        assert!(
            (quarter - 25.0).abs() < 4.0,
            "quarter-rate measured {quarter}"
        );
    }

    #[test]
    fn save_load_resumes_exact_stream() {
        let spec: TenantMixSpec = SPEC.parse().expect("valid");
        let mut continuous = spec.build(512, 1.0, 21);
        for _ in 0..357 {
            continuous.next_op();
        }
        let mut split = spec.build(512, 1.0, 21);
        for _ in 0..200 {
            split.next_op();
        }
        let state = split.save_state().expect("supported");
        let mut resumed = spec.build(512, 1.0, 21);
        resumed.load_state(&state).expect("round-trip");
        for _ in 0..157 {
            resumed.next_op();
        }
        assert_eq!(
            continuous.next_op(),
            resumed.next_op(),
            "stream diverged after resume"
        );
        assert_eq!(continuous.tenant_ops(), resumed.tenant_ops());
    }

    #[test]
    fn load_state_rejects_garbage_and_wrong_shape() {
        let spec: TenantMixSpec = "a:rate=10;b:rate=20".parse().expect("valid");
        let mut mix = spec.build(64, 1.0, 1);
        assert!(mix.load_state(&[9, 9, 9]).is_err());
        let other: TenantMixSpec = "a:rate=10".parse().expect("valid");
        let state = other.build(64, 1.0, 1).save_state().expect("supported");
        let err = mix.load_state(&state).expect_err("tenant count mismatch");
        assert!(err.contains("tenants"), "{err}");
    }

    /// A saved pending op on a line past the mix's address space is
    /// rejected on load, not left for the simulation to trip over.
    #[test]
    fn load_state_rejects_a_pending_line_past_the_mix() {
        let spec: TenantMixSpec = "a:rate=10".parse().expect("valid");
        let mut state = spec.build(64, 1.0, 1).save_state().expect("supported");
        // Layout: tenant count u32, stream state (u32 length + bytes),
        // then the pending op: flag u8, time f64, kind u8, line u32.
        let stream_len = u32::from_le_bytes(state[4..8].try_into().expect("4 bytes")) as usize;
        let line_at = 8 + stream_len + 1 + 8 + 1;
        assert_eq!(state[8 + stream_len], 1, "the built mix has an op pending");
        state[line_at..line_at + 4].copy_from_slice(&64u32.to_le_bytes());
        let err = spec
            .build(64, 1.0, 1)
            .load_state(&state)
            .expect_err("line 64 of 64");
        assert!(err.contains("pending-op line 64"), "{err}");
    }

    #[test]
    fn distinct_tenants_draw_distinct_randomness() {
        let spec: TenantMixSpec = "a:rate=50,pattern=uniform;b:rate=50,pattern=uniform"
            .parse()
            .expect("valid");
        let mut mix = spec.build(4096, 1.0, 5);
        let mut a_addrs = Vec::new();
        let mut b_addrs = Vec::new();
        for _ in 0..200 {
            let before = mix.tenant_ops().expect("tenants");
            let op = mix.next_op().expect("infinite");
            let after = mix.tenant_ops().expect("tenants");
            let winner = before
                .iter()
                .zip(&after)
                .position(|(x, y)| x != y)
                .expect("one tenant advanced");
            if winner == 0 {
                a_addrs.push(op.addr.0);
            } else {
                b_addrs.push(op.addr.0);
            }
        }
        assert!(!a_addrs.is_empty() && !b_addrs.is_empty());
        assert_ne!(
            a_addrs[..a_addrs.len().min(b_addrs.len())],
            b_addrs[..a_addrs.len().min(b_addrs.len())],
            "tenant streams must not share RNG draws"
        );
    }
}
