//! # pcm-analysis — statistics and report rendering for scrub experiments
//!
//! Small, dependency-free helpers the benchmark harness uses to turn
//! simulation reports into the paper's tables:
//!
//! * [`Summary`] — mean/σ/95% CI of repeated runs;
//! * [`percent_reduction`] / [`improvement_ratio`] — the paper's headline
//!   metrics ("96.5% fewer UEs", "24.4× fewer scrub writes");
//! * [`Table`] — fixed-width table rendering;
//! * [`wilson_interval`] / [`clopper_pearson_interval`] /
//!   [`chi_square_gof`] / [`ks_test`] / [`TestBattery`] — the statistical
//!   machinery behind the oracle-vs-simulator agreement suite (see
//!   `DESIGN.md`, "Validation methodology").
//!
//! # Quick start
//!
//! ```
//! use pcm_analysis::{improvement_ratio, percent_reduction, Table};
//!
//! let mut t = Table::new(vec!["metric", "basic", "combined", "improvement"]);
//! t.row(vec![
//!     "scrub writes".into(),
//!     "9.4e6".into(),
//!     "3.9e5".into(),
//!     format!("{:.1}x", improvement_ratio(9.4e6, 3.9e5)),
//! ]);
//! assert!(t.render().contains("24.1x"));
//! assert!((percent_reduction(100.0, 3.5) - 96.5).abs() < 1e-9);
//! ```

mod infer;
mod stats;
mod table;

pub use infer::{
    chi_square_gof, clopper_pearson_interval, ks_p_value, ks_test, wilson_interval, Interval,
    TestBattery, TestOutcome,
};
pub use stats::{event_rate, geometric_mean, improvement_ratio, percent_reduction, Summary};
pub use table::{fmt_count, fmt_percent, fmt_ratio, Table};
