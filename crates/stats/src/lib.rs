//! Statistical foundations for UUCS-RS.
//!
//! This crate is self-contained (no external dependencies) and provides:
//!
//! * a deterministic, splittable PCG-family random number generator
//!   ([`rng::Pcg64`]) so that the entire study regenerates bit-identically
//!   from one seed,
//! * an order-preserving parallel map ([`parallel::ordered_map`]) so
//!   that the same holds whatever the number of cores: the studies'
//!   runs and the server's journal shards are spread over every core
//!   and merged in a fixed order,
//! * the random variates the paper's testcase generators and user models
//!   need (exponential, Pareto, lognormal, normal, Poisson),
//! * empirical CDFs with right-censoring support ([`ecdf::Ecdf`]) — the
//!   paper's discomfort CDFs are censored at testcase exhaustion,
//! * summary statistics with Student-t confidence intervals
//!   ([`summary::Summary`]) as used in the paper's Figure 16,
//! * Welch's unpaired t-test and the paired t-test ([`ttest`]) as used in
//!   the paper's Figure 17 and the "frog in the pot" analysis (§3.3.5),
//!   plus the Mann–Whitney U test ([`mannwhitney`]) as a nonparametric
//!   robustness check,
//! * the special functions (ln-gamma, regularized incomplete beta, normal
//!   and Student-t CDFs/quantiles) everything above needs ([`special`]),
//! * quantile-based distribution fitting ([`fit`]) used to calibrate the
//!   synthetic user population from the paper's published statistics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod ecdf;
pub mod fit;
pub mod ks;
pub mod mannwhitney;
pub mod parallel;
pub mod rng;
pub mod special;
pub mod summary;
pub mod ttest;

pub use bootstrap::bootstrap_mean_ci;
pub use ecdf::Ecdf;
pub use mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use rng::Pcg64;
pub use summary::Summary;
pub use ttest::{paired_t_test, welch_t_test, TTestResult};
