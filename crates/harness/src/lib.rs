//! # uucs-harness — the workspace's in-tree measurement runtime
//!
//! UUCS deploys like the volunteer-computing systems it studies: onto
//! arbitrary hosts, with no guarantee of network access at build time.
//! This crate makes the workspace hermetic by replacing the two registry
//! test/bench frameworks with std-only equivalents:
//!
//! * [`bench`] — a Criterion-compatible micro-benchmark runtime:
//!   warmup + iteration calibration, median/MAD over samples, throughput
//!   reporting, JSON emission to `target/uucs-bench/*.json`, and a
//!   `UUCS_BENCH_QUICK=1` smoke mode. Entry points:
//!   [`bench_group!`]/[`bench_main!`] and [`Criterion`].
//! * [`prop`] — a proptest-compatible property-testing runtime: seeded
//!   [`Pcg64`](uucs_stats::Pcg64)-driven generators for ints, floats,
//!   vectors, ranges and regex-lite strings, a configurable case count,
//!   and binary-search shrinking on failure. Entry points: [`proptest!`]
//!   and [`prelude`].
//! * [`tempdir`] — an RAII [`TempDir`] guard for test scratch space
//!   (unique per instance, cleaned up on drop).
//! * [`textfuzz`] — seeded damage to line-oriented text, for tests that
//!   hold a rewritten parser equal to its reference implementation.
//!
//! Both runtimes draw their randomness and statistics conventions from
//! `uucs-stats`, so every harness run is deterministic and offline.

pub mod bench;
pub mod prop;
pub mod tempdir;
pub mod textfuzz;

pub use bench::{BenchResult, Bencher, BenchmarkGroup, Criterion, Throughput};
pub use std::hint::black_box;
pub use tempdir::TempDir;

/// Collection strategies, addressed as `prop::collection::vec` from the
/// prelude (matching proptest's module layout).
pub mod collection {
    pub use crate::prop::{vec, SizeRange, VecStrategy};
}

/// Everything a property-test file needs: a drop-in replacement for
/// `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop::{any, Config, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    /// The `prop::...` module alias (e.g. `prop::collection::vec`).
    pub use crate as prop;
}
