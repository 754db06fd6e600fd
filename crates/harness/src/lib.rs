//! # uucs-harness — the workspace's in-tree test runtime
//!
//! UUCS deploys like the volunteer-computing systems it studies: onto
//! arbitrary hosts, with no guarantee of network access at build time.
//! This crate makes the workspace hermetic by replacing the registry
//! property-test framework with a std-only equivalent, and holds the
//! helpers every suite shares:
//!
//! * [`prop`] — a proptest-compatible property-testing runtime: seeded
//!   [`Pcg64`](uucs_stats::Pcg64)-driven generators for ints, floats,
//!   vectors, ranges and regex-lite strings, a configurable case count,
//!   and binary-search shrinking on failure. Entry points: [`proptest!`]
//!   and [`prelude`].
//! * [`tempdir`] — an RAII [`TempDir`] guard for test scratch space
//!   (unique per instance, cleaned up on drop).
//! * [`textfuzz`] — seeded damage to line-oriented text, for tests that
//!   hold a rewritten parser equal to its reference implementation.
//! * [`invariants`] — the correctness contracts (exactly-once, horizons,
//!   committed prefix, rising epochs, same state on every node), each
//!   stated once for every suite to check against, plus [`eventually`],
//!   the one bounded wait for asynchronous convergence.
//!
//! The property runtime draws its randomness from `uucs-stats`, so every
//! run is deterministic and offline. The system is timed in one place,
//! the `benchmark/` workspace.

pub mod invariants;
pub mod prop;
pub mod tempdir;
pub mod textfuzz;

pub use invariants::eventually;
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
