//! # uucs-modelsvc — comfort-model aggregation
//!
//! The paper's measurement loop ends with per-user discomfort records;
//! its *application* (§6) starts where this crate does: turn the
//! fleet's uploaded records into **discomfort-level CDF models** the
//! server can serve back, so clients can pick a borrowing level whose
//! predicted discomfort probability stays under a target epsilon (the
//! paper's `c_0.05` summary statistic).
//!
//! The crate is deliberately small and std-only:
//!
//! * [`QuantileSketch`] — a deterministic, mergeable streaming sketch
//!   of a discomfort-level distribution over a bounded domain, with a
//!   documented one-bin-width error bound, exact commutative and
//!   associative merges, and a compact single-line text encoding reused
//!   verbatim for WAL persistence and the wire.
//! * [`ComfortModel`] — sketches keyed by cohort
//!   `(resource, task, skill-class)` with an epoch counter, folded from
//!   the observations of uploaded records; its full-model text is what
//!   the server caches beside its results journal.
//!
//! The server half lives in `uucs-server` (`ModelStore`, the `MODEL`
//! and `ADVICE` verbs); the client half in `uucs-client`
//! (`BorrowingGovernor`); the closed-loop evaluation in `uucs-study`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod model;
mod sketch;

pub use model::{advice_from, CohortKey, ComfortModel, Observation, SKILL_UNRATED};
pub use sketch::{MergeError, QuantileSketch, SketchDelta, DEFAULT_BINS, MAX_BINS};
