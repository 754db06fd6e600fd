//! Study drivers and figure/table regenerators.
//!
//! * [`controlled`] — the Northwestern controlled study (§3): 33 users ×
//!   4 tasks × 8 testcases, executed through the real client/server
//!   pipeline (deterministic-mode clients, hot-synced results).
//! * [`internet`] — the Internet-wide study (§4): ~100 heterogeneous
//!   clients with Poisson run arrivals sampling a >2000-testcase library.
//! * [`figures`] — regenerators for Figures 9–16 and 18.
//! * [`skill`] — the Figure 17 skill-class t-test table.
//! * [`frog`] — the §3.3.5 ramp-vs-step ("frog in the pot") analysis.
//! * [`report`] — fixed-width table rendering and the paper-vs-measured
//!   comparison report behind EXPERIMENTS.md.
//! * [`closedloop`] — the closed-loop borrowing evaluation: the
//!   server-aggregated comfort model driving a client-side
//!   `BorrowingGovernor`, scored against fixed borrowing levels.
//! * [`db`] — the Figure 2 analysis database: indexed, queryable run
//!   records importable from the server's text store.
//! * [`export`] — CSV series for every figure, for external plotting.
//! * [`dynamics`] — question 5 over the Internet-study data: discomfort
//!   probability by exercise-function shape at matched mean borrowing.
//! * [`perception_study`] — the calibration-free reproduction: the study
//!   re-run with perception-driven users on full-fidelity machines.
//!
//! The `uucs-study` binary exposes all of it:
//! `cargo run -p uucs-study -- --all`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod closedloop;
pub mod controlled;
pub mod db;
pub mod dynamics;
pub mod export;
pub mod figures;
pub mod fleet;
pub mod frog;
pub mod internet;
pub mod perception_study;
pub mod report;
pub mod skill;

pub use closedloop::{ClosedLoop, ClosedLoopConfig, ClosedLoopData};
pub use fleet::{FleetConfig, FleetReport};
pub use controlled::{ControlledStudy, StudyConfig, StudyData};
pub use internet::{InternetStudy, InternetStudyConfig};
