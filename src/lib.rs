//! # UUCS-RS — Understanding User Comfort with Resource Borrowing
//!
//! A Rust reproduction of *Gupta, Lin, Dinda, "Measuring and Understanding
//! User Comfort With Resource Borrowing", HPDC 2004*.
//!
//! This façade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`stats`] — deterministic RNG, distributions, ECDFs, t-tests.
//! * [`testcase`] — exercise functions (step/ramp/sin/saw/expexp/exppar)
//!   and testcases, with the paper's text-file format.
//! * [`sim`] — the discrete-event machine simulator (CPU scheduler,
//!   memory/paging, disk) that stands in for the study's Windows host.
//! * [`workloads`] — foreground task models (Word, Powerpoint, IE, Quake).
//! * [`exercisers`] — CPU/memory/disk resource exercisers, both
//!   simulator-backed and native.
//! * [`comfort`] — the core contribution: synthetic user comfort models,
//!   the run engine, comfort metrics (`f_d`, `c_p`, `c_a`), and the
//!   throttle advisor.
//! * [`modelsvc`] — mergeable streaming quantile sketches and the
//!   cohort-keyed comfort model behind the `MODEL`/`ADVICE` verbs and
//!   the client's closed-loop borrowing governor.
//! * [`protocol`] — the client/server text record formats and framing.
//! * [`wire`] — the negotiated binary wire protocol (v2): CRC-framed
//!   typed encodings, request pipelining, and epoch-delta model sync.
//! * [`server`] / [`client`] — the distributed measurement application.
//! * [`cluster`] — the replicated server tier: WAL shipping to
//!   followers (which derive the comfort model from what they apply)
//!   and deterministic leader takeover.
//! * [`study`] — the controlled-study and Internet-study drivers plus the
//!   figure/table renderers for every result in the paper.
//! * [`telemetry`] — std-only metrics (counters/gauges/histograms),
//!   spans on a pluggable clock, and the flight recorder; surfaced over
//!   the wire by the `STATS` verb.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use uucs_client as client;
pub use uucs_cluster as cluster;
pub use uucs_comfort as comfort;
pub use uucs_exercisers as exercisers;
pub use uucs_modelsvc as modelsvc;
pub use uucs_protocol as protocol;
pub use uucs_server as server;
pub use uucs_sim as sim;
pub use uucs_stats as stats;
pub use uucs_study as study;
pub use uucs_telemetry as telemetry;
pub use uucs_testcase as testcase;
pub use uucs_wal as wal;
pub use uucs_wire as wire;
pub use uucs_workloads as workloads;
