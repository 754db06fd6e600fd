//! The UUCS benchmark: six named workloads against the real
//! `uucs-server` / `uucs-clusterd` processes and the study library,
//! reporting end-to-end metrics untraced and per-layer metrics from a
//! traced run. See `README.md` for the metric tables and how to read
//! the output, and `run.sh` for the one command that builds and runs.
//!
//! Nothing outside this directory (and `BENCHMARK.json`) belongs to the
//! benchmark: the crates are path dependencies, used only through their
//! public items.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checks;
pub mod gen;
pub mod json;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod procs;
pub mod report;
pub mod restart;
pub mod spans;
pub mod stats;
pub mod study;
pub mod traffic;

use report::{Opts, RunOutput};

/// Runs one workload by name and puts its metrics in table order.
pub fn run_workload(name: &str, opts: &Opts) -> Result<RunOutput, String> {
    let out = match name {
        "ack-latency" => traffic::run(&traffic::ACK_LATENCY, opts),
        "pipelined-ingest" => traffic::run(&traffic::PIPELINED_INGEST, opts),
        "hot-sync" => traffic::run(&traffic::HOT_SYNC, opts),
        "quorum-ack" => traffic::run(&traffic::QUORUM_ACK, opts),
        "restart-recovery" => restart::run(opts),
        "controlled-study" => study::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    out.finish(opts.trace)
}
