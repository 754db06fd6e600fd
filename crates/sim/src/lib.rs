//! A discrete-event machine simulator — the substrate standing in for the
//! paper's study machine (2.0 GHz P4, 512 MB RAM, 80 GB disk, Windows XP;
//! Figure 7).
//!
//! The controlled study measured user comfort while *resource exercisers*
//! contended with foreground applications on a real Windows host. To make
//! that experiment reproducible and deterministic we simulate the host:
//!
//! * **CPU** — a single core scheduled round-robin with a fixed quantum
//!   over equal-priority threads (the paper's exercisers run at the same
//!   priority as other threads, §2.2). This reproduces the paper's law
//!   that a busy thread competing with contention `c` runs at `1/(1+c)`
//!   of its standalone rate, including the quantum-granularity jitter
//!   that matters to a frame-rate-sensitive game.
//! * **Memory** — physical frames with per-region residency bitmaps and
//!   global LRU-ish (region recency + clock) eviction. Touching an
//!   evicted page costs a disk read through the shared disk queue, so
//!   memory pressure and disk contention interact, as on a real machine.
//! * **Disk** — a single-server FIFO queue with a seek + rotation +
//!   transfer service model. Competing I/O streams share bandwidth, so a
//!   foreground I/O-busy thread slows by `1/(1+c)` under disk contention
//!   `c`, as the paper's disk exerciser produces.
//!
//! Simulated programs implement the [`workload::Workload`] trait and
//! yield [`workload::Action`]s (compute, busy-wait until a wall-clock
//! instant, sleep, disk I/O, page touches). Both the foreground task
//! models (`uucs-workloads`) and the resource exercisers
//! (`uucs-exercisers`) are `Workload`s, exactly mirroring the paper's
//! "exercisers run at the same priority as other threads".
//!
//! Time is in integer microseconds. Everything is deterministic given the
//! machine seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod disk;
pub mod machine;
pub mod mem;
pub mod metrics;
pub mod workload;

pub use machine::{Machine, MachineConfig, Priority, ThreadId};
pub use metrics::{mean_latency_us, LatencyLog, LatencySample, MachineMetrics, ThreadStats};
pub use workload::{Action, Ctx, RegionId, TouchPattern, Workload};

/// Simulated time in microseconds.
pub type SimTime = u64;

/// Microseconds per millisecond.
pub const MS: SimTime = 1_000;

/// Microseconds per second.
pub const SEC: SimTime = 1_000_000;

/// Converts seconds (f64) to simulated microseconds, rounding.
pub fn secs(s: f64) -> SimTime {
    (s * SEC as f64).round() as SimTime
}

/// Converts simulated microseconds to seconds (f64).
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / SEC as f64
}
