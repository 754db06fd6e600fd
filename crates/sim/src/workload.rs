//! The interface simulated programs implement.
//!
//! A [`Workload`] is driven pull-style: whenever its thread finishes the
//! previous action, the machine asks for the next one. Foreground task
//! models, resource exercisers, and synthetic probes are all `Workload`s
//! scheduled at equal priority, as in the paper (§2.2).

use crate::SimTime;
use uucs_stats::Pcg64;

/// Identifier of an allocated memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub(crate) usize);

/// How a [`Action::Touch`] selects pages within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchPattern {
    /// Touch the first `count` pages of the region — the memory
    /// exerciser's working-set inflation (it touches "the fraction
    /// corresponding to the contention level", §2.2).
    Prefix,
    /// Touch `count` pages sampled uniformly from the region — models the
    /// locality of a foreground application revisiting its working set.
    RandomSample,
}

/// The next thing a thread wants to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Consume `us` microseconds of CPU *service* (takes longer on the
    /// wall clock under contention).
    Compute {
        /// CPU service demand in microseconds at full speed.
        us: SimTime,
    },
    /// Spin (stay runnable, consuming CPU) until the wall clock reaches
    /// `until`. This is the calibrated busy-wait loop of the paper's CPU
    /// exerciser: it burns whatever CPU the scheduler grants until the
    /// subinterval ends.
    BusyUntil {
        /// Absolute simulated time to spin until.
        until: SimTime,
    },
    /// Sleep (block) until the given absolute time — `::Sleep` in the
    /// paper's exerciser loop.
    SleepUntil {
        /// Absolute simulated time to wake at.
        until: SimTime,
    },
    /// Perform disk I/O: `ops` random-access operations of `bytes_per_op`
    /// bytes each, write-through/synced (the paper's disk exerciser does a
    /// random seek followed by a synced write, §2.2). The thread blocks
    /// until the transfer completes.
    DiskIo {
        /// Number of random-access operations.
        ops: u32,
        /// Payload bytes per operation.
        bytes_per_op: u32,
    },
    /// Touch `count` pages of `region` with the given pattern. Resident
    /// pages cost a trivial amount of CPU; evicted or never-loaded pages
    /// of a file-backed region fault and cost disk reads. The thread
    /// blocks until all faults are serviced.
    Touch {
        /// Which region to touch.
        region: RegionId,
        /// How many pages.
        count: u32,
        /// Page selection pattern.
        pattern: TouchPattern,
    },
    /// The thread is finished and will never run again.
    Exit,
}

/// Context handed to a workload when the machine asks for its next action.
///
/// Provides the clock, a per-thread deterministic RNG, memory-region
/// management, and latency recording (the monitoring data the UUCS client
/// stores with each testcase run, §2.3).
pub struct Ctx<'a> {
    /// Current simulated time (µs).
    pub now: SimTime,
    /// Per-thread deterministic RNG.
    pub rng: &'a mut Pcg64,
    pub(crate) mem: &'a mut crate::mem::MemoryManager,
    pub(crate) latencies: &'a mut crate::metrics::LatencyLog,
    pub(crate) thread: crate::ThreadId,
}

impl Ctx<'_> {
    /// Allocates a virtual memory region of `pages` pages. Allocation is
    /// bookkeeping only; frames are claimed on first touch.
    ///
    /// `file_backed` regions fault their pages in from disk on first
    /// touch (application code/data); anonymous regions zero-fill on
    /// first touch (the exerciser's pool) and only fault when re-touching
    /// an evicted page (swap-in).
    pub fn alloc_region(&mut self, pages: u32, file_backed: bool) -> RegionId {
        self.mem.alloc(self.thread, pages, file_backed)
    }

    /// Frees a region, releasing its resident frames.
    pub fn free_region(&mut self, region: RegionId) {
        self.mem.free(region);
    }

    /// Number of currently resident pages in a region.
    pub fn resident_pages(&self, region: RegionId) -> u32 {
        self.mem.resident_pages(region)
    }

    /// Records an interactive latency sample (e.g. keystroke echo time or
    /// frame time), tagged with a static class name.
    pub fn record_latency(&mut self, class: &'static str, latency_us: SimTime) {
        self.latencies.push(crate::metrics::LatencySample {
            at: self.now,
            class,
            latency_us,
        });
    }
}

/// A simulated program.
pub trait Workload {
    /// Returns the next action for this thread. Called at spawn time and
    /// whenever the previous action completes.
    fn next_action(&mut self, ctx: &mut Ctx<'_>) -> Action;

    /// Human-readable name for debugging and metrics.
    fn name(&self) -> &str {
        "workload"
    }
}

/// A workload built from a closure — convenient for tests and probes.
pub struct FnWorkload<F: FnMut(&mut Ctx<'_>) -> Action> {
    name: String,
    f: F,
}

impl<F: FnMut(&mut Ctx<'_>) -> Action> FnWorkload<F> {
    /// Wraps a closure as a workload.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnWorkload {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(&mut Ctx<'_>) -> Action> Workload for FnWorkload<F> {
    fn next_action(&mut self, ctx: &mut Ctx<'_>) -> Action {
        (self.f)(ctx)
    }

    fn name(&self) -> &str {
        &self.name
    }
}
