//! The simulated machine: threads, round-robin CPU scheduling, and the
//! glue between workloads, memory, and disk.

use crate::disk::{Disk, DiskConfig, Request};
use crate::mem::{EvictionPolicy, MemStats, MemoryManager};
use crate::metrics::{MachineMetrics, ThreadStats};
use crate::workload::{Action, Ctx, TouchPattern, Workload};
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use uucs_stats::Pcg64;
use uucs_telemetry::{clock, metrics};

/// Thread identifier (index into the machine's thread table).
pub type ThreadId = usize;

/// Machine parameters. Defaults match the study machine of Figure 7:
/// a single 2.0 GHz CPU, 512 MB of RAM (131072 × 4 KB pages) and a
/// desktop disk, with a 10 ms scheduling quantum.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Scheduler quantum, µs.
    pub quantum_us: SimTime,
    /// Physical memory size in pages.
    pub mem_pages: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// CPU cost of zero-filling a fresh anonymous page, µs.
    pub zero_fill_us_per_page: SimTime,
    /// Resident pages touchable per µs of CPU.
    pub touch_pages_per_us: u32,
    /// Page-in operations batched per disk request, so a large fault run
    /// does not monopolize the FIFO disk.
    pub fault_chunk: u32,
    /// How memory victims are chosen under pressure.
    pub eviction: EvictionPolicy,
    /// Disk timing.
    pub disk: DiskConfig,
    /// Relative CPU speed: service demands are expressed in µs on the
    /// reference machine; a machine with `speed = 2.0` executes them in
    /// half the wall time. Supports the paper's question 6 (dependence on
    /// raw host power), studied Internet-wide.
    pub speed: f64,
    /// Seed for all per-thread RNG streams.
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            quantum_us: 10_000,
            mem_pages: 131_072,
            page_size: 4096,
            zero_fill_us_per_page: 1,
            touch_pages_per_us: 16,
            fault_chunk: 8,
            eviction: EvictionPolicy::default(),
            disk: DiskConfig::default(),
            speed: 1.0,
            seed: 0x5eed,
        }
    }
}

/// Scheduling priority class. The paper's §1 contrasts systems that
/// "run at a very low priority" with its own equal-priority exercisers;
/// the simulator supports both so the difference can be measured (see
/// the `ablations` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Normal, timeshared with every other normal thread.
    #[default]
    Normal,
    /// Strictly lower: runs only when no normal thread is runnable, and
    /// is preempted the moment one becomes runnable.
    Low,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Needs `next_action` when scheduled; queued in the run queue.
    Fetch,
    /// Computing; `remaining` is reference-µs of service left.
    Compute { remaining: SimTime },
    /// Spinning until an absolute time.
    Busy { until: SimTime },
    /// Blocked until a wake event.
    Sleeping,
    /// Blocked on disk completion.
    BlockedDisk,
    /// Finished.
    Exited,
}

/// Disk work still to be submitted for a thread's current blocking action.
/// Requests are issued in chunks so competing streams interleave per
/// chunk in the FIFO queue, as write-through I/O does on a real disk.
#[derive(Debug, Clone, Copy)]
struct PendingIo {
    remaining_ops: u32,
    chunk: u32,
    bytes_per_op: u32,
    synced: bool,
    /// Whether completed ops count as page faults in the thread stats.
    faults: bool,
}

struct Thread {
    name: String,
    workload: Option<Box<dyn Workload>>,
    state: State,
    priority: Priority,
    stats: ThreadStats,
    rng: Pcg64,
    /// Disk work still to submit for the current blocking action.
    pending_io: Option<PendingIo>,
    /// Guard against workloads that never advance time.
    zero_time_fetches: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Wake(ThreadId),
    DiskDone,
}

/// The simulated machine.
///
/// ```
/// use uucs_sim::{workload::FnWorkload, Action, Machine, SEC};
/// let mut m = Machine::study_machine(1);
/// let t = m.spawn(
///     "busy",
///     Box::new(FnWorkload::new("busy", |_| Action::Compute { us: 1_000 })),
/// );
/// m.run_until(2 * SEC);
/// assert_eq!(m.thread_stats(t).cpu_us, 2 * SEC); // alone: all the CPU
/// ```
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    threads: Vec<Thread>,
    run_queue: VecDeque<ThreadId>,
    low_queue: VecDeque<ThreadId>,
    current: Option<ThreadId>,
    quantum_end: SimTime,
    events: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
    mem: MemoryManager,
    disk: Disk,
    metrics: MachineMetrics,
    rng_root: Pcg64,
    /// Events popped off the heap over this machine's life; flushed to
    /// the process-global `sim.events.dispatched` counter on drop so the
    /// hot loop only bumps a plain local integer.
    events_dispatched: u64,
    /// When set, every advance of `now` is mirrored into the telemetry
    /// virtual clock (`clock::set_virtual_ns`), so spans and flight
    /// events recorded during a simulation carry simulated timestamps.
    drive_clock: bool,
}

impl Machine {
    /// Creates a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.quantum_us > 0 && cfg.speed > 0.0 && cfg.fault_chunk > 0);
        let mem = MemoryManager::with_policy(cfg.mem_pages, cfg.eviction);
        let disk = Disk::new(cfg.disk);
        let rng_root = Pcg64::new(cfg.seed);
        Machine {
            cfg,
            now: 0,
            threads: Vec::new(),
            run_queue: VecDeque::new(),
            low_queue: VecDeque::new(),
            current: None,
            quantum_end: 0,
            events: BinaryHeap::new(),
            seq: 0,
            mem,
            disk,
            metrics: MachineMetrics::default(),
            rng_root,
            events_dispatched: 0,
            drive_clock: false,
        }
    }

    /// Mirrors simulated time into the telemetry virtual clock while
    /// this machine runs. Only meaningful when the telemetry clock is in
    /// virtual mode (`uucs_telemetry::clock::install_virtual`); in real
    /// mode the mirroring is a no-op, so enabling this unconditionally
    /// is safe.
    pub fn drive_telemetry_clock(&mut self, enable: bool) {
        self.drive_clock = enable;
    }

    /// Creates a machine with the Figure 7 configuration and a seed.
    pub fn study_machine(seed: u64) -> Self {
        Machine::new(MachineConfig {
            seed,
            ..MachineConfig::default()
        })
    }

    /// Current simulated time, µs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Machine-wide metrics.
    pub fn metrics(&self) -> &MachineMetrics {
        &self.metrics
    }

    /// Memory statistics.
    pub fn mem_stats(&self) -> MemStats {
        self.mem.stats()
    }

    /// Resident frame count.
    pub fn mem_resident(&self) -> u32 {
        self.mem.resident_total()
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> crate::disk::DiskStats {
        self.disk.stats()
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, tid: ThreadId) -> &ThreadStats {
        &self.threads[tid].stats
    }

    /// Thread name.
    pub fn thread_name(&self, tid: ThreadId) -> &str {
        &self.threads[tid].name
    }

    /// True until the thread exits or is killed.
    pub fn is_alive(&self, tid: ThreadId) -> bool {
        self.threads[tid].state != State::Exited
    }

    /// Spawns a workload as a new thread, runnable immediately, at
    /// normal priority.
    pub fn spawn(&mut self, name: impl Into<String>, workload: Box<dyn Workload>) -> ThreadId {
        self.spawn_with_priority(name, workload, Priority::Normal)
    }

    /// Spawns a workload at an explicit priority class.
    pub fn spawn_with_priority(
        &mut self,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        priority: Priority,
    ) -> ThreadId {
        let tid = self.threads.len();
        let rng = self.rng_root.split(tid as u64 + 1);
        self.threads.push(Thread {
            name: name.into(),
            workload: Some(workload),
            state: State::Fetch,
            priority,
            stats: ThreadStats::default(),
            rng,
            pending_io: None,
            zero_time_fetches: 0,
        });
        self.enqueue(tid);
        tid
    }

    /// Puts a runnable thread on its class queue; a newly runnable
    /// normal thread preempts a running low-priority thread immediately.
    fn enqueue(&mut self, tid: ThreadId) {
        match self.threads[tid].priority {
            Priority::Normal => {
                self.run_queue.push_back(tid);
                if let Some(cur) = self.current {
                    if self.threads[cur].priority == Priority::Low {
                        self.current = None;
                        self.low_queue.push_front(cur);
                    }
                }
            }
            Priority::Low => self.low_queue.push_back(tid),
        }
    }

    /// Kills a thread immediately, releasing its memory (the UUCS client
    /// stops exercisers and releases their resources the instant the user
    /// expresses discomfort, §2.3). An in-flight disk request completes
    /// harmlessly.
    pub fn kill(&mut self, tid: ThreadId) {
        if self.threads[tid].state == State::Exited {
            return;
        }
        self.threads[tid].state = State::Exited;
        self.threads[tid].pending_io = None;
        self.run_queue.retain(|&t| t != tid);
        self.low_queue.retain(|&t| t != tid);
        if self.current == Some(tid) {
            self.current = None;
        }
        self.mem.free_owned_by(tid);
    }

    fn schedule_event(&mut self, at: SimTime, ev: Event) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, ev)));
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Runs the machine until simulated time `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        assert!(t_end >= self.now, "cannot run backwards");
        loop {
            self.deliver_due_events();
            if self.drive_clock {
                clock::set_virtual_ns(self.now.saturating_mul(1000));
            }
            if self.now >= t_end {
                break;
            }
            // Ensure someone is on the CPU: normal class first, then the
            // low class, else idle.
            if self.current.is_none() {
                match self
                    .run_queue
                    .pop_front()
                    .or_else(|| self.low_queue.pop_front())
                {
                    Some(tid) => self.dispatch(tid),
                    None => {
                        // Idle: jump to the next event (or the horizon).
                        let next = self.next_event_time().unwrap_or(t_end).min(t_end);
                        self.now = next;
                        continue;
                    }
                }
            }
            let tid = self.current.expect("dispatched");
            let mut slice_end = self.quantum_end.min(t_end);
            if let Some(te) = self.next_event_time() {
                slice_end = slice_end.min(te);
            }
            match self.threads[tid].state {
                State::Fetch => self.fetch_and_apply(tid),
                State::Compute { remaining } => {
                    let wall_avail = slice_end - self.now;
                    let work_possible = (wall_avail as f64 * self.cfg.speed) as SimTime;
                    if work_possible >= remaining {
                        let wall_used =
                            ((remaining as f64 / self.cfg.speed).ceil() as SimTime).min(wall_avail);
                        self.advance_cpu(tid, wall_used);
                        self.threads[tid].state = State::Fetch;
                        self.threads[tid].zero_time_fetches = 0;
                    } else {
                        self.advance_cpu(tid, wall_avail);
                        self.threads[tid].state = State::Compute {
                            remaining: remaining - work_possible,
                        };
                        self.maybe_preempt(tid);
                    }
                }
                State::Busy { until } => {
                    if until <= self.now {
                        self.threads[tid].state = State::Fetch;
                    } else {
                        let run_to = slice_end.min(until);
                        self.advance_cpu(tid, run_to - self.now);
                        if self.now >= until {
                            self.threads[tid].state = State::Fetch;
                            self.threads[tid].zero_time_fetches = 0;
                        } else {
                            self.maybe_preempt(tid);
                        }
                    }
                }
                other => unreachable!("current thread in non-runnable state {other:?}"),
            }
        }
    }

    /// Convenience: run for `dt` more microseconds.
    pub fn run_for(&mut self, dt: SimTime) {
        let t = self.now + dt;
        self.run_until(t);
    }

    fn dispatch(&mut self, tid: ThreadId) {
        debug_assert!(matches!(
            self.threads[tid].state,
            State::Fetch | State::Compute { .. } | State::Busy { .. }
        ));
        self.current = Some(tid);
        self.quantum_end = self.now + self.cfg.quantum_us;
        self.threads[tid].stats.dispatches += 1;
        self.metrics.context_switches += 1;
        self.metrics.runq_samples += 1;
        self.metrics.runq_sum += self.run_queue.len() as u64 + 1;
    }

    fn maybe_preempt(&mut self, tid: ThreadId) {
        if self.now >= self.quantum_end {
            self.current = None;
            match self.threads[tid].priority {
                Priority::Normal => self.run_queue.push_back(tid),
                Priority::Low => self.low_queue.push_back(tid),
            }
        }
    }

    fn advance_cpu(&mut self, tid: ThreadId, wall: SimTime) {
        self.now += wall;
        self.threads[tid].stats.cpu_us += wall;
        self.metrics.cpu_busy_us += wall;
    }

    fn deliver_due_events(&mut self) {
        while let Some(Reverse((t, _, _))) = self.events.peek() {
            if *t > self.now {
                break;
            }
            let Reverse((t, _, ev)) = self.events.pop().unwrap();
            debug_assert!(t <= self.now);
            self.events_dispatched += 1;
            match ev {
                Event::Wake(tid) => {
                    if self.threads[tid].state == State::Sleeping {
                        self.threads[tid].state = State::Fetch;
                        self.enqueue(tid);
                    }
                }
                Event::DiskDone => {
                    let (req, next_done) = self.disk.complete(t.max(self.now).min(t));
                    if let Some(d) = next_done {
                        self.schedule_event(d, Event::DiskDone);
                    }
                    self.finish_disk_request(req);
                }
            }
        }
    }

    fn finish_disk_request(&mut self, req: Request) {
        let tid = req.thread;
        if self.threads[tid].state == State::Exited {
            return; // killed while the request was in flight
        }
        self.threads[tid].stats.disk_ops += req.ops as u64;
        self.threads[tid].stats.disk_bytes += req.ops as u64 * req.bytes_per_op as u64;
        if self.threads[tid].pending_io.is_some() {
            self.submit_io_chunk(tid);
        } else {
            debug_assert_eq!(self.threads[tid].state, State::BlockedDisk);
            self.threads[tid].state = State::Fetch;
            self.enqueue(tid);
        }
    }

    fn submit_request(&mut self, req: Request) {
        if let Some(done) = self.disk.submit(req, self.now) {
            self.schedule_event(done, Event::DiskDone);
        }
    }

    /// Submits the next chunk of a thread's pending I/O and clears the
    /// pending record when the last chunk goes out.
    fn submit_io_chunk(&mut self, tid: ThreadId) {
        let mut io = self.threads[tid].pending_io.take().expect("pending io");
        let chunk = io.remaining_ops.min(io.chunk).max(1);
        io.remaining_ops -= chunk;
        if io.faults {
            self.threads[tid].stats.faults += chunk as u64;
        }
        let req = Request {
            thread: tid,
            ops: chunk,
            bytes_per_op: io.bytes_per_op,
            synced: io.synced,
        };
        if io.remaining_ops > 0 {
            self.threads[tid].pending_io = Some(io);
        }
        self.submit_request(req);
    }

    /// Begins a blocking disk transfer for `tid`.
    fn begin_io(&mut self, tid: ThreadId, io: PendingIo) {
        debug_assert!(io.remaining_ops > 0);
        self.threads[tid].state = State::BlockedDisk;
        self.threads[tid].zero_time_fetches = 0;
        if self.current == Some(tid) {
            self.current = None;
        }
        self.threads[tid].pending_io = Some(io);
        self.submit_io_chunk(tid);
    }

    fn fetch_and_apply(&mut self, tid: ThreadId) {
        let th = &mut self.threads[tid];
        th.zero_time_fetches += 1;
        assert!(
            th.zero_time_fetches < 10_000,
            "workload {:?} (thread {tid}) made 10000 consecutive zero-time actions",
            th.name
        );
        let mut wl = th.workload.take().expect("workload present");
        let action = {
            let th = &mut self.threads[tid];
            let mut ctx = Ctx {
                now: self.now,
                rng: &mut th.rng,
                mem: &mut self.mem,
                latencies: &mut th.stats.latencies,
                thread: tid,
            };
            wl.next_action(&mut ctx)
        };
        self.threads[tid].workload = Some(wl);
        match action {
            Action::Compute { us } => {
                self.threads[tid].state = State::Compute {
                    remaining: us.max(1),
                };
                self.threads[tid].zero_time_fetches = 0;
            }
            Action::BusyUntil { until } => {
                self.threads[tid].state = State::Busy { until };
            }
            Action::SleepUntil { until } => {
                let wake = until.max(self.now);
                self.threads[tid].state = State::Sleeping;
                self.schedule_event(wake, Event::Wake(tid));
                self.current = None;
            }
            Action::DiskIo { ops, bytes_per_op } => {
                // Explicit I/O interleaves per op: each random synced
                // write re-queues behind competitors.
                self.begin_io(
                    tid,
                    PendingIo {
                        remaining_ops: ops.max(1),
                        chunk: 1,
                        bytes_per_op,
                        synced: true,
                        faults: false,
                    },
                );
            }
            Action::Touch {
                region,
                count,
                pattern,
            } => self.apply_touch(tid, region, count, pattern),
            Action::Exit => {
                self.kill(tid);
            }
        }
    }

    fn apply_touch(
        &mut self,
        tid: ThreadId,
        region: crate::workload::RegionId,
        count: u32,
        pattern: TouchPattern,
    ) {
        let outcome = {
            let th = &mut self.threads[tid];
            self.mem.touch(region, count, pattern, self.now, &mut th.rng)
        };
        self.threads[tid].stats.zero_fills += outcome.zero_fills as u64;
        if outcome.faults > 0 {
            // Faults dominate: service them through the disk, chunked so
            // other requests can interleave.
            let chunk = self.cfg.fault_chunk;
            let page = self.cfg.page_size;
            self.begin_io(
                tid,
                PendingIo {
                    remaining_ops: outcome.faults,
                    chunk,
                    bytes_per_op: page,
                    synced: false,
                    faults: true,
                },
            );
        } else {
            let cpu = outcome.hits as SimTime / self.cfg.touch_pages_per_us.max(1) as SimTime
                + outcome.zero_fills as SimTime * self.cfg.zero_fill_us_per_page;
            self.threads[tid].state = State::Compute {
                remaining: cpu.max(1),
            };
            self.threads[tid].zero_time_fetches = 0;
        }
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        // One registry touch per machine lifetime, not per event.
        if self.events_dispatched > 0 {
            metrics::counter("sim.events.dispatched").add(self.events_dispatched);
        }
        metrics::gauge("sim.events.queue_depth").set(self.events.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FnWorkload;
    use crate::{MS, SEC};

    /// A thread that computes in bursts forever and records nothing.
    fn busy_forever() -> Box<dyn Workload> {
        Box::new(FnWorkload::new("busy", |_ctx| Action::Compute { us: 1000 }))
    }

    #[test]
    fn drop_flushes_event_telemetry_and_clock_follows_sim_time() {
        let before = metrics::counter("sim.events.dispatched").get();
        clock::install_virtual(0);
        {
            let mut m = Machine::study_machine(9);
            m.drive_telemetry_clock(true);
            // A sleeper generates a Wake event per nap.
            m.spawn(
                "napper",
                Box::new(FnWorkload::new("napper", |ctx| Action::SleepUntil {
                    until: ctx.now + 10 * MS,
                })),
            );
            m.run_until(SEC);
            // Simulated µs mirror into virtual ns while the machine runs.
            assert_eq!(clock::now_ns(), SEC * 1000);
        }
        // The machine flushed its event tally on drop. Other tests in
        // this binary drop machines concurrently, so assert the delta as
        // a floor rather than an exact count: ~100 naps → ≥50 wakes.
        let after = metrics::counter("sim.events.dispatched").get();
        assert!(
            after >= before + 50,
            "expected ≥50 dispatched events flushed, got {}",
            after - before
        );
        clock::uninstall_virtual();
    }

    #[test]
    fn single_compute_thread_finishes_on_time() {
        let mut m = Machine::study_machine(1);
        let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let d2 = done.clone();
        let mut issued = false;
        m.spawn(
            "one-shot",
            Box::new(FnWorkload::new("one-shot", move |ctx| {
                if !issued {
                    issued = true;
                    Action::Compute { us: 50_000 }
                } else {
                    d2.set(ctx.now);
                    Action::Exit
                }
            })),
        );
        m.run_until(SEC);
        // Alone on the machine: 50 ms of service takes 50 ms of wall time.
        assert_eq!(done.get(), 50_000);
    }

    #[test]
    fn two_busy_threads_share_equally() {
        let mut m = Machine::study_machine(2);
        let a = m.spawn("a", busy_forever());
        let b = m.spawn("b", busy_forever());
        m.run_until(10 * SEC);
        let ca = m.thread_stats(a).cpu_us as f64;
        let cb = m.thread_stats(b).cpu_us as f64;
        assert!((ca / (ca + cb) - 0.5).abs() < 0.01, "{ca} vs {cb}");
        // CPU is saturated.
        assert!(m.metrics().cpu_utilization(m.now()) > 0.999);
    }

    #[test]
    fn one_against_k_gets_inverse_share() {
        // The paper's law: against contention c (= k busy threads) a busy
        // thread runs at 1/(1+c) of its standalone rate (§2.2).
        for k in 1..=9usize {
            let mut m = Machine::study_machine(3);
            let probe = m.spawn("probe", busy_forever());
            for i in 0..k {
                m.spawn(format!("bg{i}"), busy_forever());
            }
            m.run_until(20 * SEC);
            let share = m.thread_stats(probe).cpu_us as f64 / m.now() as f64;
            let expect = 1.0 / (1.0 + k as f64);
            assert!(
                (share - expect).abs() < 0.02,
                "k={k}: share {share} expected {expect}"
            );
        }
    }

    #[test]
    fn sleeping_thread_consumes_nothing_and_wakes_on_time() {
        let mut m = Machine::study_machine(4);
        let woke = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let w2 = woke.clone();
        let mut phase = 0;
        let t = m.spawn(
            "sleeper",
            Box::new(FnWorkload::new("sleeper", move |ctx| {
                phase += 1;
                match phase {
                    1 => Action::SleepUntil { until: 300 * MS },
                    _ => {
                        w2.set(ctx.now);
                        Action::Exit
                    }
                }
            })),
        );
        m.spawn("noise", busy_forever());
        m.run_until(SEC);
        assert_eq!(woke.get(), 300 * MS);
        assert!(m.thread_stats(t).cpu_us < MS);
    }

    #[test]
    fn busy_until_spins_for_wall_time() {
        let mut m = Machine::study_machine(5);
        let mut phase = 0;
        let t = m.spawn(
            "spinner",
            Box::new(FnWorkload::new("spinner", move |_ctx| {
                phase += 1;
                match phase {
                    1 => Action::BusyUntil { until: 100 * MS },
                    _ => Action::Exit,
                }
            })),
        );
        m.run_until(SEC);
        // Alone, the spinner burns exactly the wall time.
        assert_eq!(m.thread_stats(t).cpu_us, 100 * MS);
        assert!(!m.is_alive(t));
    }

    #[test]
    fn busy_until_with_competitor_still_ends_near_target() {
        let mut m = Machine::study_machine(6);
        let mut phase = 0;
        let end = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let e2 = end.clone();
        let t = m.spawn(
            "spinner",
            Box::new(FnWorkload::new("spinner", move |ctx| {
                phase += 1;
                match phase {
                    1 => Action::BusyUntil { until: 100 * MS },
                    _ => {
                        e2.set(ctx.now);
                        Action::Exit
                    }
                }
            })),
        );
        m.spawn("noise", busy_forever());
        m.run_until(SEC);
        // The spin ends within one quantum of the wall-clock target.
        let slack = m.config().quantum_us;
        assert!(end.get() >= 100 * MS && end.get() <= 100 * MS + slack);
        // But it only got ~half the CPU.
        let cpu = m.thread_stats(t).cpu_us as f64;
        assert!((cpu / (100.0 * MS as f64) - 0.5).abs() < 0.1, "cpu {cpu}");
    }

    #[test]
    fn disk_io_blocks_for_service_time() {
        let mut m = Machine::study_machine(7);
        let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let d2 = done.clone();
        let mut phase = 0;
        m.spawn(
            "io",
            Box::new(FnWorkload::new("io", move |ctx| {
                phase += 1;
                match phase {
                    1 => Action::DiskIo {
                        ops: 1,
                        bytes_per_op: 4096,
                    },
                    _ => {
                        d2.set(ctx.now);
                        Action::Exit
                    }
                }
            })),
        );
        m.run_until(SEC);
        let expect = m.config().disk.service_us(1, 4096, true);
        assert_eq!(done.get(), expect);
    }

    #[test]
    fn disk_shared_fifo_slows_competitors() {
        // Foreground I/O against k competing I/O threads completes ~1/(1+k)
        // as many ops.
        let mk_io_loop = || {
            Box::new(FnWorkload::new("io-loop", |_ctx| Action::DiskIo {
                ops: 1,
                bytes_per_op: 65536,
            })) as Box<dyn Workload>
        };
        let solo_ops = {
            let mut m = Machine::study_machine(8);
            let t = m.spawn("fg", mk_io_loop());
            m.run_until(30 * SEC);
            m.thread_stats(t).disk_ops
        };
        for k in [1usize, 3] {
            let mut m = Machine::study_machine(8);
            let t = m.spawn("fg", mk_io_loop());
            for i in 0..k {
                m.spawn(format!("bg{i}"), mk_io_loop());
            }
            m.run_until(30 * SEC);
            let ops = m.thread_stats(t).disk_ops;
            let ratio = ops as f64 / solo_ops as f64;
            let expect = 1.0 / (1.0 + k as f64);
            assert!(
                (ratio - expect).abs() < 0.1,
                "k={k}: ratio {ratio} expected {expect}"
            );
        }
    }

    #[test]
    fn touch_resident_is_cheap_faults_hit_disk() {
        let mut m = Machine::study_machine(9);
        let mut phase = 0;
        let mut region = None;
        let t = m.spawn(
            "toucher",
            Box::new(FnWorkload::new("toucher", move |ctx| {
                phase += 1;
                match phase {
                    1 => {
                        region = Some(ctx.alloc_region(1000, true));
                        Action::Touch {
                            region: region.unwrap(),
                            count: 1000,
                            pattern: TouchPattern::Prefix,
                        }
                    }
                    2 => Action::Touch {
                        region: region.unwrap(),
                        count: 1000,
                        pattern: TouchPattern::Prefix,
                    },
                    _ => Action::Exit,
                }
            })),
        );
        m.run_until(60 * SEC);
        let st = m.thread_stats(t);
        // First touch faulted all 1000 pages in from disk.
        assert_eq!(st.faults, 1000);
        assert_eq!(st.disk_ops, 1000);
        // Second touch was all hits: only trivial CPU.
        assert!(st.cpu_us < 10 * MS);
        assert_eq!(m.mem_stats().faults, 1000);
    }

    #[test]
    fn kill_releases_memory_and_stops_thread() {
        let mut m = Machine::study_machine(10);
        let mut inited = false;
        let t = m.spawn(
            "hog",
            Box::new(FnWorkload::new("hog", move |ctx| {
                if !inited {
                    inited = true;
                    let r = ctx.alloc_region(5000, false);
                    Action::Touch {
                        region: r,
                        count: 5000,
                        pattern: TouchPattern::Prefix,
                    }
                } else {
                    Action::Compute { us: 1000 }
                }
            })),
        );
        m.run_until(SEC);
        assert_eq!(m.mem_resident(), 5000);
        m.kill(t);
        assert_eq!(m.mem_resident(), 0);
        assert!(!m.is_alive(t));
        let cpu_at_kill = m.thread_stats(t).cpu_us;
        m.run_until(2 * SEC);
        assert_eq!(m.thread_stats(t).cpu_us, cpu_at_kill);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut m = Machine::study_machine(seed);
            let a = m.spawn("a", busy_forever());
            m.spawn(
                "io",
                Box::new(FnWorkload::new("io", |ctx| {
                    if ctx.rng.bernoulli(0.3) {
                        Action::DiskIo {
                            ops: 1,
                            bytes_per_op: 8192,
                        }
                    } else {
                        Action::Compute { us: 500 }
                    }
                })),
            );
            m.run_until(5 * SEC);
            (m.thread_stats(a).cpu_us, m.disk_stats().ops, m.metrics().context_switches)
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn speed_factor_scales_service() {
        let mut m = Machine::new(MachineConfig {
            speed: 2.0,
            ..MachineConfig::default()
        });
        let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let d2 = done.clone();
        let mut issued = false;
        m.spawn(
            "fast",
            Box::new(FnWorkload::new("fast", move |ctx| {
                if !issued {
                    issued = true;
                    Action::Compute { us: 100_000 }
                } else {
                    d2.set(ctx.now);
                    Action::Exit
                }
            })),
        );
        m.run_until(SEC);
        // 100 ms of reference service at 2x speed = 50 ms wall.
        assert!((done.get() as i64 - 50_000).abs() <= 1, "{}", done.get());
    }

    #[test]
    fn latency_recording_via_ctx() {
        let mut m = Machine::study_machine(11);
        let mut phase = 0;
        let t = m.spawn(
            "rec",
            Box::new(FnWorkload::new("rec", move |ctx| {
                phase += 1;
                match phase {
                    1 => Action::Compute { us: 5000 },
                    2 => {
                        ctx.record_latency("op", ctx.now);
                        Action::Exit
                    }
                    _ => unreachable!(),
                }
            })),
        );
        m.run_until(SEC);
        assert_eq!(m.thread_stats(t).latency_count("op"), 1);
        assert_eq!(m.thread_stats(t).latencies.get(0).unwrap().latency_us, 5000);
    }

    #[test]
    fn idle_machine_jumps_time() {
        let mut m = Machine::study_machine(12);
        m.run_until(42 * SEC);
        assert_eq!(m.now(), 42 * SEC);
        assert_eq!(m.metrics().cpu_busy_us, 0);
    }

    #[test]
    fn low_priority_thread_runs_only_in_gaps() {
        let mut m = Machine::study_machine(20);
        // A normal thread busy 50% of the time (100 ms on, 100 ms off).
        let mut busy = true;
        m.spawn(
            "fg",
            Box::new(FnWorkload::new("fg", move |ctx| {
                busy = !busy;
                if busy {
                    Action::Compute { us: 100_000 }
                } else {
                    Action::SleepUntil {
                        until: ctx.now + 100_000,
                    }
                }
            })),
        );
        let low = m.spawn_with_priority("bg", busy_forever(), Priority::Low);
        m.run_until(10 * SEC);
        let share = m.thread_stats(low).cpu_us as f64 / m.now() as f64;
        // The low thread soaks up almost exactly the idle half.
        assert!((share - 0.5).abs() < 0.03, "share {share}");
        // And the machine is fully utilized.
        assert!(m.metrics().cpu_utilization(m.now()) > 0.99);
    }

    #[test]
    fn low_priority_never_delays_normal_threads() {
        // Against a fully busy normal thread, a low thread gets nothing.
        let mut m = Machine::study_machine(21);
        let fg = m.spawn("fg", busy_forever());
        let low = m.spawn_with_priority("bg", busy_forever(), Priority::Low);
        m.run_until(5 * SEC);
        assert_eq!(m.thread_stats(low).cpu_us, 0);
        assert_eq!(m.thread_stats(fg).cpu_us, 5 * SEC);
    }

    #[test]
    fn normal_wake_preempts_low_immediately() {
        let mut m = Machine::study_machine(22);
        // Normal thread: sleep 50 ms, then need 10 ms of CPU, recording
        // the response latency.
        let mut phase = 0;
        let mut slept_at = 0;
        let fg = m.spawn(
            "fg",
            Box::new(FnWorkload::new("fg", move |ctx| {
                phase += 1;
                match phase % 3 {
                    1 => {
                        slept_at = ctx.now + 50_000;
                        Action::SleepUntil { until: slept_at }
                    }
                    2 => Action::Compute { us: 10_000 },
                    _ => {
                        ctx.record_latency("resp", ctx.now - slept_at);
                        Action::Compute { us: 1 }
                    }
                }
            })),
        );
        m.spawn_with_priority("bg", busy_forever(), Priority::Low);
        m.run_until(5 * SEC);
        // With preemptive priorities, response time is the service time,
        // not service + a leftover background quantum.
        let mean = m.thread_stats(fg).mean_latency("resp").unwrap();
        assert!(
            (mean - 10_000.0).abs() < 200.0,
            "mean response {mean} (low-priority thread should not delay it)"
        );
    }

    #[test]
    fn two_low_threads_share_the_gaps() {
        let mut m = Machine::study_machine(23);
        let a = m.spawn_with_priority("a", busy_forever(), Priority::Low);
        let b = m.spawn_with_priority("b", busy_forever(), Priority::Low);
        m.run_until(10 * SEC);
        let ca = m.thread_stats(a).cpu_us as f64;
        let cb = m.thread_stats(b).cpu_us as f64;
        assert!((ca / (ca + cb) - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "zero-time actions")]
    fn runaway_zero_time_workload_detected() {
        let mut m = Machine::study_machine(13);
        m.spawn(
            "bad",
            Box::new(FnWorkload::new("bad", |ctx| Action::BusyUntil {
                until: ctx.now, // never advances
            })),
        );
        m.run_until(SEC);
    }
}
