//! Cycle stealing with comfort awareness — the application the paper's
//! introduction motivates.
//!
//! Grid systems face a choice the paper lays out in §1: run "only when
//! they are quite sure the user is away, when the screen saver has been
//! activated" (Condor, SETI@Home defaults), "run at a very low
//! priority", or borrow while the user works, throttled by comfort data.
//! This module implements all of them against the simulated machine so
//! the trade-off — cycles harvested versus foreground impact versus
//! discomfort clicks — can be measured (see `examples/cycle_stealing.rs`
//! and the `ablations` bench).

use crate::throttle::FeedbackThrottle;
use crate::user::UserProfile;
use std::cell::Cell;
use std::rc::Rc;
use uucs_sim::{Action, Ctx, Machine, Priority, SimTime, ThreadId, Workload, SEC};
use uucs_testcase::Resource;
use uucs_workloads::Task;

/// How the background job schedules itself.
#[derive(Debug, Clone)]
pub enum HarvestStrategy {
    /// Run only when the screensaver is on. During an active user session
    /// that means: not at all. (Condor / SETI@Home default, §1.)
    ScreensaverOnly,
    /// Run continuously at strictly low priority: consume only idle
    /// cycles, preempted instantly by the user's threads.
    LowPriority,
    /// Run at equal priority, throttled to a fixed borrowing level —
    /// the level a [`crate::throttle::ThrottleAdvisor`] recommends from
    /// the comfort CDFs.
    Throttled {
        /// The fixed CPU borrowing level (thread-equivalents).
        level: f64,
    },
    /// Equal priority with the feedback throttle: creep up, back off on
    /// every discomfort click (the paper's future-work direction).
    Feedback {
        /// The AIMD controller.
        throttle: FeedbackThrottle,
    },
}

/// What a harvesting session achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestOutcome {
    /// Background CPU seconds harvested.
    pub harvested_cpu_secs: f64,
    /// Foreground latency during harvesting relative to the unloaded
    /// baseline (1.0 = unaffected). Note a large ratio of a tiny base
    /// can still be imperceptible — check `fg_latency_ms` too.
    pub fg_latency_ratio: f64,
    /// Mean absolute foreground latency during the session, milliseconds.
    pub fg_latency_ms: f64,
    /// Discomfort clicks the user made during the session.
    pub clicks: u64,
    /// Session length, seconds.
    pub session_secs: f64,
}

impl HarvestOutcome {
    /// Harvest rate: CPU-seconds gathered per wall second.
    pub fn harvest_rate(&self) -> f64 {
        self.harvested_cpu_secs / self.session_secs
    }
}

/// A background worker whose borrowing level is steered externally
/// through a shared cell (the stochastic-subinterval scheme of the CPU
/// exerciser, with a live level).
struct SteeredWorker {
    level: Rc<Cell<f64>>,
    index: u32,
    subinterval: SimTime,
}

impl Workload for SteeredWorker {
    fn name(&self) -> &str {
        "harvester"
    }

    fn next_action(&mut self, ctx: &mut Ctx<'_>) -> Action {
        let boundary = (ctx.now / self.subinterval + 1) * self.subinterval;
        let p = (self.level.get() - self.index as f64).clamp(0.0, 1.0);
        if ctx.rng.bernoulli(p) {
            Action::BusyUntil { until: boundary }
        } else {
            Action::SleepUntil { until: boundary }
        }
    }
}

/// A plain always-busy low-priority worker.
struct IdleSoaker;

impl Workload for IdleSoaker {
    fn name(&self) -> &str {
        "idle-soaker"
    }

    fn next_action(&mut self, _ctx: &mut Ctx<'_>) -> Action {
        Action::Compute { us: 1_000 }
    }
}

/// Maximum worker threads (borrowing levels beyond this are clamped).
const MAX_WORKERS: u32 = 4;

/// Runs one harvesting session: the user performs `task` while the
/// background job harvests under `strategy`. The user is the calibrated
/// `user` profile: a discomfort click fires when the commanded borrowing
/// level exceeds their step threshold (abrupt-exposure tolerance), with
/// a post-click truce before they can be annoyed again.
pub fn run_harvest(
    user: &UserProfile,
    task: Task,
    mut strategy: HarvestStrategy,
    session_secs: u64,
    seed: u64,
) -> HarvestOutcome {
    const WARMUP: SimTime = 30 * SEC;
    let mut machine = Machine::study_machine(seed);
    machine.spawn("os", Box::new(uucs_workloads::OsBackground::new()));
    let fg = machine.spawn(task.name(), task.model());
    machine.run_until(WARMUP);
    let class = task.latency_class();
    let baseline = machine.thread_stats(fg).mean_latency(class);
    let lat0 = machine.thread_stats(fg).latencies.len();

    // Stand up the workers.
    let level = Rc::new(Cell::new(0.0f64));
    let mut workers: Vec<ThreadId> = Vec::new();
    match &strategy {
        HarvestStrategy::ScreensaverOnly => {}
        HarvestStrategy::LowPriority => {
            workers.push(machine.spawn_with_priority(
                "soaker",
                Box::new(IdleSoaker),
                Priority::Low,
            ));
        }
        HarvestStrategy::Throttled { level: l } => {
            level.set(*l);
            for i in 0..(l.ceil() as u32).clamp(1, MAX_WORKERS) {
                workers.push(machine.spawn(
                    format!("worker{i}"),
                    Box::new(SteeredWorker {
                        level: level.clone(),
                        index: i,
                        subinterval: 100_000,
                    }),
                ));
            }
        }
        HarvestStrategy::Feedback { throttle } => {
            level.set(throttle.level());
            for i in 0..MAX_WORKERS {
                workers.push(machine.spawn(
                    format!("worker{i}"),
                    Box::new(SteeredWorker {
                        level: level.clone(),
                        index: i,
                        subinterval: 100_000,
                    }),
                ));
            }
        }
    }

    let cpu0: SimTime = workers
        .iter()
        .map(|&w| machine.thread_stats(w).cpu_us)
        .sum();
    let start = machine.now();
    let threshold = {
        let ceiling = crate::calibration::cell(task, Resource::Cpu).ramp_ceiling;
        user.step_threshold(task, Resource::Cpu, ceiling)
    };
    let mut clicks = 0u64;
    let mut truce_until: SimTime = 0;

    let mut t = start;
    while t < start + session_secs * SEC {
        t += SEC;
        machine.run_until(t);
        // The user clicks when the borrowing level exceeds their
        // abrupt-exposure tolerance (and they are not in the post-click
        // truce where the system just backed off).
        if level.get() > threshold && t >= truce_until {
            clicks += 1;
            truce_until = t + 20 * SEC;
            if let HarvestStrategy::Feedback { throttle } = &mut strategy {
                level.set(throttle.on_discomfort());
            }
        } else if let HarvestStrategy::Feedback { throttle } = &mut strategy {
            level.set(throttle.step());
        }
    }
    for &w in &workers {
        machine.kill(w);
    }

    let harvested: SimTime = workers
        .iter()
        .map(|&w| machine.thread_stats(w).cpu_us)
        .sum::<SimTime>()
        - cpu0;
    let session_lat: Vec<u64> = machine
        .thread_stats(fg)
        .latencies
        .iter_from(lat0)
        .filter(|s| s.class == class)
        .map(|s| s.latency_us)
        .collect();
    let session_mean = if session_lat.is_empty() {
        0.0
    } else {
        session_lat.iter().sum::<u64>() as f64 / session_lat.len() as f64
    };
    let fg_latency_ratio = match baseline {
        Some(base) if base > 0.0 && session_mean > 0.0 => session_mean / base,
        _ => 1.0,
    };
    HarvestOutcome {
        harvested_cpu_secs: harvested as f64 / SEC as f64,
        fg_latency_ratio,
        fg_latency_ms: session_mean / 1_000.0,
        clicks,
        session_secs: session_secs as f64,
    }
}

/// What a fixed-level, single-resource harvesting session achieved —
/// §5's "borrow disk and memory aggressively, CPU less so", measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceHarvestOutcome {
    /// The borrowed resource.
    pub resource: Resource,
    /// The commanded borrowing level.
    pub level: f64,
    /// Amount harvested, in `unit`s.
    pub harvested: f64,
    /// Unit of `harvested` (`"cpu-s"`, `"MiB written"`, `"MiB-s held"`).
    pub unit: &'static str,
    /// Fraction of the resource's standalone capacity actually captured.
    pub capacity_fraction: f64,
    /// Foreground latency vs baseline.
    pub fg_latency_ratio: f64,
    /// Whether the user's step threshold for this cell was exceeded (a
    /// click).
    pub clicked: bool,
}

/// A steered disk worker: per subinterval, I/O-busy with probability
/// given by the shared level (64 KiB synced writes back to back).
struct SteeredIoWorker {
    level: Rc<Cell<f64>>,
    index: u32,
    busy_until: Option<SimTime>,
}

impl Workload for SteeredIoWorker {
    fn name(&self) -> &str {
        "disk-harvester"
    }

    fn next_action(&mut self, ctx: &mut Ctx<'_>) -> Action {
        const SUB: SimTime = 100_000;
        if let Some(until) = self.busy_until {
            if ctx.now < until {
                return Action::DiskIo {
                    ops: 1,
                    bytes_per_op: 65_536,
                };
            }
            self.busy_until = None;
        }
        let boundary = (ctx.now / SUB + 1) * SUB;
        let p = (self.level.get() - self.index as f64).clamp(0.0, 1.0);
        if ctx.rng.bernoulli(p) {
            self.busy_until = Some(boundary);
            Action::DiskIo {
                ops: 1,
                bytes_per_op: 65_536,
            }
        } else {
            Action::SleepUntil { until: boundary }
        }
    }
}

/// A steered memory worker: holds the fraction of physical memory the
/// shared level commands, refreshed periodically.
struct SteeredMemWorker {
    level: Rc<Cell<f64>>,
    pool: u32,
    region: Option<uucs_sim::RegionId>,
    sleep_next: bool,
}

impl Workload for SteeredMemWorker {
    fn name(&self) -> &str {
        "memory-harvester"
    }

    fn next_action(&mut self, ctx: &mut Ctx<'_>) -> Action {
        const REFRESH: SimTime = 250_000;
        if self.sleep_next {
            self.sleep_next = false;
            return Action::SleepUntil {
                until: (ctx.now / REFRESH + 1) * REFRESH,
            };
        }
        let region = *self
            .region
            .get_or_insert_with(|| ctx.alloc_region(self.pool, false));
        let target = (self.level.get().clamp(0.0, 1.0) * self.pool as f64) as u32;
        self.sleep_next = true;
        if target == 0 {
            return Action::SleepUntil {
                until: (ctx.now / REFRESH + 1) * REFRESH,
            };
        }
        Action::Touch {
            region,
            count: target,
            pattern: uucs_sim::TouchPattern::Prefix,
        }
    }
}

/// Runs a fixed-level single-resource harvesting session (the §5 table's
/// machinery): borrow `resource` at `level` while the user does `task`,
/// and measure what was captured versus the foreground impact.
pub fn run_resource_harvest(
    user: &UserProfile,
    task: Task,
    resource: Resource,
    level: f64,
    session_secs: u64,
    seed: u64,
) -> ResourceHarvestOutcome {
    const WARMUP: SimTime = 30 * SEC;
    let mut machine = Machine::study_machine(seed);
    machine.spawn("os", Box::new(uucs_workloads::OsBackground::new()));
    let fg = machine.spawn(task.name(), task.model());
    machine.run_until(WARMUP);
    let class = task.latency_class();
    let baseline = machine.thread_stats(fg).mean_latency(class);
    let lat0 = machine.thread_stats(fg).latencies.len();
    let mem_pages = machine.config().mem_pages;

    let shared = Rc::new(Cell::new(level));
    let mut workers: Vec<ThreadId> = Vec::new();
    match resource {
        Resource::Cpu => {
            for i in 0..(level.ceil() as u32).clamp(1, MAX_WORKERS) {
                workers.push(machine.spawn(
                    format!("cpu-w{i}"),
                    Box::new(SteeredWorker {
                        level: shared.clone(),
                        index: i,
                        subinterval: 100_000,
                    }),
                ));
            }
        }
        Resource::Disk => {
            for i in 0..(level.ceil() as u32).clamp(1, MAX_WORKERS) {
                workers.push(machine.spawn(
                    format!("disk-w{i}"),
                    Box::new(SteeredIoWorker {
                        level: shared.clone(),
                        index: i,
                        busy_until: None,
                    }),
                ));
            }
        }
        Resource::Memory => {
            workers.push(machine.spawn(
                "mem-w",
                Box::new(SteeredMemWorker {
                    level: shared.clone(),
                    pool: mem_pages,
                    region: None,
                    sleep_next: false,
                }),
            ));
        }
        Resource::Network => panic!("network harvesting is unstudied, as in the paper"),
    }

    let start = machine.now();
    let cpu0: SimTime = workers.iter().map(|&w| machine.thread_stats(w).cpu_us).sum();
    let bytes0: u64 = workers
        .iter()
        .map(|&w| machine.thread_stats(w).disk_bytes)
        .sum();
    // Memory harvest integrates resident pages over time.
    let mut mem_page_secs = 0.0f64;
    let mut t = start;
    while t < start + session_secs * SEC {
        t += SEC;
        machine.run_until(t);
        if resource == Resource::Memory {
            if let Some(&w) = workers.first() {
                let _ = w;
                // Worker residency = machine resident minus the baseline
                // (OS + fg) — approximate via total minus what warmup held.
                mem_page_secs += machine.mem_resident() as f64;
            }
        }
    }
    let elapsed_secs = session_secs as f64;
    let ceiling = crate::calibration::cell(task, resource).ramp_ceiling;
    let clicked = level > user.step_threshold(task, resource, ceiling);
    for &w in &workers {
        machine.kill(w);
    }

    let (harvested, unit, capacity_fraction) = match resource {
        Resource::Cpu => {
            let cpu: SimTime = workers
                .iter()
                .map(|&w| machine.thread_stats(w).cpu_us)
                .sum::<SimTime>()
                - cpu0;
            let secs = cpu as f64 / SEC as f64;
            (secs, "cpu-s", secs / elapsed_secs)
        }
        Resource::Disk => {
            let bytes: u64 = workers
                .iter()
                .map(|&w| machine.thread_stats(w).disk_bytes)
                .sum::<u64>()
                - bytes0;
            let mib = bytes as f64 / (1 << 20) as f64;
            // Standalone capacity: one 64 KiB synced write per ~14.1 ms.
            let per_op = machine.config().disk.service_us(1, 65_536, true) as f64;
            let max_mib = elapsed_secs * 1e6 / per_op * 65_536.0 / (1 << 20) as f64;
            (mib, "MiB written", mib / max_mib)
        }
        Resource::Memory => {
            let page_mib = machine.config().page_size as f64 / (1 << 20) as f64;
            let mib_secs = mem_page_secs * page_mib;
            let max = mem_pages as f64 * page_mib * elapsed_secs;
            (mib_secs, "MiB-s held", mib_secs / max)
        }
        Resource::Network => unreachable!(),
    };
    let session_lat: Vec<u64> = machine
        .thread_stats(fg)
        .latencies
        .iter_from(lat0)
        .filter(|s| s.class == class)
        .map(|s| s.latency_us)
        .collect();
    let fg_latency_ratio = match (baseline, session_lat.is_empty()) {
        (Some(base), false) if base > 0.0 => {
            (session_lat.iter().sum::<u64>() as f64 / session_lat.len() as f64) / base
        }
        _ => 1.0,
    };
    ResourceHarvestOutcome {
        resource,
        level,
        harvested,
        unit,
        capacity_fraction,
        fg_latency_ratio,
        clicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::UserPopulation;

    fn user() -> UserProfile {
        UserPopulation::generate(1, 70).users()[0].clone()
    }

    #[test]
    fn screensaver_strategy_harvests_nothing() {
        let o = run_harvest(&user(), Task::Word, HarvestStrategy::ScreensaverOnly, 60, 1);
        assert_eq!(o.harvested_cpu_secs, 0.0);
        assert_eq!(o.clicks, 0);
        assert!((o.fg_latency_ratio - 1.0).abs() < 0.25);
    }

    #[test]
    fn low_priority_harvests_idle_without_impact() {
        let o = run_harvest(&user(), Task::Word, HarvestStrategy::LowPriority, 120, 2);
        // Word leaves most of the CPU idle: the soaker gets nearly all of
        // it, the typist none the wiser.
        assert!(o.harvest_rate() > 0.85, "rate {}", o.harvest_rate());
        // The soaker cannot delay the typist (strict priority); any
        // drift from exactly 1.0 is warmup-vs-session sampling noise in
        // the keystroke mix.
        assert!(o.fg_latency_ratio < 1.35, "ratio {}", o.fg_latency_ratio);
        assert_eq!(o.clicks, 0);
    }

    #[test]
    fn low_priority_yields_to_quake() {
        let o = run_harvest(&user(), Task::Quake, HarvestStrategy::LowPriority, 60, 3);
        // Quake consumes every spare cycle itself: almost nothing left.
        assert!(o.harvest_rate() < 0.05, "rate {}", o.harvest_rate());
        assert!(o.fg_latency_ratio < 1.05, "ratio {}", o.fg_latency_ratio);
    }

    #[test]
    fn throttled_borrowing_slows_foreground_proportionally() {
        let o = run_harvest(
            &user(),
            Task::Powerpoint,
            HarvestStrategy::Throttled { level: 1.0 },
            120,
            4,
        );
        // Contention 1.0: draw operations roughly double.
        assert!(o.harvest_rate() > 0.4, "rate {}", o.harvest_rate());
        assert!(
            o.fg_latency_ratio > 1.5 && o.fg_latency_ratio < 3.0,
            "ratio {}",
            o.fg_latency_ratio
        );
    }

    #[test]
    fn feedback_throttle_limits_clicks_and_still_harvests() {
        let mut u = user();
        // Give the user a known moderate tolerance.
        u.thresholds.insert((Task::Word, Resource::Cpu), 2.0);
        u.ramp_bonus_frac = 0.0;
        let o = run_harvest(
            &u,
            Task::Word,
            HarvestStrategy::Feedback {
                // Gentle controller: creep 0.02/s, halve on a click, then
                // hold 40 s — one probe of the limit every ~90 s.
                throttle: FeedbackThrottle::new(0.1, 6.0, 0.02, 0.5, 40),
            },
            600,
            5,
        );
        assert!(o.clicks >= 1, "the throttle must probe the limit once");
        assert!(o.clicks <= 12, "clicks {}", o.clicks);
        // It still harvests a meaningful fraction.
        assert!(o.harvest_rate() > 0.3, "rate {}", o.harvest_rate());
    }

    #[test]
    fn disk_harvest_writes_at_the_commanded_share() {
        let o = run_resource_harvest(&user(), Task::Word, Resource::Disk, 1.0, 120, 6);
        assert_eq!(o.unit, "MiB written");
        // Level 1.0 against a near-idle disk: most of the standalone
        // bandwidth is captured.
        assert!(
            o.capacity_fraction > 0.6,
            "fraction {}",
            o.capacity_fraction
        );
        assert!(o.harvested > 100.0, "MiB {}", o.harvested);
    }

    #[test]
    fn memory_harvest_holds_the_fraction() {
        let o = run_resource_harvest(&user(), Task::Word, Resource::Memory, 0.3, 60, 7);
        assert_eq!(o.unit, "MiB-s held");
        // The integral includes OS + Word residency, so the fraction sits
        // above the commanded 0.3 but well below 1.
        assert!(
            o.capacity_fraction > 0.3 && o.capacity_fraction < 0.95,
            "fraction {}",
            o.capacity_fraction
        );
    }

    #[test]
    fn cpu_resource_harvest_matches_generic_path() {
        let o = run_resource_harvest(&user(), Task::Word, Resource::Cpu, 0.5, 60, 8);
        assert_eq!(o.unit, "cpu-s");
        assert!(
            (o.capacity_fraction - 0.5).abs() < 0.1,
            "fraction {}",
            o.capacity_fraction
        );
    }

    #[test]
    fn click_detection_uses_step_threshold() {
        let mut u = user();
        u.thresholds.insert((Task::Word, Resource::Cpu), 1.0);
        u.ramp_bonus_frac = 0.0;
        let quiet = run_resource_harvest(&u, Task::Word, Resource::Cpu, 0.5, 30, 9);
        let loud = run_resource_harvest(&u, Task::Word, Resource::Cpu, 1.5, 30, 9);
        assert!(!quiet.clicked);
        assert!(loud.clicked);
    }

    #[test]
    fn outcome_rate_arithmetic() {
        let o = HarvestOutcome {
            harvested_cpu_secs: 30.0,
            fg_latency_ratio: 1.2,
            fg_latency_ms: 5.0,
            clicks: 1,
            session_secs: 60.0,
        };
        assert!((o.harvest_rate() - 0.5).abs() < 1e-12);
    }
}
