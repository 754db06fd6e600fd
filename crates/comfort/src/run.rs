//! The run engine: executes one testcase for one user in one context and
//! produces the [`RunRecord`] the UUCS client stores (§2.3).
//!
//! A run proceeds exactly as in the paper: the exercisers start playing
//! the testcase while the user performs the foreground task; the moment
//! the user expresses discomfort the exercisers are stopped and their
//! resources released; otherwise the run ends when every exercise
//! function is exhausted.
//!
//! The *discomfort decision* is made by the calibrated user model in
//! commanded-contention space (the paper's CDF axis is "the last five
//! contention values used in each exercise function at the point of user
//! feedback"). The *measurement machinery* around the decision runs at
//! one of two fidelities:
//!
//! * [`Fidelity::Full`] — the testcase actually plays on the simulated
//!   machine: exercisers contend with the foreground task model and the
//!   OS background, and the record carries real monitoring data (CPU
//!   utilization, peak memory, disk busy, faults, foreground latency).
//! * [`Fidelity::Fast`] — the decision and offsets are identical (same
//!   RNG stream, same crossing logic), but the machine is not simulated
//!   and the monitor summary is synthesized from the commanded levels.
//!   Used for the 1056-run controlled study and the Internet-scale
//!   study, where only the decision statistics matter.

use crate::calibration;
use crate::user::UserProfile;
use uucs_exercisers::playback::spawn_exercisers;
use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
use uucs_sim::{mean_latency_us, secs, Machine, SimTime, ThreadId, SEC};
use uucs_stats::Pcg64;
use uucs_testcase::{Resource, Testcase};
use uucs_workloads::{OsBackground, Task};

/// How the measurement machinery runs (the decision is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Decision-only; monitor summary synthesized from commanded levels.
    Fast,
    /// Simulate the machine and collect real monitoring data.
    Full,
}

/// The exposure style of a testcase, for the ramp-adaptation effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStyle {
    /// Gradual growth — the user adapts ("frog in the pot") and tolerates
    /// a higher level than under a step.
    Ramp,
    /// Abrupt exposure.
    Step,
    /// Anything else (periodic, queueing-model, trace) — treated as
    /// abrupt.
    Other,
}

impl RunStyle {
    /// Infers the style from a testcase id produced by the generators
    /// (ids contain `-ramp`/`-step`).
    pub fn infer(tc: &Testcase) -> RunStyle {
        let id = tc.id.as_str();
        if id.contains("ramp") {
            RunStyle::Ramp
        } else if id.contains("step") {
            RunStyle::Step
        } else {
            RunStyle::Other
        }
    }
}

/// Everything needed to execute one run.
#[derive(Debug, Clone)]
pub struct RunSetup<'a> {
    /// The subject.
    pub user: &'a UserProfile,
    /// The foreground context.
    pub task: Task,
    /// The testcase to play.
    pub testcase: &'a Testcase,
    /// Exposure style (usually [`RunStyle::infer`]).
    pub style: RunStyle,
    /// Run seed — derive from (study seed, user, task, testcase) so every
    /// run is an independent, reproducible stream.
    pub seed: u64,
    /// Measurement fidelity.
    pub fidelity: Fidelity,
    /// Client GUID recorded on the result.
    pub client_id: String,
}

/// Simulated warmup before the testcase starts, standing in for the
/// study's acclimatization phase.
const WARMUP: SimTime = 20 * SEC;

/// The user decision: returns the outcome and the offset (seconds into
/// the testcase) at which feedback or exhaustion happened.
fn decide(setup: &RunSetup<'_>, rng: &mut Pcg64) -> (RunOutcome, f64) {
    let tc = setup.testcase;
    let duration = tc.duration();
    let mut t_feedback = f64::INFINITY;

    // Threshold crossings on commanded levels.
    for f in &tc.functions {
        if f.is_blank() {
            continue;
        }
        let ceiling = calibration::cell(setup.task, f.resource).ramp_ceiling;
        let thr = match setup.style {
            // The thresholds are calibrated from the paper's ramp CDFs.
            RunStyle::Ramp => setup.user.threshold(setup.task, f.resource),
            // Abrupt exposure: no slow adaptation, lower tolerance.
            _ => setup.user.step_threshold(setup.task, f.resource, ceiling),
        };
        // Earliest sample whose commanded level reaches the threshold.
        if let Some(idx) = f.values.iter().position(|&v| v >= thr) {
            let t = idx as f64 / f.sample_rate_hz;
            t_feedback = t_feedback.min(t);
        }
    }
    if t_feedback.is_finite() {
        // Reaction delay between perception and the hot-key.
        t_feedback += setup.user.reaction_secs * rng.lognormal(0.0, 0.25);
    }

    // Noise floor: spurious discomfort on blank runs (Figure 9 shows this
    // only materializes in jitter-sensitive contexts).
    if tc.is_blank() {
        let p = (calibration::noise_floor(setup.task) * setup.user.noise_propensity).min(0.95);
        if rng.bernoulli(p) {
            let t_noise = rng.uniform(0.0, duration);
            t_feedback = t_feedback.min(t_noise);
        }
    }

    if t_feedback < duration {
        (RunOutcome::Discomfort, t_feedback)
    } else {
        (RunOutcome::Exhausted, duration)
    }
}

/// Executes a run, returning its result record.
pub fn execute_run(setup: &RunSetup<'_>) -> RunRecord {
    let mut rng = Pcg64::new(setup.seed).split_str("run");
    let (outcome, offset) = decide(setup, &mut rng);
    let monitor = match setup.fidelity {
        Fidelity::Fast => synthesize_monitor(setup.testcase, offset),
        Fidelity::Full => simulate_monitor(setup, offset),
    };
    let last_levels = setup
        .testcase
        .functions
        .iter()
        .map(|f| (f.resource, f.last_values_at(offset, 5)))
        .collect();
    RunRecord {
        client: setup.client_id.clone(),
        user: setup.user.id.clone(),
        testcase: setup.testcase.id.to_string(),
        task: setup.task.name().to_string(),
        skill: setup.user.skill_class(setup.task).name().to_string(),
        outcome,
        offset_secs: offset,
        last_levels,
        monitor,
    }
}

/// Fast-fidelity monitor: coarse utilization figures derived from the
/// commanded levels up to the feedback point.
fn synthesize_monitor(tc: &Testcase, offset: f64) -> MonitorSummary {
    let upto = |resource: Resource| -> (f64, f64) {
        match tc.function(resource) {
            Some(f) => {
                let n = ((offset * f.sample_rate_hz) as usize).clamp(1, f.values.len());
                let slice = &f.values[..n];
                let mean = slice.iter().sum::<f64>() / n as f64;
                let peak = slice.iter().cloned().fold(0.0, f64::max);
                (mean, peak)
            }
            None => (0.0, 0.0),
        }
    };
    let (cpu_mean, _) = upto(Resource::Cpu);
    let (_, mem_peak) = upto(Resource::Memory);
    let (disk_mean, _) = upto(Resource::Disk);
    MonitorSummary {
        cpu_util: (cpu_mean / (cpu_mean + 1.0) + 0.05).min(1.0),
        peak_mem_fraction: mem_peak.min(1.0),
        disk_busy: (disk_mean / (disk_mean + 0.2)).min(1.0),
        faults: 0,
        mean_latency_us: None,
    }
}

/// The study machine after the warm-up, with the OS background and
/// `task` (the returned thread) running.
fn warmed_machine(task: Task, seed: u64) -> (Machine, ThreadId) {
    let mut m = Machine::study_machine(seed);
    m.spawn("os", Box::new(OsBackground::new()));
    let fg = m.spawn(task.name(), task.model());
    m.run_until(WARMUP);
    (m, fg)
}

/// Plays `testcase` on `m` from now up to `offset` seconds in — the
/// feedback point, or exhaustion — stepping second by second, and
/// returns the peak resident memory in pages.
fn play(m: &mut Machine, testcase: &Testcase, offset: f64) -> u32 {
    let set = spawn_exercisers(m, testcase);
    let end = m.now() + secs(offset);
    let mut peak_mem = m.mem_resident();
    let mut t = m.now();
    while t < end {
        t = (t + SEC).min(end);
        m.run_until(t);
        peak_mem = peak_mem.max(m.mem_resident());
    }
    // The user pressed the hot-key (or the functions exhausted): stop the
    // exercisers immediately and release their resources.
    set.stop(m);
    peak_mem
}

/// Full-fidelity monitor: plays the run on the simulated machine.
fn simulate_monitor(setup: &RunSetup<'_>, offset: f64) -> MonitorSummary {
    let (mut m, fg) = warmed_machine(setup.task, setup.seed);
    let start = m.now();
    let cpu0 = m.metrics().cpu_busy_us;
    let disk0 = m.disk_stats().busy_us;
    let faults0 = m.mem_stats().faults;
    let lat0 = m.thread_stats(fg).latencies.len();
    let peak_mem = play(&mut m, setup.testcase, offset);

    let elapsed = (m.now() - start).max(1);
    let class = setup.task.latency_class();
    let session = m.thread_stats(fg).latencies.iter_from(lat0);
    MonitorSummary {
        cpu_util: (m.metrics().cpu_busy_us - cpu0) as f64 / elapsed as f64,
        peak_mem_fraction: peak_mem as f64 / m.config().mem_pages as f64,
        disk_busy: (m.disk_stats().busy_us - disk0) as f64 / elapsed as f64,
        faults: m.mem_stats().faults - faults0,
        mean_latency_us: mean_latency_us(session.filter(|s| s.class == class)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::UserPopulation;
    use crate::user::{SelfRatings, SkillLevel};
    use std::collections::HashMap;
    use uucs_testcase::ExerciseSpec;

    fn fixed_user(thr: f64) -> UserProfile {
        let mut thresholds = HashMap::new();
        for c in &calibration::CELLS {
            thresholds.insert((c.task, c.resource), thr);
        }
        UserProfile {
            id: "t1".into(),
            ratings: SelfRatings::uniform(SkillLevel::Typical),
            thresholds,
            noise_propensity: 1.0,
            ramp_bonus_frac: 0.11,
            reaction_secs: 0.5,
        }
    }

    fn cpu_ramp(level: f64) -> Testcase {
        Testcase::single(
            "test-cpu-ramp",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level,
                duration: 120.0,
            },
        )
    }

    fn setup<'a>(
        user: &'a UserProfile,
        tc: &'a Testcase,
        fidelity: Fidelity,
        seed: u64,
    ) -> RunSetup<'a> {
        RunSetup {
            user,
            task: Task::Powerpoint,
            testcase: tc,
            style: RunStyle::infer(tc),
            seed,
            fidelity,
            client_id: "test-client".into(),
        }
    }

    #[test]
    fn low_threshold_discomforts_mid_ramp() {
        let user = fixed_user(1.0);
        let tc = cpu_ramp(2.0);
        let rec = execute_run(&setup(&user, &tc, Fidelity::Fast, 1));
        assert_eq!(rec.outcome, RunOutcome::Discomfort);
        // Ramp threshold = 1.0 -> crossing at ~60 s, plus a sub-second
        // reaction.
        assert!(
            rec.offset_secs > 58.0 && rec.offset_secs < 72.0,
            "offset {}",
            rec.offset_secs
        );
        assert_eq!(rec.task, "Powerpoint");
        assert_eq!(rec.user, "t1");
        let levels = &rec.last_levels[0].1;
        assert_eq!(levels.len(), 5);
        // The level at feedback is near the effective threshold.
        let at_feedback = rec.level_at_feedback(Resource::Cpu).unwrap();
        assert!(
            (0.98..1.3).contains(&at_feedback),
            "level {at_feedback}"
        );
    }

    #[test]
    fn high_threshold_exhausts() {
        let user = fixed_user(100.0);
        let tc = cpu_ramp(2.0);
        let rec = execute_run(&setup(&user, &tc, Fidelity::Fast, 2));
        assert_eq!(rec.outcome, RunOutcome::Exhausted);
        assert_eq!(rec.offset_secs, 120.0);
    }

    #[test]
    fn ramp_tolerates_more_than_step() {
        // The frog in the pot: identical user and peak level, but abrupt
        // exposure (step) objects below the ramp threshold.
        let user = fixed_user(2.1);
        let ramp = cpu_ramp(2.0);
        let step = Testcase::single(
            "test-cpu-step",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Step {
                level: 2.0,
                duration: 120.0,
                start: 40.0,
            },
        );
        let r_ramp = execute_run(&setup(&user, &ramp, Fidelity::Fast, 3));
        let r_step = execute_run(&setup(&user, &step, Fidelity::Fast, 3));
        // Step threshold = 2.1 - 0.22 = 1.88 < 2.0 -> discomfort at ~40 s;
        // ramp threshold 2.1 > 2.0 peak -> never crossed.
        assert_eq!(r_step.outcome, RunOutcome::Discomfort);
        assert_eq!(r_ramp.outcome, RunOutcome::Exhausted);
    }

    #[test]
    fn blank_runs_noise_only_in_sensitive_tasks() {
        let pop = UserPopulation::generate(200, 77);
        let blank = Testcase::blank("test-blank", 1.0, 120.0);
        let mut quake_df = 0;
        let mut word_df = 0;
        for (i, u) in pop.users().iter().enumerate() {
            let mut s = setup(u, &blank, Fidelity::Fast, 1000 + i as u64);
            s.task = Task::Quake;
            if execute_run(&s).outcome == RunOutcome::Discomfort {
                quake_df += 1;
            }
            s.task = Task::Word;
            if execute_run(&s).outcome == RunOutcome::Discomfort {
                word_df += 1;
            }
        }
        assert_eq!(word_df, 0, "Word blank runs never discomfort");
        let frac = quake_df as f64 / 200.0;
        assert!(
            (frac - 0.30).abs() < 0.12,
            "Quake noise floor {frac} (expected ~0.30)"
        );
    }

    #[test]
    fn fast_and_full_agree_on_the_decision() {
        let user = fixed_user(1.0);
        let tc = cpu_ramp(2.0);
        let fast = execute_run(&setup(&user, &tc, Fidelity::Fast, 5));
        let full = execute_run(&setup(&user, &tc, Fidelity::Full, 5));
        assert_eq!(fast.outcome, full.outcome);
        assert_eq!(fast.offset_secs, full.offset_secs);
        assert_eq!(fast.last_levels, full.last_levels);
    }

    #[test]
    fn full_fidelity_records_real_monitoring() {
        let user = fixed_user(100.0); // exhaust: full 120 s of borrowing
        let tc = cpu_ramp(2.0);
        let rec = execute_run(&setup(&user, &tc, Fidelity::Full, 6));
        // A CPU ramp to 2.0 over 2 minutes keeps the machine busy well
        // above the foreground's own demand.
        assert!(rec.monitor.cpu_util > 0.5, "cpu {}", rec.monitor.cpu_util);
        // The foreground task (Powerpoint) recorded latencies.
        assert!(rec.monitor.mean_latency_us.is_some());
        // OS + Powerpoint working sets are resident.
        assert!(rec.monitor.peak_mem_fraction > 0.3);
    }

    #[test]
    fn full_fidelity_memory_run_faults_foreground() {
        let user = fixed_user(100.0);
        let tc = Testcase::single(
            "test-memory-ramp",
            1.0,
            Resource::Memory,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 120.0,
            },
        );
        let mut s = setup(&user, &tc, Fidelity::Full, 7);
        s.task = Task::Quake;
        let rec = execute_run(&s);
        // Borrowing toward 100% of memory must evict and refault.
        assert!(rec.monitor.faults > 100, "faults {}", rec.monitor.faults);
        assert!(rec.monitor.peak_mem_fraction > 0.95);
    }

    /// One machine seed, the warm-up and all 120 s of each of the 32
    /// (task, controlled testcase) pairs: the memory manager's totals, the
    /// peak residency and the foreground's faults, as the simulator gave
    /// them before it claimed and evicted a bitmap word at a time. The
    /// study's record CRCs catch any divergence; this table says in which
    /// run and in which counter.
    #[test]
    fn full_fidelity_memory_counters_are_pinned_per_testcase() {
        // (testcase, zero fills, faults, evictions, peak resident pages,
        // foreground faults)
        const PINNED: [(&str, u64, u64, u64, u64, u64); 32] = [
            ("word-cpu-ramp", 63000, 0, 0, 63000, 0),
            ("word-blank-1", 63000, 0, 0, 63000, 0),
            ("word-disk-ramp", 63000, 0, 0, 63000, 0),
            ("word-memory-ramp", 192980, 3442, 65350, 131072, 1750),
            ("word-cpu-step", 63000, 0, 0, 63000, 0),
            ("word-disk-step", 63000, 0, 0, 63000, 0),
            ("word-blank-2", 63000, 0, 0, 63000, 0),
            ("word-memory-step", 194072, 7170, 70170, 131072, 1984),
            ("powerpoint-cpu-ramp", 68000, 0, 0, 68000, 0),
            ("powerpoint-blank-1", 68000, 0, 0, 68000, 0),
            ("powerpoint-disk-ramp", 68000, 0, 0, 68000, 0),
            ("powerpoint-memory-ramp", 197980, 3023, 69931, 131072, 1293),
            ("powerpoint-cpu-step", 68000, 0, 0, 68000, 0),
            ("powerpoint-disk-step", 68000, 0, 0, 68000, 0),
            ("powerpoint-blank-2", 68000, 0, 0, 68000, 0),
            ("powerpoint-memory-step", 199072, 6614, 74614, 131072, 1611),
            ("ie-cpu-ramp", 72375, 0, 0, 72375, 0),
            ("ie-blank-1", 72484, 0, 0, 72484, 0),
            ("ie-disk-ramp", 72302, 0, 0, 72302, 0),
            ("ie-memory-ramp", 135937, 7226, 12091, 131072, 2406),
            ("ie-cpu-step", 72484, 0, 0, 72484, 0),
            ("ie-disk-step", 72302, 0, 0, 72302, 0),
            ("ie-blank-2", 72484, 0, 0, 72484, 0),
            ("ie-memory-step", 202348, 48055, 119331, 131072, 2038),
            ("quake-cpu-ramp", 86000, 0, 0, 86000, 0),
            ("quake-blank-1", 86000, 0, 0, 86000, 0),
            ("quake-disk-ramp", 86000, 0, 0, 86000, 0),
            ("quake-memory-ramp", 206149, 4436, 79513, 131072, 825),
            ("quake-cpu-step", 86000, 0, 0, 86000, 0),
            ("quake-disk-step", 86000, 0, 0, 86000, 0),
            ("quake-blank-2", 86000, 0, 0, 86000, 0),
            ("quake-memory-step", 217072, 6458, 92458, 131072, 2354),
        ];
        let mut rows = PINNED.iter();
        for task in Task::ALL {
            for tc in calibration::controlled_testcases(task) {
                let (mut m, fg) = warmed_machine(task, 2004);
                let peak = play(&mut m, &tc, tc.duration());
                let mem = m.mem_stats();
                let &(name, zero_fills, faults, evictions, peak_resident, fg_faults) =
                    rows.next().expect("32 pinned rows");
                assert_eq!(tc.id.to_string(), name);
                for (counter, was, is) in [
                    ("zero fills", zero_fills, mem.zero_fills),
                    ("faults", faults, mem.faults),
                    ("evictions", evictions, mem.evictions),
                    ("peak resident pages", peak_resident, peak as u64),
                    ("foreground faults", fg_faults, m.thread_stats(fg).faults),
                ] {
                    assert_eq!(was, is, "{name}: {counter} {was} -> {is}");
                }
            }
        }
    }

    #[test]
    fn multi_resource_testcase_crosses_on_the_earliest_resource() {
        // A combined CPU+disk testcase: feedback fires at the first
        // function to reach its threshold (the paper's run ends on any
        // discomfort, whatever resource caused it).
        let mut user = fixed_user(100.0);
        user.thresholds.insert((Task::Powerpoint, Resource::Cpu), 1.5);
        user.thresholds.insert((Task::Powerpoint, Resource::Disk), 2.0);
        let tc = Testcase::from_specs(
            "multi-both-ramp",
            1.0,
            &[
                (
                    Resource::Cpu,
                    ExerciseSpec::Ramp {
                        level: 2.0,
                        duration: 120.0,
                    },
                ),
                (
                    Resource::Disk,
                    ExerciseSpec::Ramp {
                        level: 8.0,
                        duration: 120.0,
                    },
                ),
            ],
        );
        let rec = execute_run(&setup(&user, &tc, Fidelity::Fast, 12));
        assert_eq!(rec.outcome, RunOutcome::Discomfort);
        // Disk ramps 4x faster: crossing 2.0 at 30 s beats CPU's 1.5 at
        // 90 s.
        assert!(
            rec.offset_secs > 29.0 && rec.offset_secs < 40.0,
            "offset {}",
            rec.offset_secs
        );
        // Both resources' last levels are recorded (§2.3: "each exercise
        // function").
        assert_eq!(rec.last_levels.len(), 2);
        assert!(rec.level_at_feedback(Resource::Disk).unwrap() >= 2.0);
    }

    #[test]
    fn determinism_across_calls() {
        let user = fixed_user(1.3);
        let tc = cpu_ramp(2.0);
        let a = execute_run(&setup(&user, &tc, Fidelity::Fast, 9));
        let b = execute_run(&setup(&user, &tc, Fidelity::Fast, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn style_inference() {
        assert_eq!(RunStyle::infer(&cpu_ramp(1.0)), RunStyle::Ramp);
        let step = Testcase::single(
            "x-step",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Step {
                level: 1.0,
                duration: 10.0,
                start: 0.0,
            },
        );
        assert_eq!(RunStyle::infer(&step), RunStyle::Step);
        let blank = Testcase::blank("b", 1.0, 10.0);
        assert_eq!(RunStyle::infer(&blank), RunStyle::Other);
    }
}
