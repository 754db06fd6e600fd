//! A perception-based user model — the paper's missing link, built on
//! the simulator.
//!
//! §1 notes that "a mapping between resource borrowing and interactivity
//! metrics like system latency or jitter is difficult to obtain", which
//! is why the paper measures the end-to-end relationship directly. With
//! a simulated machine we *can* build the mapping: this module models a
//! user who reacts to what they actually experience — the foreground
//! task's latency stretching past a personal tolerance (and, for frame-
//! rate tasks, jitter) — rather than to the commanded contention level.
//!
//! This model serves as a *validation* of the calibrated threshold
//! model: running the study with perception-driven users regenerates the
//! paper's CPU and disk structure (Quake most CPU-sensitive, Word
//! tolerant everywhere, IE disk-sensitive) from pure interactivity
//! physics, with no per-cell calibration at all. The `ablations` bench
//! prints the comparison.
//!
//! **Memory column**: under the default region-recency eviction the
//! per-task memory ordering does not emerge sharply. Switching the
//! machine to page-granular second-chance eviction
//! ([`uucs_sim::mem::EvictionPolicy::SecondChance`], via
//! [`execute_perception_run_configured`]) restores the paper's Figure 14
//! memory ordering from pure physics: Quake perceives a memory ramp
//! first, then IE, then Word — see the `ablation/eviction` bench.

use crate::run::{RunSetup, RunStyle};
use uucs_exercisers::playback::spawn_exercisers;
use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
use uucs_sim::{mean_latency_us, secs, Machine, SimTime, ThreadId, SEC};
use uucs_stats::Pcg64;
use uucs_workloads::Task;

/// How a perception-driven user tolerates interactivity degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerceptionProfile {
    /// Click when recent latency exceeds `tolerance_ratio` × the
    /// unloaded baseline ...
    pub tolerance_ratio: f64,
    /// ... but never while recent latency is still below this absolute
    /// floor (µs) — imperceptibly fast is imperceptibly fast, however
    /// large the ratio.
    pub latency_floor_us: f64,
    /// For frame-rate tasks: also click when frame jitter exceeds this
    /// multiple of baseline jitter (plus a small absolute floor).
    pub jitter_ratio: f64,
    /// Degradation must persist this many consecutive seconds before the
    /// user reaches for the hot-key.
    pub patience_secs: u32,
}

impl PerceptionProfile {
    /// Draws a profile from a user-specific RNG stream: tolerance around
    /// 2× (lognormal), floors around common HCI perceptibility limits.
    pub fn sample(rng: &mut Pcg64) -> Self {
        PerceptionProfile {
            tolerance_ratio: rng.lognormal(0.8, 0.35).max(1.2),
            latency_floor_us: rng.uniform(80_000.0, 160_000.0),
            jitter_ratio: rng.lognormal(1.3, 0.4).max(1.5),
            patience_secs: rng.range_inclusive(2, 6) as u32,
        }
    }
}

/// Latency baseline measured during the warmup (acclimatization) phase.
#[derive(Debug, Clone, Copy)]
struct Baseline {
    mean_us: f64,
    jitter_us: f64,
}

fn window_stats(
    machine: &Machine,
    fg: ThreadId,
    class: &str,
    from: SimTime,
) -> Option<(f64, f64, usize)> {
    let lat: Vec<f64> = machine
        .thread_stats(fg)
        .latencies
        .iter()
        .filter(|s| s.class == class && s.at >= from)
        .map(|s| s.latency_us as f64)
        .collect();
    if lat.is_empty() {
        return None;
    }
    let n = lat.len();
    let mean = lat.iter().sum::<f64>() / n as f64;
    let var = lat.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    Some((mean, var.sqrt(), n))
}

/// Executes a run with a perception-driven user: the testcase plays on
/// the simulated machine and the user clicks when the foreground task's
/// *measured* latency (or jitter, for Quake) degrades beyond their
/// tolerance for longer than their patience.
///
/// The `setup.user`'s calibrated thresholds are ignored; only its id and
/// seed matter, plus the [`PerceptionProfile`].
pub fn execute_perception_run(
    setup: &RunSetup<'_>,
    profile: &PerceptionProfile,
) -> RunRecord {
    execute_perception_run_at_speed(setup, profile, 1.0)
}

/// As [`execute_perception_run`], on a host `speed` times the study
/// machine — the paper's question 6 ("How does the level depend on the
/// raw power of the host?"), which its Internet study was collecting
/// data for. See `examples/host_power.rs` for the predicted answer.
pub fn execute_perception_run_at_speed(
    setup: &RunSetup<'_>,
    profile: &PerceptionProfile,
    speed: f64,
) -> RunRecord {
    execute_perception_run_configured(
        setup,
        profile,
        uucs_sim::MachineConfig {
            speed,
            seed: setup.seed,
            ..uucs_sim::MachineConfig::default()
        },
    )
}

/// As [`execute_perception_run`] on a machine with an explicit
/// configuration (seed is overridden by the setup's seed) — used by the
/// eviction-policy ablation.
pub fn execute_perception_run_configured(
    setup: &RunSetup<'_>,
    profile: &PerceptionProfile,
    config: uucs_sim::MachineConfig,
) -> RunRecord {
    const WARMUP: SimTime = 40 * SEC;
    const WINDOW: SimTime = 5 * SEC;

    let mut machine = Machine::new(uucs_sim::MachineConfig {
        seed: setup.seed,
        ..config
    });
    machine.spawn("os", Box::new(uucs_workloads::OsBackground::new()));
    let fg = machine.spawn(setup.task.name(), setup.task.model());
    machine.run_until(WARMUP);

    let class = setup.task.latency_class();
    let baseline = window_stats(&machine, fg, class, 0).map(|(mean, jitter, _)| Baseline {
        mean_us: mean,
        jitter_us: jitter.max(500.0),
    });

    let start = machine.now();
    let set = spawn_exercisers(&mut machine, setup.testcase);
    let duration = secs(setup.testcase.duration());
    let cpu0 = machine.metrics().cpu_busy_us;
    let disk0 = machine.disk_stats().busy_us;
    let faults0 = machine.mem_stats().faults;

    let mut consecutive_bad = 0u32;
    let mut peak_mem = machine.mem_resident();
    let mut outcome = RunOutcome::Exhausted;
    let mut offset_us = duration;

    let mut t = start;
    while t < start + duration {
        t += SEC;
        machine.run_until(t);
        peak_mem = peak_mem.max(machine.mem_resident());
        let Some(base) = baseline else { continue };
        let Some((mean, jitter, n)) = window_stats(&machine, fg, class, t.saturating_sub(WINDOW))
        else {
            // The task produced no interactive events in the window —
            // for a frame loop that itself means a severe stall, but the
            // sparse-event tasks (IE page loads) are simply between
            // events. Treat as severe only for Quake.
            if setup.task == Task::Quake {
                consecutive_bad += 1;
            }
            if setup.task == Task::Quake && consecutive_bad >= profile.patience_secs {
                outcome = RunOutcome::Discomfort;
                offset_us = t - start;
                break;
            }
            continue;
        };
        let latency_bad =
            mean > base.mean_us * profile.tolerance_ratio && mean > profile.latency_floor_us;
        // Jitter alone does not trigger: a lone 100 ms stall in an
        // otherwise fluid window spikes the deviation without the player
        // perceiving sustained degradation. Require the mean frame time
        // to be visibly elevated as well.
        let jitter_bad = setup.task == Task::Quake
            && n >= 5
            && mean > base.mean_us * 1.25
            && jitter > base.jitter_us * profile.jitter_ratio
            && jitter > 4_000.0;
        if latency_bad || jitter_bad {
            consecutive_bad += 1;
        } else {
            consecutive_bad = 0;
        }
        if consecutive_bad >= profile.patience_secs {
            outcome = RunOutcome::Discomfort;
            offset_us = t - start;
            break;
        }
    }
    set.stop(&mut machine);

    let elapsed = (machine.now() - start).max(1);
    let offset = offset_us as f64 / SEC as f64;
    let last_levels = setup
        .testcase
        .functions
        .iter()
        .map(|f| (f.resource, f.last_values_at(offset, 5)))
        .collect();
    let session = machine
        .thread_stats(fg)
        .latencies
        .iter()
        .filter(|s| s.class == class && s.at >= start);
    let session_mean = mean_latency_us(session);
    RunRecord {
        client: setup.client_id.clone(),
        user: setup.user.id.clone(),
        testcase: setup.testcase.id.to_string(),
        task: setup.task.name().to_string(),
        skill: setup.user.skill_class(setup.task).name().to_string(),
        outcome,
        offset_secs: offset,
        last_levels,
        monitor: MonitorSummary {
            cpu_util: (machine.metrics().cpu_busy_us - cpu0) as f64 / elapsed as f64,
            peak_mem_fraction: peak_mem as f64 / machine.config().mem_pages as f64,
            disk_busy: (machine.disk_stats().busy_us - disk0) as f64 / elapsed as f64,
            faults: machine.mem_stats().faults - faults0,
            mean_latency_us: session_mean,
        },
    }
}

/// Convenience: a [`RunSetup`]-shaped perception run over a ramp of the
/// given cell, for validation sweeps.
pub fn perception_ramp_run(
    user: &crate::user::UserProfile,
    profile: &PerceptionProfile,
    task: Task,
    resource: uucs_testcase::Resource,
    seed: u64,
) -> RunRecord {
    let cell = crate::calibration::cell(task, resource);
    let tc = uucs_testcase::Testcase::single(
        format!("percept-{}-{}-ramp", task.name().to_lowercase(), resource),
        1.0,
        resource,
        uucs_testcase::ExerciseSpec::Ramp {
            level: cell.ramp_ceiling,
            duration: 120.0,
        },
    );
    execute_perception_run(
        &RunSetup {
            user,
            task,
            testcase: &tc,
            style: RunStyle::Ramp,
            seed,
            fidelity: crate::run::Fidelity::Full,
            client_id: "perception".into(),
        },
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::UserPopulation;
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};

    fn profile(tolerance: f64, patience: u32) -> PerceptionProfile {
        PerceptionProfile {
            tolerance_ratio: tolerance,
            latency_floor_us: 100_000.0,
            jitter_ratio: 3.0,
            patience_secs: patience,
        }
    }

    fn setup<'a>(
        user: &'a crate::user::UserProfile,
        tc: &'a Testcase,
        task: Task,
        seed: u64,
    ) -> RunSetup<'a> {
        RunSetup {
            user,
            task,
            testcase: tc,
            style: RunStyle::Ramp,
            seed,
            fidelity: crate::run::Fidelity::Full,
            client_id: "ptest".into(),
        }
    }

    #[test]
    fn quake_cpu_ramp_discomforts_by_perception() {
        let pop = UserPopulation::generate(1, 60);
        let tc = Testcase::single(
            "p-cpu-ramp",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 1.3,
                duration: 120.0,
            },
        );
        let rec = execute_perception_run(
            &setup(&pop.users()[0], &tc, Task::Quake, 1),
            &profile(1.6, 3),
        );
        // A ramp to 1.3 eventually halves the frame rate: the perception
        // user objects well before exhaustion.
        assert_eq!(rec.outcome, RunOutcome::Discomfort);
        assert!(rec.offset_secs < 119.0, "offset {}", rec.offset_secs);
        // The level at feedback sits in a plausible mid-ramp region.
        let level = rec.level_at_feedback(Resource::Cpu).unwrap();
        assert!(level > 0.2 && level < 1.3, "level {level}");
    }

    #[test]
    fn word_tolerates_what_quake_cannot() {
        // The identical CPU ramp and identical perception profile leave a
        // Word typist comfortable (keystroke echo stays under the
        // absolute floor) while the Quake player objects — the paper's
        // central context effect, now emerging from physics rather than
        // calibration.
        let pop = UserPopulation::generate(1, 61);
        let tc = Testcase::single(
            "p-cpu-ramp2",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 1.3,
                duration: 120.0,
            },
        );
        let p = profile(1.6, 3);
        let word = execute_perception_run(&setup(&pop.users()[0], &tc, Task::Word, 2), &p);
        let quake = execute_perception_run(&setup(&pop.users()[0], &tc, Task::Quake, 2), &p);
        assert_eq!(word.outcome, RunOutcome::Exhausted, "word clicked at {}", word.offset_secs);
        assert_eq!(quake.outcome, RunOutcome::Discomfort);
    }

    #[test]
    fn memory_ramp_to_full_is_universally_perceived() {
        // "contention levels greater than one ... immediately results in
        // thrashing which is not only very irritating to all users"
        // (§2.2): a ramp all the way to 1.0 ends in perceived paging for
        // both the typist and the gamer.
        let pop = UserPopulation::generate(1, 62);
        let tc = Testcase::single(
            "p-mem-ramp",
            1.0,
            Resource::Memory,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 120.0,
            },
        );
        let p = profile(1.8, 3);
        let word = execute_perception_run(&setup(&pop.users()[0], &tc, Task::Word, 3), &p);
        let quake = execute_perception_run(&setup(&pop.users()[0], &tc, Task::Quake, 3), &p);
        assert_eq!(word.outcome, RunOutcome::Discomfort);
        assert_eq!(quake.outcome, RunOutcome::Discomfort);
        // Neither perceives anything during the first half of the ramp
        // (plenty of idle memory to give back before paging starts).
        assert!(word.offset_secs > 50.0, "word {}", word.offset_secs);
        assert!(quake.offset_secs > 50.0, "quake {}", quake.offset_secs);
    }

    #[test]
    fn second_chance_eviction_restores_papers_memory_ordering() {
        // With page-granular second-chance eviction, the paper's Figure
        // 14 memory column emerges from physics alone: the frame loop
        // (touching thousands of pages a second over a huge working set)
        // perceives the memory ramp first, the browser next, the typist
        // last.
        use uucs_sim::mem::EvictionPolicy;
        use uucs_sim::MachineConfig;
        let pop = UserPopulation::generate(1, 62);
        let tc = Testcase::single(
            "p-mem-ramp2",
            1.0,
            Resource::Memory,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 120.0,
            },
        );
        let p = profile(1.8, 3);
        let offset = |task: Task| {
            let rec = super::execute_perception_run_configured(
                &setup(&pop.users()[0], &tc, task, 3),
                &p,
                MachineConfig {
                    eviction: EvictionPolicy::SecondChance,
                    ..MachineConfig::default()
                },
            );
            if rec.outcome == RunOutcome::Discomfort {
                rec.offset_secs
            } else {
                f64::INFINITY
            }
        };
        let quake = offset(Task::Quake);
        let ie = offset(Task::Ie);
        let word = offset(Task::Word);
        assert!(
            quake < ie && ie < word,
            "expected Quake < IE < Word, got {quake} / {ie} / {word}"
        );
    }

    #[test]
    fn more_tolerant_profile_clicks_later_or_never() {
        let pop = UserPopulation::generate(1, 63);
        let tc = Testcase::single(
            "p-cpu-ramp3",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 2.0,
                duration: 120.0,
            },
        );
        let touchy = execute_perception_run(
            &setup(&pop.users()[0], &tc, Task::Powerpoint, 4),
            &profile(1.4, 2),
        );
        let tolerant = execute_perception_run(
            &setup(&pop.users()[0], &tc, Task::Powerpoint, 4),
            &profile(3.5, 6),
        );
        let t_touchy = touchy.offset_secs;
        let t_tolerant = tolerant.offset_secs;
        assert!(
            t_tolerant >= t_touchy,
            "tolerant clicked earlier: {t_tolerant} vs {t_touchy}"
        );
    }

    #[test]
    fn sampled_profiles_are_sane() {
        let mut rng = Pcg64::new(64);
        for _ in 0..100 {
            let p = PerceptionProfile::sample(&mut rng);
            assert!(p.tolerance_ratio >= 1.2);
            assert!(p.latency_floor_us >= 80_000.0);
            assert!(p.jitter_ratio >= 1.5);
            assert!((2..=6).contains(&p.patience_secs));
        }
    }
}
