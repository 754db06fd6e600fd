//! A calibration-free reproduction: the controlled study re-run with
//! perception-driven users.
//!
//! The headline threat to any calibrated reproduction is circularity —
//! the study regenerates the numbers because the users were fit to them.
//! This driver breaks the circle: users decide from *measured* latency
//! and jitter on the simulated machine
//! ([`uucs_comfort::perception`]), with no per-cell calibration at all,
//! and the same analysis pipeline produces the same tables. What should
//! (and does) survive is the paper's *qualitative* structure: the
//! task-ordering of CPU sensitivity, Word's indifference, IE's disk
//! sensitivity, and — under page-granular eviction — the memory column
//! ordering.

use uucs_comfort::metrics::CellMetrics;
use uucs_comfort::perception::{execute_perception_run_configured, PerceptionProfile};
use uucs_comfort::{Fidelity, RunSetup, RunStyle, UserPopulation, UserProfile};
use uucs_protocol::RunRecord;
use uucs_sim::mem::EvictionPolicy;
use uucs_sim::MachineConfig;
use uucs_stats::{parallel, Pcg64};
use uucs_testcase::{ExerciseSpec, Resource, Testcase};
use uucs_workloads::Task;

/// Perception-study parameters.
#[derive(Debug, Clone)]
pub struct PerceptionStudyConfig {
    /// Root seed.
    pub seed: u64,
    /// Number of subjects (each gets a sampled [`PerceptionProfile`]).
    pub users: usize,
    /// Memory eviction policy for the simulated machines
    /// ([`EvictionPolicy::SecondChance`] reproduces the paper's memory
    /// ordering).
    pub eviction: EvictionPolicy,
}

impl Default for PerceptionStudyConfig {
    fn default() -> Self {
        PerceptionStudyConfig {
            seed: 2004,
            users: 8,
            eviction: EvictionPolicy::SecondChance,
        }
    }
}

/// Runs the ramp testcases of every cell for every perception-driven
/// subject (12 cells × users full-fidelity machine runs) and returns the
/// records, subject by subject. Each subject's runs draw on that
/// subject's own RNG stream alone, so the subjects are spread over the
/// available CPUs and the records do not depend on how many there are.
pub fn run_perception_study(config: &PerceptionStudyConfig) -> Vec<RunRecord> {
    let population = UserPopulation::generate(config.users, config.seed);
    let root = Pcg64::new(config.seed).split_str("perception-study");
    let subject_records = |(i, user): (usize, &UserProfile)| {
        let mut rng = root.split(i as u64);
        let profile = PerceptionProfile::sample(&mut rng);
        let mut records = Vec::new();
        for task in Task::ALL {
            for resource in Resource::STUDIED {
                let cell = uucs_comfort::calibration::cell(task, resource);
                let tc = Testcase::single(
                    format!(
                        "{}-{}-ramp",
                        task.name().to_lowercase(),
                        resource.name()
                    ),
                    1.0,
                    resource,
                    ExerciseSpec::Ramp {
                        level: cell.ramp_ceiling,
                        duration: 120.0,
                    },
                );
                records.push(execute_perception_run_configured(
                    &RunSetup {
                        user,
                        task,
                        testcase: &tc,
                        style: RunStyle::Ramp,
                        seed: rng.next_u64(),
                        fidelity: Fidelity::Full,
                        client_id: "perception-study".into(),
                    },
                    &profile,
                    MachineConfig {
                        eviction: config.eviction,
                        ..MachineConfig::default()
                    },
                ));
            }
        }
        records
    };
    parallel::ordered_map(
        parallel::available_workers(),
        population.users().iter().enumerate(),
        subject_records,
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Per-cell metrics from perception-study records.
pub fn perception_cell_metrics(
    records: &[RunRecord],
    task: Task,
    resource: Resource,
) -> CellMetrics {
    let marker = format!("{}-{}-ramp", task.name().to_lowercase(), resource.name());
    CellMetrics::from_runs(records.iter().filter(|r| r.testcase == marker), resource)
}

/// Renders the perception-study f_d grid next to the paper's.
pub fn render_perception_study(records: &[RunRecord]) -> String {
    let mut out = String::from(
        "Calibration-free perception study: f_d by task and resource\n\
         (paper's Figure 14 value in parentheses)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>14} {:>14} {:>14}\n",
        "", "CPU", "Memory", "Disk"
    ));
    for task in Task::ALL {
        let cell_str = |r: Resource| {
            let m = perception_cell_metrics(records, task, r);
            let paper = uucs_comfort::calibration::cell(task, r).f_d;
            format!(
                "{} ({paper:.2})",
                m.f_d
                    .map(|x| format!("{x:.2}"))
                    .unwrap_or_else(|| "-".into())
            )
        };
        out.push_str(&format!(
            "{:<12} {:>14} {:>14} {:>14}\n",
            task.name(),
            cell_str(Resource::Cpu),
            cell_str(Resource::Memory),
            cell_str(Resource::Disk)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced perception study (full-fidelity machines): qualitative
    /// structure only, since n is small.
    #[test]
    fn qualitative_structure_emerges_without_calibration() {
        let records = run_perception_study(&PerceptionStudyConfig {
            seed: 77,
            users: 4,
            eviction: EvictionPolicy::SecondChance,
        });
        assert_eq!(records.len(), 4 * 12);

        let f_d = |task, resource| {
            perception_cell_metrics(&records, task, resource)
                .f_d
                .unwrap()
        };
        // CPU column: Quake is the most sensitive context, Word the least
        // (the paper's Figure 14 ordering).
        assert!(
            f_d(Task::Quake, Resource::Cpu) >= f_d(Task::Word, Resource::Cpu),
            "quake {} vs word {}",
            f_d(Task::Quake, Resource::Cpu),
            f_d(Task::Word, Resource::Cpu)
        );
        // Quake's CPU ramp (to 1.3x) discomforts most perception users.
        assert!(f_d(Task::Quake, Resource::Cpu) >= 0.5);
        // Word's disk ramp is harmless: saves are rare and small.
        assert!(f_d(Task::Word, Resource::Disk) <= 0.5);
    }

    #[test]
    fn render_shows_paper_comparison() {
        let records = run_perception_study(&PerceptionStudyConfig {
            seed: 78,
            users: 2,
            eviction: EvictionPolicy::RegionRecency,
        });
        let s = render_perception_study(&records);
        assert!(s.contains("Calibration-free"));
        assert!(s.contains("(0.95)")); // paper's PPT/CPU or Quake/CPU f_d
    }
}
