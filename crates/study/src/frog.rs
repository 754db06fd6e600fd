//! §3.3.5: time dynamics — the "frog in the pot" hypothesis.
//!
//! "We paired ramp and step testcases in our study to explore if a
//! similar phenomenon might be true of user comfort with resource
//! borrowing — that a user would be more tolerant of a slow ramp than a
//! quick step to the same level. We did observe the phenomenon in
//! Powerpoint/CPU — the majority of users (96%) tolerated higher levels
//! in the ramp testcase with a contention difference of 0.22 (averaged)
//! with a p-value of 0.0001."
//!
//! The comparison uses the contention level at the feedback point of each
//! user's ramp run versus their step run in the same cell, over users
//! discomforted in *both*. Note the built-in censoring: the step jumps
//! straight to its plateau, so a user with a genuinely lower threshold
//! still reports at the plateau level — which is exactly why the observed
//! ramp-minus-step difference skews positive.

use crate::controlled::StudyData;
use std::collections::BTreeMap;
use uucs_protocol::RunOutcome;
use uucs_stats::paired_t_test;
use uucs_testcase::Resource;
use uucs_workloads::Task;

/// The ramp-vs-step comparison for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FrogResult {
    /// The context.
    pub task: Task,
    /// The resource.
    pub resource: Resource,
    /// Users discomforted in both the ramp and the step run.
    pub n_pairs: usize,
    /// Fraction of those tolerating a higher level in the ramp.
    pub frac_ramp_higher: f64,
    /// Mean (ramp − step) contention difference.
    pub mean_diff: f64,
    /// Two-sided paired t-test p-value (`None` if under 2 pairs or zero
    /// variance).
    pub p: Option<f64>,
}

/// Computes the comparison for one cell.
pub fn frog_cell(data: &StudyData, task: Task, resource: Resource) -> FrogResult {
    let prefix = format!("{}-{}", task.name().to_lowercase(), resource.name());
    // Ordered by user: the pairs below feed float sums, whose rounding
    // depends on the order, and the report must be byte-stable per seed.
    let mut ramp_levels: BTreeMap<&str, f64> = BTreeMap::new();
    let mut step_levels: BTreeMap<&str, f64> = BTreeMap::new();
    for r in &data.records {
        if r.outcome != RunOutcome::Discomfort || !r.testcase.starts_with(&prefix) {
            continue;
        }
        let Some(level) = r.level_at_feedback(resource) else {
            continue;
        };
        if r.testcase.ends_with("ramp") {
            ramp_levels.insert(r.user.as_str(), level);
        } else if r.testcase.ends_with("step") {
            step_levels.insert(r.user.as_str(), level);
        }
    }
    let mut ramps = Vec::new();
    let mut steps = Vec::new();
    for (user, &rl) in &ramp_levels {
        if let Some(&sl) = step_levels.get(user) {
            ramps.push(rl);
            steps.push(sl);
        }
    }
    let n_pairs = ramps.len();
    let higher = ramps
        .iter()
        .zip(&steps)
        .filter(|(r, s)| r > s)
        .count();
    let mean_diff = if n_pairs == 0 {
        0.0
    } else {
        ramps
            .iter()
            .zip(&steps)
            .map(|(r, s)| r - s)
            .sum::<f64>()
            / n_pairs as f64
    };
    FrogResult {
        task,
        resource,
        n_pairs,
        frac_ramp_higher: if n_pairs == 0 {
            0.0
        } else {
            higher as f64 / n_pairs as f64
        },
        mean_diff,
        p: paired_t_test(&ramps, &steps).map(|t| t.p),
    }
}

/// Computes the comparison for every cell.
pub fn frog_all(data: &StudyData) -> Vec<FrogResult> {
    let mut out = Vec::new();
    for &task in &Task::ALL {
        for &resource in &Resource::STUDIED {
            out.push(frog_cell(data, task, resource));
        }
    }
    out
}

/// Renders the §3.3.5 table.
pub fn render_frog(data: &StudyData) -> String {
    let mut out = String::from(
        "Frog-in-the-pot (ramp vs step) — §3.3.5\n\
         Paper (Powerpoint/CPU): 96% tolerated higher in ramp, diff 0.22, p = 0.0001\n",
    );
    out.push_str(&format!(
        "{:<12} {:<8} {:>7} {:>12} {:>10} {:>10}\n",
        "Task", "Rsrc", "pairs", "ramp>step", "mean diff", "p"
    ));
    for r in frog_all(data) {
        out.push_str(&format!(
            "{:<12} {:<8} {:>7} {:>11.0}% {:>10.3} {:>10}\n",
            r.task.name(),
            r.resource,
            r.n_pairs,
            r.frac_ramp_higher * 100.0,
            r.mean_diff,
            r.p.map(|p| format!("{p:.4}")).unwrap_or_else(|| "-".into())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controlled::{ControlledStudy, StudyConfig};
    use uucs_comfort::Fidelity;

    fn big_data() -> StudyData {
        ControlledStudy::new(StudyConfig {
            seed: 31,
            users: 400,
            fidelity: Fidelity::Fast,
        })
        .run()
    }

    #[test]
    fn powerpoint_cpu_shows_the_phenomenon() {
        let r = frog_cell(&big_data(), Task::Powerpoint, Resource::Cpu);
        assert!(r.n_pairs >= 5, "pairs {}", r.n_pairs);
        // The paper's 96%: the overwhelming majority tolerate more in the
        // ramp (sampling noise allowed for).
        assert!(
            r.frac_ramp_higher > 0.7,
            "frac {} with {} pairs",
            r.frac_ramp_higher,
            r.n_pairs
        );
        assert!(r.mean_diff > 0.03, "mean diff {}", r.mean_diff);
        if let Some(p) = r.p {
            assert!(p < 0.05, "p {p}");
        }
    }

    #[test]
    fn quake_cpu_has_pairs_and_a_verdict() {
        // The paper only *observed* the phenomenon in Powerpoint/CPU. In
        // Quake/CPU the step sits far below the ramp ceiling (0.5 vs
        // 1.3), so the plateau-censoring cuts the other way; we just
        // check the analysis produces a verdict on plenty of pairs.
        let r = frog_cell(&big_data(), Task::Quake, Resource::Cpu);
        assert!(r.n_pairs > 50, "pairs {}", r.n_pairs);
        assert!(r.p.is_some());
    }

    #[test]
    fn empty_cell_yields_zero_pairs() {
        // Word/Memory: nobody is ever discomforted.
        let r = frog_cell(&big_data(), Task::Word, Resource::Memory);
        assert_eq!(r.n_pairs, 0);
        assert_eq!(r.p, None);
    }

    #[test]
    fn render_lists_all_cells() {
        let s = render_frog(&big_data());
        assert!(s.contains("Powerpoint"));
        assert!(s.contains("Quake"));
        assert_eq!(s.lines().count(), 3 + 12);
    }
}
