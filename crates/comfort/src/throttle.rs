//! Throttles — §5's "Advice to implementors" made executable.
//!
//! * [`ThrottleAdvisor`]: "Exploit our CDFs to set the throttle according
//!   to the percentage of users you are willing to affect" and "Know what
//!   the user is doing. Their context greatly affects the right throttle
//!   setting."
//! * [`FeedbackThrottle`]: "Consider using user feedback directly in your
//!   application" — the paper's closing future-work direction ("we are
//!   currently exploring how to use user feedback directly in the
//!   scheduling of these frameworks"). An AIMD controller that backs off
//!   multiplicatively on a discomfort click and creeps back up
//!   additively.

use std::collections::HashMap;
use uucs_stats::Ecdf;
use uucs_testcase::Resource;
use uucs_workloads::Task;

/// A CDF-driven throttle advisor.
///
/// ```
/// use uucs_comfort::ThrottleAdvisor;
/// use uucs_stats::Ecdf;
/// use uucs_testcase::Resource;
/// let mut advisor = ThrottleAdvisor::new();
/// // 20 observed discomfort levels 0.1..2.0 plus 30 exhausted runs.
/// let obs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
/// advisor.set_aggregate(Resource::Cpu, Ecdf::new(obs, 30));
/// // Borrow while discomforting at most 10% of users:
/// let level = advisor.recommend(Resource::Cpu, 0.10).unwrap();
/// assert!((level - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThrottleAdvisor {
    /// Aggregated per-resource CDFs (Figures 10–12).
    aggregate: HashMap<Resource, Ecdf>,
    /// Context-specific CDFs (Figure 18) — used when the borrower knows
    /// what the user is doing.
    by_context: HashMap<(Task, Resource), Ecdf>,
}

impl ThrottleAdvisor {
    /// Creates an empty advisor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the aggregate CDF for a resource.
    pub fn set_aggregate(&mut self, resource: Resource, ecdf: Ecdf) {
        self.aggregate.insert(resource, ecdf);
    }

    /// Installs a context-specific CDF.
    pub fn set_context(&mut self, task: Task, resource: Resource, ecdf: Ecdf) {
        self.by_context.insert((task, resource), ecdf);
    }

    /// The paper's `c_p` borrowing level for `p = acceptable`,
    /// aggregated over contexts: the ⌈p·N⌉-th lowest of the N observed
    /// discomfort levels. At that level ⌈p·N⌉/N of users are already
    /// discomforted, which is `acceptable` only when p·N is an integer
    /// and more otherwise (2/33 = 6.1 % at N = 33, p = 0.05; ROADMAP item
    /// 19). Returns `None` if no CDF is installed; returns the highest
    /// *explored* level when no observation reaches rank ⌈p·N⌉ (borrow
    /// at least that much).
    pub fn recommend(&self, resource: Resource, acceptable: f64) -> Option<f64> {
        let e = self.aggregate.get(&resource)?;
        Some(Self::level_from(e, acceptable))
    }

    /// Context-aware recommendation; falls back to the aggregate if the
    /// context was never measured.
    pub fn recommend_for(&self, task: Task, resource: Resource, acceptable: f64) -> Option<f64> {
        match self.by_context.get(&(task, resource)) {
            Some(e) => Some(Self::level_from(e, acceptable)),
            None => self.recommend(resource, acceptable),
        }
    }

    fn level_from(e: &Ecdf, acceptable: f64) -> f64 {
        match e.quantile(acceptable) {
            // The ⌈p·N⌉-th lowest observation: the tipping level itself,
            // not the one below it (see `recommend`).
            Some(level) => level,
            // Even the deepest explored level discomforts < acceptable.
            None => e
                .observed()
                .last()
                .copied()
                .unwrap_or(0.0)
                .max(0.0),
        }
    }
}

/// An AIMD feedback throttle: borrow at `level`; on a discomfort click,
/// cut multiplicatively and hold off; otherwise creep up additively
/// toward `ceiling`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackThrottle {
    level: f64,
    ceiling: f64,
    increase_per_step: f64,
    backoff: f64,
    /// Steps remaining in the post-click holdoff.
    holdoff: u32,
    holdoff_steps: u32,
    clicks: u64,
}

impl FeedbackThrottle {
    /// Creates a throttle starting at `start`, never exceeding `ceiling`,
    /// creeping up by `increase_per_step`, and multiplying by `backoff`
    /// (< 1) on each discomfort click followed by `holdoff_steps` frozen
    /// steps.
    pub fn new(
        start: f64,
        ceiling: f64,
        increase_per_step: f64,
        backoff: f64,
        holdoff_steps: u32,
    ) -> Self {
        assert!(start >= 0.0 && ceiling >= start);
        assert!(increase_per_step >= 0.0);
        assert!((0.0..1.0).contains(&backoff));
        FeedbackThrottle {
            level: start,
            ceiling,
            increase_per_step,
            backoff,
            holdoff: 0,
            holdoff_steps,
            clicks: 0,
        }
    }

    /// The current borrowing level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Number of discomfort clicks absorbed.
    pub fn clicks(&self) -> u64 {
        self.clicks
    }

    /// Advances one control step without feedback: creep up (unless in
    /// holdoff).
    pub fn step(&mut self) -> f64 {
        if self.holdoff > 0 {
            self.holdoff -= 1;
        } else {
            self.level = (self.level + self.increase_per_step).min(self.ceiling);
        }
        self.level
    }

    /// Registers a discomfort click: multiplicative backoff + holdoff.
    pub fn on_discomfort(&mut self) -> f64 {
        self.clicks += 1;
        self.level *= self.backoff;
        self.holdoff = self.holdoff_steps;
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf() -> Ecdf {
        // Observed discomfort levels 0.2..2.0, plus heavy censoring —
        // like a CPU CDF.
        let obs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
        Ecdf::new(obs, 30)
    }

    #[test]
    fn recommend_reads_the_quantile() {
        let mut a = ThrottleAdvisor::new();
        a.set_aggregate(Resource::Cpu, cdf());
        // 50 runs total; 5% = ceil(2.5) = 3 observations -> 0.3.
        assert!((a.recommend(Resource::Cpu, 0.05).unwrap() - 0.3).abs() < 1e-9);
        // 20% = 10 observations -> 1.0.
        assert!((a.recommend(Resource::Cpu, 0.2).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(a.recommend(Resource::Disk, 0.05), None);
    }

    #[test]
    fn recommend_saturated_cdf_returns_max_explored() {
        let mut a = ThrottleAdvisor::new();
        // Only 2/50 ever discomforted: even the deepest level is fine for
        // a 10% budget.
        a.set_aggregate(Resource::Memory, Ecdf::new(vec![0.8, 0.9], 48));
        assert_eq!(a.recommend(Resource::Memory, 0.10), Some(0.9));
    }

    #[test]
    fn context_beats_aggregate() {
        let mut a = ThrottleAdvisor::new();
        a.set_aggregate(Resource::Cpu, cdf());
        a.set_context(
            Task::Quake,
            Resource::Cpu,
            Ecdf::new(vec![0.05, 0.1, 0.15, 0.2], 0),
        );
        // Quake players are far touchier than the aggregate.
        let q = a.recommend_for(Task::Quake, Resource::Cpu, 0.25).unwrap();
        let agg = a.recommend(Resource::Cpu, 0.25).unwrap();
        assert!(q < agg, "{q} vs {agg}");
        // Unmeasured context falls back.
        assert_eq!(
            a.recommend_for(Task::Word, Resource::Cpu, 0.25),
            Some(agg)
        );
    }

    #[test]
    fn feedback_throttle_aimd_dynamics() {
        let mut t = FeedbackThrottle::new(0.2, 2.0, 0.1, 0.5, 3);
        t.step();
        t.step();
        assert!((t.level() - 0.4).abs() < 1e-12);
        t.on_discomfort();
        assert!((t.level() - 0.2).abs() < 1e-12);
        // Holdoff: three frozen steps.
        t.step();
        t.step();
        t.step();
        assert!((t.level() - 0.2).abs() < 1e-12);
        t.step();
        assert!((t.level() - 0.3).abs() < 1e-12);
        assert_eq!(t.clicks(), 1);
    }

    #[test]
    fn feedback_throttle_respects_ceiling() {
        let mut t = FeedbackThrottle::new(0.0, 0.5, 0.2, 0.5, 0);
        for _ in 0..10 {
            t.step();
        }
        assert!((t.level() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feedback_throttle_converges_below_user_threshold() {
        // Simulated user with threshold 1.0: clicks whenever the level
        // exceeds it. The throttle should hover near (and mostly below)
        // the threshold.
        let mut t = FeedbackThrottle::new(0.1, 5.0, 0.05, 0.6, 5);
        let mut above_time = 0;
        for step in 0..2000 {
            let level = t.step();
            if level > 1.0 {
                t.on_discomfort();
                above_time += 1;
            }
            let _ = step;
        }
        assert!(t.clicks() > 0);
        // The throttle spent almost all its time below the threshold.
        assert!(above_time < 200, "above {above_time} of 2000 steps");
        assert!(t.level() <= 1.1);
    }
}
