//! Deterministic synthetic user populations.
//!
//! [`UserPopulation::generate`] draws `n` users whose per-cell thresholds
//! follow the calibrated lognormal fits, adjusted by skill effects whose
//! population expectation is normalized back to 1 so skill structure does
//! not shift the aggregate CDFs away from the published fit targets.

use crate::calibration::{self, SKILL_EFFECTS};
use crate::user::{RatingDim, SelfRatings, SkillLevel, UserProfile};
use std::collections::HashMap;
use std::sync::OnceLock;
use uucs_stats::fit::Lognormal;
use uucs_stats::Pcg64;
use uucs_testcase::Resource;
use uucs_workloads::Task;

/// Probabilities of (Beginner, Typical, Power) for general computing
/// dimensions — the sample was "primarily graduate students and
/// undergraduates from the engineering departments" (§3.1).
const GENERAL_DIST: [f64; 3] = [0.10, 0.55, 0.35];

/// Quake skill is more spread out among engineering students.
const QUAKE_DIST: [f64; 3] = [0.40, 0.35, 0.25];

fn draw_level(rng: &mut Pcg64, dist: [f64; 3]) -> SkillLevel {
    let x = rng.f64();
    if x < dist[0] {
        SkillLevel::Beginner
    } else if x < dist[0] + dist[1] {
        SkillLevel::Typical
    } else {
        SkillLevel::Power
    }
}

fn dist_for(dim: RatingDim) -> [f64; 3] {
    if dim == RatingDim::Quake {
        QUAKE_DIST
    } else {
        GENERAL_DIST
    }
}

/// The combined skill multiplier a user's ratings impose on one cell.
fn skill_multiplier(ratings: &SelfRatings, task: Task, resource: Resource) -> f64 {
    SKILL_EFFECTS
        .iter()
        .filter(|e| e.task == task && e.resource == resource)
        .map(|e| match ratings.get(e.dimension) {
            SkillLevel::Power => e.power_mult,
            SkillLevel::Typical => 1.0,
            SkillLevel::Beginner => e.beginner_mult,
        })
        .product()
}

/// The population's multiplier groups for a cell: every combination of
/// ratings that affects it, with its probability weight and combined
/// multiplier.
fn multiplier_groups(task: Task, resource: Resource) -> Vec<(f64, f64)> {
    let effects: Vec<_> = SKILL_EFFECTS
        .iter()
        .filter(|e| e.task == task && e.resource == resource)
        .collect();
    let mut groups = vec![(1.0f64, 1.0f64)];
    for e in effects {
        let d = dist_for(e.dimension);
        let options = [
            (d[0], e.beginner_mult),
            (d[1], 1.0),
            (d[2], e.power_mult),
        ];
        let mut next = Vec::with_capacity(groups.len() * 3);
        for &(w, m) in &groups {
            for &(wo, mo) in &options {
                next.push((w * wo, m * mo));
            }
        }
        groups = next;
    }
    groups
}

/// Solves for the *base* lognormal `(mu, sigma)` such that the skill-
/// multiplied mixture `sum_g w_g * LogN(mu + ln m_g, sigma)` passes
/// through the cell's two published quantile points. Without skill
/// effects this reduces to the plain calibrated fit. Falls back to the
/// plain fit if the cell has no usable quantile targets.
fn mixture_base_fit(c: &calibration::CellStats) -> Lognormal {
    let plain = calibration::threshold_fit(c);
    let (Some(c05), true) = (c.c_05, c.f_d > 0.051) else {
        return plain;
    };
    let groups = multiplier_groups(c.task, c.resource);
    if groups.len() == 1 {
        return plain;
    }
    let mixture_cdf = |mu: f64, sigma: f64, x: f64| -> f64 {
        groups
            .iter()
            .map(|&(w, m)| w * uucs_stats::special::normal_cdf((x.ln() - m.ln() - mu) / sigma))
            .sum()
    };
    // Nested bisection: for each sigma, pin mu so F(c05) = 0.05 (F is
    // decreasing in mu); then adjust sigma so F(ceiling) = f_d (with the
    // low quantile pinned, F(ceiling) decreases as sigma grows).
    let solve_mu = |sigma: f64| -> f64 {
        let (mut lo, mut hi) = (c05.ln() - 20.0 * sigma - 10.0, c05.ln() + 20.0 * sigma + 10.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if mixture_cdf(mid, sigma, c05) > 0.05 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let (mut slo, mut shi) = (1e-3, 8.0);
    for _ in 0..100 {
        let mid = 0.5 * (slo + shi);
        let mu = solve_mu(mid);
        if mixture_cdf(mu, mid, c.ramp_ceiling) > c.f_d {
            slo = mid;
        } else {
            shi = mid;
        }
    }
    let sigma = 0.5 * (slo + shi);
    Lognormal {
        mu: solve_mu(sigma),
        sigma,
    }
}

/// Per-cell base fits solved against the skill-multiplied mixture, so the
/// *population* CDF passes through the published points; in
/// [`calibration::CELLS`] order. They depend on the calibration tables
/// alone, and the twelve nested bisections cost more than generating the
/// study's whole population, so they are solved once per process.
fn base_fits() -> &'static [Lognormal; calibration::CELLS.len()] {
    static FITS: OnceLock<[Lognormal; calibration::CELLS.len()]> = OnceLock::new();
    FITS.get_or_init(|| calibration::CELLS.each_ref().map(mixture_base_fit))
}

/// A deterministic population of synthetic users.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    users: Vec<UserProfile>,
}

impl UserPopulation {
    /// Generates `n` users from a seed. The same `(n, seed)` always yields
    /// the same population; individual users are independent (adding a
    /// user never perturbs the others).
    pub fn generate(n: usize, seed: u64) -> Self {
        let root = Pcg64::new(seed).split_str("population");
        let base_fits = base_fits();
        let users = (0..n)
            .map(|i| {
                let mut rng = root.split(i as u64);
                let ratings = SelfRatings::new([
                    draw_level(&mut rng, dist_for(RatingDim::Pc)),
                    draw_level(&mut rng, dist_for(RatingDim::Windows)),
                    draw_level(&mut rng, dist_for(RatingDim::Word)),
                    draw_level(&mut rng, dist_for(RatingDim::Powerpoint)),
                    draw_level(&mut rng, dist_for(RatingDim::Ie)),
                    draw_level(&mut rng, dist_for(RatingDim::Quake)),
                ]);
                let mut thresholds = HashMap::new();
                for (c, fit) in calibration::CELLS.iter().zip(base_fits) {
                    let base = fit.sample(&mut rng);
                    let mult = skill_multiplier(&ratings, c.task, c.resource);
                    thresholds.insert((c.task, c.resource), base * mult);
                }
                UserProfile {
                    id: format!("u{i:02}"),
                    ratings,
                    thresholds,
                    noise_propensity: rng.lognormal(0.0, 0.5),
                    ramp_bonus_frac: rng
                        .normal(calibration::RAMP_BONUS_FRAC_MEAN, 0.035)
                        .max(0.0),
                    reaction_secs: rng.lognormal(0.18, 0.45),
                }
            })
            .collect();
        UserPopulation { users }
    }

    /// The study's population: 33 subjects (§3.1).
    pub fn study_population(seed: u64) -> Self {
        Self::generate(33, seed)
    }

    /// The users.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Users whose rating in `dim` equals `level`.
    pub fn with_rating(&self, dim: RatingDim, level: SkillLevel) -> Vec<&UserProfile> {
        self.users
            .iter()
            .filter(|u| u.ratings.get(dim) == level)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_independent() {
        let a = UserPopulation::generate(10, 42);
        let b = UserPopulation::generate(10, 42);
        for (x, y) in a.users().iter().zip(b.users()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.thresholds, y.thresholds);
            assert_eq!(x.ratings, y.ratings);
        }
        // Growing the population preserves existing users.
        let c = UserPopulation::generate(20, 42);
        for (x, y) in a.users().iter().zip(c.users()) {
            assert_eq!(x.thresholds, y.thresholds);
        }
    }

    /// The cached base fits are the freshly solved ones to the bit, so a
    /// population does not depend on which call in the process built it.
    #[test]
    fn cached_base_fits_equal_fresh_solves_bit_for_bit() {
        for (c, cached) in calibration::CELLS.iter().zip(base_fits()) {
            let fresh = mixture_base_fit(c);
            assert_eq!(
                (cached.mu.to_bits(), cached.sigma.to_bits()),
                (fresh.mu.to_bits(), fresh.sigma.to_bits()),
                "{}-{}",
                c.task,
                c.resource
            );
        }
        let a = UserPopulation::generate(33, 2004);
        let b = UserPopulation::generate(33, 2004);
        for (x, y) in a.users().iter().zip(b.users()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.ratings, y.ratings);
            assert_eq!(x.thresholds, y.thresholds);
            assert_eq!(
                (x.noise_propensity, x.ramp_bonus_frac, x.reaction_secs),
                (y.noise_propensity, y.ramp_bonus_frac, y.reaction_secs)
            );
        }
    }

    #[test]
    fn study_population_is_33() {
        assert_eq!(UserPopulation::study_population(1).len(), 33);
    }

    #[test]
    fn thresholds_follow_calibrated_cdf() {
        // With many users, the fraction below the published c_05 is ~5%
        // and below the ceiling is ~f_d, per cell.
        let pop = UserPopulation::generate(4000, 7);
        for c in &calibration::CELLS {
            let Some(c05) = c.c_05 else { continue };
            if c.f_d <= 0.051 {
                continue;
            }
            let thresholds: Vec<f64> = pop
                .users()
                .iter()
                .map(|u| u.threshold(c.task, c.resource))
                .collect();
            let below_c05 =
                thresholds.iter().filter(|&&t| t <= c05).count() as f64 / thresholds.len() as f64;
            let below_ceiling = thresholds.iter().filter(|&&t| t <= c.ramp_ceiling).count() as f64
                / thresholds.len() as f64;
            assert!(
                (below_c05 - 0.05).abs() < 0.025,
                "{}-{}: P(T<=c05) = {below_c05}",
                c.task,
                c.resource
            );
            assert!(
                (below_ceiling - c.f_d).abs() < 0.05,
                "{}-{}: P(T<=cap) = {below_ceiling} vs f_d {}",
                c.task,
                c.resource,
                c.f_d
            );
        }
    }

    #[test]
    fn word_memory_never_discomforts() {
        let pop = UserPopulation::generate(2000, 8);
        let below = pop
            .users()
            .iter()
            .filter(|u| u.threshold(Task::Word, Resource::Memory) <= 1.0)
            .count();
        assert!(below <= 4, "{below} of 2000 below the ceiling");
    }

    #[test]
    fn power_quake_users_are_less_tolerant() {
        let pop = UserPopulation::generate(3000, 9);
        let mean = |us: &[&UserProfile]| {
            us.iter()
                .map(|u| u.threshold(Task::Quake, Resource::Cpu))
                .sum::<f64>()
                / us.len() as f64
        };
        let power = mean(&pop.with_rating(RatingDim::Quake, SkillLevel::Power));
        let typical = mean(&pop.with_rating(RatingDim::Quake, SkillLevel::Typical));
        let beginner = mean(&pop.with_rating(RatingDim::Quake, SkillLevel::Beginner));
        assert!(power < typical, "power {power} vs typical {typical}");
        assert!(typical < beginner, "typical {typical} vs beginner {beginner}");
    }

    #[test]
    fn skill_normalization_keeps_aggregate_centered() {
        // The skill structure must not shift the aggregate: the overall
        // fraction below the ceiling still matches f_d for Quake/CPU.
        let pop = UserPopulation::generate(4000, 10);
        let c = calibration::cell(Task::Quake, Resource::Cpu);
        let below = pop
            .users()
            .iter()
            .filter(|u| u.threshold(Task::Quake, Resource::Cpu) <= c.ramp_ceiling)
            .count() as f64
            / pop.len() as f64;
        assert!((below - c.f_d).abs() < 0.05, "below {below}");
    }

    #[test]
    fn ramp_bonus_and_reaction_are_positive() {
        let pop = UserPopulation::generate(100, 11);
        for u in pop.users() {
            assert!(u.ramp_bonus_frac >= 0.0);
            assert!(u.reaction_secs > 0.0 && u.reaction_secs < 30.0);
            assert!(u.noise_propensity > 0.0);
        }
    }
}
