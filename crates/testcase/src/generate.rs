//! Testcase generator tools (paper §2, Figure 2: "a set of tools for
//! creating, viewing, and manipulating testcases").
//!
//! [`Library`] builds testcase collections: the deterministic sets the
//! controlled study needs, and large parameter-swept libraries like the
//! Internet study's ">2000 testcases ... predominantly from the M/M/1 and
//! M/G/1 models" (§2.1).

use crate::exercise::ExerciseSpec;
use crate::resource::Resource;
use crate::testcase::Testcase;
use uucs_stats::Pcg64;

/// Default sample rate for generated testcases (the paper's example uses
/// 1 Hz; all controlled-study testcases are 2 minutes at 1 Hz).
pub const DEFAULT_RATE_HZ: f64 = 1.0;

/// Default testcase duration in seconds (2 minutes, §3.2).
pub const DEFAULT_DURATION: f64 = 120.0;

/// A growing collection of testcases with unique ids.
#[derive(Debug, Default)]
pub struct Library {
    testcases: Vec<Testcase>,
}

impl Library {
    /// An empty library.
    pub fn new() -> Self {
        Library::default()
    }

    /// All testcases, in insertion order.
    pub fn testcases(&self) -> &[Testcase] {
        &self.testcases
    }

    /// The testcases, in insertion order, without copying them.
    pub fn into_testcases(self) -> Vec<Testcase> {
        self.testcases
    }

    /// Number of testcases.
    pub fn len(&self) -> usize {
        self.testcases.len()
    }

    /// True if the library is empty.
    pub fn is_empty(&self) -> bool {
        self.testcases.is_empty()
    }

    /// Adds a testcase, enforcing id uniqueness.
    pub fn push(&mut self, tc: Testcase) {
        assert!(
            !self.testcases.iter().any(|t| t.id == tc.id),
            "duplicate testcase id {}",
            tc.id
        );
        self.testcases.push(tc);
    }

    /// Finds a testcase by id.
    pub fn get(&self, id: &str) -> Option<&Testcase> {
        self.testcases.iter().find(|t| t.id.as_str() == id)
    }

    /// Adds a ramp testcase `ramp(level, duration)` for `resource`.
    pub fn add_ramp(&mut self, resource: Resource, level: f64, duration: f64) -> &Testcase {
        let id = format!("{resource}-ramp-{level}-{duration}");
        self.push(Testcase::single(
            id,
            DEFAULT_RATE_HZ,
            resource,
            ExerciseSpec::Ramp { level, duration },
        ));
        self.testcases.last().unwrap()
    }

    /// Adds a step testcase `step(level, duration, start)` for `resource`.
    pub fn add_step(
        &mut self,
        resource: Resource,
        level: f64,
        duration: f64,
        start: f64,
    ) -> &Testcase {
        let id = format!("{resource}-step-{level}-{duration}-{start}");
        self.push(Testcase::single(
            id,
            DEFAULT_RATE_HZ,
            resource,
            ExerciseSpec::Step {
                level,
                duration,
                start,
            },
        ));
        self.testcases.last().unwrap()
    }

    /// Adds a blank testcase of the given duration.
    pub fn add_blank(&mut self, duration: f64) -> &Testcase {
        let id = format!("blank-{}-{duration}", self.testcases.len());
        self.push(Testcase::blank(id, DEFAULT_RATE_HZ, duration));
        self.testcases.last().unwrap()
    }

    /// Generates the Internet-study style library: a parameter sweep over
    /// every exercise-function type of Figure 3, "predominantly from the
    /// M/M/1 and M/G/1 models". With the default knobs this produces a
    /// little over 2000 testcases, like the paper's server.
    pub fn internet_sweep(seed: u64) -> Library {
        let mut lib = Library::new();
        let mut rng = Pcg64::new(seed);
        let d = DEFAULT_DURATION;

        // Deterministic structured sweeps: ramps and steps.
        for &res in &Resource::STUDIED {
            let max = res.max_contention();
            for i in 1..=10 {
                let level = max * i as f64 / 10.0;
                lib.add_ramp(res, round3(level), d);
                for &start in &[20.0, 40.0, 60.0] {
                    lib.add_step(res, round3(level), d, start);
                }
            }
        }
        // Periodic shapes.
        for &res in &Resource::STUDIED {
            let max = res.max_contention();
            for i in 1..=5 {
                let amp = max * i as f64 / 10.0;
                for &period in &[15.0, 30.0, 60.0] {
                    lib.push(Testcase::single(
                        format!("{res}-sin-{}-{period}", round3(amp)),
                        DEFAULT_RATE_HZ,
                        res,
                        ExerciseSpec::Sin {
                            amplitude: amp,
                            offset: amp,
                            period,
                            duration: d,
                        },
                    ));
                    lib.push(Testcase::single(
                        format!("{res}-saw-{}-{period}", round3(amp)),
                        DEFAULT_RATE_HZ,
                        res,
                        ExerciseSpec::Saw {
                            level: 2.0 * amp,
                            period,
                            duration: d,
                        },
                    ));
                }
            }
        }
        // The bulk: M/M/1 and M/G/1 playback, randomized parameters.
        // CPU and disk only (queue occupancy is meaningless for the memory
        // fraction semantics).
        let mut counter = 0u64;
        for &res in &[Resource::Cpu, Resource::Disk] {
            for _ in 0..500 {
                let rho = rng.uniform(0.1, 0.9);
                let mean_job = rng.uniform(0.5, 4.0);
                let arrival_rate = rho / mean_job;
                counter += 1;
                lib.push(Testcase::single(
                    format!("{res}-expexp-{counter:04}"),
                    DEFAULT_RATE_HZ,
                    res,
                    ExerciseSpec::ExpExp {
                        arrival_rate,
                        mean_job,
                        duration: d,
                        seed: rng.next_u64(),
                    },
                ));
            }
            for _ in 0..500 {
                let arrival_rate = rng.uniform(0.05, 0.5);
                let x_min = rng.uniform(0.2, 1.0);
                let alpha = rng.uniform(1.1, 2.5);
                counter += 1;
                lib.push(Testcase::single(
                    format!("{res}-exppar-{counter:04}"),
                    DEFAULT_RATE_HZ,
                    res,
                    ExerciseSpec::ExpPar {
                        arrival_rate,
                        x_min,
                        alpha,
                        duration: d,
                        seed: rng.next_u64(),
                    },
                ));
            }
        }
        // Blanks for the noise floor.
        for _ in 0..20 {
            lib.add_blank(d);
        }
        lib
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_and_step_helpers() {
        let mut lib = Library::new();
        lib.add_ramp(Resource::Cpu, 7.0, 120.0);
        lib.add_step(Resource::Disk, 5.0, 120.0, 40.0);
        lib.add_blank(120.0);
        assert_eq!(lib.len(), 3);
        let r = lib.get("cpu-ramp-7-120").unwrap();
        assert!((r.duration() - 120.0).abs() < 1e-9);
        assert!(lib.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_rejected() {
        let mut lib = Library::new();
        lib.add_ramp(Resource::Cpu, 1.0, 10.0);
        lib.add_ramp(Resource::Cpu, 1.0, 10.0);
    }

    #[test]
    fn internet_sweep_size_and_uniqueness() {
        let lib = Library::internet_sweep(1);
        // The paper: "we currently have over 2000 testcases".
        assert!(lib.len() > 2000, "got {}", lib.len());
        let mut ids: Vec<&str> = lib.testcases().iter().map(|t| t.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "ids must be unique");
    }

    #[test]
    fn internet_sweep_is_deterministic() {
        let a = Library::internet_sweep(5);
        let b = Library::internet_sweep(5);
        assert_eq!(a.testcases(), b.testcases());
    }

    #[test]
    fn internet_sweep_covers_all_kinds() {
        let lib = Library::internet_sweep(2);
        for kind in ["ramp", "step", "sin", "saw", "expexp", "exppar", "blank"] {
            assert!(
                lib.testcases().iter().any(|t| t.id.as_str().contains(kind)),
                "missing kind {kind}"
            );
        }
    }

    #[test]
    fn sweep_respects_resource_limits() {
        let lib = Library::internet_sweep(3);
        for tc in lib.testcases() {
            for f in &tc.functions {
                assert!(
                    f.peak() <= f.resource.max_contention() + 1e-9,
                    "{} exceeds {} limit",
                    tc.id,
                    f.resource
                );
            }
        }
    }
}
