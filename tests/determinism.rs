//! Whole-pipeline determinism: the entire study regenerates
//! bit-identically from one seed (DESIGN.md's first design decision).

use uucs::comfort::Fidelity;
use uucs::study::controlled::{ControlledStudy, StudyConfig};
use uucs::study::{figures, frog, report};

fn study(seed: u64) -> uucs::study::controlled::StudyData {
    study_of(seed, 10)
}

fn study_of(seed: u64, users: usize) -> uucs::study::controlled::StudyData {
    study_at(seed, users, Fidelity::Fast)
}

fn study_at(seed: u64, users: usize, fidelity: Fidelity) -> uucs::study::controlled::StudyData {
    ControlledStudy::new(StudyConfig {
        seed,
        users,
        fidelity,
    })
    .run()
}

#[test]
fn identical_seeds_identical_reports() {
    let a = study(77);
    let b = study(77);
    assert_eq!(a.records, b.records);
    assert_eq!(report::full_report(&a), report::full_report(&b));
}

/// The same at full fidelity, where every run plays on a simulated
/// machine and the sessions are spread over the host's CPUs: which
/// thread ran which subject must not show in the records.
#[test]
fn identical_seeds_identical_reports_at_full_fidelity() {
    let a = study_at(77, 10, Fidelity::Full);
    let b = study_at(77, 10, Fidelity::Full);
    assert!(a.records == b.records, "seed 77, 10 users, full fidelity");
    assert_eq!(report::full_report(&a), report::full_report(&b));
}

/// The ramp-vs-step table pairs users and sums float differences: the
/// pairing order must not depend on hasher state, or the last digit of
/// a mean flips between two runs of one seed. The paper-sized cohort
/// gives every cell enough pairs for an order change to show.
#[test]
fn frog_table_is_byte_identical_per_seed() {
    let a = study_of(2004, 33);
    let b = study_of(2004, 33);
    assert_eq!(frog::frog_all(&a), frog::frog_all(&b));
    assert_eq!(frog::render_frog(&a), frog::render_frog(&b));
}

#[test]
fn different_seeds_differ_but_agree_in_shape() {
    let a = study(77);
    let b = study(78);
    assert_ne!(a.records, b.records);
    // Both regenerations preserve the headline ordering: Quake is the
    // most CPU-sensitive task, Word the least.
    for d in [&a, &b] {
        let quake = figures::cell_metrics(d, uucs::workloads::Task::Quake, uucs::testcase::Resource::Cpu);
        let word = figures::cell_metrics(d, uucs::workloads::Task::Word, uucs::testcase::Resource::Cpu);
        assert!(quake.c_a.unwrap() < word.c_a.unwrap());
        assert!(quake.f_d.unwrap() > word.f_d.unwrap());
    }
}

#[test]
fn internet_study_is_deterministic() {
    use uucs::study::internet::{InternetStudy, InternetStudyConfig};
    let cfg = InternetStudyConfig {
        seed: 9,
        clients: 6,
        runs_per_client: 5,
        mean_gap_secs: 900.0,
    };
    let a = InternetStudy::new(cfg.clone()).run();
    let b = InternetStudy::new(cfg).run();
    assert_eq!(a.records, b.records);
    assert_eq!(a.simulated_secs, b.simulated_secs);
}

#[test]
fn full_fidelity_machine_is_deterministic() {
    use uucs::comfort::{execute_run, RunSetup, RunStyle, UserPopulation};
    use uucs::testcase::{ExerciseSpec, Resource, Testcase};
    let pop = UserPopulation::generate(1, 31);
    let tc = Testcase::single(
        "det-disk-step",
        1.0,
        Resource::Disk,
        ExerciseSpec::Step {
            level: 3.0,
            duration: 120.0,
            start: 40.0,
        },
    );
    let run = || {
        execute_run(&RunSetup {
            user: &pop.users()[0],
            task: uucs::workloads::Task::Ie,
            testcase: &tc,
            style: RunStyle::Step,
            seed: 8,
            fidelity: Fidelity::Full,
            client_id: "det".into(),
        })
    };
    assert_eq!(run(), run());
}
