//! One bench group per table/figure in the paper. Each group prints the
//! regenerated artifact once (so `cargo bench | tee bench_output.txt`
//! records the full reproduction) and times the regeneration.

use uucs_harness::{bench_group, bench_main, Criterion};
use std::hint::black_box;
use uucs_bench::{big_study_data, print_once, study_data};
use uucs_study::{figures, frog, report, skill};
use uucs_testcase::{ExerciseSpec, Resource};
use uucs_workloads::Task;

/// Figure 3: the exercise-function catalog — render every kind.
fn fig03_exercise_functions(c: &mut Criterion) {
    print_once("Figure 3: exercise function catalog", || {
        let specs: Vec<(&str, ExerciseSpec)> = vec![
            ("step(2.0,120,40)", ExerciseSpec::Step { level: 2.0, duration: 120.0, start: 40.0 }),
            ("ramp(2.0,120)", ExerciseSpec::Ramp { level: 2.0, duration: 120.0 }),
            ("sin", ExerciseSpec::Sin { amplitude: 1.0, offset: 1.0, period: 30.0, duration: 120.0 }),
            ("saw", ExerciseSpec::Saw { level: 2.0, period: 30.0, duration: 120.0 }),
            ("expexp (M/M/1)", ExerciseSpec::ExpExp { arrival_rate: 0.4, mean_job: 1.0, duration: 120.0, seed: 1 }),
            ("exppar (M/G/1)", ExerciseSpec::ExpPar { arrival_rate: 0.25, x_min: 0.5, alpha: 1.5, duration: 120.0, seed: 2 }),
        ];
        let mut out = String::new();
        for (name, spec) in &specs {
            let f = spec.sample(Resource::Cpu, 1.0);
            out.push_str(&format!(
                "{name:<18} n={} mean={:.2} peak={:.2}\n",
                f.values.len(),
                f.mean(),
                f.peak()
            ));
        }
        out
    });
    c.bench_function("fig03/sample_all_kinds", |b| {
        b.iter(|| {
            let f = ExerciseSpec::ExpExp {
                arrival_rate: 0.4,
                mean_job: 1.0,
                duration: 120.0,
                seed: 1,
            }
            .sample(Resource::Cpu, 1.0);
            black_box(f.values.len())
        })
    });
}

/// Figure 4: the step and ramp example series.
fn fig04_step_ramp(c: &mut Criterion) {
    print_once("Figure 4: step(2.0,120,40) and ramp(2.0,120)", || {
        let step = ExerciseSpec::Step { level: 2.0, duration: 120.0, start: 40.0 }
            .sample(Resource::Cpu, 1.0);
        let ramp = ExerciseSpec::Ramp { level: 2.0, duration: 120.0 }.sample(Resource::Cpu, 1.0);
        let mut out = String::from("t(s)  step  ramp\n");
        for t in (0..=120).step_by(20) {
            out.push_str(&format!(
                "{t:>4} {:>5.2} {:>5.2}\n",
                step.value_at(t as f64).unwrap_or(0.0),
                ramp.value_at(t as f64).unwrap_or(0.0)
            ));
        }
        out
    });
    c.bench_function("fig04/sample_step_and_ramp", |b| {
        b.iter(|| {
            let s = ExerciseSpec::Step { level: 2.0, duration: 120.0, start: 40.0 }
                .sample(Resource::Cpu, 1.0);
            let r = ExerciseSpec::Ramp { level: 2.0, duration: 120.0 }.sample(Resource::Cpu, 1.0);
            black_box((s.peak(), r.peak()))
        })
    });
}

/// Figure 8: the controlled-study testcase table.
fn fig08_testcase_table(c: &mut Criterion) {
    print_once("Figure 8: controlled-study testcases", || {
        let mut out = String::new();
        for task in Task::ALL {
            for tc in uucs_comfort::calibration::controlled_testcases(task) {
                out.push_str(&format!("{}\n", tc.id));
            }
        }
        out
    });
    c.bench_function("fig08/build_library", |b| {
        b.iter(|| {
            let lib = uucs_study::controlled::ControlledStudy::library();
            black_box(lib.len())
        })
    });
}

/// Figure 9: the run breakdown.
fn fig09_run_breakdown(c: &mut Criterion) {
    let data = study_data();
    print_once("Figure 9: breakdown of runs", || figures::render_fig9(data));
    c.bench_function("fig09/breakdown", |b| {
        b.iter(|| black_box(figures::fig9(data)))
    });
}

/// Figures 10-12: aggregated CDFs.
fn fig10_12_aggregate_cdfs(c: &mut Criterion) {
    let data = study_data();
    for (fig, r) in [(10, Resource::Cpu), (11, Resource::Memory), (12, Resource::Disk)] {
        print_once(&format!("Figure {fig}: CDF of discomfort for {r}"), || {
            figures::render_aggregate_cdf(data, r)
        });
        c.bench_function(format!("fig{fig}/cdf_{r}"), |b| {
            b.iter(|| black_box(figures::aggregate_cdf(data, r).total()))
        });
    }
}

/// Figure 13: the sensitivity grid.
fn fig13_sensitivity(c: &mut Criterion) {
    let data = study_data();
    print_once("Figure 13: sensitivity grid", || figures::render_fig13(data));
    c.bench_function("fig13/classify", |b| {
        b.iter(|| black_box(figures::fig13(data)))
    });
}

/// Figures 14-16: the metric tables.
fn fig14_16_metric_tables(c: &mut Criterion) {
    let data = study_data();
    for which in [14u32, 15, 16] {
        print_once(&format!("Figure {which}"), || {
            figures::render_metric_table(data, which)
        });
    }
    c.bench_function("fig14_16/all_cell_metrics", |b| {
        b.iter(|| {
            for task in Task::ALL {
                for r in Resource::STUDIED {
                    black_box(figures::cell_metrics(data, task, r).f_d);
                }
            }
        })
    });
}

/// Figure 17: skill-class t-tests (on the high-power dataset).
fn fig17_skill(c: &mut Criterion) {
    let data = big_study_data();
    print_once("Figure 17: skill-class differences (240 users)", || {
        skill::render_fig17(data, 0.05)
    });
    c.bench_function("fig17/t_tests", |b| {
        b.iter(|| black_box(skill::fig17(data, 0.05).len()))
    });
}

/// Figure 18: the per-cell CDF grid.
fn fig18_cdf_grid(c: &mut Criterion) {
    let data = study_data();
    print_once("Figure 18: per-cell CDF grid", || figures::render_fig18(data));
    c.bench_function("fig18/grid", |b| {
        b.iter(|| {
            for task in Task::ALL {
                for r in Resource::STUDIED {
                    black_box(figures::cell_metrics(data, task, r).ecdf.total());
                }
            }
        })
    });
}

/// §3.3.5: the frog-in-the-pot analysis.
fn frog_in_pot(c: &mut Criterion) {
    let data = big_study_data();
    print_once("Frog in the pot (ramp vs step, 240 users)", || {
        frog::render_frog(data)
    });
    c.bench_function("frog/all_cells", |b| {
        b.iter(|| black_box(frog::frog_all(data).len()))
    });
}

/// The paper-vs-measured comparison (EXPERIMENTS.md data).
fn paper_comparison(c: &mut Criterion) {
    let data = study_data();
    print_once("Paper vs measured", || {
        report::render_comparisons("comfort metrics", &report::compare_metrics(data))
    });
    c.bench_function("compare/agreement", |b| {
        b.iter(|| black_box(report::agreement_fraction(data, 0.5)))
    });
}

/// End-to-end: the full 33-user controlled study (the paper's headline
/// experiment), through client/server.
fn full_controlled_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("study");
    group.sample_size(10);
    for (row, fidelity) in [
        ("controlled_33_users_fast", uucs_comfort::Fidelity::Fast),
        ("controlled_33_users_full", uucs_comfort::Fidelity::Full),
    ] {
        group.bench_function(row, |b| {
            b.iter(|| {
                let data = uucs_study::controlled::ControlledStudy::new(
                    uucs_study::controlled::StudyConfig {
                        seed: 99,
                        users: 33,
                        fidelity,
                    },
                )
                .run();
                black_box(data.records.len())
            })
        });
    }
    group.finish();
}

bench_group!(
    benches,
    fig03_exercise_functions,
    fig04_step_ramp,
    fig08_testcase_table,
    fig09_run_breakdown,
    fig10_12_aggregate_cdfs,
    fig13_sensitivity,
    fig14_16_metric_tables,
    fig17_skill,
    fig18_cdf_grid,
    frog_in_pot,
    paper_comparison,
    full_controlled_study,
);
bench_main!(benches);
