//! `controlled-study`: the paper's own pipeline, in-process — the
//! 33-user study at full fidelity (every run simulated on the machine
//! model) and every figure renderer. No server process, no socket, no
//! journal: a server change must leave it flat, and a simulator change
//! moves only it.

use crate::metrics::SETUPS;
use crate::procs;
use crate::report::{Opts, RunOutput};
use crate::spans::{self, Tracer};
use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};
use uucs_comfort::run::{execute_run, RunSetup, RunStyle};
use uucs_comfort::{calibration, Fidelity, UserPopulation};
use uucs_exercisers::playback::spawn_exercisers;
use uucs_sim::{Machine, SEC};
use uucs_stats::Ecdf;
use uucs_study::controlled::{ControlledStudy, StudyConfig, StudyData};
use uucs_study::db::ResultDatabase;
use uucs_study::{figures, report, skill};
use uucs_testcase::generate::Library;
use uucs_testcase::{ExerciseSpec, Resource, Testcase};
use uucs_wal::crc::crc32;
use uucs_workloads::{OsBackground, Task};

/// The study seed is the paper's year on every run, whatever `--seed`
/// says: the figures are byte-identical per seed, which is what lets
/// the output be pinned. (`--seed` gives this workload the same inputs
/// trivially.)
const STUDY_SEED: u64 = 2004;

/// 33 users x 4 tasks x 8 testcases.
const STUDY_RUNS: usize = 1056;

/// CRC32 of [`render_all`] for seed 2004, 33 users, full fidelity.
const PINNED_OUTPUT_CRC: u32 = 0xaa61_9b6f;

fn study(fidelity: Fidelity, users: usize) -> StudyData {
    ControlledStudy::new(StudyConfig {
        seed: STUDY_SEED,
        users,
        fidelity,
    })
    .run()
}

/// Figures 8 to 18, the rank-test variant of Figure 17 and the
/// paper-versus-measured tables. `frog` is left out on purpose: it sums
/// through a `HashMap` and is not byte-stable run to run (see the
/// README's known findings).
pub fn render_all(data: &StudyData) -> String {
    use std::fmt::Write;
    let mut out = String::from("Figure 8: Testcase descriptions for the 4 tasks\n");
    for task in Task::ALL {
        for tc in calibration::controlled_testcases(task) {
            writeln!(out, "  {} ({}s)", tc.id, tc.duration()).expect("write to string");
        }
    }
    out.push_str(&figures::render_fig9(data));
    for r in Resource::STUDIED {
        out.push_str(&figures::render_aggregate_cdf(data, r));
    }
    out.push_str(&figures::render_fig13(data));
    for which in [14, 15, 16] {
        out.push_str(&figures::render_metric_table(data, which));
    }
    out.push_str(&skill::render_fig17(data, 0.05));
    for r in skill::fig17_rank(data, 0.05) {
        writeln!(
            out,
            "  {:<10} {:<8} {:<32} p={:.4} diff={:.3}",
            r.task.name(),
            r.resource,
            r.rating,
            r.p,
            r.diff
        )
        .expect("write to string");
    }
    out.push_str(&figures::render_fig18(data));
    out.push_str(&report::render_comparisons(
        "Paper vs measured: comfort metrics",
        &report::compare_metrics(data),
    ));
    out.push_str(&report::render_comparisons(
        "Paper vs measured: noise floors",
        &report::compare_noise_floors(data),
    ));
    out
}

/// What a study needs before its first run: both testcase libraries
/// and one fast-fidelity pass (decision-only) through the whole
/// pipeline, renderers included.
fn setup() -> Duration {
    let started = Instant::now();
    black_box(ControlledStudy::library());
    black_box(Library::internet_sweep(42));
    black_box(render_all(&study(Fidelity::Fast, 33)));
    started.elapsed()
}

/// One repetition: the full-fidelity study and every renderer.
/// Returns the run count and the CRC of the rendered output.
fn repetition(tracer: Option<&mut Tracer>, request: u64) -> (usize, u32) {
    match tracer {
        None => {
            let data = study(Fidelity::Full, 33);
            (data.records.len(), crc32(render_all(&data).as_bytes()))
        }
        Some(t) => {
            let root = t.open("study.repetition", None, request);
            let data = t.time("study.controlled_run", Some(root), request, || {
                study(Fidelity::Full, 33)
            });
            let text = t.time("study.render_all", Some(root), request, || {
                render_all(&data)
            });
            t.close(root);
            (data.records.len(), crc32(text.as_bytes()))
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let mut out = RunOutput::new("controlled-study");
    let setups = if opts.trace { 1 } else { SETUPS };
    let setup_secs: Vec<f64> = (0..setups).map(|_| setup().as_secs_f64()).collect();

    let mut tracer = opts.trace.then(Tracer::new);
    let (mut rep_secs, mut rep_cpu_secs) = (Vec::new(), Vec::new());
    let window = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    // At least two repetitions, so the output is checked against itself
    // and not only against the pinned value.
    while rep_secs.len() < 2 || started.elapsed() < window {
        let (t0, cpu0) = (Instant::now(), procs::cpu_secs("/proc/self"));
        let (runs, crc) = repetition(tracer.as_mut(), rep_secs.len() as u64);
        rep_secs.push(t0.elapsed().as_secs_f64());
        rep_cpu_secs.push(procs::cpu_secs("/proc/self") - cpu0);
        out.attempted += 1;
        if runs != STUDY_RUNS || crc != PINNED_OUTPUT_CRC {
            eprintln!(
                "check: repetition {} made {runs} runs (want {STUDY_RUNS}), output crc {crc:#010x} (pinned {PINNED_OUTPUT_CRC:#010x})",
                rep_secs.len()
            );
            out.failed += 1;
        }
        // A traced run measures the layers, not the spread.
        if opts.trace && rep_secs.len() >= 2 {
            break;
        }
    }
    // The best repetition, for the reason `load::summarise` gives.
    let best_s = rep_secs.iter().copied().fold(f64::INFINITY, f64::min);
    out.note("repetitions", rep_secs.len() as f64);

    if let Some(tracer) = tracer {
        let stages = spans::waterfall(tracer.spans());
        out.layer(
            "study.controlled_run_s",
            spans::stage_p50_us(&stages, "study.controlled_run") / 1e6,
        );
        out.layer(
            "study.figures_ms",
            spans::stage_p50_us(&stages, "study.render_all") / 1e3,
        );
        study_probes(&mut out);
        out.waterfall("live", &stages);
        out.note("untraced_op_p50_ms", best_s * 1e3);
        out.write_trace(&tracer)?;
        return Ok(out);
    }
    out.metric("op_p50_ms", best_s * 1e3);
    out.note("ops_per_s", STUDY_RUNS as f64 / best_s);
    out.metric("rss_mb", procs::peak_rss_mb("/proc/self/status"));
    out.metric("setup_s", stats::median(&setup_secs));
    out.note("op_median_ms", stats::median(&rep_secs) * 1e3);
    out.note("cpu_us_per_op", stats::median(&rep_cpu_secs) * 1e6);
    out.note("setups", setup_secs.len() as f64);
    Ok(out)
}

/// Simulates `sim_secs` of the study machine with the OS background,
/// one foreground task and (optionally) the exercisers of a testcase;
/// returns `(wall µs per simulated second, dispatches per wall second)`.
fn simulate(task: Task, testcase: Option<&Testcase>, sim_secs: u64) -> (f64, f64) {
    let mut m = Machine::study_machine(STUDY_SEED);
    m.spawn("os", Box::new(OsBackground::new()));
    m.spawn(task.name(), task.model());
    if let Some(tc) = testcase {
        spawn_exercisers(&mut m, tc);
    }
    let t0 = Instant::now();
    m.run_for(sim_secs * SEC);
    let wall = t0.elapsed().as_secs_f64();
    (
        wall * 1e6 / sim_secs as f64,
        m.metrics().runq_samples as f64 / wall,
    )
}

/// The layers under the study, each timed alone around its public
/// entry point.
fn study_probes(out: &mut RunOutput) {
    let t0 = Instant::now();
    black_box(ControlledStudy::library());
    let sweep = Library::internet_sweep(42);
    out.layer("testcase.library_ms", t0.elapsed().as_secs_f64() * 1e3);
    let ramp = ExerciseSpec::Ramp {
        level: 8.0,
        duration: 120.0,
    };
    out.layer(
        "testcase.sample_us",
        stats::time_p50_us(10_000, || ramp.sample(Resource::Cpu, 1.0)),
    );

    let cpu_ramp = Testcase::single("probe-cpu-ramp", 1.0, Resource::Cpu, ramp.clone());
    let (with_exerciser_us, events) = simulate(Task::Word, Some(&cpu_ramp), 120);
    let word_us = simulate(Task::Word, None, 120).0;
    out.layer("sim.us_per_simsec", with_exerciser_us);
    out.layer("sim.events_per_s", events);
    out.layer("workloads.word_us_per_simsec", word_us);
    out.layer(
        "workloads.quake_us_per_simsec",
        simulate(Task::Quake, None, 120).0,
    );
    out.layer(
        "exercisers.playback_us_per_simsec",
        (with_exerciser_us - word_us).max(0.0),
    );

    let t0 = Instant::now();
    let population = UserPopulation::generate(33, STUDY_SEED);
    out.layer("comfort.population_ms", t0.elapsed().as_secs_f64() * 1e3);
    let user = &population.users()[0];
    let testcase = &calibration::controlled_testcases(Task::Word)[0];
    let setup = |fidelity| RunSetup {
        user,
        task: Task::Word,
        testcase,
        style: RunStyle::infer(testcase),
        seed: STUDY_SEED,
        fidelity,
        client_id: "client-0001".into(),
    };
    let full = setup(Fidelity::Full);
    out.layer(
        "comfort.execute_run_us",
        stats::time_p50_us(20, || execute_run(&full)),
    );
    let fast = setup(Fidelity::Fast);
    out.layer(
        "comfort.execute_run_fast_us",
        stats::time_p50_us(10_000, || execute_run(&fast)),
    );

    let data = study(Fidelity::Fast, 33);
    let records = data.records.clone();
    out.layer(
        "study.db_import_ms",
        stats::time_p50_us(20, || ResultDatabase::from_records(records.clone())) / 1e3,
    );
    let levels: Vec<f64> = (0..1056).map(|i| (i % 97) as f64 / 10.0).collect();
    out.layer(
        "stats.ecdf_us",
        stats::time_p50_us(2_000, || Ecdf::new(levels.clone(), 100)),
    );
    black_box(sweep);
}
