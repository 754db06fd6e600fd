//! The `uucs-study` binary: regenerates every table and figure of the
//! paper from a fresh run of the controlled study.
//!
//! ```text
//! uucs-study [--seed N] [--users N] [--full-fidelity] <selector>...
//!   selectors: fig3 fig4 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!              fig16 fig17 fig17rank fig18 frog compare internet
//!              dynamics perception closedloop verify --all
//!   other:     export <dir>   (write every figure's CSV series)
//!
//! uucs-study fleet [--quick] [--cluster] [--clients N]
//!                  [--fleet-workers N] [--secs S] [--addr HOST:PORT]
//!                  [--failover-addr HOST:PORT] [--shards N]
//!                  [--commit-interval-us N]
//!                  [--wire text|binary|auto] [--pipeline N]
//! ```
//!
//! `fleet` is the load driver: it multiplexes N client state machines
//! (persistent connections, sequenced uploads) over a bounded worker
//! pool against a live server — `--addr` to target a running one,
//! otherwise a sharded group-commit server is self-hosted for the run —
//! and reports sustained uploads/sec plus the server's p99 verb and
//! commit latency from `STATS`. `--quick` is the CI smoke shape.
//!
//! `--failover-addr` gives every client a second (third, ...) server
//! address to fail over to; a run whose server dies with no replica
//! left still exits zero, with a partial report flagged `INTERRUPTED`
//! and the outage window measured. `--cluster` self-hosts a two-node
//! replicated tier (leader + follower, quorum acks) and kills the
//! leader mid-window: the fleet must ride the failover onto the
//! promoted follower, or the run exits nonzero.
//!
//! `--wire binary` negotiates the wire-v2 binary framing at dial time
//! (per address, so a legacy node in the failover list still gets
//! text); `--pipeline N` keeps N uploads in flight per binary
//! connection (text always runs the legacy depth of 1).

use uucs_comfort::Fidelity;
use uucs_study::controlled::{ControlledStudy, StudyConfig};
use uucs_study::internet::{InternetStudy, InternetStudyConfig};
use uucs_study::{figures, frog, report, skill};
use uucs_testcase::{ExerciseSpec, Resource};
use uucs_workloads::Task;

fn run_fleet(args: &[String]) -> ! {
    let mut config = uucs_study::FleetConfig::default();
    let mut cluster = false;
    let mut i = 0;
    while i < args.len() {
        let int = |args: &[String], i: usize, what: &str| -> u64 {
            args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs an integer");
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--quick" => {
                config = if cluster {
                    uucs_study::FleetConfig::cluster_quick()
                } else {
                    uucs_study::FleetConfig::quick()
                }
            }
            "--cluster" => {
                cluster = true;
                // `--quick` may have come first; re-shape for the tier.
                if config.clients == uucs_study::FleetConfig::quick().clients {
                    config = uucs_study::FleetConfig::cluster_quick();
                }
            }
            "--failover-addr" => {
                i += 1;
                if let Some(a) = args.get(i) {
                    config.failover.push(a.clone());
                }
            }
            "--clients" => {
                i += 1;
                config.clients = int(args, i, "--clients") as usize;
            }
            "--fleet-workers" => {
                i += 1;
                config.workers = int(args, i, "--fleet-workers").max(1) as usize;
            }
            "--secs" => {
                i += 1;
                config.duration = std::time::Duration::from_secs(int(args, i, "--secs"));
            }
            "--addr" => {
                i += 1;
                config.addr = args.get(i).cloned();
            }
            "--shards" => {
                i += 1;
                config.shards = int(args, i, "--shards").max(1) as usize;
            }
            "--commit-interval-us" => {
                i += 1;
                config.commit_interval =
                    std::time::Duration::from_micros(int(args, i, "--commit-interval-us"));
            }
            "--wire" => {
                i += 1;
                config.wire = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("bad --wire (want text, binary, or auto)");
                        std::process::exit(2);
                    });
            }
            "--pipeline" => {
                i += 1;
                config.pipeline = int(args, i, "--pipeline").max(1) as usize;
            }
            other => {
                eprintln!("unknown fleet flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let result = if cluster {
        uucs_study::fleet::run_cluster(&config)
    } else {
        uucs_study::fleet::run(&config)
    };
    match result {
        Ok(report) => {
            println!("{}", report.summary());
            if report.interrupted {
                // The server died mid-run with nothing to fail over to.
                // A partial report is the deliverable, not a failure —
                // unless this was the cluster smoke, where an unserved
                // window end means the failover itself broke.
                if cluster {
                    eprintln!("cluster smoke ended interrupted: the promoted node never served");
                    std::process::exit(1);
                }
                eprintln!(
                    "fleet interrupted: server unreachable for the last {:.2}s of the window",
                    report.outage.as_secs_f64()
                );
                std::process::exit(0);
            }
            if report.uploads_acked == 0 {
                eprintln!("fleet sustained zero acked uploads");
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fleet") {
        run_fleet(&args[1..]);
    }
    let mut seed = 2004u64;
    let mut users = 33usize;
    let mut fidelity = Fidelity::Fast;
    let mut selectors: Vec<String> = Vec::new();
    let mut export_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "export" => {
                i += 1;
                export_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| "figure-data".to_string()),
                );
                selectors.push("export".into());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--users" => {
                i += 1;
                users = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--users needs an integer");
                    std::process::exit(2);
                });
            }
            "--full-fidelity" => fidelity = Fidelity::Full,
            "--all" => selectors.push("all".into()),
            other if !other.starts_with('-') => selectors.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if selectors.is_empty() {
        selectors.push("all".into());
    }
    let all = selectors.iter().any(|s| s == "all");
    let wants = |s: &str| all || selectors.iter().any(|x| x == s);

    // fig3, fig4, fig8, internet, and verify do not need the study data.
    if wants("fig3") {
        let specs = [
            ("step(2.0,120,40)", ExerciseSpec::Step { level: 2.0, duration: 120.0, start: 40.0 }),
            ("ramp(2.0,120)", ExerciseSpec::Ramp { level: 2.0, duration: 120.0 }),
            ("sin", ExerciseSpec::Sin { amplitude: 1.0, offset: 1.0, period: 30.0, duration: 120.0 }),
            ("saw", ExerciseSpec::Saw { level: 2.0, period: 30.0, duration: 120.0 }),
            ("expexp (M/M/1)", ExerciseSpec::ExpExp { arrival_rate: 0.4, mean_job: 1.0, duration: 120.0, seed: 1 }),
            ("exppar (M/G/1)", ExerciseSpec::ExpPar { arrival_rate: 0.25, x_min: 0.5, alpha: 1.5, duration: 120.0, seed: 2 }),
        ];
        println!("\n===== Figure 3: exercise function catalog =====");
        for (name, spec) in &specs {
            let f = spec.sample(Resource::Cpu, 1.0);
            println!("{name:<18} n={} mean={:.2} peak={:.2}", f.values.len(), f.mean(), f.peak());
        }
        println!();
    }
    if wants("fig4") {
        let step = ExerciseSpec::Step { level: 2.0, duration: 120.0, start: 40.0 }
            .sample(Resource::Cpu, 1.0);
        let ramp = ExerciseSpec::Ramp { level: 2.0, duration: 120.0 }.sample(Resource::Cpu, 1.0);
        println!("\n===== Figure 4: step(2.0,120,40) and ramp(2.0,120) =====");
        println!("t(s)  step  ramp");
        for t in (0..=120).step_by(20) {
            println!(
                "{t:>4} {:>5.2} {:>5.2}",
                step.value_at(t as f64).unwrap_or(0.0),
                ramp.value_at(t as f64).unwrap_or(0.0)
            );
        }
        println!();
    }
    if wants("fig8") {
        println!("Figure 8: Testcase descriptions for the 4 tasks");
        for task in Task::ALL {
            for tc in uucs_comfort::calibration::controlled_testcases(task) {
                println!("  {} ({}s)", tc.id, tc.duration());
            }
        }
        println!();
    }
    if wants("verify") {
        let cpu = uucs_exercisers::verify::verify_cpu(&[1.0, 2.0, 5.0, 10.0], 20, seed);
        println!(
            "{}",
            uucs_exercisers::verify::render_table("CPU exerciser verification (§2.2)", &cpu)
        );
        let disk = uucs_exercisers::verify::verify_disk(&[1.0, 3.0, 7.0], 60, seed);
        println!(
            "{}",
            uucs_exercisers::verify::render_table("Disk exerciser verification (§2.2)", &disk)
        );
    }

    let needs_study = [
        "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig17rank", "fig18", "frog", "compare", "report", "export",
    ]
    .iter()
    .any(|s| wants(s));

    if needs_study {
        eprintln!("running controlled study: seed {seed}, {users} users ...");
        let data = ControlledStudy::new(StudyConfig {
            seed,
            users,
            fidelity,
        })
        .run();
        eprintln!("  {} runs collected", data.records.len());

        if wants("fig9") {
            println!("{}", figures::render_fig9(&data));
        }
        if wants("fig10") {
            println!("{}", figures::render_aggregate_cdf(&data, Resource::Cpu));
        }
        if wants("fig11") {
            println!("{}", figures::render_aggregate_cdf(&data, Resource::Memory));
        }
        if wants("fig12") {
            println!("{}", figures::render_aggregate_cdf(&data, Resource::Disk));
        }
        if wants("fig13") {
            println!("{}", figures::render_fig13(&data));
        }
        if wants("fig14") {
            println!("{}", figures::render_metric_table(&data, 14));
        }
        if wants("fig15") {
            println!("{}", figures::render_metric_table(&data, 15));
        }
        if wants("fig16") {
            println!("{}", figures::render_metric_table(&data, 16));
        }
        if wants("fig17") {
            println!("{}", skill::render_fig17(&data, 0.05));
        }
        if wants("fig17rank") {
            println!("Figure 17 under the Mann-Whitney rank test (robustness):");
            for r in skill::fig17_rank(&data, 0.05) {
                println!(
                    "  {:<10} {:<8} {:<32} p={:.4} diff={:.3}",
                    r.task.name(),
                    r.resource,
                    r.rating,
                    r.p,
                    r.diff
                );
            }
            println!();
        }
        if wants("fig18") {
            println!("{}", figures::render_fig18(&data));
        }
        if wants("frog") {
            println!("{}", frog::render_frog(&data));
        }
        if let Some(dir) = &export_dir {
            let files =
                uucs_study::export::write_figure_csvs(&data, std::path::Path::new(dir))
                    .expect("write CSVs");
            eprintln!("wrote {} CSV files to {dir}/", files.len());
        }
        if wants("compare") || wants("report") {
            println!(
                "{}",
                report::render_comparisons(
                    "Paper vs measured: comfort metrics",
                    &report::compare_metrics(&data)
                )
            );
            println!(
                "{}",
                report::render_comparisons(
                    "Paper vs measured: noise floors",
                    &report::compare_noise_floors(&data)
                )
            );
        }
    }

    if wants("closedloop") {
        eprintln!("running the closed-loop borrowing evaluation ...");
        let data = uucs_study::closedloop::ClosedLoop::new(
            uucs_study::closedloop::ClosedLoopConfig {
                seed,
                ..Default::default()
            },
        )
        .run();
        println!("{}", uucs_study::closedloop::render_closed_loop(&data));
    }

    if wants("perception") {
        eprintln!("running the calibration-free perception study (full fidelity) ...");
        let records = uucs_study::perception_study::run_perception_study(
            &uucs_study::perception_study::PerceptionStudyConfig {
                seed,
                users: 8,
                ..Default::default()
            },
        );
        println!(
            "{}",
            uucs_study::perception_study::render_perception_study(&records)
        );
    }

    if wants("dynamics") {
        eprintln!("running internet-wide study for the dynamics analysis ...");
        let cfg = InternetStudyConfig {
            seed,
            clients: 120,
            runs_per_client: 30,
            mean_gap_secs: 1200.0,
        };
        let lib = uucs_testcase::generate::Library::internet_sweep(cfg.seed);
        let d = InternetStudy::new(cfg).run();
        println!(
            "{}",
            uucs_study::dynamics::render_dynamics(&d, lib.testcases())
        );
    }

    if wants("internet") {
        eprintln!("running internet-wide study ...");
        let d = InternetStudy::new(InternetStudyConfig {
            seed,
            ..InternetStudyConfig::default()
        })
        .run();
        println!(
            "Internet study: {} clients, {} runs, {:.1} simulated days",
            d.population.len(),
            d.records.len(),
            d.simulated_secs / 86_400.0
        );
        for prefix in ["cpu-", "disk-"] {
            let runs: Vec<_> = d
                .records
                .iter()
                .filter(|r| r.testcase.starts_with(prefix))
                .collect();
            let resource: Resource = prefix.trim_end_matches('-').parse().unwrap();
            let cdf = uucs_comfort::metrics::discomfort_ecdf(runs, resource);
            println!(
                "{}",
                cdf.render_ascii(
                    &format!("Internet-study CDF for {resource} (all testcase kinds)"),
                    60,
                    14
                )
            );
        }
    }
}
