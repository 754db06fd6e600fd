//! Command line of the benchmark; `run.sh` builds and then calls this.
//!
//! ```text
//! uucs-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last line of stdout is the result object
//! uucs-benchmark [--seed N] [--seconds S] [--runs K] [--traced]
//!     every workload, K untraced runs each on seeds N..N+K (plus one
//!     traced run each with --traced); writes out/result-<seed>-<n>.json
//! uucs-benchmark --compare A.json B.json
//! uucs-benchmark --emit-spec
//! ```

use std::process::ExitCode;
use uucs_benchmark::json::Json;
use uucs_benchmark::metrics::{benchmark_json_text, RUN_SECONDS, WORKLOADS};
use uucs_benchmark::report::{self, Opts};
use uucs_benchmark::run_workload;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--runs K]\n       run.sh --compare A.json B.json\n       run.sh --emit-spec"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut opts = Opts {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut runs = 1u64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).map(String::as_str);
        let number = |i: usize| value(i).and_then(|v| v.parse::<u64>().ok());
        match args[i].as_str() {
            "--workload" => match value(i) {
                Some(v) => workload = Some(v.to_string()),
                None => return usage("--workload needs a name"),
            },
            "--seed" => match number(i) {
                Some(v) => opts.seed = v,
                None => return usage("--seed needs a whole number"),
            },
            "--seconds" => match number(i).filter(|&s| (1..=60).contains(&s)) {
                Some(v) => opts.seconds = v,
                None => return usage("--seconds needs a whole number from 1 to 60"),
            },
            "--runs" => match number(i).filter(|&k| k >= 1) {
                Some(v) => runs = v,
                None => return usage("--runs needs a whole number, at least 1"),
            },
            "--trace" => match value(i) {
                Some("0") => opts.trace = false,
                Some("1") => opts.trace = true,
                _ => return usage("--trace needs 0 or 1"),
            },
            "--traced" => {
                opts.trace = true;
                i += 1;
                continue;
            }
            "--emit-spec" => {
                print!("{}", benchmark_json_text());
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage("--compare needs two result files");
                };
                return match (load(a), load(b)) {
                    (Ok(a), Ok(b)) => {
                        let rows = report::compare(&a, &b);
                        print!("{}", report::render_comparison(&rows));
                        if rows.iter().any(|r| r.verdict == "regressed") {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => usage(&e),
                };
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }

    // Driver mode: one workload, one run, the result object last.
    if let Some(name) = workload {
        return match run_workload(&name, &opts) {
            Ok(out) => {
                eprint!("{}", out.render());
                println!("{}", out.result_json().emit());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Report mode: every workload, every metric by name.
    let mut all = Vec::new();
    let mut failed = false;
    for w in &WORKLOADS {
        let mut passes: Vec<Opts> = (0..runs)
            .map(|k| Opts {
                seed: opts.seed + k,
                trace: false,
                ..opts
            })
            .collect();
        if opts.trace {
            passes.push(opts);
        }
        for pass in passes {
            match run_workload(w.name, &pass) {
                Ok(out) => {
                    print!("{}", out.render());
                    failed |= !out.correct();
                    all.push((pass.seed, out));
                }
                Err(e) => {
                    eprintln!("{}: {e}", w.name);
                    failed = true;
                }
            }
        }
    }
    match report::write_result_file(opts.seed, opts.seconds, &all) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("{e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
