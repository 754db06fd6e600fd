//! Runs every workload through `run.sh` with a one-second window against
//! the real `uucs-server` / `uucs-clusterd` binaries: zero failed
//! operations, and a complete metric set untraced and traced. Takes a
//! few minutes — each untraced run sets its servers up three times.

use std::process::Command;
use uucs_benchmark::json::Json;
use uucs_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: bool) -> Json {
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh");
    let output = Command::new("bash")
        .arg(script)
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run.sh starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited {:?}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e} in {last:?}"))
}

#[test]
fn every_workload_runs_clean_with_a_complete_metric_set() {
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = run(w.name, trace);
            let what = format!("{} (trace {trace})", w.name);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{what}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(got, want, "{what}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{what}: {name} = {value:?}"
                );
                // Gated metrics are never 0: the driver divides by them.
                assert!(trace || value > Some(0.0), "{what}: {name} is {value:?}");
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{what}: {name}"
                );
            }
        }
    }
}
