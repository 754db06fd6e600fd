//! What a run produces and how it is printed: the driver's one-line
//! result, the human table, the result files and `--compare`.

use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::procs;
use crate::spans::{Stage, Tracer};
use crate::stats;
use std::path::{Path, PathBuf};

/// The arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The workload.
    pub workload: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, plus output-check misses.
    pub failed: u64,
    /// `(name, value)` of the gated or per-layer metrics, in table order
    /// once [`RunOutput::finish`] ran.
    pub metrics: Vec<(&'static str, f64)>,
    /// Ungated extras for the human report and the result file: sample
    /// counts, the tail percentile, intermediate figures.
    pub notes: Vec<(&'static str, f64)>,
    /// Named waterfalls (`live`, `staged`) of a traced run.
    pub waterfalls: Vec<(&'static str, Vec<Stage>)>,
}

impl RunOutput {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> RunOutput {
        RunOutput {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            waterfalls: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.metrics.push((name, value));
    }

    /// Records a per-layer metric (a later value replaces an earlier).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records an ungated extra.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Attaches a waterfall.
    pub fn waterfall(&mut self, name: &'static str, stages: &[Stage]) {
        self.waterfalls.push((name, stages.to_vec()));
    }

    /// Writes the spans of a traced run to
    /// `benchmark/out/trace-<workload>.jsonl`.
    pub fn write_trace(&self, tracer: &Tracer) -> Result<(), String> {
        let path = procs::out_dir()
            .map_err(|e| e.to_string())?
            .join(format!("trace-{}.jsonl", self.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Puts the metrics in table order. A traced run reports every
    /// per-layer metric: a layer the workload does not exercise reads
    /// 0. An untraced run must have produced every end-to-end metric.
    pub fn finish(mut self, trace: bool) -> Result<RunOutput, String> {
        let names: Vec<&'static str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut ordered = Vec::with_capacity(names.len());
        for name in names {
            match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => ordered.push((name, v)),
                None if trace => ordered.push((name, 0.0)),
                None => return Err(format!("{} did not report {name}", self.workload)),
            }
        }
        self.metrics = ordered;
        Ok(self)
    }

    /// Whether every operation succeeded and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    let unit = metrics::unit_of(name).unwrap_or("count");
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The human report of this run.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "== {} ==  ops_attempted {}  ops_failed {}  ({})",
            self.workload,
            self.attempted,
            self.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUT CHECK FAILED"
            }
        )
        .expect("write to string");
        for (name, value) in &self.metrics {
            let unit = metrics::unit_of(name).unwrap_or("");
            writeln!(out, "  {name:<34} {value:>14.4} {unit}").expect("write to string");
        }
        for (name, value) in &self.notes {
            writeln!(out, "  ({name:<32} {value:>14.4})").expect("write to string");
        }
        for (name, stages) in &self.waterfalls {
            writeln!(
                out,
                "  waterfall [{name}]  stage / spans / p50 us / self p50 us"
            )
            .expect("write to string");
            for s in stages {
                writeln!(
                    out,
                    "    {:<30} {:>8} {:>12.1} {:>12.1}",
                    s.name, s.count, s.p50_us, s.self_p50_us
                )
                .expect("write to string");
            }
        }
        out
    }

    /// This run as an entry of a result file.
    pub fn file_entry(&self, seed: u64) -> Json {
        let pairs = |items: &[(&'static str, f64)]| {
            Json::obj(items.iter().map(|&(k, v)| (k, Json::Num(v))))
        };
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("metrics", pairs(&self.metrics)),
            ("notes", pairs(&self.notes)),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest
/// mount-point prefix wins).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// What the numbers were measured on.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let data_dir = procs::out_dir().unwrap_or_else(|_| PathBuf::from("."));
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(command_line("uname", &["-sr"]))),
        ("filesystem", Json::Str(filesystem_of(&data_dir))),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Writes `benchmark/out/result-<seed>-<n>.json` with the first free
/// `n`, and returns its path.
pub fn write_result_file(
    seed: u64,
    seconds: u64,
    runs: &[(u64, RunOutput)],
) -> Result<PathBuf, String> {
    let dir = procs::out_dir().map_err(|e| e.to_string())?;
    let path = (1..)
        .map(|n| dir.join(format!("result-{seed}-{n}.json")))
        .find(|p| !p.exists())
        .expect("an unused file name exists");
    let doc = Json::obj([
        ("fingerprint", fingerprint()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        (
            "runs",
            Json::Arr(runs.iter().map(|(seed, r)| r.file_entry(*seed)).collect()),
        ),
    ]);
    std::fs::write(&path, doc.emit() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The workload.
    pub workload: String,
    /// The end-to-end metric.
    pub metric: &'static str,
    /// Median in the first file.
    pub a: f64,
    /// Median in the second file.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative =
    /// better), in the metric's own direction.
    pub worse_by: f64,
    /// The widest quartile spread of the two sides.
    pub spread: f64,
    /// The bound from the metric table.
    pub bound: f64,
    /// `ok`, `regressed` or `unresolved`.
    pub verdict: &'static str,
}

/// `metric` values per workload from a result file's `runs`.
fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Compares two result files metric by metric. `b` regressed when its
/// median is worse than `a`'s by more than the bound; where either
/// side's own run-to-run spread is wider than the bound the row is
/// `unresolved`, unless every run of `b` reads better than every run
/// of `a`.
pub fn compare(a: &Json, b: &Json) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for w in &metrics::WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse_by = if ma != 0.0 {
                sign * (mb - ma) / ma.abs()
            } else {
                0.0
            };
            let spread = stats::spread(&va).max(stats::spread(&vb));
            let worst_b = vb.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
            let best_a = va.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
            let verdict = if spread > m.bound && worst_b >= best_a {
                "unresolved"
            } else if worse_by > m.bound {
                "regressed"
            } else {
                "ok"
            };
            rows.push(Comparison {
                workload: w.name.to_string(),
                metric: m.name,
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints a comparison; the caller exits non-zero on a regression.
pub fn render_comparison(rows: &[Comparison]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:<10} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    )
    .expect("write to string");
    for r in rows {
        writeln!(
            out,
            "{:<18} {:<10} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(values: &[(&str, &str, &[f64])]) -> Json {
        let mut runs = Vec::new();
        for (workload, metric, vals) in values {
            for v in *vals {
                runs.push(Json::obj([
                    ("workload", Json::Str(workload.to_string())),
                    ("metrics", Json::obj([(*metric, Json::Num(*v))])),
                ]));
            }
        }
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut out = RunOutput::new("ack-latency");
        out.attempted = 10;
        for m in &END_TO_END {
            out.metric(m.name, 1.25);
        }
        out.note("samples", 10.0);
        let out = out.finish(false).unwrap();
        let doc = out.result_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(doc.emit().ends_with("}}}"), "one object, one line");
    }

    #[test]
    fn traced_result_reports_every_layer_metric_and_untraced_must_be_complete() {
        let mut out = RunOutput::new("hot-sync");
        out.attempted = 1;
        out.layer("wal.append_us", 3.0);
        out.layer("wal.append_us", 4.0);
        let traced = out.clone().finish(true).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.metrics.contains(&("wal.append_us", 4.0)));
        assert!(traced.metrics.contains(&("sim.events_per_s", 0.0)));
        assert!(
            out.finish(false).is_err(),
            "setup_s and friends are missing"
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut out = RunOutput::new("quorum-ack");
        out.attempted = 5;
        out.failed = 1;
        assert!(!out.correct());
        assert_eq!(out.result_json().get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn compare_marks_regressed_unresolved_and_ok() {
        let a = file(&[
            ("ack-latency", "op_p50_ms", &[2.0, 2.02, 1.98]),
            ("ack-latency", "setup_s", &[4.0, 4.1, 3.9]),
            ("hot-sync", "op_p50_ms", &[10.0, 14.0, 6.0]),
            ("quorum-ack", "op_p50_ms", &[10.0, 14.0, 6.0]),
            ("restart-recovery", "rss_mb", &[40.0, 40.1, 39.9]),
        ]);
        let b = file(&[
            // 30 % slower at a 25 % bound.
            ("ack-latency", "op_p50_ms", &[2.6, 2.62, 2.58]),
            // Set-up faster: better, whatever the size.
            ("ack-latency", "setup_s", &[3.0, 3.1, 2.9]),
            // Spread wider than the bound and the sides overlap.
            ("hot-sync", "op_p50_ms", &[11.0, 15.0, 7.0]),
            // Wide spread, but every run of b beats every run of a.
            ("quorum-ack", "op_p50_ms", &[3.0, 5.0, 4.0]),
            // 12 % more memory at a 10 % bound.
            ("restart-recovery", "rss_mb", &[44.8, 44.9, 44.7]),
        ]);
        let rows = compare(&a, &b);
        let verdict = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict("ack-latency", "op_p50_ms"), "regressed");
        assert_eq!(verdict("ack-latency", "setup_s"), "ok");
        assert_eq!(verdict("hot-sync", "op_p50_ms"), "unresolved");
        assert_eq!(verdict("quorum-ack", "op_p50_ms"), "ok");
        assert_eq!(verdict("restart-recovery", "rss_mb"), "regressed");
        assert_eq!(rows.len(), 5);
        assert!(render_comparison(&rows).contains("regressed"));
    }
}
