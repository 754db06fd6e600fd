//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and per-layer metrics with what each should move.
//! `BENCHMARK.json` is generated from these tables (`--emit-spec`) and
//! a test keeps the two equal.

use crate::json::Json;

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 6;

/// Set-ups per untraced run: `setup_s` is their median, and each serves
/// a third of the measured window.
pub const SETUPS: usize = 3;

/// A workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// The fixed name later issues cite.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "ack-latency",
        why: "text wire, depth 1: the ack waits on idle sleep, commit interval and one fsync; codec and cache do nothing",
    },
    WorkloadSpec {
        name: "pipelined-ingest",
        why: "binary wire, depth 32: frame parse, shard locks, WAL append, group-commit batching and rotation do the work",
    },
    WorkloadSpec {
        name: "hot-sync",
        why: "SYNC+UPLOAD+ADVICE+MODELDELTA sessions over the real client transport: reads beside writes on one server",
    },
    WorkloadSpec {
        name: "quorum-ack",
        why: "ack-latency's client against a leader and a quorum follower: the difference is the replication tier",
    },
    WorkloadSpec {
        name: "restart-recovery",
        why: "SIGKILL and restart over a journal larger than the page cache: WAL replay, CRC, decode, shard open",
    },
    WorkloadSpec {
        name: "controlled-study",
        why: "the paper's 33-user full-fidelity study and every figure renderer in-process: no server layer runs",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric; what the unit
/// operation is per workload is in the README's table. The time-based
/// bounds sit at the contract's ceiling because the host's disk and
/// processor speed drift by that much over minutes (README, "How
/// steady"). Throughput is printed with every run but not gated: in a
/// closed loop it is the in-flight count over the latency, the same
/// quantity measured twice, and its quartile spread crossed 25 % on
/// `quorum-ack` in two sets out of six where `op_p50_ms` never did.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: the layer is the crate name before the first
/// dot.
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric a traced run reports. A layer a workload does
/// not exercise reads 0 in that workload's traced run.
pub const PER_LAYER: [PerLayer; 73] = [
    layer(
        "protocol.encode_upload_us",
        "us",
        "lower",
        "op_p50_ms on ack-latency, quorum-ack (expect <1%)",
    ),
    layer(
        "protocol.decode_upload_us",
        "us",
        "lower",
        "op_p50_ms on ack-latency, quorum-ack (expect <1%)",
    ),
    layer(
        "protocol.upload_bytes",
        "bytes",
        "lower",
        "op_p50_ms on ack-latency, quorum-ack",
    ),
    layer(
        "protocol.encode_testcases_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "protocol.decode_testcases_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "protocol.walenc_encode_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "protocol.walenc_decode_us",
        "us",
        "lower",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "wire.encode_upload_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "wire.decode_upload_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "wire.upload_bytes",
        "bytes",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "wire.negotiate_us",
        "us",
        "lower",
        "setup_s on pipelined-ingest, hot-sync",
    ),
    layer(
        "client.exchange_self_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "client.governor_refresh_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "client.retries",
        "count",
        "lower",
        "op_p99_ms (ungated) on hot-sync",
    ),
    layer("client.sync_ms", "ms", "lower", "op_p50_ms on hot-sync"),
    layer(
        "client.upload_ack_ms",
        "ms",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer("client.refresh_ms", "ms", "lower", "op_p50_ms on hot-sync"),
    layer(
        "server.handle_upload_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "server.handle_sync_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "server.handle_modeldelta_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "server.handle_advice_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "server.handle_register_us",
        "us",
        "lower",
        "setup_s on the traffic workloads",
    ),
    layer(
        "server.commit.wait_us",
        "us",
        "lower",
        "op_p50_ms on ack-latency (largest share)",
    ),
    layer(
        "server.commit.batch_mean",
        "count",
        "higher",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "server.commit.fsyncs_per_upload",
        "count",
        "lower",
        "op_p50_ms on pipelined-ingest; 1 on ack-latency",
    ),
    layer(
        "server.tcp.roundtrip_us",
        "us",
        "lower",
        "op_p50_ms on ack-latency, quorum-ack",
    ),
    layer(
        "server.tcp.self_us",
        "us",
        "lower",
        "op_p50_ms on ack-latency, quorum-ack",
    ),
    layer(
        "server.tcp.connect_us",
        "us",
        "lower",
        "setup_s on the traffic workloads",
    ),
    layer(
        "server.store.open_s",
        "s",
        "lower",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "server.store.reshard_s",
        "s",
        "lower",
        "server.restart_reshard_s on restart-recovery",
    ),
    layer(
        "server.restart_reshard_s",
        "s",
        "lower",
        "operator-visible reshard on restart-recovery (ungated)",
    ),
    layer(
        "server.shard.skew",
        "ratio",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "wal.append_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer("wal.sync_us", "us", "lower", "op_p50_ms on ack-latency"),
    layer(
        "wal.bytes_per_upload",
        "bytes",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "wal.rotations",
        "count",
        "lower",
        "op_p99_ms (ungated) on pipelined-ingest",
    ),
    layer(
        "wal.replay_mb_per_s",
        "MB/s",
        "higher",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "wal.crc_mb_per_s",
        "MB/s",
        "higher",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "wal.journal_bytes_per_record",
        "bytes",
        "lower",
        "op_p50_ms on restart-recovery; disk footprint",
    ),
    layer(
        "pagecache.passthrough_open_s",
        "s",
        "lower",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "pagecache.cold_open_s",
        "s",
        "lower",
        "op_p50_ms on restart-recovery (prediction: equals passthrough)",
    ),
    layer(
        "pagecache.warm_open_s",
        "s",
        "lower",
        "nothing end to end: a restart is cold by definition",
    ),
    layer(
        "pagecache.hit_rate",
        "ratio",
        "higher",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "pagecache.evictions",
        "count",
        "lower",
        "op_p50_ms on restart-recovery",
    ),
    layer(
        "pagecache.sched.fanout_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "cluster.quorum_wait_us",
        "us",
        "lower",
        "op_p50_ms on quorum-ack only",
    ),
    layer(
        "cluster.ship_bytes_per_upload",
        "bytes",
        "lower",
        "op_p50_ms on quorum-ack only",
    ),
    layer(
        "cluster.follower_lag_entries",
        "count",
        "lower",
        "op_p99_ms (ungated) on quorum-ack only",
    ),
    layer(
        "cluster.backfill_s",
        "s",
        "lower",
        "setup_s on quorum-ack only",
    ),
    layer(
        "modelsvc.observe_batch_us",
        "us",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "modelsvc.merged_sketch_us",
        "us",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "modelsvc.delta_bytes",
        "bytes",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "modelsvc.full_bytes",
        "bytes",
        "lower",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "modelsvc.delta_hit_rate",
        "ratio",
        "higher",
        "op_p50_ms on hot-sync",
    ),
    layer(
        "telemetry.counter_inc_ns",
        "ns",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "telemetry.hist_record_ns",
        "ns",
        "lower",
        "op_p50_ms on pipelined-ingest",
    ),
    layer(
        "telemetry.stats_snapshot_us",
        "us",
        "lower",
        "nothing gated: operator path",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        "lower",
        "the benchmark's own tracing cost on the operation rate",
    ),
    layer(
        "trace.coverage",
        "ratio",
        "higher",
        "staged stages as a share of op_p50_ms",
    ),
    layer(
        "testcase.library_ms",
        "ms",
        "lower",
        "op_p50_ms on controlled-study; setup_s on traffic",
    ),
    layer(
        "testcase.sample_us",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "sim.events_per_s",
        "1/s",
        "higher",
        "op_p50_ms on controlled-study (largest share)",
    ),
    layer(
        "sim.us_per_simsec",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "workloads.word_us_per_simsec",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "workloads.quake_us_per_simsec",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "exercisers.playback_us_per_simsec",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "comfort.execute_run_us",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "comfort.execute_run_fast_us",
        "us",
        "lower",
        "nothing at full fidelity",
    ),
    layer(
        "comfort.population_ms",
        "ms",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "study.controlled_run_s",
        "s",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "study.figures_ms",
        "ms",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "study.db_import_ms",
        "ms",
        "lower",
        "op_p50_ms on controlled-study",
    ),
    layer(
        "stats.ecdf_us",
        "us",
        "lower",
        "op_p50_ms on controlled-study",
    ),
];

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`benchmark_json`] laid out for reading: one workload or metric per
/// line. This is the text `BENCHMARK.json` holds.
pub fn benchmark_json_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let members = doc.as_obj().expect("built as an object");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value
            .as_arr()
            .filter(|a| a.first().is_some_and(|v| v.as_obj().is_some()))
        {
            Some(rows) => {
                let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.emit())).collect();
                out.push_str(&format!("[\n{}\n  ]", lines.join(",\n")));
            }
            None => out.push_str(&value.emit()),
        }
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// The unit of a metric by name, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(!m.moves.is_empty());
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate: run.sh --emit-spec > BENCHMARK.json"
        );
        assert_eq!(text, benchmark_json_text());
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
