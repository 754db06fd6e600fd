//! The `uucs-server` daemon: serves a testcase library over TCP and
//! appends uploaded results to a text store, exactly the Figure 1 server.
//!
//! ```text
//! uucs-server [--addr 127.0.0.1:4004] [--library FILE] [--data DIR]
//!             [--generate-library N-seed] [--wal]
//!             [--shards N] [--commit-interval-us N]
//!             [--cache-pages N] [--io-threads N]
//!             [--max-conns N] [--workers N]
//! ```
//!
//! With `--library`, serves the testcases in the given text file; with
//! `--generate-library`, builds the Internet-sweep library from a seed.
//!
//! Without `--wal`, state is saved to `--data` (default
//! `uucs-server-data/`) on periodic whole-file checkpoints (every 30 s)
//! — the paper's design, which can lose up to 30 s of acknowledged
//! uploads on a crash. With `--wal`, the stores journal through a
//! write-ahead log under `--data` (`wal/testcases/`, `wal/results/`,
//! `wal/registry/`, `wal/models/`): every acknowledged mutation —
//! including client registrations and per-client upload dedup horizons —
//! is recovered on restart, and the 30 s tick compacts the journal
//! instead of rewriting the world. An ack always means the journal
//! entry is on stable storage: each append is fsynced before its reply,
//! or — under `--commit-interval-us` — the reply waits for the group
//! committer's batched fsync.
//!
//! Engine knobs:
//!
//! * `--shards N` splits every store (and its journal) into N
//!   hash-routed shards, each behind its own lock and WAL segment
//!   stream. Restarting with a different N migrates the layout;
//!   state is preserved exactly.
//! * `--commit-interval-us N` turns on group commit: appends stop
//!   fsyncing individually and a dedicated commit thread batches all
//!   pending appends into one fsync per shard. N is the *maximum*
//!   gather window: the committer waits only for the share of it that
//!   batching earned on the previous pass, so a lone upload is synced
//!   at once and a saturated server gathers for nearly N microseconds.
//!   Acks still wait for the fsync — same durability, amortized cost.
//! * `--io-threads N` starts the disk-scheduler thread pool: group
//!   commit fans its per-shard fsyncs out to it, and segment rotation
//!   defers its fsync to the next commit pass instead of stalling the
//!   append path. Needs `--commit-interval-us`.
//! * `--cache-pages N` is accepted and ignored (it prints a note): the
//!   journals are read straight from their files, with no page cache.
//! * `--max-conns N`, `--workers N` tune the TCP front end (a worker
//!   pool blocked in `poll(2)` over nonblocking sockets).
//!
//! All engine settings are surfaced in `STATS` as `server.config.*`
//! gauges.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use uucs_server::tcp::ServeConfig;
use uucs_server::{tcp, StorageProfile, StoreSet, TestcaseStore, UucsServer};
use uucs_telemetry::metrics;
use uucs_wal::{SyncPolicy, WalConfig};

fn main() {
    let mut addr = "127.0.0.1:4004".to_string();
    let mut library: Option<PathBuf> = None;
    let mut data = PathBuf::from("uucs-server-data");
    let mut gen_seed: Option<u64> = None;
    let mut wal = false;
    let mut shards: usize = 1;
    let mut commit_interval_us: u64 = 0;
    let mut storage = StorageProfile::default();
    let mut serve_config = ServeConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned().unwrap_or(addr);
            }
            "--library" => {
                i += 1;
                library = args.get(i).map(PathBuf::from);
            }
            "--data" => {
                i += 1;
                data = args.get(i).map(PathBuf::from).unwrap_or(data);
            }
            "--generate-library" => {
                i += 1;
                gen_seed = args.get(i).and_then(|s| s.parse().ok()).or(Some(42));
            }
            "--wal" => {
                wal = true;
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --shards (want an integer >= 1)");
                        std::process::exit(2);
                    });
            }
            "--commit-interval-us" => {
                i += 1;
                commit_interval_us = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!(
                        "bad --commit-interval-us (want the maximum gather window in \
                         microseconds, 0 disables)"
                    );
                    std::process::exit(2);
                });
            }
            "--cache-pages" => {
                i += 1;
                if args.get(i).and_then(|s| s.parse::<usize>().ok()).is_none() {
                    eprintln!("bad --cache-pages (want a page count)");
                    std::process::exit(2);
                }
                eprintln!("--cache-pages is ignored: the journals have no page cache");
            }
            "--io-threads" => {
                i += 1;
                storage.io_threads = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bad --io-threads (want a thread count, 0 disables)");
                    std::process::exit(2);
                });
            }
            "--max-conns" => {
                i += 1;
                serve_config.max_connections = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --max-conns (want an integer >= 1)");
                        std::process::exit(2);
                    });
            }
            "--workers" => {
                i += 1;
                serve_config.workers =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("bad --workers (want an integer, 0 = auto)");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if commit_interval_us > 0 && !wal {
        eprintln!("--commit-interval-us needs --wal (group commit batches journal fsyncs)");
        std::process::exit(2);
    }
    if storage.io_threads > 0 && commit_interval_us == 0 {
        eprintln!("--io-threads needs --commit-interval-us (the committer drives the scheduler)");
        std::process::exit(2);
    }

    // Surface the engine configuration in STATS so fleet drivers can
    // confirm what they are actually talking to.
    metrics::gauge("server.config.shards").set(shards as i64);
    metrics::gauge("server.config.max_connections").set(serve_config.max_connections as i64);
    metrics::gauge("server.config.workers").set(serve_config.workers as i64);
    metrics::gauge("server.config.commit_interval_us").set(commit_interval_us as i64);
    metrics::gauge("server.config.io_threads").set(storage.io_threads as i64);

    let seed_library = || -> Vec<uucs_testcase::Testcase> {
        if let Some(path) = &library {
            match TestcaseStore::load(path) {
                Ok(store) => store.testcases(),
                Err(e) => {
                    eprintln!("cannot load library {path:?}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            let seed = gen_seed.unwrap_or(42);
            eprintln!("generating internet-sweep library (seed {seed}) ...");
            uucs_testcase::generate::Library::internet_sweep(seed).into_testcases()
        }
    };

    let server = if wal {
        // Under group commit the per-append policy is Never: the commit
        // thread owns durability (one batched fsync per shard, acks wait
        // on the watermark). Without it every append pays its own fsync.
        let sync = if commit_interval_us > 0 {
            SyncPolicy::Never
        } else {
            SyncPolicy::Always
        };
        let config = WalConfig {
            sync,
            ..WalConfig::default()
        };
        eprintln!("recovering journals under {:?} ({shards} shard(s)) ...", data.join("wal"));
        let (stores, recoveries) = StoreSet::open_with(&data.join("wal"), config, shards, &storage)
            .unwrap_or_else(|e| {
                eprintln!("journal is unrecoverable: {e}");
                std::process::exit(1);
            });
        for r in &recoveries {
            if let Some(t) = &r.torn_tail {
                eprintln!(
                    "  truncated a torn append in {} ({} bytes, {})",
                    t.segment, t.lost_bytes, t.reason
                );
            }
        }
        let mut server = UucsServer::with_store_set(stores, 0x5e17);
        if let Some(sched) = storage.scheduler() {
            server = server.with_io_scheduler(sched);
        }
        if commit_interval_us > 0 {
            server = server.with_group_commit(Duration::from_micros(commit_interval_us));
        }
        let server = Arc::new(server);
        if server.testcase_count() == 0 {
            if let Err(e) = server.add_testcases(&seed_library()) {
                eprintln!("cannot seed library: {e}");
                std::process::exit(1);
            }
        }
        eprintln!(
            "recovered {} testcases, {} results, {} clients, model epoch {} (sync policy {sync})",
            server.testcase_count(),
            server.result_count(),
            server.client_count(),
            server.model_epoch()
        );
        server
    } else {
        let store = TestcaseStore::from_testcases(seed_library()).unwrap_or_else(|e| {
            eprintln!("library has duplicate ids: {e}");
            std::process::exit(1);
        });
        Arc::new(UucsServer::new(store, 0x5e17))
    };

    eprintln!("serving {} testcases on {addr}", server.testcase_count());
    let handle = tcp::serve_with(server.clone(), &addr, serve_config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("listening on {} (data dir {data:?})", handle.addr());

    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        let tick = if wal {
            // The journal already holds everything acknowledged; the
            // tick just folds it into a checkpoint and frees segments.
            server.compact().map(|_| "compacted journal")
        } else {
            server.save(&data).map(|_| "checkpointed text stores")
        };
        match tick {
            Ok(what) => eprintln!(
                "{what}: {} clients, {} results",
                server.client_count(),
                server.result_count()
            ),
            Err(e) => eprintln!("checkpoint failed: {e}"),
        }
    }
}
