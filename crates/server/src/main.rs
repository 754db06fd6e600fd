//! The `uucs-server` daemon: serves a testcase library over TCP and
//! journals every uploaded result, exactly the Figure 1 server.
//!
//! ```text
//! uucs-server [--addr 127.0.0.1:4004] [--library FILE] [--data DIR]
//!             [--generate-library SEED] [--wal]
//!             [--shards N] [--commit-interval-us N]
//!             [--cache-pages N] [--io-threads N]
//!             [--max-conns N] [--workers N]
//! ```
//!
//! With `--library`, serves the testcases in the given text file; with
//! `--generate-library`, builds the Internet-sweep library from a seed
//! (42 without either). A fresh data directory is seeded with it once.
//!
//! The stores journal through a write-ahead log under `--data` (default
//! `uucs-server-data/`): `wal/testcases/`, `wal/results/`,
//! `wal/registry/`, `wal/models/`. Every acknowledged mutation —
//! including client registrations and per-client upload dedup horizons —
//! is recovered on restart, and every 30 s the journal is compacted into
//! a checkpoint: the paper's text files, written by the journal. An ack
//! always means the journal entry is on stable storage: each append is
//! fsynced before its reply, or — under `--commit-interval-us` — the
//! reply waits for the group committer's batched fsync. `--wal` is
//! accepted and changes nothing: the server always journals.
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
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;
use uucs_server::tcp::ServeConfig;
use uucs_server::{tcp, LibrarySource, StorageProfile, StoreSet, UucsServer};
use uucs_telemetry::metrics;
use uucs_wal::{SyncPolicy, WalConfig};

/// The value of the flag at `args[i - 1]`, or exit 2 naming the flag.
fn value(args: &[String], i: usize) -> &str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{} needs a value", args[i - 1]);
        std::process::exit(2);
    })
}

/// The flag's value parsed and accepted by `ok`, or exit 2 saying what
/// the flag wants.
fn parsed<T: FromStr>(args: &[String], i: usize, want: &str, ok: fn(&T) -> bool) -> T {
    args.get(i).and_then(|s| s.parse().ok()).filter(ok).unwrap_or_else(|| {
        eprintln!("bad {} (want {want})", args[i - 1]);
        std::process::exit(2);
    })
}

fn main() {
    let mut addr = "127.0.0.1:4004".to_string();
    let mut library: Option<PathBuf> = None;
    let mut data = PathBuf::from("uucs-server-data");
    let mut gen_seed: Option<String> = None;
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
                addr = value(&args, i).to_string();
            }
            "--library" => {
                i += 1;
                library = Some(PathBuf::from(value(&args, i)));
            }
            "--data" => {
                i += 1;
                data = PathBuf::from(value(&args, i));
            }
            "--generate-library" => {
                i += 1;
                gen_seed = Some(value(&args, i).to_string());
            }
            // Accepted for the command lines that still pass it: every
            // server journals.
            "--wal" => {}
            "--shards" => {
                i += 1;
                shards = parsed(&args, i, "an integer >= 1", |&n| n >= 1);
            }
            "--commit-interval-us" => {
                i += 1;
                let want = "the maximum gather window in microseconds, 0 disables";
                commit_interval_us = parsed(&args, i, want, |_| true);
            }
            "--cache-pages" => {
                i += 1;
                parsed::<usize>(&args, i, "a page count", |_| true);
                eprintln!("--cache-pages is ignored: the journals have no page cache");
            }
            "--io-threads" => {
                i += 1;
                storage.io_threads = parsed(&args, i, "a thread count, 0 disables", |_| true);
            }
            "--max-conns" => {
                i += 1;
                serve_config.max_connections = parsed(&args, i, "an integer >= 1", |&n| n >= 1);
            }
            "--workers" => {
                i += 1;
                serve_config.workers = parsed(&args, i, "an integer, 0 = auto", |_| true);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if storage.io_threads > 0 && commit_interval_us == 0 {
        eprintln!("--io-threads needs --commit-interval-us (the committer drives the scheduler)");
        std::process::exit(2);
    }
    let source = LibrarySource::from_flags(library, gen_seed.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Surface the engine configuration in STATS so fleet drivers can
    // confirm what they are actually talking to.
    metrics::gauge("server.config.shards").set(shards as i64);
    metrics::gauge("server.config.max_connections").set(serve_config.max_connections as i64);
    metrics::gauge("server.config.workers").set(serve_config.workers as i64);
    metrics::gauge("server.config.commit_interval_us").set(commit_interval_us as i64);
    metrics::gauge("server.config.io_threads").set(storage.io_threads as i64);

    // Under group commit the per-append policy is Never: the commit
    // thread owns durability (one batched fsync per shard, acks wait on
    // the watermark). Without it every append pays its own fsync.
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
        eprintln!("seeding the {source} ...");
        let testcases = source.testcases().unwrap_or_else(|e| {
            eprintln!("cannot load {source}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = server.add_testcases(&testcases) {
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

    eprintln!("serving {} testcases on {addr}", server.testcase_count());
    let handle = tcp::serve_with(server.clone(), &addr, serve_config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("listening on {} (data dir {data:?})", handle.addr());

    // The journal already holds everything acknowledged; the tick just
    // folds it into a checkpoint and frees segments.
    loop {
        std::thread::sleep(Duration::from_secs(30));
        match server.compact() {
            Ok(()) => eprintln!(
                "compacted journal: {} clients, {} results",
                server.client_count(),
                server.result_count()
            ),
            Err(e) => eprintln!("checkpoint failed: {e}"),
        }
    }
}
