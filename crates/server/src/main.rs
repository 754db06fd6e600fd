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
//! `--generate-library`, the Internet-sweep library from a seed (42
//! without either). A data directory that holds no testcase is seeded
//! with it once, streamed ([`LibrarySource::seed`]): each testcase is
//! generated or parsed, journaled and dropped, so the library is never
//! held twice. A file is checked whole before anything is journaled:
//! one with a block that does not parse or an id given twice exits 1
//! having seeded nothing, on this start and the next.
//!
//! The stores journal through a write-ahead log under `--data` (default
//! `uucs-server-data/`): `wal/testcases/`, `wal/results/`,
//! `wal/registry/`. Every acknowledged mutation — including client
//! registrations and per-client upload dedup horizons — is recovered on
//! restart. The journals are the paper's text files, each its own
//! checkpoint. An ack always means the journal entry is on stable
//! storage: appends do not fsync, and every reply waits for the group
//! committer's batched fsync. The comfort model is a cache of the
//! results journal: one `wal/model-<i>.cache` file per shard, rewritten
//! by the committer's pool once the results past it outgrow a bound, so
//! a restart folds only the records past each cache (the `recovered …`
//! line says how many). An older build's `wal/models/` journal is never
//! read, and is deleted once every shard has a cache. `--wal` is
//! accepted and changes nothing: the server always journals.
//!
//! Engine knobs:
//!
//! * `--shards N` splits every store (and its journal) into N
//!   hash-routed shards, each behind its own lock and WAL segment
//!   stream. Restarting with a different N migrates the layout;
//!   state is preserved exactly.
//! * `--commit-interval-us N` (default 1000) is the *maximum* gather
//!   window of the commit thread, which batches all pending appends
//!   into one fsync per shard: it waits only for the share of N that
//!   batching earned on the previous pass, so a lone upload is synced
//!   at once and a saturated server gathers for nearly N microseconds.
//!   0 never gathers. Acks always wait for the fsync.
//! * `--io-threads N` and `--cache-pages N` are accepted and ignored
//!   (each prints a note): every server runs the same storage engine.
//!   Its committer owns a two-thread disk-scheduler pool: a pass over
//!   one dirty shard fsyncs it on the commit thread, a pass over two or
//!   more fans the fsyncs out to the pool, and the testcase, result and
//!   registry journals defer segment-rotation fsyncs to the next pass
//!   instead of stalling the append path. The journals are read
//!   straight from their files, with no page cache.
//! * `--max-conns N`, `--workers N` tune the TCP front end (a worker
//!   pool blocked in `poll(2)` over nonblocking sockets).
//!
//! All engine settings are surfaced in `STATS` as `server.config.*`
//! gauges.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use uucs_server::cli::{parsed, value};
use uucs_server::commit::DEFAULT_INTERVAL;
use uucs_server::tcp::ServeConfig;
use uucs_server::{storage, tcp, LibrarySource, StoreSet, UucsServer};
use uucs_telemetry::metrics;
use uucs_wal::{SyncPolicy, WalConfig};

fn main() {
    let mut addr = "127.0.0.1:4004".to_string();
    let mut library: Option<PathBuf> = None;
    let mut data = PathBuf::from("uucs-server-data");
    let mut gen_seed: Option<String> = None;
    let mut shards: usize = 1;
    let mut commit_interval_us = DEFAULT_INTERVAL.as_micros() as u64;
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
                let want = "the maximum gather window in microseconds, 0 = none";
                commit_interval_us = parsed(&args, i, want, |_| true);
            }
            "--cache-pages" => {
                i += 1;
                parsed::<usize>(&args, i, "a page count", |_| true);
                eprintln!("--cache-pages is ignored: the journals have no page cache");
            }
            "--io-threads" => {
                i += 1;
                parsed::<usize>(&args, i, "a thread count", |_| true);
                eprintln!("--io-threads is ignored: every committer runs its own two-thread pool");
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
    metrics::gauge("server.config.io_threads").set(storage::IO_THREADS as i64);

    // The commit thread owns durability (one batched fsync per shard,
    // acks wait on the watermark), so no append pays its own fsync.
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    eprintln!("recovering journals under {:?} ({shards} shard(s)) ...", data.join("wal"));
    let (stores, recoveries) = StoreSet::open(&data.join("wal"), config, shards)
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
    let server = Arc::new(
        UucsServer::with_store_set(stores, 0x5e17)
            .with_group_commit(Duration::from_micros(commit_interval_us)),
    );
    if server.testcase_count() == 0 {
        eprintln!("seeding the {source} ...");
        if let Err(e) = source.seed(&server) {
            eprintln!("cannot seed the {source}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("{}", server.recovered_line());

    eprintln!("serving {} testcases on {addr}", server.testcase_count());
    let handle = tcp::serve_with(server.clone(), &addr, serve_config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("listening on {} (data dir {data:?})", handle.addr());

    // The journals hold everything acknowledged and the committer keeps
    // the model caches: the main thread has nothing left to do.
    loop {
        std::thread::park();
    }
}
