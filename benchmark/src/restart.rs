//! `restart-recovery`: the operator path. Set-up preloads a journal far
//! larger than the page cache and `SIGKILL`s the server; the measured
//! operation is spawn → first acked upload, repeated for the window.
//!
//! `SIGKILL` keeps the operating system's cache, so the output check
//! after each restart proves replay correctness — every acked
//! `(client, seq)` comes back exactly once — not device durability.

use crate::checks;
use crate::gen::{identities, Identity, RecordGen};
use crate::layers;
use crate::load::Conn;
use crate::metrics::SETUPS;
use crate::procs::{self, engine_args, ServerProc, TempDir, SHARDS};
use crate::report::{Opts, RunOutput};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::traffic;
use std::path::Path;
use std::time::{Duration, Instant};
use uucs_pagecache::{CachedIo, DEFAULT_PAGE_SIZE};
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_server::{StorageProfile, StoreSet};
use uucs_wal::{StdIo, WalReader};

/// Uploads preloaded per connection (two connections, two records per
/// upload): 50 000 records, a ~15 MB journal against a 4 MiB
/// (1024-page) cache.
const PRELOAD_PER_CONN: u64 = 12_500;

/// Records per upload.
const BATCH: u64 = 2;

/// A preloaded journal whose server has been killed.
struct Setup {
    dir: TempDir,
    idents: Vec<Identity>,
    gen: RecordGen,
    took: Duration,
}

impl Setup {
    fn data(&self) -> std::path::PathBuf {
        self.dir.path().join("data")
    }

    fn expected_records(&self) -> u64 {
        checks::acked_uploads(&self.idents) * BATCH
    }
}

fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let dir = TempDir::new("restart-recovery").map_err(|e| e.to_string())?;
    let server = ServerProc::spawn(
        "uucs-server",
        &engine_args(&dir.path().join("data"), SHARDS),
    )?;
    let mut idents = identities(seed);
    traffic::preload(&server.addr, &mut idents, seed, PRELOAD_PER_CONN)?;
    server.kill();
    Ok(Setup {
        dir,
        idents,
        gen: RecordGen::new(seed, 2),
        took: started.elapsed(),
    })
}

/// One restart: spawn on the preloaded journal, then the first upload
/// of an identity that existed before the kill. Returns the server,
/// spawn → ack, and whether the upload was acked.
fn restart(setup: &mut Setup, shards: usize) -> Result<(ServerProc, Duration, bool), String> {
    let started = Instant::now();
    let server = ServerProc::spawn("uucs-server", &engine_args(&setup.data(), shards))?;
    let mut conn = Conn::connect(&server.addr, false).map_err(|e| e.to_string())?;
    let ident = &mut setup.idents[0];
    let mut probe = ident.clone();
    let horizon = conn.register(&mut probe).map_err(|e| e.to_string())?;
    let msg = ClientMsg::Upload {
        client: probe.guid.clone(),
        seq: horizon + 1,
        records: setup.gen.batch(&probe.guid, BATCH as usize),
    };
    let acked = matches!(conn.exchange(&msg), Ok(ServerMsg::Ack(n)) if n == BATCH as usize);
    let took = started.elapsed();
    if acked && probe.guid == ident.guid && horizon == ident.acked_seq {
        ident.acked_seq += 1;
        ident.acked_uploads += 1;
    }
    conn.bye();
    Ok((server, took, acked))
}

/// Restarts the server on `setup`'s journal until `window` has passed
/// (at least `at_least` times), checking the state after each.
fn restarts(
    setup: &mut Setup,
    window: Duration,
    at_least: usize,
    out: &mut RunOutput,
    tracer: &mut Option<Tracer>,
    probe_seed: Option<u64>,
) -> Result<Restarts, String> {
    let mut r = Restarts::default();
    let started = Instant::now();
    while r.recovery_ms.len() < at_least || started.elapsed() < window {
        let (server, took, acked) = restart(setup, SHARDS)?;
        out.attempted += 1;
        // Everything the server burned from exec to the first ack.
        let cpu = server.cpu_secs();
        if let Some(t) = tracer.as_mut() {
            let end = t.now_ns();
            let start = end.saturating_sub(took.as_nanos() as u64);
            let ready = start + server.ready_after.as_nanos() as u64;
            let k = out.attempted;
            let root = t.record("restart.spawn_to_first_ack", start, end, None, k);
            t.record("server.spawn_to_listening", start, ready, Some(root), k);
            t.record("client.register_and_upload", ready, end, Some(root), k);
        }
        if r.recovery_ms.is_empty() {
            r.rss_mb = server.peak_rss_mb();
            if let Some(seed) = probe_seed {
                layers::server_probes(out, &server.addr, seed)?;
            }
        }
        let (misses, _) =
            checks::verify_server(&server.addr, &setup.idents, setup.expected_records())?;
        if acked && misses == 0 {
            r.recovery_ms.push(took.as_secs_f64() * 1e3);
            r.cpu_secs.push(cpu);
        } else {
            out.failed += 1 + misses;
        }
        server.kill();
    }
    Ok(r)
}

/// What a series of restarts measured.
#[derive(Default)]
struct Restarts {
    recovery_ms: Vec<f64>,
    cpu_secs: Vec<f64>,
    rss_mb: f64,
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunOutput, String> {
    let mut out = RunOutput::new("restart-recovery");
    if opts.trace {
        return run_traced(opts, out);
    }
    // As on the traffic workloads, each set-up serves a third of the
    // window, so the restarts are spread over the run.
    let window = Duration::from_secs((opts.seconds / SETUPS as u64).max(1));
    let (mut setup_secs, mut recovery_ms, mut cpu_secs, mut rss_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut journal_records = 0;
    for _ in 0..SETUPS {
        let mut setup = setup(opts.seed)?;
        setup_secs.push(setup.took.as_secs_f64());
        journal_records = setup.expected_records();
        let r = restarts(&mut setup, window, 1, &mut out, &mut None, None)?;
        recovery_ms.extend(r.recovery_ms);
        cpu_secs.extend(r.cpu_secs);
        rss_mb.push(r.rss_mb);
    }
    // The best restart, for the reason `load::summarise` gives.
    let best_ms = recovery_ms.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("op_p50_ms", best_ms);
    out.note("ops_per_s", journal_records as f64 / (best_ms / 1e3));
    out.metric("rss_mb", stats::median(&rss_mb));
    out.metric("setup_s", stats::median(&setup_secs));
    out.note("op_median_ms", stats::median(&recovery_ms));
    out.note("op_p99_ms", stats::percentile(&recovery_ms, 0.99));
    out.note("server_cpu_us_per_op", stats::median(&cpu_secs) * 1e6);
    out.note("restarts", recovery_ms.len() as f64);
    out.note("journal_records", journal_records as f64);
    out.note("setups", setup_secs.len() as f64);
    Ok(out)
}

/// The traced run: three restarts with spans, the server-side probes
/// against the first restarted server, then the journal probes.
fn run_traced(opts: &Opts, mut out: RunOutput) -> Result<RunOutput, String> {
    let mut setup = setup(opts.seed)?;
    let journal_records = setup.expected_records();
    let journal_bytes = procs::dir_bytes(&setup.data().join("wal"));
    let mut tracer = Some(Tracer::new());
    let r = restarts(
        &mut setup,
        Duration::ZERO,
        3,
        &mut out,
        &mut tracer,
        Some(opts.seed),
    )?;
    out.note("restarts", r.recovery_ms.len() as f64);
    out.note("journal_records", journal_records as f64);
    out.note("journal_mb", journal_bytes as f64 / 1e6);
    out.note("untraced_op_p50_ms", stats::median(&r.recovery_ms));
    out.layer(
        "wal.journal_bytes_per_record",
        journal_bytes as f64 / journal_records.max(1) as f64,
    );
    journal_probes(&mut out, &mut setup)?;
    let tracer = tracer.unwrap_or_default();
    out.waterfall("live", &spans::waterfall(tracer.spans()));
    out.write_trace(&tracer)?;
    Ok(out)
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Replays every results shard of `journal` through `io`; returns the
/// records read and the seconds it took.
fn replay_results(journal: &Path, io: &CachedIo<StdIo>) -> Result<(u64, f64), String> {
    let started = Instant::now();
    let mut records = 0;
    for shard in 0..SHARDS {
        let dir = journal.join(format!("results/by-{SHARDS}/shard-{shard:03}"));
        let reader =
            WalReader::open(io.clone(), &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for record in reader.records() {
            record.map_err(|e| e.to_string())?;
            records += 1;
        }
    }
    Ok((records, started.elapsed().as_secs_f64()))
}

/// The layers a restart is made of, each alone, on copies of the
/// preloaded journal: store open at 8 and at 4 shards, replay through
/// the page cache at three capacities, and the operator-visible
/// reshard restart of the real server.
fn journal_probes(out: &mut RunOutput, setup: &mut Setup) -> Result<(), String> {
    let io_err = |e: std::io::Error| e.to_string();
    let journal = setup.data().join("wal");
    let config = layers::unsynced_wal();
    let scratch = TempDir::new("restart-probes").map_err(io_err)?;

    // The cache question (ROADMAP 3d): a restart replays cold, so a
    // cold cache should cost what passthrough costs; only a second pass
    // over a cache that fits the journal is warm.
    let passthrough = CachedIo::passthrough(StdIo::new());
    let (records, secs) = replay_results(&journal, &passthrough)?;
    out.layer("pagecache.passthrough_open_s", secs);
    out.layer(
        "wal.replay_mb_per_s",
        procs::dir_bytes(&journal.join("results")) as f64 / 1e6 / secs,
    );
    out.note("replayed_journal_entries", records as f64);
    let fitting = CachedIo::new(StdIo::new(), 32 * 1024, DEFAULT_PAGE_SIZE);
    out.layer(
        "pagecache.cold_open_s",
        replay_results(&journal, &fitting)?.1,
    );
    out.layer(
        "pagecache.warm_open_s",
        replay_results(&journal, &fitting)?.1,
    );
    // The server's own capacity does not fit the journal: two passes,
    // so ARC has had its chance.
    let small = CachedIo::new(StdIo::new(), 1024, DEFAULT_PAGE_SIZE);
    replay_results(&journal, &small)?;
    replay_results(&journal, &small)?;
    let s = small.stats();
    out.layer(
        "pagecache.hit_rate",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    out.layer("pagecache.evictions", s.evictions as f64);

    let copy = scratch.path().join("open-8");
    copy_tree(&journal, &copy).map_err(io_err)?;
    let t0 = Instant::now();
    let opened = StoreSet::open_with(
        &copy,
        config,
        SHARDS,
        &StorageProfile::with_cache_pages(1024),
    )
    .map_err(io_err)?;
    out.layer("server.store.open_s", t0.elapsed().as_secs_f64());
    drop(opened);
    let t0 = Instant::now();
    let opened = StoreSet::open_with(&copy, config, 4, &StorageProfile::with_cache_pages(1024))
        .map_err(io_err)?;
    out.layer("server.store.reshard_s", t0.elapsed().as_secs_f64());
    drop(opened);

    // Last, because it rewrites the journal: the real server restarted
    // with `--shards 4`, checked like every other restart.
    let (server, took, acked) = restart(setup, 4)?;
    out.attempted += 1;
    let (misses, _) = checks::verify_server(&server.addr, &setup.idents, setup.expected_records())?;
    if !acked || misses > 0 {
        out.failed += 1 + misses;
    }
    out.layer("server.restart_reshard_s", took.as_secs_f64());
    server.kill();
    Ok(())
}
