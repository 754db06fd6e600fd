//! The four traffic workloads: `ack-latency`, `pipelined-ingest`,
//! `hot-sync` and `quorum-ack`, against the real server processes.

use crate::checks;
use crate::gen::{identities, Identity, RecordGen, IDENTITIES};
use crate::json::StatsSnapshot;
use crate::layers;
use crate::load::{
    session_client, session_loop, slice_figures, summarise, upload_loop, Conn, LoadResult, Phase,
    CONNECTIONS, SESSION_BATCH,
};
use crate::metrics::SETUPS;
use crate::procs::{cluster_args, engine_args, server_args, ServerProc, TempDir, SHARDS};
use crate::report::{Opts, RunOutput};
use crate::spans;
use crate::stats;
use std::time::{Duration, Instant};
use uucs_client::{BorrowingGovernor, ResilientTransport};
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_testcase::Resource;

/// What distinguishes the traffic workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The workload name.
    pub name: &'static str,
    /// Binary wire v2 (negotiated by `HELLO`) instead of text v1.
    pub binary: bool,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Records per upload.
    pub batch: usize,
    /// `--io-threads 2 --cache-pages 1024` on the server.
    pub engine: bool,
    /// Two `uucs-clusterd` processes instead of one `uucs-server`.
    pub cluster: bool,
    /// `hot-sync` sessions instead of bare uploads.
    pub sessions: bool,
    /// Warm-up operations per connection — a count, not a time, so a
    /// slower server shows as a longer `setup_s`.
    pub warmup: u64,
}

/// `ack-latency`: text, depth 1, cache and I/O threads off.
pub const ACK_LATENCY: Shape = Shape {
    name: "ack-latency",
    binary: false,
    depth: 1,
    batch: 2,
    engine: false,
    cluster: false,
    sessions: false,
    warmup: 200,
};

/// `pipelined-ingest`: binary, 32 in flight per connection.
pub const PIPELINED_INGEST: Shape = Shape {
    name: "pipelined-ingest",
    binary: true,
    depth: 32,
    batch: 2,
    engine: true,
    cluster: false,
    sessions: false,
    warmup: 4000,
};

/// `hot-sync`: sessions over `ResilientTransport`, `--wire auto`.
pub const HOT_SYNC: Shape = Shape {
    name: "hot-sync",
    binary: true,
    depth: 1,
    batch: SESSION_BATCH,
    engine: false,
    cluster: false,
    sessions: true,
    warmup: 40,
};

/// `quorum-ack`: `ack-latency`'s client against a two-node tier.
pub const QUORUM_ACK: Shape = Shape {
    name: "quorum-ack",
    binary: false,
    depth: 1,
    batch: 2,
    engine: false,
    cluster: true,
    sessions: false,
    warmup: 200,
};

enum Client {
    Conn(Conn),
    Session(Box<(ResilientTransport, BorrowingGovernor)>),
}

/// A server (or tier) with registered identities, connected and
/// warmed-up clients: everything a window needs.
struct Setup {
    /// `servers[0]` takes the client traffic; a follower comes second.
    servers: Vec<ServerProc>,
    idents: Vec<Identity>,
    clients: Vec<Client>,
    gens: Vec<RecordGen>,
    /// Spawn → end of warm-up.
    took: Duration,
    // Dropped last: the servers above are killed before their data
    // directory is removed.
    _dir: TempDir,
}

/// Polls `addr`'s `STATS` until `done` holds or `patience` runs out;
/// returns whether it held.
fn poll_stats(
    addr: &str,
    patience: Duration,
    mut done: impl FnMut(&StatsSnapshot) -> bool,
) -> Result<bool, String> {
    let mut conn = Conn::connect(addr, false).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + patience;
    let held = loop {
        if done(&conn.stats().map_err(|e| e.to_string())?) {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    conn.bye();
    Ok(held)
}

fn spawn_servers(shape: &Shape, dir: &TempDir) -> Result<Vec<ServerProc>, String> {
    if !shape.cluster {
        let data = dir.path().join("data");
        let args = if shape.engine {
            engine_args(&data, SHARDS)
        } else {
            server_args(&data, SHARDS)
        };
        return Ok(vec![ServerProc::spawn("uucs-server", &args)?]);
    }
    let node = |name: &str, extra: &[&str]| {
        ServerProc::spawn("uucs-clusterd", &cluster_args(dir.path(), name, extra))
    };
    let leader = node("a", &["--repl-ack", "quorum", "--generate-library", "42"])?;
    let repl = leader
        .repl_addr
        .clone()
        .ok_or("leader printed no REPL address")?;
    let follower = node("b", &["--follow", &repl])?;
    // The follower must hold the library and be acking before the first
    // upload, or the leader would wait out its quorum timeout.
    let caught_up = poll_stats(&leader.addr, Duration::from_secs(30), |s| {
        let gauge = |name: &str| s.gauges.get(name).copied().unwrap_or(0.0);
        gauge("server.repl.follower_connected") >= 1.0 && gauge("server.repl.lag_batches") == 0.0
    })?;
    if !caught_up {
        return Err("follower never caught up with the leader".into());
    }
    Ok(vec![leader, follower])
}

/// Runs `stop` worth of load on every connection at once, one thread
/// per connection, each with its half of the identities.
fn drive(shape: &Shape, setup: &mut Setup, phase: Phase) -> LoadResult {
    let per_conn = IDENTITIES / CONNECTIONS;
    let mut total = LoadResult::default();
    let results: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(setup.idents.chunks_mut(per_conn))
            .zip(setup.gens.iter_mut())
            .map(|((client, idents), gen)| {
                s.spawn(move || match client {
                    Client::Conn(conn) => {
                        upload_loop(conn, idents, gen, shape.batch, shape.depth, phase)
                    }
                    Client::Session(pair) => {
                        let (transport, governor) = pair.as_mut();
                        session_loop(transport, governor, idents, gen, phase)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for r in results {
        total.absorb(r);
    }
    total
}

fn setup(shape: &Shape, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let dir = TempDir::new(shape.name).map_err(|e| e.to_string())?;
    let servers = spawn_servers(shape, &dir)?;
    let addr = servers[0].addr.clone();
    let mut idents = identities(seed);
    let mut gens: Vec<RecordGen> = (0..CONNECTIONS as u64)
        .map(|c| RecordGen::new(seed, c))
        .collect();
    let per_conn = IDENTITIES / CONNECTIONS;
    let mut clients = Vec::new();
    for chunk in idents.chunks_mut(per_conn) {
        // Sessions register over a plain connection, as `uucs-client`
        // does before its first hot sync; the session transport dials
        // (and negotiates) on its first exchange, inside the warm-up.
        let mut conn = Conn::connect(&addr, shape.binary && !shape.sessions)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        for ident in chunk.iter_mut() {
            conn.register(ident).map_err(|e| e.to_string())?;
        }
        if shape.sessions {
            if clients.is_empty() {
                prime_model(&mut conn, &mut chunk[0], &mut gens[0])?;
            }
            conn.bye();
            clients.push(Client::Session(Box::new(session_client(&addr))));
        } else {
            clients.push(Client::Conn(conn));
        }
    }
    let mut setup = Setup {
        servers,
        idents,
        clients,
        gens,
        took: Duration::ZERO,
        _dir: dir,
    };
    let warm = drive(shape, &mut setup, Phase::count(shape.warmup));
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up operations failed",
            warm.failed, warm.attempted
        ));
    }
    setup.took = started.elapsed();
    Ok(setup)
}

/// `ADVICE` answers an error until the model has seen the resource, so
/// the first `hot-sync` upload is made to carry a CPU record.
fn prime_model(conn: &mut Conn, ident: &mut Identity, gen: &mut RecordGen) -> Result<(), String> {
    let records = loop {
        let batch = gen.batch(&ident.guid, SESSION_BATCH);
        if batch
            .iter()
            .any(|r| r.last_levels.iter().any(|(res, _)| *res == Resource::Cpu))
        {
            break batch;
        }
    };
    let msg = ClientMsg::Upload {
        client: ident.guid.clone(),
        seq: ident.acked_seq + 1,
        records,
    };
    match conn.exchange(&msg) {
        Ok(ServerMsg::Ack(n)) if n == SESSION_BATCH => {
            ident.acked_seq += 1;
            ident.acked_uploads += 1;
            Ok(())
        }
        other => Err(format!("priming upload refused: {other:?}")),
    }
}

/// Output check: the serving node holds every acked `(client, seq)`
/// exactly once; a quorum follower holds the same number of records
/// and no ack was a degraded (local-only) one.
fn verify(
    shape: &Shape,
    setup: &mut Setup,
    before: &StatsSnapshot,
) -> Result<(u64, StatsSnapshot), String> {
    let addr = setup.servers[0].addr.clone();
    let unsettled = checks::settle(
        &addr,
        &mut setup.idents,
        &mut setup.gens[0],
        shape.batch,
        SHARDS,
    )?;
    let expected = checks::acked_uploads(&setup.idents) * shape.batch as u64;
    let (misses, after) = checks::verify_server(&addr, &setup.idents, expected)?;
    let mut misses = misses + unsettled;
    if shape.cluster {
        let timeouts = after.counter_since(before, "server.repl.quorum_timeouts");
        if timeouts > 0.0 {
            eprintln!("check: {timeouts} acks degraded to local after a quorum timeout");
            misses += timeouts as u64;
        }
        let mut held = 0.0;
        let converged = poll_stats(&setup.servers[1].addr, Duration::from_secs(5), |s| {
            held = s.gauge_sum("server.shard.results.", ".records");
            held == expected as f64
        })?;
        if !converged {
            eprintln!("check: follower holds {held} records, leader acked {expected}");
            misses += 1;
        }
    }
    Ok((misses, after))
}

fn stats_of(setup: &Setup) -> Result<StatsSnapshot, String> {
    let mut conn = Conn::connect(&setup.servers[0].addr, false).map_err(|e| e.to_string())?;
    let s = conn.stats().map_err(|e| e.to_string())?;
    conn.bye();
    Ok(s)
}

/// Runs one traffic workload.
pub fn run(shape: &Shape, opts: &Opts) -> Result<RunOutput, String> {
    if opts.trace {
        return run_traced(shape, opts);
    }
    // The window is dealt over the set-ups, each on its own fresh
    // server: the seconds measured are then spread over the whole run,
    // not bunched at its end, which is what a host whose disk and
    // processor speed drift over tens of seconds calls for.
    let window = Duration::from_secs((opts.seconds / SETUPS as u64).max(1));
    let mut out = RunOutput::new(shape.name);
    let (mut setup_secs, mut rss_mb, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_ms, mut ack_slices) = (Vec::new(), Vec::new());
    let (mut cpu_secs, mut acked) = (0.0, 0u64);
    for _ in 0..SETUPS {
        let mut setup = setup(shape, opts.seed)?;
        setup_secs.push(setup.took.as_secs_f64());
        // Memory after a fixed amount of work (library, registrations,
        // warm-up), not after a window whose upload count varies.
        rss_mb.push(setup.servers[0].peak_rss_mb());
        let before = stats_of(&setup)?;
        let cpu_before: f64 = setup.servers.iter().map(ServerProc::cpu_secs).sum();
        let result = drive(shape, &mut setup, Phase::window(window, false));
        cpu_secs += setup.servers.iter().map(ServerProc::cpu_secs).sum::<f64>() - cpu_before;
        let (misses, _) = verify(shape, &mut setup, &before)?;
        out.attempted += result.attempted;
        out.failed += result.failed + misses;
        acked += result.samples.len() as u64;
        slices.extend(slice_figures(&result.samples, window));
        ack_slices.extend(slice_figures(&result.upload_samples, window));
        lat_ms.extend(result.samples.iter().map(|s| s.latency_ns as f64 / 1e6));
    }
    let figures = summarise(&slices);
    out.metric("op_p50_ms", figures.p50_ms);
    out.note("ops_per_s", figures.per_s);
    out.metric("rss_mb", stats::median(&rss_mb));
    out.metric("setup_s", stats::median(&setup_secs));
    out.note("op_p99_ms", figures.p99_ms);
    out.note("server_cpu_us_per_op", cpu_secs * 1e6 / acked.max(1) as f64);
    out.note("samples", figures.samples as f64);
    out.note("setups", setup_secs.len() as f64);
    if let Some((pct, v)) = stats::tail(&lat_ms) {
        out.note("op_tail_percentile", pct);
        out.note("op_tail_ms", v);
    }
    if shape.sessions {
        let acks = summarise(&ack_slices);
        out.note("upload_ack_p50_ms", acks.p50_ms);
        out.note("upload_ack_p99_ms", acks.p99_ms);
    }
    Ok(out)
}

/// The traced run: the window in one-second slices, every other one
/// with spans recorded around every client-side step; then the staged
/// pass and the layer probes. Reports the per-layer metrics.
fn run_traced(shape: &Shape, opts: &Opts) -> Result<RunOutput, String> {
    let mut setup = setup(shape, opts.seed)?;
    let before = stats_of(&setup)?;
    // One-second slices, alternately untraced and traced, so a drift
    // over the window (a journal growing, a disk slowing) lands on both
    // sides of the overhead figure alike.
    let slice = Duration::from_secs(1);
    let (mut plain, mut traced) = (LoadResult::default(), LoadResult::default());
    let (mut plain_slices, mut traced_slices) = (Vec::new(), Vec::new());
    for k in 0..opts.seconds.max(2) {
        let with_spans = k % 2 == 1;
        let r = drive(shape, &mut setup, Phase::window(slice, with_spans));
        let figures = slice_figures(&r.samples, slice);
        if with_spans {
            traced_slices.extend(figures);
            traced.absorb(r);
        } else {
            plain_slices.extend(figures);
            plain.absorb(r);
        }
    }
    let plain_figures = summarise(&plain_slices);
    let traced_figures = summarise(&traced_slices);
    let (misses, after) = verify(shape, &mut setup, &before)?;

    let mut out = RunOutput::new(shape.name);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed + misses;

    let mut tracer = traced.tracer.take().unwrap_or_default();
    let live = spans::waterfall(tracer.spans());
    let uploads = after
        .counter_since(&before, "server.verb.upload.count")
        .max(1.0);

    // Counts, differenced over both halves of the window.
    out.layer(
        "server.commit.batch_mean",
        after.hist_mean_since(&before, "server.commit.batch"),
    );
    out.layer(
        "server.commit.fsyncs_per_upload",
        after.counter_since(&before, "server.commit.count") / uploads,
    );
    let per_shard = after.gauge_values("server.shard.results.", ".records");
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    out.layer(
        "server.shard.skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    out.layer(
        "wal.bytes_per_upload",
        after.counter_since(&before, "server.wal.results.append.bytes") / uploads,
    );
    out.layer(
        "wal.rotations",
        after.counter_since(&before, "server.wal.results.rotations"),
    );
    let hits = after.counter_since(&before, "server.cache.results.hit");
    let lookups = hits + after.counter_since(&before, "server.cache.results.miss");
    out.layer(
        "pagecache.hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.layer(
        "pagecache.evictions",
        after.counter_since(&before, "server.cache.results.evict"),
    );
    let served = after.counter_since(&before, "server.model.delta.served");
    let polls = served + after.counter_since(&before, "server.model.delta.fallback");
    out.layer(
        "modelsvc.delta_hit_rate",
        if polls > 0.0 { served / polls } else { 0.0 },
    );
    out.layer(
        "cluster.follower_lag_entries",
        after
            .gauges
            .get("server.repl.lag_batches")
            .copied()
            .unwrap_or(0.0),
    );
    out.layer(
        "trace.overhead_share",
        if plain_figures.per_s > 0.0 {
            (plain_figures.per_s - traced_figures.per_s) / plain_figures.per_s
        } else {
            0.0
        },
    );
    if shape.sessions {
        out.layer(
            "client.sync_ms",
            spans::stage_p50_us(&live, "client.sync") / 1e3,
        );
        out.layer(
            "client.upload_ack_ms",
            spans::stage_p50_us(&live, "client.upload") / 1e3,
        );
        out.layer(
            "client.refresh_ms",
            spans::stage_p50_us(&live, "client.governor_refresh") / 1e3,
        );
    }

    // The staged pass walks the same kind of request along its path
    // with no sockets; what the live round trip has beyond the staged
    // stages is the TCP front end's own time (sweeps, idle sleeps,
    // ticket polling, the loopback itself).
    let staged = layers::staged_pass(shape, opts.seed)?;
    let stages = spans::waterfall(staged.tracer.spans());
    let roundtrip_us = if shape.sessions {
        spans::stage_p50_us(&live, "client.session")
    } else {
        spans::stage_p50_us(&live, "client.round_trip")
    };
    let staged_sum_us: f64 = staged
        .path
        .iter()
        .map(|name| spans::stage_p50_us(&stages, name))
        .sum();
    out.layer("server.tcp.roundtrip_us", roundtrip_us);
    out.layer(
        "server.tcp.self_us",
        (roundtrip_us - staged_sum_us).max(0.0),
    );
    out.layer(
        "trace.coverage",
        if plain_figures.p50_ms > 0.0 {
            staged_sum_us / 1e3 / plain_figures.p50_ms
        } else {
            0.0
        },
    );
    out.layer(
        "server.commit.wait_us",
        spans::stage_p50_us(&stages, "server.commit.wait"),
    );
    if shape.cluster {
        out.layer("cluster.quorum_wait_us", staged.quorum_wait_us);
        out.layer("cluster.backfill_s", backfill_secs(&setup)?);
    }

    layers::server_probes(&mut out, &setup.servers[0].addr, opts.seed)?;

    out.waterfall("live", &live);
    out.waterfall("staged", &stages);
    out.note("untraced_op_p50_ms", plain_figures.p50_ms);
    out.note("untraced_ops_per_s", plain_figures.per_s);
    out.note("traced_ops_per_s", traced_figures.per_s);
    out.note("staged_sum_us", staged_sum_us);
    tracer.absorb(staged.tracer);
    out.write_trace(&tracer)?;
    Ok(out)
}

/// Starts a third, empty node following the leader and times it until
/// it holds every record the leader does: snapshot-then-tail backfill
/// over the journal the window just wrote.
fn backfill_secs(setup: &Setup) -> Result<f64, String> {
    let leader = &setup.servers[0];
    let want = stats_of(setup)?.gauge_sum("server.shard.results.", ".records");
    let dir = TempDir::new("backfill").map_err(|e| e.to_string())?;
    let repl = leader
        .repl_addr
        .clone()
        .ok_or("leader has no REPL address")?;
    let started = Instant::now();
    let node = ServerProc::spawn(
        "uucs-clusterd",
        &cluster_args(dir.path(), "c", &["--follow", &repl]),
    )?;
    let caught_up = poll_stats(&node.addr, Duration::from_secs(30), |s| {
        s.gauge_sum("server.shard.results.", ".records") >= want
    })?;
    if !caught_up {
        return Err(format!(
            "cold follower does not hold {want} records after 30 s"
        ));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Preloads a journal for `restart-recovery`: registers the identities
/// and pushes `uploads_per_conn` pipelined uploads down each connection.
pub(crate) fn preload(
    addr: &str,
    idents: &mut [Identity],
    seed: u64,
    uploads_per_conn: u64,
) -> Result<(), String> {
    let per_conn = IDENTITIES / CONNECTIONS;
    let shape = &PIPELINED_INGEST;
    let results: Vec<Result<LoadResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = idents
            .chunks_mut(per_conn)
            .enumerate()
            .map(|(c, chunk)| {
                s.spawn(move || -> Result<LoadResult, String> {
                    let mut conn = Conn::connect(addr, true).map_err(|e| e.to_string())?;
                    for ident in chunk.iter_mut() {
                        conn.register(ident).map_err(|e| e.to_string())?;
                    }
                    let mut gen = RecordGen::new(seed, c as u64);
                    let r = upload_loop(
                        &mut conn,
                        chunk,
                        &mut gen,
                        shape.batch,
                        shape.depth,
                        Phase::count(uploads_per_conn),
                    );
                    conn.bye();
                    Ok(r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    for r in results {
        let r = r?;
        if r.failed > 0 {
            return Err(format!(
                "{} of {} preload uploads failed",
                r.failed, r.attempted
            ));
        }
    }
    Ok(())
}
