//! Per-layer measurements of the server side: the staged pass, which
//! walks a request along its real path with no sockets, and the probes,
//! which time each crate's public entry points alone. Everything is
//! timed from here, around the calls; nothing inside the crates is
//! instrumented.

use crate::gen::{identities, Identity, RecordGen};
use crate::load::{Conn, SESSION_BATCH};
use crate::procs::{self, TempDir, SHARDS};
use crate::report::RunOutput;
use crate::spans::Tracer;
use crate::stats;
use crate::traffic::Shape;
use std::hint::black_box;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uucs_client::{BorrowingGovernor, ClientTransport, LocalTransport, ResilientTransport};
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs_pagecache::{DiskScheduler, OpKind};
use uucs_protocol::repl::{write_repl_msg, ReplMsg};
use uucs_protocol::wire::{
    read_client_msg, read_server_msg, write_client_msg, write_server_msg, Endpoint,
};
use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg, WalEntry, WIRE_VERSION_BINARY};
use uucs_server::models::observations_of;
use uucs_server::{ModelStore, StorageProfile, StoreSet, UucsServer};
use uucs_telemetry::metrics;
use uucs_testcase::generate::Library;
use uucs_testcase::Resource;
use uucs_wal::crc::crc32;
use uucs_wal::{StdIo, SyncPolicy, Wal, WalConfig, WalReader};
use uucs_wire::conn::negotiate;
use uucs_wire::frame::{
    encode_client_frame, encode_server_frame, read_server_frame, try_read_client_frame, FrameRead,
};

/// Staged requests per pass. Each waits out a commit interval, so this
/// is about a second of wall time.
const STAGED_REQUESTS: u64 = 400;

/// An in-process server over a scratch journal, built the way
/// `uucs-server --wal --shards 8 --commit-interval-us 1000` builds its
/// own — except that the library is seeded before group commit starts,
/// so seeding does not wait out 2230 commit intervals.
struct Hosted {
    server: Arc<UucsServer>,
    _dir: TempDir,
}

/// Journal settings under group commit, as in the server's own `main`:
/// appends never fsync, the committer (or the caller) owns durability.
pub fn unsynced_wal() -> WalConfig {
    WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    }
}

fn hosted(label: &str, engine: bool) -> Result<Hosted, String> {
    let dir = TempDir::new(label).map_err(|e| e.to_string())?;
    let profile = StorageProfile {
        cache_pages: if engine { 1024 } else { 0 },
        io_threads: if engine { 2 } else { 0 },
        ..StorageProfile::default()
    };
    let config = unsynced_wal();
    let (stores, _) = StoreSet::open_with(&dir.path().join("wal"), config, SHARDS, &profile)
        .map_err(|e| format!("open scratch stores: {e}"))?;
    let mut server = UucsServer::with_store_set(stores, 0x5e17);
    for tc in Library::internet_sweep(42).testcases() {
        server.add_testcase(tc.clone()).map_err(|e| e.to_string())?;
    }
    if let Some(sched) = profile.scheduler() {
        server = server.with_io_scheduler(sched);
    }
    server = server.with_group_commit(Duration::from_micros(1000));
    Ok(Hosted {
        server: Arc::new(server),
        _dir: dir,
    })
}

fn register_all(server: &UucsServer, seed: u64) -> Result<Vec<Identity>, String> {
    let mut idents = identities(seed);
    for ident in &mut idents {
        let msg = ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine(ident.name.clone()),
            token: ident.token.clone(),
        };
        match server.handle(&msg) {
            ServerMsg::Id { id, .. } => ident.guid = id,
            other => return Err(format!("staged registration refused: {other:?}")),
        }
    }
    Ok(idents)
}

fn verb_span(msg: &ClientMsg) -> &'static str {
    match msg {
        ClientMsg::Upload { .. } => "server.handle_upload",
        ClientMsg::Sync { .. } => "server.handle_sync",
        ClientMsg::ModelDelta { .. } => "server.handle_modeldelta",
        ClientMsg::Model { .. } => "server.handle_model",
        ClientMsg::Advice { .. } => "server.handle_advice",
        ClientMsg::Register { .. } => "server.handle_register",
        _ => "server.handle_other",
    }
}

/// A transport with no socket in it: each exchange calls the layers a
/// request crosses, in order, and records one span per layer.
struct StagedTransport<'a> {
    server: &'a UucsServer,
    binary: bool,
    tracer: &'a mut Tracer,
    parent: Option<usize>,
    request: u64,
}

impl ClientTransport for StagedTransport<'_> {
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        let (binary, parent, request) = (self.binary, self.parent, self.request);
        let t = &mut *self.tracer;
        let bytes = t.time(
            "client.encode",
            parent,
            request,
            || -> io::Result<Vec<u8>> {
                if binary {
                    encode_client_frame(1, msg)
                } else {
                    let mut buf = Vec::new();
                    write_client_msg(&mut buf, msg)?;
                    Ok(buf)
                }
            },
        )?;
        let decoded = t.time(
            "server.decode",
            parent,
            request,
            || -> io::Result<ClientMsg> {
                if binary {
                    match try_read_client_frame(&bytes)? {
                        FrameRead::Msg { msg, .. } => Ok(msg),
                        other => Err(io::Error::other(format!(
                            "staged frame did not parse: {other:?}"
                        ))),
                    }
                } else {
                    read_client_msg(&mut &bytes[..])?
                        .ok_or_else(|| io::Error::other("empty request"))
                }
            },
        )?;
        let (reply, ticket) = t.time(verb_span(msg), parent, request, || {
            self.server.handle_deferred(&decoded)
        });
        if let (Some(ticket), Some(committer)) = (ticket, self.server.group_committer()) {
            t.time("server.commit.wait", parent, request, || {
                committer.wait(ticket)
            })
            .map_err(io::Error::other)?;
        }
        let bytes = t.time(
            "server.encode_reply",
            parent,
            request,
            || -> io::Result<Vec<u8>> {
                if binary {
                    encode_server_frame(1, &reply)
                } else {
                    let mut buf = Vec::new();
                    write_server_msg(&mut buf, &reply)?;
                    Ok(buf)
                }
            },
        )?;
        t.time("client.decode_reply", parent, request, || {
            if binary {
                read_server_frame(&mut &bytes[..]).map(|(_, m)| m)
            } else {
                read_server_msg(&mut &bytes[..])
            }
        })
    }
}

/// What a staged pass produced.
pub struct Staged {
    /// One span per layer crossing.
    pub tracer: Tracer,
    /// The stages whose medians add up to one operation.
    pub path: Vec<&'static str>,
    /// Median extra time an upload's handling takes on a quorum leader
    /// over a lone server with the same journal settings (0 elsewhere).
    pub quorum_wait_us: f64,
}

const UPLOAD_PATH: [&str; 6] = [
    "client.encode",
    "server.decode",
    "server.handle_upload",
    "server.commit.wait",
    "server.encode_reply",
    "client.decode_reply",
];

/// Walks `STAGED_REQUESTS` operations of the workload's kind along
/// their path, one at a time, with no sockets.
pub fn staged_pass(shape: &Shape, seed: u64) -> Result<Staged, String> {
    let mut tracer = Tracer::new();
    let mut gen = RecordGen::new(seed, 99);
    if shape.cluster {
        return staged_quorum(shape, seed, tracer, gen);
    }
    let host = hosted("staged", shape.engine)?;
    let mut idents = register_all(&host.server, seed)?;
    // The same payloads through a scratch journal, to show how the
    // handling and the commit wait split into append and fsync.
    let wal_dir = TempDir::new("staged-wal").map_err(|e| e.to_string())?;
    let config = unsynced_wal();
    let (mut wal, _) =
        Wal::open(StdIo::new(), wal_dir.path(), config).map_err(|e| e.to_string())?;
    let mut governor = BorrowingGovernor::new(Resource::Cpu, "Word", 0.05, 0.0);
    for k in 0..STAGED_REQUESTS {
        let i = k as usize % idents.len();
        let guid = idents[i].guid.clone();
        idents[i].acked_seq += 1;
        let upload = ClientMsg::Upload {
            client: guid.clone(),
            seq: idents[i].acked_seq,
            records: gen.batch(&guid, shape.batch),
        };
        let root = tracer.open(
            if shape.sessions {
                "staged.session"
            } else {
                "staged.upload"
            },
            None,
            k,
        );
        let mut transport = StagedTransport {
            server: &host.server,
            binary: shape.binary,
            tracer: &mut tracer,
            parent: Some(root),
            request: k,
        };
        let step = |t: &mut StagedTransport<'_>, name: &'static str, msg: &ClientMsg| {
            let outer = t.parent;
            let span = t.tracer.open(name, outer, k);
            t.parent = Some(span);
            let reply = t.exchange(msg);
            t.tracer.close(span);
            t.parent = outer;
            reply.map_err(|e| format!("{name}: {e}"))
        };
        if shape.sessions {
            let sync = ClientMsg::Sync {
                client: guid.clone(),
                have: (SESSION_BATCH * k as usize) % 2048,
                want: SESSION_BATCH,
            };
            step(&mut transport, "staged.sync", &sync)?;
            step(&mut transport, "staged.upload", &upload)?;
            let outer = transport.parent;
            let span = transport.tracer.open("staged.governor_refresh", outer, k);
            transport.parent = Some(span);
            governor.refresh(&mut transport);
            transport.tracer.close(span);
        } else {
            match transport.exchange(&upload) {
                Ok(ServerMsg::Ack(n)) if n == shape.batch => {}
                other => return Err(format!("staged upload refused: {other:?}")),
            }
        }
        tracer.close(root);
        if let ClientMsg::Upload {
            client,
            seq,
            records,
        } = upload
        {
            let payload = WalEntry::Batch {
                client,
                seq,
                records,
            }
            .encode();
            tracer
                .time("wal.append", None, k, || wal.append(&payload))
                .map_err(|e| e.to_string())?;
            tracer
                .time("wal.sync", None, k, || wal.sync())
                .map_err(|e| e.to_string())?;
        }
    }
    let path = if shape.sessions {
        vec!["staged.sync", "staged.upload", "staged.governor_refresh"]
    } else {
        UPLOAD_PATH.to_vec()
    };
    Ok(Staged {
        tracer,
        path,
        quorum_wait_us: 0.0,
    })
}

/// A server the way `uucs-clusterd` builds its own: journals at the
/// default per-append fsync, no group commit.
fn node_server(dir: &TempDir, name: &str) -> Result<Arc<UucsServer>, String> {
    let (stores, _) = StoreSet::open(
        &dir.path().join(name).join("wal"),
        WalConfig::default(),
        SHARDS,
    )
    .map_err(|e| e.to_string())?;
    Ok(Arc::new(UucsServer::with_store_set(stores, 0x5e17)))
}

/// An in-process cluster node around [`node_server`].
fn cluster_node(
    dir: &TempDir,
    name: &str,
    peers: Vec<String>,
    ack: AckMode,
    role: Role,
) -> Result<(Arc<UucsServer>, Arc<ClusterNode>), String> {
    let server = node_server(dir, name)?;
    let mut config = ClusterConfig::new(name, dir.path().join("epochs"), dir.path().join(name));
    config.peers = peers;
    config.ack = ack;
    let node = ClusterNode::start(config, Arc::clone(&server), "127.0.0.1:0", role)
        .map_err(|e| format!("start node {name}: {e}"))?;
    Ok((server, node))
}

fn staged_quorum(
    shape: &Shape,
    seed: u64,
    mut tracer: Tracer,
    mut gen: RecordGen,
) -> Result<Staged, String> {
    let dir = TempDir::new("staged-tier").map_err(|e| e.to_string())?;
    // First a lone server with the same journal settings, for the
    // baseline the quorum wait is measured against.
    let solo = node_server(&dir, "solo")?;
    let idents = register_all(&solo, seed)?;
    let mut solo_us = Vec::new();
    for k in 0..STAGED_REQUESTS / 2 {
        let guid = &idents[k as usize % idents.len()].guid;
        let msg = ClientMsg::Upload {
            client: guid.clone(),
            seq: k / idents.len() as u64 + 1,
            records: gen.batch(guid, shape.batch),
        };
        let t0 = Instant::now();
        black_box(solo.handle(&msg));
        solo_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(solo);

    let (leader_srv, leader) = cluster_node(&dir, "a", Vec::new(), AckMode::Quorum, Role::Leader)?;
    let (_follower_srv, follower) = cluster_node(
        &dir,
        "b",
        vec![leader.repl_addr().to_string()],
        AckMode::Local,
        Role::Follower,
    )?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while leader.hub().follower_nodes().is_empty() {
        if Instant::now() > deadline {
            return Err("staged follower never connected".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut idents = register_all(&leader_srv, seed)?;
    let mut tiered_us = Vec::new();
    for k in 0..STAGED_REQUESTS / 2 {
        let i = k as usize % idents.len();
        idents[i].acked_seq += 1;
        let msg = ClientMsg::Upload {
            client: idents[i].guid.clone(),
            seq: idents[i].acked_seq,
            records: gen.batch(&idents[i].guid, shape.batch),
        };
        let root = tracer.open("staged.upload", None, k);
        let mut transport = StagedTransport {
            server: &leader_srv,
            binary: shape.binary,
            tracer: &mut tracer,
            parent: Some(root),
            request: k,
        };
        match transport.exchange(&msg) {
            Ok(ServerMsg::Ack(n)) if n == shape.batch => {}
            other => return Err(format!("staged quorum upload refused: {other:?}")),
        }
        tracer.close(root);
        let handled = tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "server.handle_upload")
            .map_or(0, |s| s.duration_ns());
        tiered_us.push(handled as f64 / 1e3);
    }
    follower.shutdown();
    leader.shutdown();
    Ok(Staged {
        tracer,
        path: UPLOAD_PATH.to_vec(),
        quorum_wait_us: (stats::median(&tiered_us) - stats::median(&solo_us)).max(0.0),
    })
}

/// Mean time of one call of `f` over a tight loop of `n`, ns — for
/// calls too short to time one by one.
fn mean_ns(n: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Times each server-side layer alone. `live` is the address of the
/// workload's real server, for the probes that need a socket.
pub fn server_probes(out: &mut RunOutput, live: &str, seed: u64) -> Result<(), String> {
    let io_err = |e: io::Error| e.to_string();
    let mut gen = RecordGen::new(seed, 7);
    let upload = ClientMsg::Upload {
        client: "client-0001".into(),
        seq: 1,
        records: gen.batch("client-0001", 2),
    };

    // protocol: the text codec and the journal payload encoding.
    let mut text = Vec::new();
    write_client_msg(&mut text, &upload).map_err(io_err)?;
    out.layer("protocol.upload_bytes", text.len() as f64);
    let mut buf = Vec::new();
    out.layer(
        "protocol.encode_upload_us",
        stats::time_p50_us(10_000, || {
            buf.clear();
            write_client_msg(&mut buf, &upload)
        }),
    );
    out.layer(
        "protocol.decode_upload_us",
        stats::time_p50_us(10_000, || read_client_msg(&mut &text[..])),
    );
    let library = Library::internet_sweep(42);
    let testcases = ServerMsg::Testcases(library.testcases()[..SESSION_BATCH].to_vec());
    let mut reply_text = Vec::new();
    write_server_msg(&mut reply_text, &testcases).map_err(io_err)?;
    out.layer(
        "protocol.encode_testcases_us",
        stats::time_p50_us(2_000, || {
            buf.clear();
            write_server_msg(&mut buf, &testcases)
        }),
    );
    out.layer(
        "protocol.decode_testcases_us",
        stats::time_p50_us(2_000, || read_server_msg(&mut &reply_text[..])),
    );
    let ClientMsg::Upload {
        client,
        seq,
        records,
    } = upload.clone()
    else {
        unreachable!("built as an upload above");
    };
    let entry = WalEntry::Batch {
        client,
        seq,
        records,
    };
    let payload = entry.encode();
    out.layer(
        "protocol.walenc_encode_us",
        stats::time_p50_us(10_000, || entry.encode()),
    );
    out.layer(
        "protocol.walenc_decode_us",
        stats::time_p50_us(10_000, || WalEntry::decode(&payload)),
    );

    // wire: the binary framing and the HELLO exchange.
    let frame = encode_client_frame(1, &upload).map_err(io_err)?;
    out.layer("wire.upload_bytes", frame.len() as f64);
    out.layer(
        "wire.encode_upload_us",
        stats::time_p50_us(10_000, || encode_client_frame(1, &upload)),
    );
    out.layer(
        "wire.decode_upload_us",
        stats::time_p50_us(10_000, || try_read_client_frame(&frame)),
    );
    let mut negotiate_us = Vec::new();
    let mut connect_us = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        let stream = TcpStream::connect(live).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let mut writer = stream.try_clone().map_err(io_err)?;
        let mut reader = io::BufReader::new(stream);
        let t1 = Instant::now();
        negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY).map_err(io_err)?;
        let t2 = Instant::now();
        negotiate_us.push((t2 - t1).as_nanos() as f64 / 1e3);
        connect_us.push((t2 - t0).as_nanos() as f64 / 1e3);
        let _ = writer.write_all(&encode_client_frame(1, &ClientMsg::Bye).map_err(io_err)?);
    }
    out.layer("wire.negotiate_us", stats::median(&negotiate_us));
    out.layer("server.tcp.connect_us", stats::median(&connect_us));

    // client: what the resilient transport adds to a raw round trip.
    let advice = ClientMsg::Advice {
        resource: Resource::Cpu,
        task: "Word".into(),
        epsilon: 0.05,
    };
    let mut raw = Conn::connect(live, false).map_err(io_err)?;
    let mut resilient = ResilientTransport::new(live);
    // Alternating, so both see the server's worker in the same state
    // (it sleeps when idle, which would otherwise dominate the difference).
    let (mut raw_us, mut resilient_us) = (Vec::new(), Vec::new());
    for _ in 0..300 {
        let t0 = Instant::now();
        raw.exchange(&advice).map_err(io_err)?;
        let t1 = Instant::now();
        resilient.exchange(&advice).map_err(io_err)?;
        raw_us.push((t1 - t0).as_nanos() as f64 / 1e3);
        resilient_us.push(t1.elapsed().as_nanos() as f64 / 1e3);
    }
    resilient.bye();
    out.layer(
        "client.exchange_self_us",
        (stats::median(&resilient_us) - stats::median(&raw_us)).max(0.0),
    );
    out.layer(
        "telemetry.stats_snapshot_us",
        stats::time_p50_us(50, || raw.exchange(&ClientMsg::Stats { reset: false })),
    );
    raw.bye();
    out.layer(
        "client.retries",
        metrics::counter("client.transport.retries").get() as f64,
    );

    // server: each verb's handling, without the commit wait.
    let host = hosted("probe", false)?;
    let server = &host.server;
    let mut idents = register_all(server, seed)?;
    let mut turn = 0usize;
    let mut next_upload = |gen: &mut RecordGen| {
        let i = turn % idents.len();
        turn += 1;
        idents[i].acked_seq += 1;
        ClientMsg::Upload {
            client: idents[i].guid.clone(),
            seq: idents[i].acked_seq,
            records: gen.batch(&idents[i].guid, 2),
        }
    };
    let mut handle_us = Vec::new();
    for _ in 0..2_000 {
        let msg = next_upload(&mut gen);
        let t0 = Instant::now();
        black_box(server.handle_deferred(&msg));
        handle_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.layer("server.handle_upload_us", stats::median(&handle_us));
    let guid = next_upload(&mut gen);
    let ClientMsg::Upload { client: guid, .. } = guid else {
        unreachable!("next_upload builds uploads");
    };
    let mut k = 0usize;
    out.layer(
        "server.handle_sync_us",
        stats::time_p50_us(1_000, || {
            k += 1;
            server.handle_deferred(&ClientMsg::Sync {
                client: guid.clone(),
                have: (SESSION_BATCH * k) % 2048,
                want: SESSION_BATCH,
            })
        }),
    );
    out.layer(
        "server.handle_advice_us",
        stats::time_p50_us(1_000, || server.handle_deferred(&advice)),
    );
    let mut n = 0u64;
    out.layer(
        "server.handle_register_us",
        stats::time_p50_us(300, || {
            n += 1;
            server.handle_deferred(&ClientMsg::Register {
                snapshot: MachineSnapshot::study_machine(format!("probe-{n}")),
                token: format!("probe-{seed}-{n}"),
            })
        }),
    );
    // MODELDELTA against the base a MODEL query just served, one model
    // epoch (one upload) behind — the poll a governor makes.
    let model_query = ClientMsg::Model {
        resource: Resource::Cpu,
        task: Some("Word".into()),
    };
    let (mut delta_us, mut delta_bytes, mut full_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..500 {
        let ServerMsg::Model { epoch, sketch, .. } = server.handle(&model_query) else {
            return Err("MODEL query refused".into());
        };
        full_bytes.push(sketch.len() as f64);
        black_box(server.handle_deferred(&next_upload(&mut gen)));
        let poll = ClientMsg::ModelDelta {
            resource: Resource::Cpu,
            task: Some("Word".into()),
            since: epoch,
            basecrc: crc32(sketch.as_bytes()),
        };
        let t0 = Instant::now();
        let (reply, _) = server.handle_deferred(&poll);
        delta_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if let ServerMsg::ModelDelta { delta, .. } = reply {
            delta_bytes.push(delta.len() as f64);
        }
    }
    out.layer("server.handle_modeldelta_us", stats::median(&delta_us));
    out.layer("modelsvc.delta_bytes", stats::median(&delta_bytes));
    out.layer("modelsvc.full_bytes", stats::median(&full_bytes));
    let mut governor = BorrowingGovernor::new(Resource::Cpu, "Word", 0.05, 0.0);
    let endpoint: Arc<dyn Endpoint> = host.server.clone();
    let mut local = LocalTransport::new(endpoint);
    out.layer(
        "client.governor_refresh_us",
        stats::time_p50_us(500, || governor.refresh(&mut local)),
    );
    drop(local);
    drop(host);

    // modelsvc: the model update and the merge, without the server.
    let mut models = ModelStore::new();
    let ClientMsg::Upload { records, .. } = &upload else {
        unreachable!("built as an upload above");
    };
    let observations = observations_of(records);
    out.layer(
        "modelsvc.observe_batch_us",
        stats::time_p50_us(5_000, || models.observe_batch(observations.clone())),
    );
    out.layer(
        "modelsvc.merged_sketch_us",
        stats::time_p50_us(5_000, || models.merged_sketch(Resource::Cpu, Some("Word"))),
    );

    // wal: append, fsync, replay and the checksum.
    let wal_dir = TempDir::new("probe-wal").map_err(io_err)?;
    let config = unsynced_wal();
    let (mut wal, _) = Wal::open(StdIo::new(), wal_dir.path(), config).map_err(io_err)?;
    out.layer(
        "wal.append_us",
        stats::time_p50_us(5_000, || wal.append(&payload)),
    );
    let mut sync_us = Vec::new();
    for _ in 0..200 {
        wal.append(&payload).map_err(io_err)?;
        let t0 = Instant::now();
        wal.sync().map_err(io_err)?;
        sync_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.layer("wal.sync_us", stats::median(&sync_us));
    drop(wal);
    let bytes = procs::dir_bytes(wal_dir.path()) as f64;
    let t0 = Instant::now();
    let reader = WalReader::open(StdIo::new(), wal_dir.path()).map_err(io_err)?;
    let replayed = reader.records().filter(|r| r.is_ok()).count();
    let secs = t0.elapsed().as_secs_f64();
    if replayed != 5_200 {
        return Err(format!("probe journal replayed {replayed} of 5200 records"));
    }
    out.layer("wal.replay_mb_per_s", bytes / 1e6 / secs);
    let mib = vec![0xa5u8; 1 << 20];
    out.layer(
        "wal.crc_mb_per_s",
        1.048_576 / (stats::time_p50_us(50, || crc32(&mib)) / 1e6),
    );

    // pagecache: eight fsync tickets through the disk scheduler.
    let sched = DiskScheduler::new(2, 256);
    let files: Vec<Arc<std::fs::File>> = (0..8)
        .map(|i| std::fs::File::create(wal_dir.path().join(format!("fanout-{i}"))).map(Arc::new))
        .collect::<Result<_, _>>()
        .map_err(io_err)?;
    out.layer(
        "pagecache.sched.fanout_us",
        stats::time_p50_us(100, || {
            let tickets: Vec<_> = files
                .iter()
                .map(|f| {
                    let f = Arc::clone(f);
                    sched.submit(OpKind::Fsync, move || {
                        (&*f).write_all(b"x")?;
                        f.sync_data().map(|_| 1)
                    })
                })
                .collect();
            tickets.into_iter().filter_map(|t| t.wait().ok()).count()
        }),
    );

    // cluster: what one upload costs on the replication channel.
    let mut shipped = Vec::new();
    write_repl_msg(
        &mut shipped,
        &ReplMsg::Entry {
            shard: 0,
            seq: 1,
            bytes: payload.clone(),
        },
    )
    .map_err(io_err)?;
    out.layer("cluster.ship_bytes_per_upload", shipped.len() as f64);

    // telemetry: what watching costs.
    let counter = metrics::counter("benchmark.probe.counter");
    out.layer(
        "telemetry.counter_inc_ns",
        mean_ns(2_000_000, || counter.inc()),
    );
    let histogram = metrics::histogram("benchmark.probe.ns");
    let mut v = 1u64;
    out.layer(
        "telemetry.hist_record_ns",
        mean_ns(2_000_000, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(v >> 40);
        }),
    );
    Ok(())
}
