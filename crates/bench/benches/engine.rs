//! Server-engine benchmarks: what the sharded group-commit worker-pool
//! engine buys over the original design.
//!
//! Two groups:
//!
//! * `engine/fsync` — durable upload throughput with per-append fsync
//!   (`SyncPolicy::Always`, the original `--wal` ack path) versus group
//!   commit (appends run unsynced, a commit thread batches all pending
//!   appends into one fsync per shard, acks wait on the watermark).
//!   Same durability guarantee, amortized cost.
//! * `engine/tcp` — pipelined upload rounds over live TCP connections
//!   against the worker pool (the row keeps the `worker_pool` name it
//!   had beside the deleted thread-per-connection engine, so the ledger
//!   series continues).

use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use uucs_harness::bench::quick_mode;
use uucs_harness::{bench_group, bench_main, Criterion, TempDir, Throughput};
use uucs_protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs_protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
use uucs_server::tcp::{self, ServeConfig};
use uucs_server::{StoreSet, UucsServer};
use uucs_wal::{SyncPolicy, WalConfig};

fn record(client: &str, i: usize) -> RunRecord {
    RunRecord {
        client: client.into(),
        user: format!("u{i:03}"),
        testcase: "cpu-ramp-7-120".into(),
        task: "Word".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 60.0,
        last_levels: vec![(uucs_testcase::Resource::Cpu, vec![1.0, 1.25, 1.5])],
        monitor: MonitorSummary::default(),
    }
}

fn wal_server(dir: &std::path::Path, shards: usize, group_commit: bool) -> UucsServer {
    let wal = WalConfig {
        segment_bytes: 1024 * 1024,
        sync: if group_commit {
            SyncPolicy::Never
        } else {
            SyncPolicy::Always
        },
    };
    let (stores, _) = StoreSet::open(dir, wal, shards).expect("open sharded stores");
    let server = UucsServer::with_store_set(stores, 9).without_model_updates();
    if group_commit {
        server.with_group_commit(Duration::from_micros(200))
    } else {
        server
    }
}

fn register(server: &UucsServer, host: &str) -> String {
    match server.handle(&ClientMsg::register(MachineSnapshot::study_machine(host))) {
        ServerMsg::Id { id, .. } => id,
        other => panic!("registration failed: {other:?}"),
    }
}

/// Durable acked uploads/sec: per-append fsync vs one batched fsync per
/// group-commit pass. Eight submitter threads ack concurrently — the
/// group committer folds their appends into a shared fsync, the
/// per-append path pays one each.
fn fsync(c: &mut Criterion) {
    let threads = if quick_mode() { 8 } else { 32 };
    let uploads_each = 2usize;
    let mut group = c.benchmark_group("engine/fsync");
    group.sample_size(10);
    group.throughput(Throughput::Elements((threads * uploads_each) as u64));
    for (name, group_commit) in [("per_append", false), ("group_commit", true)] {
        group.bench_function(format!("{threads}x{uploads_each}_uploads_{name}"), |b| {
            let tmp = TempDir::new("uucs-bench-engine-fsync");
            let server = Arc::new(wal_server(tmp.path(), 4, group_commit));
            let ids: Vec<String> = (0..threads)
                .map(|t| register(&server, &format!("bench-{t}")))
                .collect();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                std::thread::scope(|s| {
                    for id in &ids {
                        let server = &server;
                        s.spawn(move || {
                            for u in 0..uploads_each {
                                let msg = ClientMsg::Upload {
                                    client: id.clone(),
                                    seq: round * uploads_each as u64 + u as u64,
                                    records: vec![record(id, u)],
                                };
                                match server.handle(&msg) {
                                    ServerMsg::Ack(_) => {}
                                    other => panic!("upload not acked: {other:?}"),
                                }
                            }
                        });
                    }
                });
                black_box(server.result_count())
            })
        });
    }
    group.finish();
}

struct BenchConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    id: String,
    seq: u64,
}

/// One pipelined upload round over live TCP against the worker pool,
/// in-memory server state behind it.
fn tcp_round(c: &mut Criterion) {
    let conns = if quick_mode() { 8 } else { 48 };
    let mut group = c.benchmark_group("engine/tcp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(conns as u64));
    group.bench_function(format!("{conns}_conn_upload_round_worker_pool"), |b| {
        let server = Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 9));
        let handle = tcp::serve_with(
            server,
            "127.0.0.1:0",
            ServeConfig {
                max_connections: conns + 8,
                ..ServeConfig::default()
            },
        )
        .expect("serve");
        let mut fleet: Vec<BenchConn> = (0..conns)
            .map(|i| {
                let stream = TcpStream::connect(handle.addr()).unwrap();
                stream.set_nodelay(true).unwrap();
                let writer = stream.try_clone().unwrap();
                let mut conn = BenchConn {
                    writer,
                    reader: BufReader::new(stream),
                    id: String::new(),
                    seq: 0,
                };
                write_client_msg(
                    &mut conn.writer,
                    &ClientMsg::register(MachineSnapshot::study_machine(format!("b{i}"))),
                )
                .unwrap();
                match read_server_msg(&mut conn.reader).unwrap() {
                    ServerMsg::Id { id, .. } => conn.id = id,
                    other => panic!("{other:?}"),
                }
                conn
            })
            .collect();
        b.iter(|| {
            // Write an upload on every connection, then drain every
            // ack — the whole fleet is in flight at once.
            for conn in fleet.iter_mut() {
                conn.seq += 1;
                write_client_msg(
                    &mut conn.writer,
                    &ClientMsg::Upload {
                        client: conn.id.clone(),
                        seq: conn.seq,
                        records: vec![record(&conn.id, 0)],
                    },
                )
                .unwrap();
            }
            let mut acked = 0u32;
            for conn in fleet.iter_mut() {
                if matches!(read_server_msg(&mut conn.reader).unwrap(), ServerMsg::Ack(_)) {
                    acked += 1;
                }
            }
            assert_eq!(acked as usize, conns);
            black_box(acked)
        });
        drop(fleet);
        handle.shutdown();
    });
    group.finish();
}

bench_group!(benches, fsync, tcp_round);
bench_main!(benches);
