//! Replicated-tier benchmarks: what WAL shipping costs the leader's
//! upload path, as a function of the ack mode.
//!
//! Four points on the same workload (32 sequenced uploads per round
//! through the full engine):
//!
//! * `unreplicated` — the plain engine, no replication sink installed.
//! * `repl_local` — `--repl-ack=local`: the leader pushes onto its
//!   in-memory backlog and fans out to the follower, but acks as soon
//!   as its own store accepted the batch.
//! * `repl_quorum` — `--repl-ack=quorum`: every ack additionally waits
//!   for the follower to apply and commit the entry over TCP.
//! * `quorum_pipelined_depth32` — the same 32 quorum-acked uploads the
//!   way one depth-32 connection makes them on `uucs-clusterd`'s own
//!   engines (journals under group commit on both nodes): all handled
//!   first, each ack then redeemed off its commit ticket — so the
//!   leader's fsyncs, the follower's and the round trips batch.
//!
//! The spread between the first two is the shipping overhead (backlog
//! push + channel fan-out); between the second and third, the round
//! trip a quorum ack buys its durability with; the last row is what
//! depth buys back (it pays real fsyncs the in-memory rows do not, so
//! read it against `repl_quorum` for scaling, not for absolute cost).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs_harness::bench::quick_mode;
use uucs_harness::{bench_group, bench_main, Criterion, TempDir, Throughput};
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
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

fn plain_server() -> Arc<UucsServer> {
    Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 9).without_model_updates())
}

/// An engine as `uucs-clusterd` opens it: journals with no fsync of
/// their own, a group committer owning durability.
fn committed_server(dir: &std::path::Path) -> Arc<UucsServer> {
    let journals = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (stores, _) = StoreSet::open(&dir.join("wal"), journals, 4).expect("open journals");
    let server = UucsServer::with_store_set(stores, 9).without_model_updates();
    Arc::new(server.with_group_commit(Duration::from_millis(1)))
}

fn register(server: &UucsServer, host: &str) -> String {
    match server.handle(&ClientMsg::register(MachineSnapshot::study_machine(host))) {
        ServerMsg::Id { id, .. } => id,
        other => panic!("registration failed: {other:?}"),
    }
}

/// A live two-node tier in scratch space: leader under `ack`, follower
/// connected and applying. Returned handles keep both alive.
struct Tier {
    leader: Arc<ClusterNode>,
    follower: Arc<ClusterNode>,
    server: Arc<UucsServer>,
    _tmp: TempDir,
}

impl Tier {
    /// A tier of in-memory engines.
    fn start(ack: AckMode) -> Tier {
        Tier::start_with(ack, |_| plain_server())
    }

    /// A tier whose engines `engine` builds, each under its node's
    /// data directory.
    fn start_with(ack: AckMode, engine: impl Fn(&std::path::Path) -> Arc<UucsServer>) -> Tier {
        let tmp = TempDir::new("uucs-bench-cluster");
        let mk = |name: &str, peers: Vec<String>, ack: AckMode| {
            let mut cfg =
                ClusterConfig::new(name, tmp.path().join("epochs"), tmp.path().join(name));
            cfg.peers = peers;
            cfg.ack = ack;
            cfg
        };
        let server = engine(&tmp.path().join("bench-a"));
        let leader = ClusterNode::start(
            mk("bench-a", Vec::new(), ack),
            Arc::clone(&server),
            "127.0.0.1:0",
            Role::Leader,
        )
        .expect("leader");
        let follower_srv = engine(&tmp.path().join("bench-b"));
        let follower = ClusterNode::start(
            mk("bench-b", vec![leader.repl_addr().to_string()], AckMode::Local),
            follower_srv,
            "127.0.0.1:0",
            Role::Follower,
        )
        .expect("follower");
        while leader.hub().follower_nodes().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        Tier {
            leader,
            follower,
            server,
            _tmp: tmp,
        }
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        self.follower.shutdown();
        self.leader.shutdown();
    }
}

/// Concurrent acked uploads/sec on the leader, unreplicated vs shipped
/// vs quorum-acked.
fn replication(c: &mut Criterion) {
    let threads = if quick_mode() { 4 } else { 8 };
    let uploads_each = 4usize;
    let mut group = c.benchmark_group("cluster/replication");
    group.sample_size(10);
    group.throughput(Throughput::Elements((threads * uploads_each) as u64));

    let run_rounds = |server: &Arc<UucsServer>, ids: &[String], round: u64| {
        std::thread::scope(|s| {
            for id in ids {
                let server = Arc::clone(server);
                s.spawn(move || {
                    for u in 0..uploads_each {
                        let msg = ClientMsg::Upload {
                            client: id.clone(),
                            seq: round * uploads_each as u64 + u as u64 + 1,
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
    };

    group.bench_function(format!("{threads}x{uploads_each}_unreplicated"), |b| {
        let server = plain_server();
        let ids: Vec<String> = (0..threads)
            .map(|t| register(&server, &format!("bench-{t}")))
            .collect();
        let mut round = 0u64;
        b.iter(|| {
            run_rounds(&server, &ids, round);
            round += 1;
            black_box(server.result_count())
        })
    });

    for (name, ack) in [("repl_local", AckMode::Local), ("repl_quorum", AckMode::Quorum)] {
        group.bench_function(format!("{threads}x{uploads_each}_{name}"), |b| {
            let tier = Tier::start(ack);
            let ids: Vec<String> = (0..threads)
                .map(|t| register(&tier.server, &format!("bench-{t}")))
                .collect();
            let mut round = 0u64;
            b.iter(|| {
                run_rounds(&tier.server, &ids, round);
                round += 1;
                black_box(tier.server.result_count())
            })
        });
    }

    // One pipelined connection's worth: the window is handled before
    // any ack is redeemed, as the TCP pool does for a depth-32 client.
    let depth = 32u64;
    group.throughput(Throughput::Elements(depth));
    group.bench_function("quorum_pipelined_depth32", |b| {
        let tier = Tier::start_with(AckMode::Quorum, committed_server);
        let committer = tier.server.group_committer().expect("group commit is on");
        let id = register(&tier.server, "bench-deep");
        let mut next_seq = 1u64;
        b.iter(|| {
            let window: Vec<_> = (next_seq..next_seq + depth)
                .map(|seq| {
                    let msg = ClientMsg::Upload {
                        client: id.clone(),
                        seq,
                        records: vec![record(&id, seq as usize)],
                    };
                    match tier.server.handle_deferred(&msg) {
                        (ServerMsg::Ack(_), Some(ticket)) => ticket,
                        other => panic!("upload not ticketed: {other:?}"),
                    }
                })
                .collect();
            next_seq += depth;
            for ticket in window {
                committer.wait(ticket).expect("quorum ack");
            }
            black_box(tier.server.result_count())
        })
    });
    group.finish();
}

bench_group!(benches, replication);
bench_main!(benches);
