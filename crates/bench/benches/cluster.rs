//! Replicated-tier benchmarks: what WAL shipping costs the leader's
//! upload path, as a function of the ack mode.
//!
//! Three points on the same workload (concurrent sequenced uploads
//! through the full engine):
//!
//! * `unreplicated` — the plain engine, no replication sink installed.
//! * `repl_local` — `--repl-ack=local`: the leader pushes onto its
//!   in-memory backlog and fans out to the follower, but acks as soon
//!   as its own store accepted the batch.
//! * `repl_quorum` — `--repl-ack=quorum`: every ack additionally waits
//!   for the follower to apply and commit the entry over TCP.
//!
//! The spread between the first two is the shipping overhead (backlog
//! push + channel fan-out); between the last two, the round trip a
//! quorum ack buys its durability with.

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
    fn start(ack: AckMode) -> Tier {
        let tmp = TempDir::new("uucs-bench-cluster");
        let mk = |name: &str, peers: Vec<String>, ack: AckMode| {
            let mut cfg =
                ClusterConfig::new(name, tmp.path().join("epochs"), tmp.path().join(name));
            cfg.peers = peers;
            cfg.ack = ack;
            cfg.gossip_interval = Duration::from_millis(100);
            cfg
        };
        let server = plain_server();
        let leader = ClusterNode::start(
            mk("bench-a", Vec::new(), ack),
            Arc::clone(&server),
            "127.0.0.1:0",
            Role::Leader,
        )
        .expect("leader");
        let follower_srv = plain_server();
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
    group.finish();
}

bench_group!(benches, replication);
bench_main!(benches);
