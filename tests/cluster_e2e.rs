//! End-to-end chaos tests of the replicated tier: kill the leader under
//! a live client fleet and prove no acknowledged upload is lost or
//! duplicated on the promoted follower; partition a follower and prove
//! bounded staleness plus automatic catch-up via WAL backfill.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uucs::client::{ClientTransport, ResilientTransport, RetryPolicy};
use uucs::cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs::protocol::wire::Endpoint;
use uucs::protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
use uucs::server::tcp::{self, ServeConfig};
use uucs::server::{StoreSet, UucsServer};
use uucs::wal::{SyncPolicy, WalConfig};
use uucs::wire::conn::negotiate;
use uucs::wire::frame::{read_server_frame, write_client_frame};
use uucs_chaos::{ChaosPolicy, ChaosProxy};
use uucs_harness::TempDir;

fn rec(client: &str, tag: &str) -> RunRecord {
    RunRecord {
        client: client.into(),
        user: String::new(),
        testcase: tag.into(),
        task: "IE".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 10.0,
        last_levels: vec![(uucs::testcase::Resource::Cpu, vec![2.0])],
        monitor: MonitorSummary::default(),
    }
}

fn wait_until(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fresh_server() -> Arc<UucsServer> {
    Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 9))
}

/// An engine the way `uucs-clusterd` builds its own: journals under
/// `dir` with no fsync of their own, durability owned by the group
/// committer — so acks ride commit tickets, quorum marks included.
fn durable_server(dir: &std::path::Path) -> Arc<UucsServer> {
    let journals = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (stores, _) = StoreSet::open(&dir.join("wal"), journals, 4).unwrap();
    Arc::new(UucsServer::with_store_set(stores, 9).with_group_commit(Duration::from_millis(1)))
}

fn node_config(
    name: &str,
    dir: &TempDir,
    peers: Vec<String>,
    ack: AckMode,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        name,
        dir.path().join("epochs"),
        dir.path().join(name),
    );
    cfg.peers = peers;
    cfg.ack = ack;
    cfg.gossip_interval = Duration::from_millis(40);
    cfg.promote_after = 2;
    cfg
}

/// Retries `exchange` until it answers (rides out the failover window).
/// A quorum leader torn down under a waiting handler refuses the upload
/// (`replication failed`) rather than acking a copy no follower holds;
/// like a dropped connection that is a failed attempt, not an answer.
fn must_exchange(
    t: &mut ResilientTransport,
    msg: &ClientMsg,
    deadline: Duration,
) -> ServerMsg {
    let stop = Instant::now() + deadline;
    loop {
        let failure = match t.exchange(msg) {
            Ok(ServerMsg::Error(e)) if e.starts_with("replication failed") => e,
            Ok(reply) => return reply,
            Err(e) => e.to_string(),
        };
        assert!(
            Instant::now() < stop,
            "exchange never succeeded before the deadline: {failure}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The headline robustness proof. A leader (quorum acks) and a follower
/// each serve a client front end; a fleet of clients uploads through a
/// chaos proxy pointed at the leader, with the follower's address as
/// the failover target. Mid-fleet the leader is killed abruptly —
/// client front end torn down with a zero drain deadline, replication
/// sockets severed — while uploads are in flight. The follower detects
/// the silence, wins the takeover file, and starts serving; every
/// upload any client ever saw acknowledged must be present on the
/// promoted node exactly once, and the fleet must finish against it.
#[test]
fn kill_the_leader_loses_no_acknowledged_upload() {
    const CLIENTS: usize = 6;
    const BATCHES: u64 = 12;

    let dir = TempDir::new("cluster-e2e-kill");
    // Group commit, as `uucs-clusterd` runs: every ack of the fleet
    // waits on a commit ticket carrying a quorum mark, and an entry is
    // shipped before the leader's own fsync covers it.
    let leader_srv = durable_server(&dir.path().join("a"));
    // Quorum acks: an `ACK` a client saw implies the follower applied
    // the batch, so killing the leader cannot erase it.
    let leader = ClusterNode::start(
        node_config("a", &dir, vec![], AckMode::Quorum),
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        Role::Leader,
    )
    .unwrap();
    let leader_front = tcp::serve_with(
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        ServeConfig {
            // The kill must be abrupt: no draining of in-flight
            // connections, like a SIGKILL mid-group-commit.
            drain_deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let follower_srv = fresh_server();
    let follower = ClusterNode::start(
        node_config("b", &dir, vec![leader.repl_addr().to_string()], AckMode::Local),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )
    .unwrap();
    let follower_front = tcp::serve(Arc::clone(&follower_srv), "127.0.0.1:0").unwrap();

    // Don't start the fleet until replication is live, or every early
    // quorum wait burns its full timeout.
    wait_until("follower to connect", Duration::from_secs(10), || {
        !leader.hub().follower_nodes().is_empty()
    });

    // One more client, registered while the tier is whole; its only
    // upload is made below, just before the kill.
    let straggler_snapshot = MachineSnapshot::study_machine("straggler");
    let ServerMsg::Id { id: straggler, .. } = leader_srv.handle(&ClientMsg::Register {
        snapshot: straggler_snapshot.clone(),
        token: "tok-straggler".into(),
    }) else {
        panic!("straggler registration refused");
    };
    let straggler_upload = ClientMsg::Upload {
        client: straggler.clone(),
        seq: 1,
        records: vec![rec(&straggler, "straggler-b1")],
    };

    // Client traffic reaches the leader through a chaos proxy (light
    // faults with a budget, so the network heals), and fails over to
    // the follower's front end.
    let proxy = ChaosProxy::start(
        leader_front.addr(),
        ChaosPolicy::all(0.05, 42).with_budget(30).with_label("fleet"),
    )
    .unwrap();
    let addrs = vec![proxy.addr().to_string(), follower_front.addr().to_string()];

    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let kill_gate = Arc::new(AtomicBool::new(false));
    let leader_dead = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addrs = addrs.clone();
            let acked = Arc::clone(&acked);
            let kill_gate = Arc::clone(&kill_gate);
            let leader_dead = Arc::clone(&leader_dead);
            std::thread::spawn(move || {
                let mut t = ResilientTransport::multi(addrs)
                    .with_timeout(Duration::from_secs(1))
                    .with_policy(RetryPolicy {
                        max_attempts: 8,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(50),
                        seed: c as u64,
                    });
                let id = match must_exchange(
                    &mut t,
                    &ClientMsg::Register {
                        snapshot: MachineSnapshot::study_machine(format!("m{c}")),
                        token: format!("tok-{c}"),
                    },
                    Duration::from_secs(30),
                ) {
                    ServerMsg::Id { id, .. } => id,
                    other => panic!("register answered {other:?}"),
                };
                for seq in 1..=BATCHES {
                    let tag = format!("c{c}-b{seq}");
                    let reply = must_exchange(
                        &mut t,
                        &ClientMsg::Upload {
                            client: id.clone(),
                            seq,
                            records: vec![rec(&id, &tag)],
                        },
                        Duration::from_secs(30),
                    );
                    match reply {
                        ServerMsg::Ack(1) => acked.lock().unwrap().push(tag),
                        other => panic!("upload answered {other:?}"),
                    }
                    if seq == BATCHES / 3 {
                        // A third of the way in, signal the killer and
                        // hold until the leader is actually down — so
                        // every worker's remaining batches cross the
                        // failover boundary.
                        kill_gate.store(true, Ordering::SeqCst);
                        let gate = Instant::now() + Duration::from_secs(30);
                        while !leader_dead.load(Ordering::SeqCst) {
                            assert!(Instant::now() < gate, "killer never fired");
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                id
            })
        })
        .collect();

    // Kill the leader once the fleet is mid-flight: front end torn down
    // with zero drain (in-flight connections die mid-exchange), then
    // the replication tier severed.
    wait_until("fleet to reach mid-flight", Duration::from_secs(30), || {
        kill_gate.load(Ordering::SeqCst)
    });
    // Ship-before-fsync, caught in the act: the straggler's batch is
    // appended and shipped, its reply provisional on a ticket nobody
    // will redeem — the leader dies first, so the client never sees an
    // `ACK` for an entry the follower may or may not hold.
    let (provisional, ticket) = leader_srv.handle_deferred(&straggler_upload);
    assert_eq!(provisional, ServerMsg::Ack(1));
    assert!(
        ticket.is_some_and(|t| t.quorum.is_some()),
        "the ack must be waiting on the commit ticket, quorum mark attached"
    );
    leader_front.shutdown();
    leader.shutdown();
    leader_dead.store(true, Ordering::SeqCst);

    let ids: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let acked = acked.lock().unwrap().clone();

    // The follower must have promoted itself to finish the fleet.
    assert!(follower.was_promoted(), "follower never promoted");
    assert_eq!(follower.role(), Role::Leader);

    // Exactly-once: every acknowledged upload is present on the
    // promoted node once — none lost to the kill, none duplicated by
    // the retries that rode through it.
    let records = follower_srv.results().unwrap();
    for tag in &acked {
        let copies = records.iter().filter(|r| &r.testcase == tag).count();
        assert_eq!(copies, 1, "acked upload {tag} found {copies} times");
    }
    // Every client identity survived the failover too, and the whole
    // fleet finished: all batches acked, all on the promoted node.
    for id in &ids {
        assert_eq!(
            follower_srv.applied_seq(id),
            BATCHES,
            "client {id} lost part of its seq horizon"
        );
    }
    assert_eq!(acked.len(), CLIENTS * BATCHES as usize);
    // No pool worker ever blocked on the follower: every quorum wait of
    // the fleet rode its commit ticket (the one blocking wait is the
    // straggler's in-process registration).
    assert_eq!(leader.hub().blocking_quorum_waits(), 1);

    // The never-acked upload is retried against the promoted node like
    // any spooled batch — same identity, same sequence number — and is
    // absorbed whether or not the shipped copy arrived before the kill:
    // both nodes hold it once.
    let mut t = ResilientTransport::multi(vec![follower_front.addr().to_string()])
        .with_timeout(Duration::from_secs(1));
    let again = must_exchange(
        &mut t,
        &ClientMsg::Register {
            snapshot: straggler_snapshot,
            token: "tok-straggler".into(),
        },
        Duration::from_secs(30),
    );
    assert!(
        matches!(&again, ServerMsg::Id { id, .. } if *id == straggler),
        "{again:?}"
    );
    let retried = must_exchange(&mut t, &straggler_upload, Duration::from_secs(30));
    assert_eq!(retried, ServerMsg::Ack(1));
    for (node, srv) in [
        ("old leader", &leader_srv),
        ("promoted follower", &follower_srv),
    ] {
        let copies = srv
            .results()
            .unwrap()
            .iter()
            .filter(|r| r.testcase == "straggler-b1")
            .count();
        assert_eq!(
            copies, 1,
            "{node} holds the straggler's batch {copies} times"
        );
        assert_eq!(srv.applied_seq(&straggler), 1);
    }

    let stats = proxy.shutdown();
    assert!(stats.connections > 0, "the fleet never touched the proxy");
    follower_front.shutdown();
    follower.shutdown();
}

/// Version skew across a failover: one legacy text client and one
/// wire-v2 (auto-negotiating) client ride the same leader kill. The
/// binary client renegotiates per address — it lands on the promoted
/// follower speaking v2 again — while the text client is served
/// byte-for-byte v1 throughout. Exactly-once still holds for both.
#[test]
fn version_skew_clients_survive_failover_with_renegotiation() {
    use uucs::client::WireMode;
    const BATCHES: u64 = 6;

    let dir = TempDir::new("cluster-e2e-skew");
    let leader_srv = fresh_server();
    let leader = ClusterNode::start(
        node_config("a", &dir, vec![], AckMode::Quorum),
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        Role::Leader,
    )
    .unwrap();
    let leader_front = tcp::serve_with(
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        ServeConfig {
            drain_deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let follower_srv = fresh_server();
    let follower = ClusterNode::start(
        node_config("b", &dir, vec![leader.repl_addr().to_string()], AckMode::Local),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )
    .unwrap();
    let follower_front = tcp::serve(Arc::clone(&follower_srv), "127.0.0.1:0").unwrap();
    wait_until("follower to connect", Duration::from_secs(10), || {
        !leader.hub().follower_nodes().is_empty()
    });

    let addrs = vec![
        leader_front.addr().to_string(),
        follower_front.addr().to_string(),
    ];
    let transport = |wire: WireMode, seed: u64| {
        ResilientTransport::multi(addrs.clone())
            .with_wire_mode(wire)
            .with_timeout(Duration::from_secs(1))
            .with_policy(RetryPolicy {
                max_attempts: 8,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(50),
                seed,
            })
    };
    let mut legacy = transport(WireMode::Text, 1);
    let mut modern = transport(WireMode::Auto, 2);
    let register = |t: &mut ResilientTransport, name: &str| -> String {
        match must_exchange(
            t,
            &ClientMsg::Register {
                snapshot: MachineSnapshot::study_machine(name),
                token: format!("tok-{name}"),
            },
            Duration::from_secs(30),
        ) {
            ServerMsg::Id { id, .. } => id,
            other => panic!("register answered {other:?}"),
        }
    };
    let legacy_id = register(&mut legacy, "legacy");
    let modern_id = register(&mut modern, "modern");
    assert_eq!(
        legacy.negotiated_wire(),
        Some(1),
        "text mode speaks v1 without ever sending HELLO"
    );
    assert_eq!(
        modern.negotiated_wire(),
        Some(2),
        "auto mode must land on wire v2 against a v2 leader"
    );

    let upload = |t: &mut ResilientTransport, id: &str, seq: u64, tag: String| {
        match must_exchange(
            t,
            &ClientMsg::Upload {
                client: id.to_string(),
                seq,
                records: vec![rec(id, &tag)],
            },
            Duration::from_secs(30),
        ) {
            ServerMsg::Ack(1) => {}
            other => panic!("upload answered {other:?}"),
        }
    };
    for seq in 1..=BATCHES / 2 {
        upload(&mut legacy, &legacy_id, seq, format!("legacy-b{seq}"));
        upload(&mut modern, &modern_id, seq, format!("modern-b{seq}"));
    }

    // The kill: abrupt, mid-session for both framings.
    leader_front.shutdown();
    leader.shutdown();

    for seq in BATCHES / 2 + 1..=BATCHES {
        upload(&mut legacy, &legacy_id, seq, format!("legacy-b{seq}"));
        upload(&mut modern, &modern_id, seq, format!("modern-b{seq}"));
    }
    assert!(follower.was_promoted(), "follower never promoted");
    assert_eq!(
        modern.negotiated_wire(),
        Some(2),
        "the fresh connection to the promoted follower must renegotiate v2"
    );
    assert_eq!(legacy.negotiated_wire(), Some(1));

    // Exactly-once on the promoted node, both framings.
    let records = follower_srv.results().unwrap();
    for who in ["legacy", "modern"] {
        for seq in 1..=BATCHES {
            let tag = format!("{who}-b{seq}");
            let copies = records.iter().filter(|r| r.testcase == tag).count();
            assert_eq!(copies, 1, "upload {tag} found {copies} times");
        }
    }
    assert_eq!(follower_srv.applied_seq(&legacy_id), BATCHES);
    assert_eq!(follower_srv.applied_seq(&modern_id), BATCHES);

    legacy.bye();
    modern.bye();
    follower_front.shutdown();
    follower.shutdown();
}

/// Bounded staleness and automatic catch-up. A follower in sync with
/// the leader is partitioned (its node torn down); the leader keeps
/// committing — replication lag is visible but the leader stays
/// available (quorum degrades to local with a counted timeout). When
/// the follower returns it catches up purely from the leader's
/// backlog tail, converging to byte-equal record sets.
#[test]
fn partitioned_follower_catches_up_from_the_wal_tail() {
    let dir = TempDir::new("cluster-e2e-partition");
    let leader_srv = fresh_server();
    let leader = ClusterNode::start(
        node_config("a", &dir, vec![], AckMode::Local),
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        Role::Leader,
    )
    .unwrap();

    let follower_srv = fresh_server();
    let follower = ClusterNode::start(
        node_config("b", &dir, vec![leader.repl_addr().to_string()], AckMode::Local),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )
    .unwrap();

    let (reply, _) = leader_srv.handle_deferred(&ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine("m1"),
        token: "tok-1".into(),
    });
    let id = match reply {
        ServerMsg::Id { id, .. } => id,
        other => panic!("register answered {other:?}"),
    };
    let upload = |seq: u64, tag: &str| {
        let (reply, _) = leader_srv.handle_deferred(&ClientMsg::Upload {
            client: id.clone(),
            seq,
            records: vec![rec(&id, tag)],
        });
        assert!(matches!(reply, ServerMsg::Ack(1)));
    };

    for seq in 1..=5u64 {
        upload(seq, &format!("pre-{seq}"));
    }
    wait_until("initial sync", Duration::from_secs(10), || {
        follower_srv.result_count() == 5
    });

    // Partition: the follower drops off; the leader keeps committing.
    follower.shutdown();
    drop(follower);
    for seq in 6..=20u64 {
        upload(seq, &format!("dark-{seq}"));
    }
    // Staleness is bounded by what was synced pre-partition — the
    // follower's stale store still answers (read-only availability),
    // it just lags.
    assert_eq!(follower_srv.result_count(), 5);
    // The leader learns of the hang-up from its reader thread, not from
    // the uploads: fifteen in-memory pushes can finish before it does
    // (they used to pay a log write each, which hid the race).
    wait_until("the leader to notice the partition", Duration::from_secs(10), || {
        leader.hub().min_acked(0).is_none()
    });

    // Heal: same node name, same data dir (progress file intact), same
    // epoch. Fifteen small batches are far inside the backlog, so
    // catch-up is a pure tail resend — no second snapshot (the first
    // was the cold join).
    assert_eq!(leader.hub().backfills(), (0, 1), "(tail, snapshot)");
    let follower = ClusterNode::start(
        node_config("b", &dir, vec![leader.repl_addr().to_string()], AckMode::Local),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )
    .unwrap();
    wait_until("catch-up after the partition", Duration::from_secs(10), || {
        follower_srv.result_count() == 20
    });
    assert_eq!(follower_srv.applied_seq(&id), 20);
    assert_eq!(leader.hub().backfills(), (1, 1), "(tail, snapshot)");

    // Byte-equal convergence: same records, same per-client horizon.
    let mut l: Vec<String> = leader_srv.results().unwrap().iter().map(|r| r.testcase.clone()).collect();
    let mut f: Vec<String> = follower_srv.results().unwrap().iter().map(|r| r.testcase.clone()).collect();
    l.sort();
    f.sort();
    assert_eq!(l, f);

    follower.shutdown();
    leader.shutdown();
}

/// Depth-32 pipelining under quorum acks: one binary connection writes
/// 32 uploads back to back at a group-commit leader with a group-commit
/// follower behind it. Every reply is an `ACK`, in request order; every
/// batch is on both nodes exactly once by the time its `ACK` is read;
/// and the worker serving the connection never sat in a quorum wait —
/// all 33 acks (the registration's too) were redeemed off commit
/// tickets, so both nodes are free to batch.
#[test]
fn pipelined_quorum_uploads_are_acked_in_order_off_commit_tickets() {
    const DEPTH: u32 = 32;
    let dir = TempDir::new("cluster-e2e-pipelined");
    let leader_srv = durable_server(&dir.path().join("a"));
    let leader = ClusterNode::start(
        node_config("a", &dir, vec![], AckMode::Quorum),
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        Role::Leader,
    )
    .unwrap();
    let leader_front = tcp::serve(Arc::clone(&leader_srv), "127.0.0.1:0").unwrap();
    let follower_srv = durable_server(&dir.path().join("b"));
    let follower = ClusterNode::start(
        node_config(
            "b",
            &dir,
            vec![leader.repl_addr().to_string()],
            AckMode::Local,
        ),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )
    .unwrap();
    wait_until("follower to connect", Duration::from_secs(10), || {
        !leader.hub().follower_nodes().is_empty()
    });

    let mut writer = std::net::TcpStream::connect(leader_front.addr()).unwrap();
    writer.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(writer.try_clone().unwrap());
    negotiate(
        &mut writer,
        &mut reader,
        uucs::protocol::WIRE_VERSION_BINARY,
    )
    .expect("negotiate");
    let register = ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine("pipeline"),
        token: "tok-pipeline".into(),
    };
    write_client_frame(&mut writer, 1, &register).unwrap();
    let (_, reply) = read_server_frame(&mut reader).unwrap();
    let ServerMsg::Id { id, .. } = reply else {
        panic!("registration failed: {reply:?}");
    };
    let tag = |k: u32| format!("deep-{k}");
    for k in 0..DEPTH {
        let upload = ClientMsg::Upload {
            client: id.clone(),
            seq: u64::from(k) + 1,
            records: vec![rec(&id, &tag(k))],
        };
        write_client_frame(&mut writer, 2 + k, &upload).expect("pipelined frame");
    }
    for k in 0..DEPTH {
        let (req, reply) = read_server_frame(&mut reader).expect("pipelined reply");
        assert_eq!(req, 2 + k, "replies must come back in request order");
        assert_eq!(reply, ServerMsg::Ack(1));
    }
    assert_eq!(
        leader.hub().blocking_quorum_waits(),
        0,
        "a worker blocked on the follower"
    );
    assert_eq!(
        leader.hub().quorum_timeouts(),
        0,
        "an ack degraded to local"
    );
    // A quorum ack means the follower holds it already: no waiting here.
    for (node, srv) in [("leader", &leader_srv), ("follower", &follower_srv)] {
        let records = srv.results().unwrap();
        assert_eq!(records.len(), DEPTH as usize, "{node}");
        for k in 0..DEPTH {
            let copies = records.iter().filter(|r| r.testcase == tag(k)).count();
            assert_eq!(copies, 1, "{node} holds {} {copies} times", tag(k));
        }
        assert_eq!(srv.applied_seq(&id), u64::from(DEPTH), "{node}");
    }
    write_client_frame(&mut writer, 99, &ClientMsg::Bye).ok();
    leader_front.shutdown();
    follower.shutdown();
    leader.shutdown();
}
