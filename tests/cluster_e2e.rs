//! End-to-end chaos tests of the replicated tier: kill the leader under
//! a live client fleet and prove no acknowledged upload is lost or
//! duplicated on the promoted follower; partition a follower and prove
//! bounded staleness plus automatic catch-up via WAL backfill.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
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
use uucs_harness::invariants::{exactly_once, same_on_every_node, Ledger, Violation, Within};
use uucs_harness::{eventually, TempDir};

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

/// The testcase tag of every record `server` holds, sorted.
fn tags_held(server: &UucsServer) -> Vec<String> {
    let mut tags: Vec<String> = server.results().unwrap().into_iter().map(|r| r.testcase).collect();
    tags.sort();
    tags
}

fn fresh_server() -> Arc<UucsServer> {
    Arc::new(UucsServer::with_store_set(StoreSet::in_memory(4), 9))
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

/// Starts node `name` around `server` in `role`, acking under `ack`.
fn start(
    dir: &TempDir,
    name: &str,
    server: &Arc<UucsServer>,
    role: Role,
    ack: AckMode,
    peers: Vec<String>,
) -> Arc<ClusterNode> {
    let mut cfg = ClusterConfig::new(name, dir.path().join("epochs"), dir.path().join(name));
    cfg.peers = peers;
    cfg.ack = ack;
    // Long enough that no quorum ack degrades to local on a loaded host:
    // every ack a quorum test reads is checked against the follower.
    cfg.ack_timeout = Duration::from_secs(60);
    cfg.promote_after = 2;
    ClusterNode::start(cfg, Arc::clone(server), "127.0.0.1:0", role).unwrap()
}

/// Starts node `a` leading around `server`.
fn lead(dir: &TempDir, server: &Arc<UucsServer>, ack: AckMode) -> Arc<ClusterNode> {
    start(dir, "a", server, Role::Leader, ack, vec![])
}

/// Starts node `b` following `leader` around `server`, and waits for it
/// to connect — a quorum wait with no follower yet burns its timeout.
/// Its data directory, and so its progress file, is the same on every
/// call.
fn follow(dir: &TempDir, leader: &ClusterNode, server: &Arc<UucsServer>) -> Arc<ClusterNode> {
    let peers = vec![leader.repl_addr().to_string()];
    let follower = start(dir, "b", server, Role::Follower, AckMode::Local, peers);
    eventually("the follower to connect", Duration::from_secs(10), || {
        !leader.hub().follower_nodes().is_empty()
    });
    follower
}

/// A client front end whose shutdown is abrupt: no draining of
/// in-flight connections, like a SIGKILL mid-group-commit.
fn killable_front(server: &Arc<UucsServer>) -> tcp::ServerHandle {
    let cfg = ServeConfig {
        drain_deadline: Duration::ZERO,
        ..ServeConfig::default()
    };
    tcp::serve_with(Arc::clone(server), "127.0.0.1:0", cfg).unwrap()
}

/// A client that fails over along `addrs`, retrying fast.
fn client(addrs: &[String], seed: u64) -> ResilientTransport {
    ResilientTransport::multi(addrs.to_vec())
        .with_timeout(Duration::from_secs(1))
        .with_policy(RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed,
        })
}

/// Retries `exchange` until it answers (rides out the failover window).
/// A quorum leader torn down under a waiting handler refuses the upload
/// (`replication failed`) rather than acking a copy no follower holds;
/// like a dropped connection that is a failed attempt, not an answer.
fn must_exchange(t: &mut ResilientTransport, msg: &ClientMsg) -> ServerMsg {
    let mut reply = None;
    eventually("an exchange to succeed", Duration::from_secs(30), || {
        reply = match t.exchange(msg) {
            Ok(ServerMsg::Error(e)) if e.starts_with("replication failed") => None,
            answered => answered.ok(),
        };
        reply.is_some()
    });
    reply.unwrap()
}

/// Registers machine `name` (token `tok-<name>`) and returns its id.
fn register(t: &mut ResilientTransport, name: &str) -> String {
    let msg = ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine(name),
        token: format!("tok-{name}"),
    };
    match must_exchange(t, &msg) {
        ServerMsg::Id { id, .. } => id,
        other => panic!("register answered {other:?}"),
    }
}

/// Uploads `tag` as batch `seq` of `id` until a node acks it, and checks
/// the ack the moment it is read: `follower` holds every acked tag once.
fn upload_checked(
    t: &mut ResilientTransport,
    (id, seq, tag): (&str, u64, &str),
    ledger: &Mutex<Ledger<String>>,
    follower: &UucsServer,
) -> Result<(), Violation> {
    ledger.lock().unwrap().attempt(tag.to_string());
    let records = vec![rec(id, tag)];
    let reply = must_exchange(t, &ClientMsg::Upload { client: id.into(), seq, records });
    assert_eq!(reply, ServerMsg::Ack(1), "upload {tag}");
    let mut ledger = ledger.lock().unwrap();
    ledger.ack(tag.to_string());
    ledger.check(&tags_held(follower)).within(format_args!("ack of {tag}"))
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
fn kill_the_leader_loses_no_acknowledged_upload() -> Result<(), Violation> {
    const CLIENTS: usize = 6;
    const BATCHES: u64 = 12;

    let dir = TempDir::new("cluster-e2e-kill");
    // Group commit, as `uucs-clusterd` runs: every ack of the fleet
    // waits on a commit ticket carrying a quorum mark, and an entry is
    // shipped before the leader's own fsync covers it. Quorum acks: an
    // `ACK` a client saw implies the follower applied the batch, so
    // killing the leader cannot erase it.
    let leader_srv = durable_server(&dir.path().join("a"));
    let leader = lead(&dir, &leader_srv, AckMode::Quorum);
    let leader_front = killable_front(&leader_srv);
    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);
    let follower_front = tcp::serve(Arc::clone(&follower_srv), "127.0.0.1:0").unwrap();

    // One more client, registered while the tier is whole; its only
    // upload is made below, just before the kill.
    let ServerMsg::Id { id: straggler, .. } = leader_srv.handle(&ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine("straggler"),
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

    // Every upload's tag, moved to acked as its `ACK` is read.
    let ledger = Mutex::new(Ledger::default());
    let kill_gate = AtomicBool::new(false);
    let leader_dead = AtomicBool::new(false);
    let ids = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addrs, ledger, follower_srv) = (&addrs, &ledger, &follower_srv);
                let (kill_gate, leader_dead) = (&kill_gate, &leader_dead);
                s.spawn(move || {
                    let mut t = client(addrs, c as u64);
                    let id = register(&mut t, &format!("m{c}"));
                    for seq in 1..=BATCHES {
                        let tag = format!("c{c}-b{seq}");
                        upload_checked(&mut t, (&id, seq, &tag), ledger, follower_srv)?;
                        if seq == BATCHES / 3 {
                            // A third of the way in, signal the killer and
                            // hold until the leader is actually down — so
                            // every worker's remaining batches cross the
                            // failover boundary.
                            kill_gate.store(true, Ordering::SeqCst);
                            eventually("the killer to fire", Duration::from_secs(30), || {
                                leader_dead.load(Ordering::SeqCst)
                            });
                        }
                    }
                    Ok(id)
                })
            })
            .collect();

        // Kill the leader once the fleet is mid-flight: front end torn
        // down with zero drain (in-flight connections die mid-exchange),
        // then the replication tier severed.
        eventually("fleet to reach mid-flight", Duration::from_secs(30), || {
            kill_gate.load(Ordering::SeqCst)
        });
        // Ship-before-fsync, caught in the act: the straggler's batch is
        // appended and shipped, its reply provisional on a ticket nobody
        // will redeem — the leader dies first, so the client never sees
        // an `ACK` for an entry the follower may or may not hold.
        ledger.lock().unwrap().attempt("straggler-b1".to_string());
        let (provisional, ticket) = leader_srv.handle_deferred(&straggler_upload);
        assert_eq!(provisional, ServerMsg::Ack(1));
        assert!(
            ticket.is_some_and(|t| t.quorum.is_some()),
            "the ack must be waiting on the commit ticket, quorum mark attached"
        );
        leader_front.shutdown();
        leader.shutdown();
        leader_dead.store(true, Ordering::SeqCst);
        workers.into_iter().map(|w| w.join().unwrap()).collect::<Result<Vec<_>, _>>()
    })?;
    let mut ledger = ledger.into_inner().unwrap();

    // The follower must have promoted itself to finish the fleet.
    assert!(follower.was_promoted(), "follower never promoted");
    assert_eq!(follower.role(), Role::Leader);

    // Exactly-once: every acknowledged upload is present on the
    // promoted node once — none lost to the kill, none duplicated by
    // the retries that rode through it.
    ledger.check(&tags_held(&follower_srv)).within("promoted follower")?;
    // Every client identity survived the failover too, and the whole
    // fleet finished: all batches acked, all on the promoted node.
    for id in &ids {
        assert_eq!(
            follower_srv.applied_seq(id),
            BATCHES,
            "client {id} lost part of its seq horizon"
        );
    }
    assert_eq!(ledger.acked().len(), CLIENTS * BATCHES as usize);
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
    assert_eq!(register(&mut t, "straggler"), straggler);
    assert_eq!(must_exchange(&mut t, &straggler_upload), ServerMsg::Ack(1));
    ledger.ack("straggler-b1".to_string());
    ledger.check(&tags_held(&follower_srv)).within("promoted follower")?;
    // The old leader holds no more than what was acked, the straggler's
    // batch once.
    let straggler_b1 = ["straggler-b1".to_string()];
    exactly_once(&straggler_b1, &tags_held(&leader_srv), ledger.acked()).within("old leader")?;
    for srv in [&leader_srv, &follower_srv] {
        assert_eq!(srv.applied_seq(&straggler), 1);
    }

    let stats = proxy.shutdown();
    assert!(stats.connections > 0, "the fleet never touched the proxy");
    follower_front.shutdown();
    follower.shutdown();
    Ok(())
}

/// Version skew across a failover: one legacy text client and one
/// wire-v2 (auto-negotiating) client ride the same leader kill. The
/// binary client renegotiates per address — it lands on the promoted
/// follower speaking v2 again — while the text client is served
/// byte-for-byte v1 throughout. Exactly-once still holds for both.
#[test]
fn version_skew_clients_survive_failover_with_renegotiation() -> Result<(), Violation> {
    use uucs::client::WireMode;
    const BATCHES: u64 = 6;

    let dir = TempDir::new("cluster-e2e-skew");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv, AckMode::Quorum);
    let leader_front = killable_front(&leader_srv);
    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);
    let follower_front = tcp::serve(Arc::clone(&follower_srv), "127.0.0.1:0").unwrap();

    let addrs = [leader_front.addr().to_string(), follower_front.addr().to_string()];
    let mut legacy = client(&addrs, 1).with_wire_mode(WireMode::Text);
    let mut modern = client(&addrs, 2).with_wire_mode(WireMode::Auto);
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

    let ledger = Mutex::new(Ledger::default());
    let mut both = |seq: u64| -> Result<(), Violation> {
        let tag = format!("legacy-b{seq}");
        upload_checked(&mut legacy, (&legacy_id, seq, &tag), &ledger, &follower_srv)?;
        let tag = format!("modern-b{seq}");
        upload_checked(&mut modern, (&modern_id, seq, &tag), &ledger, &follower_srv)
    };
    (1..=BATCHES / 2).try_for_each(&mut both)?;
    // The kill: abrupt, mid-session for both framings.
    leader_front.shutdown();
    leader.shutdown();
    (BATCHES / 2 + 1..=BATCHES).try_for_each(&mut both)?;

    assert!(follower.was_promoted(), "follower never promoted");
    assert_eq!(
        modern.negotiated_wire(),
        Some(2),
        "the fresh connection to the promoted follower must renegotiate v2"
    );
    assert_eq!(legacy.negotiated_wire(), Some(1));
    // Exactly-once on the promoted node, both framings: the last ack's
    // check saw every batch of both clients there.
    assert_eq!(follower_srv.applied_seq(&legacy_id), BATCHES);
    assert_eq!(follower_srv.applied_seq(&modern_id), BATCHES);

    legacy.bye();
    modern.bye();
    follower_front.shutdown();
    follower.shutdown();
    Ok(())
}

/// Bounded staleness and automatic catch-up. A follower in sync with
/// the leader is partitioned (its node torn down); the leader keeps
/// committing — replication lag is visible but the leader stays
/// available (quorum degrades to local with a counted timeout). When
/// the follower returns it catches up purely from the leader's
/// backlog tail, converging to byte-equal record sets.
#[test]
fn partitioned_follower_catches_up_from_the_wal_tail() -> Result<(), Violation> {
    let dir = TempDir::new("cluster-e2e-partition");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv, AckMode::Local);
    let follower_srv = fresh_server();
    let peers = || vec![leader.repl_addr().to_string()];
    let follower = start(&dir, "b", &follower_srv, Role::Follower, AckMode::Local, peers());

    let ServerMsg::Id { id, .. } = leader_srv.handle(&ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine("m1"),
        token: "tok-1".into(),
    }) else {
        panic!("registration refused");
    };
    let upload = |seq: u64, tag: &str| {
        let records = vec![rec(&id, tag)];
        let reply = leader_srv.handle(&ClientMsg::Upload { client: id.clone(), seq, records });
        assert_eq!(reply, ServerMsg::Ack(1));
    };

    for seq in 1..=5u64 {
        upload(seq, &format!("pre-{seq}"));
    }
    eventually("initial sync", Duration::from_secs(10), || {
        follower_srv.result_count() >= 5
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
    eventually("the leader to notice the partition", Duration::from_secs(10), || {
        leader.hub().min_acked(0).is_none()
    });

    // Heal: same node name, same data dir (progress file intact), same
    // epoch. Fifteen small batches are far inside the backlog, so
    // catch-up is a pure tail resend — no second snapshot (the first
    // was the cold join).
    assert_eq!(leader.hub().backfills(), (0, 1), "(tail, snapshot)");
    let follower = start(&dir, "b", &follower_srv, Role::Follower, AckMode::Local, peers());
    eventually("catch-up after the partition", Duration::from_secs(10), || {
        follower_srv.result_count() >= 20
    });
    assert_eq!(follower_srv.applied_seq(&id), 20);
    assert_eq!(leader.hub().backfills(), (1, 1), "(tail, snapshot)");

    // Byte-equal convergence: same records, same per-client horizon.
    same_on_every_node(&tags_held(&leader_srv), [("follower", tags_held(&follower_srv))])?;

    follower.shutdown();
    leader.shutdown();
    Ok(())
}

/// Depth-32 pipelining under quorum acks: one binary connection writes
/// 32 uploads back to back at a group-commit leader with a group-commit
/// follower behind it. Every reply is an `ACK`, in request order; every
/// batch is on both nodes exactly once by the time its `ACK` is read;
/// and the worker serving the connection never sat in a quorum wait —
/// all 33 acks (the registration's too) were redeemed off commit
/// tickets, so both nodes are free to batch.
#[test]
fn pipelined_quorum_uploads_are_acked_in_order_off_commit_tickets() -> Result<(), Violation> {
    const DEPTH: u32 = 32;
    let dir = TempDir::new("cluster-e2e-pipelined");
    let leader_srv = durable_server(&dir.path().join("a"));
    let leader = lead(&dir, &leader_srv, AckMode::Quorum);
    let leader_front = tcp::serve(Arc::clone(&leader_srv), "127.0.0.1:0").unwrap();
    let follower_srv = durable_server(&dir.path().join("b"));
    let follower = follow(&dir, &leader, &follower_srv);

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
    let mut ledger = Ledger::default();
    for k in 0..DEPTH {
        ledger.attempt(tag(k));
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
        // A quorum ack means the follower holds it already: no waiting.
        ledger.ack(tag(k));
        ledger.check(&tags_held(&follower_srv)).within(format_args!("ack of {}", tag(k)))?;
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
    for (node, srv) in [("leader", &leader_srv), ("follower", &follower_srv)] {
        ledger.check(&tags_held(srv)).within(node)?;
        assert_eq!(srv.applied_seq(&id), u64::from(DEPTH), "{node}");
    }
    write_client_frame(&mut writer, 99, &ClientMsg::Bye).ok();
    leader_front.shutdown();
    follower.shutdown();
    leader.shutdown();
    Ok(())
}
