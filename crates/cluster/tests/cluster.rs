//! Integration tests of the replicated tier over real sockets: WAL
//! shipping leader → follower, backfill edge cases (cold joins,
//! watermarks behind the backlog, joins racing live uploads), and
//! deterministic promotion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uucs_cluster::node::{claim_epoch, current_epoch};
use uucs_cluster::{ClusterConfig, ClusterNode, Role};
use uucs_harness::TempDir;
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_server::{StoreSet, UucsServer};

fn rec(client: &str, tag: &str) -> RunRecord {
    RunRecord {
        client: client.into(),
        user: String::new(),
        testcase: tag.into(),
        task: "IE".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 10.0,
        last_levels: vec![(uucs_testcase::Resource::Cpu, vec![2.0])],
        monitor: MonitorSummary::default(),
    }
}

/// Polls `f` until it holds or `timeout` passes (then panics naming
/// `what`). The replication stream is asynchronous by design, so every
/// convergence assertion goes through here.
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

fn config(name: &str, dir: &TempDir, peers: Vec<String>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(name, dir.path().join("epochs"), dir.path().join(name));
    cfg.peers = peers;
    cfg.gossip_interval = Duration::from_millis(40);
    cfg.promote_after = 2;
    cfg
}

/// Starts node `a` leading around `server`.
fn lead(dir: &TempDir, server: &Arc<UucsServer>) -> Arc<ClusterNode> {
    ClusterNode::start(config("a", dir, vec![]), Arc::clone(server), "127.0.0.1:0", Role::Leader)
        .unwrap()
}

/// Starts node `b` following `leader` around `server`. Its data
/// directory — and so its progress file — is the same on every call.
fn follow(dir: &TempDir, leader: &ClusterNode, server: &Arc<UucsServer>) -> Arc<ClusterNode> {
    let peers = vec![leader.repl_addr().to_string()];
    ClusterNode::start(config("b", dir, peers), Arc::clone(server), "127.0.0.1:0", Role::Follower)
        .unwrap()
}

fn register(server: &UucsServer, host: &str) -> String {
    let (reply, _) = server.handle_deferred(&ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine(host),
        token: format!("tok-{host}"),
    });
    match reply {
        ServerMsg::Id { id, .. } => id,
        other => panic!("register answered {other:?}"),
    }
}

fn upload(server: &UucsServer, client: &str, seq: u64, tag: &str) {
    upload_batch(server, client, seq, &[tag.to_string()]);
}

/// One batch carrying one record per tag.
fn upload_batch(server: &UucsServer, client: &str, seq: u64, tags: &[String]) {
    let (reply, _) = server.handle_deferred(&ClientMsg::Upload {
        client: client.into(),
        seq,
        records: tags.iter().map(|tag| rec(client, tag)).collect(),
    });
    assert!(
        matches!(reply, ServerMsg::Ack(n) if n == tags.len()),
        "upload answered {reply:?}"
    );
}

/// Each testcase tag must appear exactly once — the store-level
/// spelling of "no acknowledged upload lost, none duplicated".
fn assert_exactly_once(server: &UucsServer, tags: &[String]) {
    let records = server.results().unwrap();
    assert_eq!(records.len(), tags.len(), "record count");
    let mut copies: HashMap<&str, usize> = HashMap::new();
    for r in &records {
        *copies.entry(r.testcase.as_str()).or_default() += 1;
    }
    for tag in tags {
        let n = copies.get(tag.as_str()).copied().unwrap_or(0);
        assert_eq!(n, 1, "tag {tag} appears {n} times");
    }
}

/// The base case: a follower connected from the start applies the
/// leader's live stream, converges to the same store, and refuses
/// writes of its own with a `not leader` error the client-side
/// failover recognises.
#[test]
fn follower_applies_the_leaders_stream() {
    let dir = TempDir::new("cluster-stream");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = Vec::new();
    for seq in 1..=10u64 {
        let tag = format!("tc-{seq}");
        upload(&leader_srv, &id, seq, &tag);
        tags.push(tag);
    }

    wait_until("follower to apply 10 batches", Duration::from_secs(10), || {
        follower_srv.result_count() == 10
    });
    assert_eq!(follower_srv.client_count(), 1);
    assert_eq!(follower_srv.applied_seq(&id), 10, "seq horizon replicated");
    assert_exactly_once(&follower_srv, &tags);

    // The follower's engine is read-only: writes bounce with the
    // `not leader` marker clients pivot on.
    let (reply, _) = follower_srv.handle_deferred(&ClientMsg::Upload {
        client: id.clone(),
        seq: 99,
        records: vec![rec(&id, "nope")],
    });
    match reply {
        ServerMsg::Error(msg) => assert!(msg.starts_with("not leader"), "got {msg:?}"),
        other => panic!("follower accepted a write: {other:?}"),
    }

    follower.shutdown();
    leader.shutdown();
}

/// Backfill edge case: a follower that first connects mid-history is
/// a cold joiner — its `HELLO` carries epoch 0, which no leader ever
/// leads under — so everything so far arrives by store snapshot, never
/// by backlog tail, and the live stream carries on without a seam.
#[test]
fn cold_join_is_served_by_snapshot_then_tail() {
    let dir = TempDir::new("cluster-cold");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = Vec::new();
    for seq in 1..=30u64 {
        let tag = format!("pre-{seq}");
        upload(&leader_srv, &id, seq, &tag);
        tags.push(tag);
    }

    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);
    wait_until("backfill of 30 batches", Duration::from_secs(10), || {
        follower_srv.result_count() == 30
    });
    // All 30 entries were still in the backlog; the epoch decided.
    assert_eq!(leader.hub().backfills(), (0, 1), "(tail, snapshot)");

    // ... and the live stream continues past the backfill seam.
    for seq in 31..=40u64 {
        let tag = format!("post-{seq}");
        upload(&leader_srv, &id, seq, &tag);
        tags.push(tag);
    }
    wait_until("live stream after backfill", Duration::from_secs(10), || {
        follower_srv.result_count() == 40
    });
    assert_exactly_once(&follower_srv, &tags);
    assert_eq!(follower_srv.applied_seq(&id), 40);

    follower.shutdown();
    leader.shutdown();
}

/// Backfill edge case: a follower that was away while the leader
/// shipped more than the backlog holds returns *in the same epoch*
/// with a watermark the backlog has evicted past. It cannot be served
/// by tail — the leader streams a full store snapshot, the follower
/// dedups it against the few hundred records it already holds, and the
/// watermark jumps past the evicted range. No record is lost or
/// duplicated, and the upload horizon survives.
#[test]
fn watermark_behind_the_backlog_gets_snapshot_then_tail() {
    let dir = TempDir::new("cluster-evicted");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = Vec::new();
    // Thirty records per batch: about 4 KiB of backlog each.
    let batch = |tags: &mut Vec<String>, seq: u64, phase: &str| {
        let batch: Vec<String> = (0..30).map(|i| format!("{phase}-{seq}-{i}")).collect();
        upload_batch(&leader_srv, &id, seq, &batch);
        tags.extend(batch);
    };

    // Phase 1: follower online (cold join: snapshot #1), syncs 300
    // records.
    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);
    for seq in 1..=10u64 {
        batch(&mut tags, seq, "early");
    }
    wait_until("initial sync", Duration::from_secs(10), || {
        follower_srv.result_count() == 300
    });
    assert_eq!(leader.hub().backfills(), (0, 1), "(tail, snapshot)");

    // Phase 2: follower partitioned (shut down); the leader ships well
    // over the per-shard budget (64 KiB) — one client is one shard —
    // evicting the tail the follower would have wanted.
    follower.shutdown();
    drop(follower);
    for seq in 11..=40u64 {
        batch(&mut tags, seq, "dark");
    }

    // Phase 3: the follower returns with its old engine state and its
    // persisted watermark (same data_dir, same epoch). The dedup in
    // `apply_snapshot_entry` keeps the 300 already-held records single
    // copies.
    let follower = follow(&dir, &leader, &follower_srv);
    wait_until("snapshot-then-tail catch-up", Duration::from_secs(10), || {
        follower_srv.result_count() == 1200
    });
    assert_eq!(
        leader.hub().backfills(),
        (0, 2),
        "the return was served by snapshot, once, and never by tail"
    );
    assert_eq!(follower_srv.applied_seq(&id), 40);
    assert_exactly_once(&follower_srv, &tags);

    // The jumped watermark is live: the stream resumes above it.
    batch(&mut tags, 41, "late");
    wait_until("live stream after the snapshot", Duration::from_secs(10), || {
        follower_srv.result_count() == 1230
    });
    assert_exactly_once(&follower_srv, &tags);

    follower.shutdown();
    leader.shutdown();
}

/// Joins racing live traffic — the no-gap argument under load. One
/// thread uploads while a follower joins cold (snapshot), leaves, and
/// rejoins in the same epoch within the backlog's reach (tail). By the
/// rejoin the backlog is long full, so every upload landing between
/// "slot registered" and "tail copied" also evicts an entry; whichever
/// side of the join point each falls on, the follower must end with it
/// exactly once.
#[test]
fn joins_racing_live_uploads_end_with_every_tag_exactly_once() {
    let dir = TempDir::new("cluster-race-join");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);
    let id = register(&leader_srv, "m1");

    // The uploader runs free up to `limit`, which the main thread moves.
    let uploaded = AtomicU64::new(0);
    let limit = AtomicU64::new(u64::MAX);
    let stop = AtomicBool::new(false);
    let follower_srv = fresh_server();
    // Lets the uploader get `n` more batches acked, waits for them, and
    // leaves it parked there.
    let upload_more = |n: u64| {
        let target = uploaded.load(Ordering::SeqCst) + n;
        limit.store(target, Ordering::SeqCst);
        wait_until("uploads to advance", Duration::from_secs(10), || {
            uploaded.load(Ordering::SeqCst) >= target
        });
    };
    let connected = |what: &str| {
        wait_until(what, Duration::from_secs(10), || {
            !leader.hub().follower_nodes().is_empty()
        });
    };

    let follower = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                let seq = uploaded.load(Ordering::SeqCst) + 1;
                if seq <= limit.load(Ordering::SeqCst) {
                    upload(&leader_srv, &id, seq, &format!("tc-{seq}"));
                    uploaded.store(seq, Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
        });
        // A cold join under free-running uploads: snapshot, then the
        // channel. Run on until the backlog has wrapped many times.
        upload_more(50);
        limit.store(u64::MAX, Ordering::SeqCst);
        let follower = follow(&dir, &leader, &follower_srv);
        connected("the cold join");
        upload_more(1000);
        wait_until("the follower to draw level", Duration::from_secs(30), || {
            follower_srv.result_count() as u64 == uploaded.load(Ordering::SeqCst)
        });
        // Away for 50 entries, then rejoin while 100 more are landing:
        // about 150 entries (~30 KiB) past the watermark, inside the
        // 64 KiB the backlog keeps.
        follower.shutdown();
        drop(follower);
        upload_more(50);
        limit.fetch_add(100, Ordering::SeqCst);
        let follower = follow(&dir, &leader, &follower_srv);
        connected("the rejoin");
        upload_more(50);
        stop.store(true, Ordering::SeqCst);
        follower
    });

    let total = uploaded.load(Ordering::SeqCst);
    let tags: Vec<String> = (1..=total).map(|seq| format!("tc-{seq}")).collect();
    assert_exactly_once(&leader_srv, &tags);
    wait_until("the follower to hold every upload", Duration::from_secs(30), || {
        follower_srv.result_count() as u64 == total
    });
    assert_exactly_once(&follower_srv, &tags);
    assert_eq!(follower_srv.applied_seq(&id), total);
    let (tail, snapshot) = leader.hub().backfills();
    assert!(tail >= 1 && snapshot >= 1, "(tail {tail}, snapshot {snapshot})");

    follower.shutdown();
    leader.shutdown();
}

/// Leader death promotes the follower: it notices the silence, wins the
/// takeover file, flips read-write, and starts serving — with every
/// record the old leader acknowledged still present exactly once.
#[test]
fn leader_loss_promotes_the_follower() {
    let dir = TempDir::new("cluster-promote");
    let epochs = dir.path().join("epochs");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let follower_srv = fresh_server();
    let follower = follow(&dir, &leader, &follower_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = Vec::new();
    for seq in 1..=8u64 {
        let tag = format!("tc-{seq}");
        upload(&leader_srv, &id, seq, &tag);
        tags.push(tag);
    }
    wait_until("replication before the kill", Duration::from_secs(10), || {
        follower_srv.result_count() == 8
    });

    leader.shutdown();
    wait_until("follower promotion", Duration::from_secs(10), || {
        follower.was_promoted()
    });
    assert_eq!(follower.role(), Role::Leader);
    assert_eq!(current_epoch(&epochs), 2, "promotion claimed epoch 2");
    assert_exactly_once(&follower_srv, &tags);

    // The promoted node serves writes: the client re-registers with its
    // token (same GUID, fast-forwarded seq) and keeps uploading.
    let (reply, _) = follower_srv.handle_deferred(&ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine("m1"),
        token: "tok-m1".into(),
    });
    match reply {
        ServerMsg::Id { id: id2, applied_seq } => {
            assert_eq!(id2, id, "token maps to the same GUID after failover");
            assert_eq!(applied_seq, 8, "seq horizon survives failover");
        }
        other => panic!("re-register answered {other:?}"),
    }
    upload(&follower_srv, &id, 9, "tc-9");
    tags.push("tc-9".into());
    assert_exactly_once(&follower_srv, &tags);

    follower.shutdown();
}

/// The takeover file is atomic: any number of concurrent claimants for
/// the same epoch produce exactly one winner.
#[test]
fn takeover_race_has_exactly_one_winner() {
    let dir = TempDir::new("cluster-race");
    let epochs = dir.path().join("epochs");
    std::fs::create_dir_all(&epochs).unwrap();
    let wins: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let epochs = epochs.clone();
                s.spawn(move || claim_epoch(&epochs, &format!("n{i}"), 1).is_ok())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count()
    });
    assert_eq!(wins, 1, "exactly one claimant may win an epoch");
    assert_eq!(current_epoch(&epochs), 1);
}
