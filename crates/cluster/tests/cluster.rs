//! Integration tests of the replicated tier over real sockets: WAL
//! shipping leader → follower, backfill edge cases (cold joins,
//! watermarks behind the backlog, joins racing live uploads), the
//! comfort model every node derives from the records it applies, and
//! deterministic promotion.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uucs_cluster::node::{claim_epoch, current_epoch};
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs_harness::invariants::{exactly_once, same_on_every_node, Ledger, Violation, Within};
use uucs_harness::{eventually, TempDir};
use uucs_modelsvc::ComfortModel;
use uucs_protocol::wire::Endpoint;
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_server::models::observations_of;
use uucs_server::{StoreSet, UucsServer};
use uucs_testcase::Resource;

/// A record whose task, outcome and discomfort level follow from its
/// tag, so the records of a test spread over cohorts and sketch bins.
fn rec(client: &str, tag: &str) -> RunRecord {
    let h = tag
        .bytes()
        .fold(7u32, |h, b| h.wrapping_mul(31).wrapping_add(u32::from(b)));
    RunRecord {
        client: client.into(),
        user: String::new(),
        testcase: tag.into(),
        task: if h % 2 == 0 { "IE" } else { "Word" }.into(),
        skill: "Typical".into(),
        outcome: if h % 5 == 0 {
            RunOutcome::Exhausted
        } else {
            RunOutcome::Discomfort
        },
        offset_secs: 10.0,
        last_levels: vec![(Resource::Cpu, vec![f64::from(h % 40) / 10.0])],
        monitor: MonitorSummary::default(),
    }
}

/// The merged sketches `server` serves, overall and per task.
fn sketches(server: &UucsServer) -> Vec<String> {
    [None, Some("IE"), Some("Word")]
        .map(|task| server.model_sketch(Resource::Cpu, task).encode())
        .to_vec()
}

/// [`sketches`] of the comfort model of exactly `records`, folded at
/// once: what any node holding them must serve, whatever batches and
/// epochs brought them in.
fn sketches_of(records: &[RunRecord]) -> Vec<String> {
    let mut model = ComfortModel::new();
    model.observe(&observations_of(records));
    [None, Some("IE"), Some("Word")]
        .map(|task| model.merged(Resource::Cpu, task).encode())
        .to_vec()
}

/// Waits for `follower`'s model to count every observation `leader`
/// holds; then both must serve the sketches of the model of the
/// leader's records, byte for byte: nothing was folded twice or missed.
/// Epochs may differ (a snapshot batch is one epoch).
fn models_agree(leader: &UucsServer, follower: &UucsServer) -> Result<(), Violation> {
    let counted = |s: &UucsServer| {
        let all = s.model_sketch(Resource::Cpu, None);
        all.observed() + all.censored()
    };
    eventually(
        "the follower's model to count every record",
        Duration::from_secs(10),
        || counted(follower) >= counted(leader),
    );
    let want = sketches_of(&leader.results().unwrap());
    same_on_every_node(&want, [("leader", sketches(leader)), ("follower", sketches(follower))])
}

fn fresh_server() -> Arc<UucsServer> {
    Arc::new(UucsServer::with_store_set(StoreSet::in_memory(4), 9))
}

fn config(name: &str, dir: &TempDir, peers: Vec<String>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(name, dir.path().join("epochs"), dir.path().join(name));
    cfg.peers = peers;
    cfg.promote_after = 2;
    cfg
}

/// Starts node `a` leading around `server`.
fn lead(dir: &TempDir, server: &Arc<UucsServer>) -> Arc<ClusterNode> {
    ClusterNode::start(config("a", dir, vec![]), Arc::clone(server), "127.0.0.1:0", Role::Leader)
        .unwrap()
}

/// Starts node `name` following `leader` around `server`. Its data
/// directory — and so its progress file — is the same on every call.
fn follow(
    name: &str,
    dir: &TempDir,
    leader: &ClusterNode,
    server: &Arc<UucsServer>,
) -> Arc<ClusterNode> {
    let peers = vec![leader.repl_addr().to_string()];
    let cfg = config(name, dir, peers);
    ClusterNode::start(cfg, Arc::clone(server), "127.0.0.1:0", Role::Follower).unwrap()
}

fn register(server: &UucsServer, host: &str) -> String {
    let reply = server.handle(&ClientMsg::Register {
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

/// Uploads one batch per seq in `seqs`, tagged `<prefix>-<seq>`, and
/// returns the tags.
fn upload_each(srv: &UucsServer, id: &str, seqs: RangeInclusive<u64>, prefix: &str) -> Vec<String> {
    let tag = |seq| format!("{prefix}-{seq}");
    seqs.inspect(|&seq| upload(srv, id, seq, &tag(seq))).map(tag).collect()
}

/// One batch carrying one record per tag.
fn upload_batch(server: &UucsServer, client: &str, seq: u64, tags: &[String]) {
    let reply = server.handle(&ClientMsg::Upload {
        client: client.into(),
        seq,
        records: tags.iter().map(|tag| rec(client, tag)).collect(),
    });
    assert!(
        matches!(reply, ServerMsg::Ack(n) if n == tags.len()),
        "upload answered {reply:?}"
    );
}

/// The testcase tag of every record `server` holds.
fn tags_held(server: &UucsServer) -> Vec<String> {
    server.results().unwrap().into_iter().map(|r| r.testcase).collect()
}

/// Waits for `server` to hold as many records as there are `tags`, then
/// checks that it holds each of them exactly once and nothing else.
fn catches_up(what: &str, server: &UucsServer, tags: &[String]) -> Result<(), Violation> {
    eventually(what, Duration::from_secs(30), || server.result_count() >= tags.len());
    exactly_once(tags, &tags_held(server), []).within(what)
}

/// The base case: a follower connected from the start applies the
/// leader's live stream, converges to the same store, and refuses
/// writes of its own with a `not leader` error the client-side
/// failover recognises.
#[test]
fn follower_applies_the_leaders_stream() -> Result<(), Violation> {
    let dir = TempDir::new("cluster-stream");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let follower_srv = fresh_server();
    let follower = follow("b", &dir, &leader, &follower_srv);

    let id = register(&leader_srv, "m1");
    let tags = upload_each(&leader_srv, &id, 1..=10, "tc");

    catches_up("the follower to apply 10 batches", &follower_srv, &tags)?;
    assert_eq!(follower_srv.client_count(), 1);
    assert_eq!(follower_srv.applied_seq(&id), 10, "seq horizon replicated");

    // The follower's engine is read-only: writes bounce with the
    // `not leader` marker clients pivot on.
    let reply = follower_srv.handle(&ClientMsg::Upload {
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
    Ok(())
}

/// Backfill edge case: a follower that first connects mid-history is
/// a cold joiner — its `HELLO` carries epoch 0, which no leader ever
/// leads under — so everything so far arrives by store snapshot, never
/// by backlog tail, and the live stream carries on without a seam.
#[test]
fn cold_join_is_served_by_snapshot_then_tail() -> Result<(), Violation> {
    let dir = TempDir::new("cluster-cold");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = upload_each(&leader_srv, &id, 1..=30, "pre");

    let follower_srv = fresh_server();
    let follower = follow("b", &dir, &leader, &follower_srv);
    catches_up("backfill of 30 batches", &follower_srv, &tags)?;
    // All 30 entries were still in the backlog; the epoch decided.
    assert_eq!(leader.hub().backfills(), (0, 1), "(tail, snapshot)");

    // ... and the live stream continues past the backfill seam.
    tags.extend(upload_each(&leader_srv, &id, 31..=40, "post"));
    catches_up("live stream after backfill", &follower_srv, &tags)?;
    assert_eq!(follower_srv.applied_seq(&id), 40);
    // The snapshot's one batch and the ten after it fold to the model of
    // the forty the leader folded one by one.
    models_agree(&leader_srv, &follower_srv)?;

    follower.shutdown();
    leader.shutdown();
    Ok(())
}

/// Backfill edge case: a follower that was away while the leader
/// shipped more than the backlog holds returns *in the same epoch*
/// with a watermark the backlog has evicted past. It cannot be served
/// by tail — the leader streams a full store snapshot, the follower
/// dedups it against the few hundred records it already holds, and the
/// watermark jumps past the evicted range. No record is lost or
/// duplicated, and the upload horizon survives.
#[test]
fn watermark_behind_the_backlog_gets_snapshot_then_tail() -> Result<(), Violation> {
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
    let follower = follow("b", &dir, &leader, &follower_srv);
    for seq in 1..=10u64 {
        batch(&mut tags, seq, "early");
    }
    catches_up("initial sync", &follower_srv, &tags)?;
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
    // persisted watermark (same data_dir, same epoch). The snapshot
    // batch's dedup (`ResultStore::admit_snapshot`, by block text) keeps
    // the 300 already-held records single copies.
    let follower = follow("b", &dir, &leader, &follower_srv);
    catches_up("snapshot-then-tail catch-up", &follower_srv, &tags)?;
    assert_eq!(
        leader.hub().backfills(),
        (0, 2),
        "the return was served by snapshot, once, and never by tail"
    );
    assert_eq!(follower_srv.applied_seq(&id), 40);

    // The jumped watermark is live: the stream resumes above it.
    batch(&mut tags, 41, "late");
    catches_up("live stream after the snapshot", &follower_srv, &tags)?;
    // The snapshot arrived on top of 300 records already folded: only
    // the 900 it appended were folded with it.
    models_agree(&leader_srv, &follower_srv)?;

    follower.shutdown();
    leader.shutdown();
    Ok(())
}

/// Joins racing live traffic — the no-gap argument under load. One
/// thread uploads while a follower joins cold (snapshot), leaves, and
/// rejoins in the same epoch within the backlog's reach (tail). By the
/// rejoin the backlog is long full, so every upload landing between
/// "slot registered" and "tail copied" also evicts an entry; whichever
/// side of the join point each falls on, the follower must end with it
/// exactly once.
#[test]
fn joins_racing_live_uploads_end_with_every_tag_exactly_once() -> Result<(), Violation> {
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
        eventually("uploads to advance", Duration::from_secs(10), || {
            uploaded.load(Ordering::SeqCst) >= target
        });
    };
    let connected = |what: &str| {
        eventually(what, Duration::from_secs(10), || {
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
        let follower = follow("b", &dir, &leader, &follower_srv);
        connected("the cold join");
        upload_more(1000);
        eventually("the follower to draw level", Duration::from_secs(30), || {
            follower_srv.result_count() as u64 >= uploaded.load(Ordering::SeqCst)
        });
        // Away for 50 entries, then rejoin while 100 more are landing:
        // about 150 entries (~30 KiB) past the watermark, inside the
        // 64 KiB the backlog keeps.
        follower.shutdown();
        drop(follower);
        upload_more(50);
        limit.fetch_add(100, Ordering::SeqCst);
        let follower = follow("b", &dir, &leader, &follower_srv);
        connected("the rejoin");
        upload_more(50);
        stop.store(true, Ordering::SeqCst);
        follower
    });

    let total = uploaded.load(Ordering::SeqCst);
    let tags: Vec<String> = (1..=total).map(|seq| format!("tc-{seq}")).collect();
    exactly_once(&tags, &tags_held(&leader_srv), [])?;
    catches_up("the follower to hold every upload", &follower_srv, &tags)?;
    assert_eq!(follower_srv.applied_seq(&id), total);
    let (tail, snapshot) = leader.hub().backfills();
    assert!(tail >= 1 && snapshot >= 1, "(tail {tail}, snapshot {snapshot})");

    follower.shutdown();
    leader.shutdown();
    Ok(())
}

/// Leader death promotes the follower: it notices the silence, wins the
/// takeover file, flips read-write, and starts serving — with every
/// record the old leader acknowledged still present exactly once.
#[test]
fn leader_loss_promotes_the_follower() -> Result<(), Violation> {
    let dir = TempDir::new("cluster-promote");
    let epochs = dir.path().join("epochs");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);

    let follower_srv = fresh_server();
    let follower = follow("b", &dir, &leader, &follower_srv);

    let id = register(&leader_srv, "m1");
    let mut tags = upload_each(&leader_srv, &id, 1..=8, "tc");
    catches_up("replication before the kill", &follower_srv, &tags)?;

    leader.shutdown();
    eventually("follower promotion", Duration::from_secs(10), || {
        follower.was_promoted()
    });
    assert_eq!(follower.role(), Role::Leader);
    assert_eq!(current_epoch(&epochs), 2, "promotion claimed epoch 2");
    exactly_once(&tags, &tags_held(&follower_srv), [])?;

    // The promoted node serves writes: the client re-registers with its
    // token (same GUID, fast-forwarded seq) and keeps uploading.
    let reply = follower_srv.handle(&ClientMsg::Register {
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
    exactly_once(&tags, &tags_held(&follower_srv), [])?;

    follower.shutdown();
    Ok(())
}

/// A follower tailing the leader derives the comfort model from the
/// batches it applies: it answers `MODEL` and `ADVICE` with the leader's
/// epoch and byte-identical sketches.
#[test]
fn a_tailing_follower_serves_the_leaders_model() -> Result<(), Violation> {
    let dir = TempDir::new("cluster-model");
    let leader_srv = fresh_server();
    let leader = lead(&dir, &leader_srv);
    let follower_srv = fresh_server();
    let follower = follow("b", &dir, &leader, &follower_srv);
    eventually("the follower to join", Duration::from_secs(10), || {
        leader.hub().follower_nodes().len() == 1
    });

    let ids: Vec<String> = (0..3)
        .map(|c| register(&leader_srv, &format!("m{c}")))
        .collect();
    for seq in 1..=8u64 {
        for (c, id) in ids.iter().enumerate() {
            let tags: Vec<String> = (0..=c).map(|i| format!("{id}-{seq}-{i}")).collect();
            upload_batch(&leader_srv, id, seq, &tags);
        }
    }
    assert_eq!(leader_srv.model_epoch(), 24, "one epoch per batch");
    eventually(
        "the follower to fold every batch",
        Duration::from_secs(10),
        || follower_srv.model_epoch() >= leader_srv.model_epoch(),
    );
    let queries = [
        ClientMsg::Model {
            resource: Resource::Cpu,
            task: None,
        },
        ClientMsg::Model {
            resource: Resource::Cpu,
            task: Some("Word".into()),
        },
        ClientMsg::Advice {
            resource: Resource::Cpu,
            task: "IE".into(),
            epsilon: 0.25,
        },
    ];
    for query in &queries {
        let (want, got) = (leader_srv.handle(query), follower_srv.handle(query));
        assert!(
            matches!(
                want,
                ServerMsg::Model { epoch: 24, .. } | ServerMsg::Advice { epoch: 24, .. }
            ),
            "{want:?}"
        );
        assert_eq!(got, want, "{query:?}");
    }
    models_agree(&leader_srv, &follower_srv)?;

    follower.shutdown();
    leader.shutdown();
    Ok(())
}

/// Kill the leader right after it acks a burst: the promoted node serves
/// the model of every acked record. Under quorum acks each of them was
/// applied — and so folded — by the follower before its ack went out, so
/// nothing has to reach the follower between the last ack and the kill.
#[test]
fn a_promoted_follower_serves_the_model_of_every_acked_record() -> Result<(), Violation> {
    const CLIENTS: usize = 4;
    const BATCHES: u64 = 6;
    let dir = TempDir::new("cluster-promote-model");
    let leader_srv = fresh_server();
    let mut cfg = config("a", &dir, vec![]);
    cfg.ack = AckMode::Quorum;
    // Long enough that no ack degrades to local under a loaded host.
    cfg.ack_timeout = Duration::from_secs(60);
    let leader =
        ClusterNode::start(cfg, Arc::clone(&leader_srv), "127.0.0.1:0", Role::Leader).unwrap();
    let follower_srv = fresh_server();
    let follower = follow("b", &dir, &leader, &follower_srv);
    eventually("the follower to join", Duration::from_secs(10), || {
        !leader.hub().follower_nodes().is_empty()
    });

    let ids: Vec<String> = (0..CLIENTS)
        .map(|c| register(&leader_srv, &format!("m{c}")))
        .collect();
    // The burst: every client uploads at once, and each ack is checked
    // against the follower the moment it is read — it must hold the batch.
    let ledger = Mutex::new(Ledger::default());
    std::thread::scope(|s| {
        let uploaders: Vec<_> = ids
            .iter()
            .map(|id| {
                let (leader_srv, follower_srv, ledger) = (&leader_srv, &follower_srv, &ledger);
                s.spawn(move || {
                    for seq in 1..=BATCHES {
                        let tags = [format!("{id}-{seq}-a"), format!("{id}-{seq}-b")];
                        let keys = tags.clone().map(|tag| (id.clone(), tag));
                        keys.iter().for_each(|key| ledger.lock().unwrap().attempt(key.clone()));
                        upload_batch(leader_srv, id, seq, &tags);
                        let mut ledger = ledger.lock().unwrap();
                        keys.into_iter().for_each(|key| ledger.ack(key));
                        let held = follower_srv.results().unwrap().into_iter();
                        let held: Vec<_> = held.map(|r| (r.client, r.testcase)).collect();
                        ledger.check(&held).within(format_args!("ack of {id} seq {seq}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        uploaders.into_iter().try_for_each(|u| u.join().unwrap())
    })?;
    leader.shutdown();
    eventually("follower promotion", Duration::from_secs(10), || {
        follower.was_promoted()
    });

    let ledger = ledger.into_inner().unwrap();
    let acked: Vec<RunRecord> = ledger.acked().iter().map(|(id, tag)| rec(id, tag)).collect();
    let want = sketches_of(&acked);
    same_on_every_node(&want, [("promoted follower", sketches(&follower_srv))])?;
    assert_eq!(
        follower_srv.model_epoch(),
        CLIENTS as u64 * BATCHES,
        "one epoch per acked batch"
    );
    follower.shutdown();
    Ok(())
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
