//! End-to-end tests of the sharded group-commit server engine: the
//! worker-pool connection ceiling, durability of group-commit acks
//! across a kill, and shard-layout migration equivalence.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use uucs::protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs::protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
use uucs::server::tcp::{self, ServeConfig};
use uucs::server::{StoreSet, UucsServer};
use uucs_harness::prelude::*;
use uucs_harness::TempDir;
use uucs_wal::{SyncPolicy, WalConfig};

fn wal_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 16 * 1024,
        sync: SyncPolicy::Never,
    }
}

fn rec(client: &str, tag: &str) -> RunRecord {
    RunRecord {
        client: client.into(),
        // Empty is the canonical "unknown user" (the text format spells
        // it `-` and parses it back to empty).
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

/// The worker pool holds well past the old 256-thread ceiling: >1024
/// clients register and stay connected simultaneously, every one gets a
/// distinct id, and the server still answers on all of them.
#[test]
fn over_a_thousand_simultaneous_connections() {
    const CONNS: usize = 1100;
    let server = Arc::new(UucsServer::with_store_set(StoreSet::plain(4), 9));
    let handle = tcp::serve_with(
        server,
        "127.0.0.1:0",
        ServeConfig {
            max_connections: CONNS + 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Bring every connection up (a few opener threads, all connections
    // held open until the end).
    let mut fleet: Vec<(TcpStream, BufReader<TcpStream>, String)> = std::thread::scope(|s| {
        let openers: Vec<_> = (0..8)
            .map(|t| {
                s.spawn(move || {
                    (t..CONNS)
                        .step_by(8)
                        .map(|i| {
                            let stream = TcpStream::connect(addr).unwrap();
                            stream
                                .set_read_timeout(Some(Duration::from_secs(30)))
                                .unwrap();
                            let mut writer = stream.try_clone().unwrap();
                            let mut reader = BufReader::new(stream);
                            write_client_msg(
                                &mut writer,
                                &ClientMsg::register(MachineSnapshot::study_machine(format!(
                                    "conn-{i:04}"
                                ))),
                            )
                            .unwrap();
                            let id = match read_server_msg(&mut reader).unwrap() {
                                ServerMsg::Id { id, .. } => id,
                                other => panic!("registration refused: {other:?}"),
                            };
                            (writer, reader, id)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        openers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(handle.server.client_count(), CONNS);
    assert_eq!(handle.live_connections(), CONNS);
    let mut ids: Vec<&str> = fleet.iter().map(|(_, _, id)| id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CONNS, "ids must be distinct");

    // Every connection is still serviceable after the storm.
    for (writer, reader, id) in fleet.iter_mut().step_by(97) {
        write_client_msg(
            writer,
            &ClientMsg::Upload {
                client: id.clone(),
                seq: 1,
                records: vec![rec(id, "post-storm")],
            },
        )
        .unwrap();
        assert!(matches!(read_server_msg(reader).unwrap(), ServerMsg::Ack(1)));
    }
    drop(fleet);
    handle.shutdown();
}

/// Kill during group commit: clients hammer sequenced uploads while the
/// server is torn down mid-storm. Every upload that was *acked* must
/// survive into the next generation — even when that generation opens
/// the journal with a different shard count.
#[test]
fn group_commit_kill_loses_no_acked_upload() {
    let tmp = TempDir::new("uucs-engine-kill");
    const CLIENTS: usize = 6;

    // Generation 1: sharded stores, group commit, worker-pool TCP.
    let acked: Vec<(String, u64)> = {
        let (stores, _) = StoreSet::open(tmp.path(), wal_cfg(), 3).unwrap();
        let server = Arc::new(
            UucsServer::with_store_set(stores, 9)
                .without_model_updates()
                .with_group_commit(Duration::from_micros(200)),
        );
        let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let uploaders: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    write_client_msg(
                        &mut writer,
                        &ClientMsg::register(MachineSnapshot::study_machine(format!("kill-{c}"))),
                    )
                    .unwrap();
                    let id = match read_server_msg(&mut reader) {
                        Ok(ServerMsg::Id { id, .. }) => id,
                        _ => return (String::new(), 0),
                    };
                    // Upload until the server dies under us; remember
                    // the highest seq that was actually acked.
                    let mut top = 0u64;
                    for seq in 1..10_000u64 {
                        let sent = write_client_msg(
                            &mut writer,
                            &ClientMsg::Upload {
                                client: id.clone(),
                                seq,
                                records: vec![rec(&id, &format!("k{seq}"))],
                            },
                        );
                        if sent.is_err() {
                            break;
                        }
                        match read_server_msg(&mut reader) {
                            Ok(ServerMsg::Ack(_)) => top = seq,
                            _ => break,
                        }
                    }
                    (id, top)
                })
            })
            .collect();

        // Let the storm build, then kill the server mid-flight.
        std::thread::sleep(Duration::from_millis(150));
        handle.shutdown();
        uploaders
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|(id, _)| !id.is_empty())
            .collect()
    };
    assert!(
        acked.iter().any(|(_, top)| *top > 0),
        "the storm never got an upload acked; test proves nothing"
    );

    // Generation 2: reopen with a DIFFERENT shard count. Every acked
    // upload must be inside the recovered dedup horizon, and its record
    // must actually be present.
    let (stores, _) = StoreSet::open(tmp.path(), wal_cfg(), 5).unwrap();
    let server = UucsServer::with_store_set(stores, 9);
    for (id, top) in &acked {
        assert!(
            server.applied_seq(id) >= *top,
            "client {id}: acked seq {top} lost in recovery (horizon {})",
            server.applied_seq(id)
        );
    }
    let recovered = server.results().unwrap();
    for (id, top) in &acked {
        if *top > 0 {
            assert!(
                recovered
                    .iter()
                    .any(|r| &r.client == id && r.testcase == format!("k{top}")),
                "client {id}: record of acked seq {top} missing"
            );
        }
    }
}

/// The same kill storm with the full storage engine under the stores:
/// per-flavor ARC page caches, the disk-scheduler thread pool, and
/// deferred rotation syncs. A kill mid-write-back must lose nothing
/// that was acked — the cache is write-through, so an ack still means
/// "on stable storage", never "in a dirty page".
#[test]
fn cached_engine_kill_loses_no_acked_upload() {
    use uucs::server::StorageProfile;

    let tmp = TempDir::new("uucs-engine-cached-kill");
    const CLIENTS: usize = 6;
    let profile = StorageProfile {
        cache_pages: 128,
        io_threads: 2,
        ..StorageProfile::default()
    };

    // Generation 1: cached sharded stores, scheduler-fanned group
    // commit, rotation off the append path.
    let acked: Vec<(String, u64)> = {
        let (stores, _) = StoreSet::open_with(tmp.path(), wal_cfg(), 3, &profile).unwrap();
        let server = Arc::new(
            UucsServer::with_store_set(stores, 9)
                .without_model_updates()
                .with_io_scheduler(profile.scheduler().expect("io_threads > 0"))
                .with_group_commit(Duration::from_micros(200)),
        );
        let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let uploaders: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    write_client_msg(
                        &mut writer,
                        &ClientMsg::register(MachineSnapshot::study_machine(format!(
                            "cached-kill-{c}"
                        ))),
                    )
                    .unwrap();
                    let id = match read_server_msg(&mut reader) {
                        Ok(ServerMsg::Id { id, .. }) => id,
                        _ => return (String::new(), 0),
                    };
                    let mut top = 0u64;
                    for seq in 1..10_000u64 {
                        let sent = write_client_msg(
                            &mut writer,
                            &ClientMsg::Upload {
                                client: id.clone(),
                                seq,
                                records: vec![rec(&id, &format!("ck{seq}"))],
                            },
                        );
                        if sent.is_err() {
                            break;
                        }
                        match read_server_msg(&mut reader) {
                            Ok(ServerMsg::Ack(_)) => top = seq,
                            _ => break,
                        }
                    }
                    (id, top)
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(150));
        handle.shutdown();
        uploaders
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|(id, _)| !id.is_empty())
            .collect()
    };
    assert!(
        acked.iter().any(|(_, top)| *top > 0),
        "the storm never got an upload acked; test proves nothing"
    );

    // Generation 2: different shard count, cache warm-started from
    // scratch. Every acked upload must be recovered.
    let (stores, _) = StoreSet::open_with(tmp.path(), wal_cfg(), 5, &profile).unwrap();
    let server = UucsServer::with_store_set(stores, 9);
    for (id, top) in &acked {
        assert!(
            server.applied_seq(id) >= *top,
            "client {id}: acked seq {top} lost in recovery (horizon {})",
            server.applied_seq(id)
        );
    }
    let recovered = server.results().unwrap();
    for (id, top) in &acked {
        if *top > 0 {
            assert!(
                recovered
                    .iter()
                    .any(|r| &r.client == id && r.testcase == format!("ck{top}")),
                "client {id}: record of acked seq {top} missing"
            );
        }
    }
}

proptest! {
    #![proptest_config(Config::with_cases(6))]

    /// Shard-layout migration is lossless and order-preserving: apply a
    /// workload at one shard count, then walk the journal through a
    /// random sequence of shard counts. The merged logical state —
    /// results, horizons, registrations, library — is identical at
    /// every step.
    #[test]
    fn reshard_replay_reproduces_merged_state(
        first in 1usize..5,
        walk in prop::collection::vec(1usize..6, 1..4),
        clients in 2usize..5,
        uploads in prop::collection::vec(1usize..4, 1..6),
    ) {
        let tmp = TempDir::new("uucs-engine-reshard");

        // Apply the workload at the first shard count.
        let baseline = {
            let (stores, _) = StoreSet::open(tmp.path(), wal_cfg(), first).unwrap();
            let server = UucsServer::with_store_set(stores, 9).without_model_updates();
            let ids: Vec<String> = (0..clients)
                .map(|c| {
                    match server.handle(&ClientMsg::register(
                        MachineSnapshot::study_machine(format!("re-{c}")),
                    )) {
                        ServerMsg::Id { id, .. } => id,
                        other => panic!("{other:?}"),
                    }
                })
                .collect();
            for (round, n) in uploads.iter().enumerate() {
                for id in &ids {
                    let records = (0..*n).map(|i| rec(id, &format!("r{round}-{i}"))).collect();
                    let reply = server.handle(&ClientMsg::Upload {
                        client: id.clone(),
                        seq: round as u64 + 1,
                        records,
                    });
                    prop_assert!(matches!(reply, ServerMsg::Ack(_)), "{reply:?}");
                }
            }
            server.compact().unwrap();
            let mut results = server.results().unwrap();
            results.sort_by(|a, b| (&a.client, &a.testcase).cmp(&(&b.client, &b.testcase)));
            let horizons: Vec<(String, u64)> =
                ids.iter().map(|id| (id.clone(), server.applied_seq(id))).collect();
            (results, horizons, server.client_count())
        };

        // Walk through different shard counts; the merged state must be
        // bit-identical at every stop.
        for (step, shards) in walk.iter().enumerate() {
            let (stores, _) = StoreSet::open(tmp.path(), wal_cfg(), *shards).unwrap();
            let server = UucsServer::with_store_set(stores, 9);
            let mut results = server.results().unwrap();
            results.sort_by(|a, b| (&a.client, &a.testcase).cmp(&(&b.client, &b.testcase)));
            prop_assert!(
                results == baseline.0,
                "results diverged at step {step} ({shards} shards)"
            );
            for (id, horizon) in &baseline.1 {
                prop_assert_eq!(server.applied_seq(id), *horizon);
            }
            prop_assert_eq!(server.client_count(), baseline.2);
        }
    }
}
