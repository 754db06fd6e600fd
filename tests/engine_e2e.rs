//! End-to-end tests of the sharded group-commit server engine: the
//! worker-pool connection ceiling, every connection acked with the
//! whole fleet in flight, durability of group-commit acks across a
//! kill, and shard-layout migration equivalence.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uucs::protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs::protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
use uucs::server::tcp::{self, ServeConfig};
use uucs::server::{StorageProfile, StoreSet, UucsServer};
use uucs_harness::invariants::{horizons_cover, Ledger, Violation, Within};
use uucs_harness::prelude::*;
use uucs_harness::{eventually, TempDir};
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
    let server = Arc::new(UucsServer::with_store_set(StoreSet::in_memory(4), 9));
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

/// The whole fleet in flight at once: every connection writes an upload
/// before any ack is read, so one fsync pass parks tickets for many
/// connections on each worker. Every connection still gets its own ack,
/// round after round, while neighbours on the same workers say `BYE`
/// and close between rounds.
#[test]
fn every_connection_is_acked_with_the_whole_fleet_in_flight() {
    const CONNS: usize = 48;
    const ROUNDS: u64 = 4;
    let tmp = TempDir::new("uucs-engine-fleet-in-flight");
    let (stores, _) = StoreSet::open(tmp.path(), wal_cfg(), 4).unwrap();
    let server = UucsServer::with_store_set(stores, 9);
    let server = Arc::new(server.with_group_commit(Duration::from_micros(200)));
    let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
    let mut fleet: Vec<(TcpStream, BufReader<TcpStream>, String)> = (0..CONNS)
        .map(|i| {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            // Fails only a lost ack, which would otherwise hang.
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let host = MachineSnapshot::study_machine(format!("fleet-{i:02}"));
            write_client_msg(&mut writer, &ClientMsg::register(host)).unwrap();
            let ServerMsg::Id { id, .. } = read_server_msg(&mut reader).unwrap() else {
                panic!("registration refused");
            };
            (writer, reader, id)
        })
        .collect();

    let mut acked = 0;
    for seq in 1..=ROUNDS {
        for (writer, _, id) in fleet.iter_mut() {
            let upload = ClientMsg::Upload {
                client: id.clone(),
                seq,
                records: vec![rec(id, &format!("round-{seq}"))],
            };
            write_client_msg(writer, &upload).unwrap();
        }
        for (_, reader, id) in fleet.iter_mut() {
            match read_server_msg(reader) {
                Ok(ServerMsg::Ack(1)) => acked += 1,
                other => panic!("{id} upload {seq}: expected its ack, got {other:?}"),
            }
        }
        // Every eighth connection leaves before the next round.
        let mut k = 0;
        fleet.retain_mut(|(writer, _, _)| {
            k += 1;
            let stays = k % 8 != 0;
            if !stays {
                write_client_msg(writer, &ClientMsg::Bye).unwrap();
            }
            stays
        });
    }
    assert_eq!(handle.server.result_count(), acked);
    drop(fleet);
    handle.shutdown();
}

/// Kill during group commit: clients hammer sequenced uploads while the
/// server is torn down mid-storm. Every upload that was *acked* must
/// survive into the next generation exactly once — even when that
/// generation opens the journal with a different shard count.
#[test]
fn group_commit_kill_loses_no_acked_upload() -> Result<(), Violation> {
    kill_storm("kill", wal_cfg())
}

/// The same kill storm over 4 KiB segments, so the results journals
/// rotate every few uploads: the committer's passes fan multi-shard
/// fsyncs out to its pool, and each rotation defers its fsync to the
/// next pass over the shard. A kill between a rotation and that pass
/// must lose nothing that was acked — an ack still means every segment
/// up to it is on stable storage.
#[test]
fn scheduled_engine_kill_loses_no_acked_upload() -> Result<(), Violation> {
    kill_storm(
        "scheduled-kill",
        WalConfig {
            segment_bytes: 4096,
            ..wal_cfg()
        },
    )
}

/// `StorageProfile::with_cache_pages` (and `uucs-server --cache-pages`)
/// is accepted and ignored: the journals have no page cache. A store
/// set opened with it registers no `server.cache.` metric and recovers
/// exactly what the default profile recovers from the same directory —
/// counts, records, horizons, model epoch, and the bytes of every
/// client's `SYNC` reply on both framings.
#[test]
fn ignored_cache_pages_recover_what_the_default_profile_does() {
    use uucs::testcase::{ExerciseSpec, Resource, Testcase};
    const SHARDS: usize = 4;
    let tmp = TempDir::new("uucs-engine-cache-pages");
    let cfg = WalConfig {
        segment_bytes: 4096,
        sync: SyncPolicy::Always,
    };
    let library: Vec<Testcase> = (0..30)
        .map(|i| {
            let spec = ExerciseSpec::Ramp {
                level: 1.0 + i as f64 / 8.0,
                duration: 60.0,
            };
            Testcase::single(format!("tc-{i:03}"), 1.0, Resource::Cpu, spec)
        })
        .collect();
    let ids: Vec<String> = {
        let (stores, _) = StoreSet::open(tmp.path(), cfg, SHARDS).unwrap();
        let server = UucsServer::with_store_set(stores, 9);
        server.add_testcases(&library).unwrap();
        (0..3)
            .map(|c| {
                let host = MachineSnapshot::study_machine(format!("pages-{c}"));
                let ServerMsg::Id { id, .. } = server.handle(&ClientMsg::register(host)) else {
                    panic!("registration refused");
                };
                for seq in 1..=6 {
                    let records = vec![rec(&id, &format!("tc-{:03}", seq * 4 + c))];
                    let reply = server.handle(&ClientMsg::Upload {
                        client: id.clone(),
                        seq,
                        records,
                    });
                    assert!(matches!(reply, ServerMsg::Ack(1)), "{reply:?}");
                }
                id
            })
            .collect()
    };

    let recovered = |profile: &StorageProfile| {
        let (stores, _) = StoreSet::open_with(tmp.path(), cfg, SHARDS, profile).unwrap();
        let server = UucsServer::with_store_set(stores, 9);
        let mut syncs = Vec::new();
        for id in &ids {
            let reply = server.handle(&ClientMsg::Sync {
                client: id.clone(),
                have: 0,
                want: 8,
            });
            assert!(matches!(reply, ServerMsg::TestcaseText { .. }), "{reply:?}");
            let mut text = Vec::new();
            uucs::protocol::wire::write_server_msg(&mut text, &reply).unwrap();
            syncs.push(text);
            syncs.push(uucs::wire::codec::encode_server(9, &reply).unwrap());
        }
        let ServerMsg::Stats(stats) = server.handle(&ClientMsg::Stats { reset: false }) else {
            panic!("expected a STATS reply");
        };
        assert!(!stats.contains("\"server.cache."), "{stats}");
        let horizons: Vec<u64> = ids.iter().map(|id| server.applied_seq(id)).collect();
        (
            (
                server.testcase_count(),
                server.client_count(),
                server.model_epoch(),
            ),
            server.results().unwrap(),
            horizons,
            syncs,
        )
    };
    let plain = recovered(&StorageProfile::default());
    assert_eq!(plain.0, (library.len(), ids.len(), 18));
    assert_eq!(plain.1.len(), 18);
    assert!(recovered(&StorageProfile::with_cache_pages(1024)) == plain);
    assert!(recovered(&StorageProfile::default()) == plain);
}

/// One kill storm over journals configured as `cfg`: six clients upload
/// sequenced batches over TCP to a group-commit server with three
/// shards, every fourth batch sent twice. Once `KILL_AFTER` uploads are
/// acked the server is torn down mid-flight; the journal is reopened
/// with five shards, and what it holds is checked against what the
/// clients were told.
fn kill_storm(name: &str, cfg: WalConfig) -> Result<(), Violation> {
    const CLIENTS: usize = 6;
    const KILL_AFTER: usize = 200;
    let tmp = TempDir::new(&format!("uucs-engine-{name}"));
    let tag = |seq: u64| format!("{name}-{seq}");
    // (client, seq) of every upload sent, moved to acked as its ACK is read.
    let ledger = Mutex::new(Ledger::<(String, u64)>::default());

    // Generation 1: sharded stores, group commit, worker-pool TCP.
    {
        let (stores, _) = StoreSet::open(tmp.path(), cfg, 3).unwrap();
        let server = UucsServer::with_store_set(stores, 9);
        let server = Arc::new(server.with_group_commit(Duration::from_micros(200)));
        let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (ledger, tag) = (&ledger, &tag);
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    let host = MachineSnapshot::study_machine(format!("{name}-{c}"));
                    write_client_msg(&mut writer, &ClientMsg::register(host)).unwrap();
                    let Ok(ServerMsg::Id { id, .. }) = read_server_msg(&mut reader) else {
                        return;
                    };
                    let mut exchange = |msg: &ClientMsg| {
                        write_client_msg(&mut writer, msg).is_ok()
                            && matches!(read_server_msg(&mut reader), Ok(ServerMsg::Ack(_)))
                    };
                    // Upload until the server dies under us.
                    for seq in 1..10_000u64 {
                        let upload = ClientMsg::Upload {
                            client: id.clone(),
                            seq,
                            records: vec![rec(&id, &tag(seq))],
                        };
                        ledger.lock().unwrap().attempt((id.clone(), seq));
                        if !exchange(&upload) {
                            return;
                        }
                        ledger.lock().unwrap().ack((id.clone(), seq));
                        // A client whose ack was lost sends the batch
                        // again: acked again, never stored twice.
                        if seq % 4 == 0 && !exchange(&upload) {
                            return;
                        }
                    }
                });
            }
            eventually(
                "the storm to get its uploads acked",
                Duration::from_secs(60),
                || ledger.lock().unwrap().acked().len() >= KILL_AFTER,
            );
            handle.shutdown();
        });
    }

    // Generation 2: reopen with a DIFFERENT shard count. Every acked
    // upload is inside the recovered dedup horizon and held once;
    // nothing else is held but the one upload per client in flight at
    // the kill.
    let (stores, _) = StoreSet::open(tmp.path(), cfg, 5).unwrap();
    let server = UucsServer::with_store_set(stores, 9);
    let ledger = ledger.into_inner().unwrap();
    // Each client's acks come in seq order: its last is its top.
    let tops: HashMap<&str, u64> =
        ledger.acked().iter().map(|(id, seq)| (id.as_str(), *seq)).collect();
    horizons_cover(tops, |id| server.applied_seq(id)).within(name)?;
    // A record's seq is its tag's suffix; one that does not parse is 0,
    // which was never sent.
    let seq_of = |tag: &str| tag.rsplit('-').next().and_then(|s| s.parse().ok());
    let held = server.results().unwrap().into_iter();
    let held: Vec<_> = held.map(|r| (r.client, seq_of(&r.testcase).unwrap_or(0))).collect();
    ledger.check(&held).within(name)
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
            let server = UucsServer::with_store_set(stores, 9);
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
