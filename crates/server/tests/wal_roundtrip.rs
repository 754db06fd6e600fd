//! Server-level crash-recovery round trip: results uploaded over TCP
//! and acknowledged must survive an abrupt server death (no checkpoint,
//! only the write-ahead log), across multiple generations.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use uucs_harness::invariants::{exactly_once, Violation, Within};
use uucs_harness::TempDir;
use uucs_protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs_protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
    WIRE_VERSION_BINARY,
};
use uucs_server::commit::QuorumMark;
use uucs_server::{tcp, ReplicationSink, StoreSet, TestcaseStore, UucsServer};
use uucs_testcase::{ExerciseSpec, Resource, Testcase};
use uucs_wal::{StdIo, SyncPolicy, WalConfig, WalReader};
use uucs_wire::conn::{negotiate, BinaryConn, Negotiated};

const CFG: WalConfig = WalConfig {
    segment_bytes: 1024,
    sync: SyncPolicy::Always,
};

fn record(i: usize) -> RunRecord {
    RunRecord {
        client: "client-0001".into(),
        user: format!("u{i}"),
        testcase: format!("t{}", i % 3),
        task: "Word".into(),
        skill: "Typical".into(),
        outcome: if i.is_multiple_of(2) {
            RunOutcome::Discomfort
        } else {
            RunOutcome::Exhausted
        },
        offset_secs: 10.0 + i as f64,
        last_levels: vec![(Resource::Cpu, vec![1.0, 1.5, 2.0])],
        monitor: MonitorSummary::default(),
    }
}

/// Opens the stores from the WAL directories and builds a server,
/// seeding the library on first boot only — what `uucs-server`
/// does on startup.
fn boot(dir: &Path) -> Arc<UucsServer> {
    let (stores, _) = StoreSet::open(dir, CFG, 1).unwrap();
    let server = UucsServer::with_store_set(stores, 11);
    if server.testcase_count() == 0 {
        let library: Vec<Testcase> = (0..3)
            .map(|i| {
                Testcase::single(
                    format!("t{i}"),
                    1.0,
                    Resource::Cpu,
                    ExerciseSpec::Ramp {
                        level: 1.0,
                        duration: 30.0,
                    },
                )
            })
            .collect();
        server.add_testcases(&library).unwrap();
    }
    Arc::new(server)
}

/// Registers over TCP and uploads `records` as batch `seq`, returning
/// the server's ack count.
fn upload_over_tcp(addr: std::net::SocketAddr, seq: u64, records: Vec<RunRecord>) -> usize {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_client_msg(
        &mut writer,
        &ClientMsg::register(MachineSnapshot::study_machine("wal-rt")),
    )
    .unwrap();
    let client = match read_server_msg(&mut reader).unwrap() {
        ServerMsg::Id { id, .. } => id,
        other => panic!("expected Id, got {other:?}"),
    };
    // A sync must see the recovered library.
    write_client_msg(
        &mut writer,
        &ClientMsg::Sync {
            client: client.clone(),
            have: 0,
            want: 10,
        },
    )
    .unwrap();
    match read_server_msg(&mut reader).unwrap() {
        ServerMsg::Testcases(tcs) => assert_eq!(tcs.len(), 3, "library lost across restart"),
        other => panic!("expected Testcases, got {other:?}"),
    }
    write_client_msg(&mut writer, &ClientMsg::Upload { client, seq, records }).unwrap();
    let n = match read_server_msg(&mut reader).unwrap() {
        ServerMsg::Ack(n) => n,
        other => panic!("expected Ack, got {other:?}"),
    };
    write_client_msg(&mut writer, &ClientMsg::Bye).unwrap();
    n
}

#[test]
fn acknowledged_uploads_survive_server_death() {
    let tmp = TempDir::new("uucs-wal-roundtrip");
    let dir = tmp.path().to_path_buf();

    // Generation 1: boot, upload 4 records over TCP, die without saving.
    {
        let server = boot(&dir);
        let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
        assert_eq!(
            upload_over_tcp(handle.addr(), 1, (0..4).map(record).collect()),
            4
        );
        // The "kill": shut the socket down and drop all in-memory state.
        // No checkpoint is taken; durability rests on the journal alone.
        handle.shutdown();
    }

    // Generation 2: recovery sees the 4 acknowledged records *and* the
    // generation-1 registration; a new client's sync sees the recovered
    // library; 3 more records arrive.
    {
        let server = boot(&dir);
        assert_eq!(server.result_count(), 4, "acknowledged uploads were lost");
        assert_eq!(server.testcase_count(), 3);
        assert_eq!(server.client_count(), 1, "registration lost across restart");
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        assert_eq!(
            upload_over_tcp(handle.addr(), 1, (4..7).map(record).collect()),
            3
        );
        handle.shutdown();
    }

    // Generation 3: the journal replay reconstructs all 7, in upload
    // order, byte-for-byte.
    {
        let server = boot(&dir);
        assert_eq!(server.result_count(), 7);
        assert_eq!(server.client_count(), 2);
        let all = server.results().unwrap();
        for (i, rec) in all.iter().enumerate() {
            assert_eq!(rec, &record(i), "record {i} mutated across recovery");
        }
        assert_eq!(server.testcase_count(), 3);
    }
}

/// The lost-Ack retransmit is safe even across a server kill: the batch
/// horizon rides in the WAL, so the recovered server re-acks the replay
/// and stores nothing twice.
#[test]
fn retransmit_after_lost_ack_is_deduped_across_restart() -> Result<(), Violation> {
    let tmp = TempDir::new("uucs-wal-retransmit");
    let dir = tmp.path().to_path_buf();
    let records: Vec<RunRecord> = (0..3).map(record).collect();
    // Each record's user is unique: the batch's three records, held once.
    let held_once = |server: &UucsServer| {
        let held = server.results().unwrap().into_iter().map(|r| r.user);
        exactly_once(records.iter().map(|r| r.user.clone()), held, [])
    };

    // Generation 1: the batch is applied and journaled, but pretend the
    // Ack never reached the client (we simply ignore it), and the server
    // dies.
    let client = {
        let server = boot(&dir);
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::register(MachineSnapshot::study_machine("retrans")),
        )
        .unwrap();
        let client = match read_server_msg(&mut reader).unwrap() {
            ServerMsg::Id { id, .. } => id,
            other => panic!("{other:?}"),
        };
        write_client_msg(
            &mut writer,
            &ClientMsg::Upload {
                client: client.clone(),
                seq: 1,
                records: records.clone(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Ack(3)
        ));
        handle.shutdown();
        client
    };

    // Generation 2: the client retries the identical batch. The
    // recovered server recognizes (client, seq) and re-acks without a
    // second copy.
    {
        let server = boot(&dir);
        held_once(&server).within("recovered")?;
        assert_eq!(server.applied_seq(&client), 1);
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_client_msg(
            &mut writer,
            &ClientMsg::Upload {
                client: client.clone(),
                seq: 1,
                records: records.clone(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_msg(&mut reader).unwrap(),
            ServerMsg::Ack(3)
        ));
        held_once(&server).within("after the retransmit")?;
        // The records are byte-for-byte the originals.
        assert_eq!(server.results().unwrap(), records);
        handle.shutdown();
    }
    Ok(())
}

/// The binary wire carries length-prefixed strings, so a record field
/// or a registration token can hold a line break — which, spliced into
/// the line-oriented journal, once made the *next* open fail on every
/// restart (`unknown record key "BOGUS"`), or forged whole records.
/// Such a frame is answered `ERROR` on a connection that stays usable,
/// nothing of it is journaled, and the server restarts to exactly what
/// was acknowledged.
#[test]
fn text_injected_through_the_binary_wire_is_refused_and_the_restart_is_clean() {
    let tmp = TempDir::new("uucs-wal-injection");
    let dir = tmp.path().to_path_buf();
    let with_task = |i: usize, task: &str| RunRecord {
        task: task.into(),
        ..record(i)
    };
    let refused = |reply: ServerMsg, how: &str| match reply {
        ServerMsg::Error(e) => assert!(e.starts_with(how), "{e}"),
        other => panic!("expected ERROR, got {other:?}"),
    };
    let snapshot = MachineSnapshot::study_machine("inject");

    let client = {
        let server = boot(&dir);
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let agreed = negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY).unwrap();
        assert_eq!(agreed, Negotiated::Version(WIRE_VERSION_BINARY));
        let mut conn = BinaryConn::new(writer, reader);

        let register = |token: &str| ClientMsg::Register {
            snapshot: snapshot.clone(),
            token: token.into(),
        };
        let client = match conn.exchange(&register("tok-good")).unwrap() {
            ServerMsg::Id { id, .. } => id,
            other => panic!("expected Id, got {other:?}"),
        };
        let upload = |seq, records| ClientMsg::Upload {
            client: client.clone(),
            seq,
            records,
        };
        let good: Vec<RunRecord> = (0..3).map(record).collect();
        assert_eq!(conn.exchange(&upload(1, good)).unwrap(), ServerMsg::Ack(3));

        // At the frame, over TCP.
        let forged = "x\nEND\nRESULT\nCLIENT victim\nOUTCOME exhausted";
        for task in ["Word\nBOGUS x", forged, "Word\r", " Word", "-"] {
            let reply = conn.exchange(&upload(2, vec![record(3), with_task(4, task)]));
            refused(reply.unwrap(), "message refused: UPLOAD record 1: task ");
        }
        for token in ["tok\nHOST evil", "two tokens"] {
            refused(conn.exchange(&register(token)).unwrap(), "message refused: REGISTER token ");
        }
        // And where the text is made, for a caller that is not a frame.
        let reply = server.handle(&upload(2, vec![with_task(4, "Word\nBOGUS x")]));
        refused(reply, "upload rejected: record 0: task ");
        refused(server.handle(&register("tok\nHOST evil")), "registration rejected: ");

        // The connection survived all of it, and so did batch 2's turn.
        let more: Vec<RunRecord> = (3..5).map(record).collect();
        assert_eq!(conn.exchange(&upload(2, more)).unwrap(), ServerMsg::Ack(2));
        conn.bye();
        handle.shutdown();
        client
    };

    let server = boot(&dir);
    assert_eq!(server.client_count(), 1, "a refused registration was journaled");
    assert_eq!(server.applied_seq(&client), 2);
    let want: Vec<RunRecord> = (0..5).map(record).collect();
    assert_eq!(server.results().unwrap(), want);
}

/// A sink that keeps what it is handed and asks for no quorum.
#[derive(Default)]
struct Shipped(std::sync::Mutex<Vec<(String, Vec<u8>)>>);

impl ReplicationSink for Shipped {
    fn ship(&self, key: &str, payload: Vec<u8>) -> std::io::Result<Option<QuorumMark>> {
        self.0.lock().unwrap().push((key.to_string(), payload));
        Ok(None)
    }
    fn mark_shipped(&self, _: &str) -> std::io::Result<Option<QuorumMark>> {
        Ok(None)
    }
    fn poll_quorum(&self, _: QuorumMark) -> Option<std::io::Result<()>> {
        Some(Ok(()))
    }
    fn wait_quorum(&self, _: QuorumMark) -> std::io::Result<()> {
        Ok(())
    }
}

/// The payloads a journal directory holds, in LSN order.
fn journaled(dir: &Path) -> Vec<Vec<u8>> {
    let reader = WalReader::open(StdIo::new(), dir).unwrap();
    let payloads: Vec<Vec<u8>> = reader.records().map(|r| r.unwrap().1).collect();
    payloads
}

/// What a leader ships is the journal entry itself — the payload the
/// store encoded for its WAL, routed by the client id — and it is the
/// encoding the `REPL` wire has always carried (`WalEntry::encode` of
/// the mutation), so followers of either vintage read it. A replayed
/// batch ships nothing: it went out the first time.
#[test]
fn what_a_leader_ships_is_the_journal_entry_byte_for_byte() {
    use uucs_protocol::WalEntry;
    let dir = TempDir::new("uucs-ship-bytes");
    let server = boot(dir.path());
    let sink = Arc::new(Shipped::default());
    server.set_replication(sink.clone());
    let snapshot = MachineSnapshot::study_machine("shipper");
    let ServerMsg::Id { id, .. } = server.handle(&ClientMsg::Register {
        snapshot: snapshot.clone(),
        token: "tok".into(),
    }) else {
        panic!("registration refused");
    };
    let batches = [vec![record(0), record(1)], vec![record(2)]];
    for (i, records) in batches.iter().enumerate() {
        for _retransmit in 0..2 {
            let reply = server.handle(&ClientMsg::Upload {
                client: id.clone(),
                seq: i as u64 + 1,
                records: records.clone(),
            });
            assert_eq!(reply, ServerMsg::Ack(records.len()));
        }
    }
    let shipped = sink.0.lock().unwrap().clone();
    assert!(
        shipped.iter().all(|(key, _)| *key == id),
        "routed by the client id"
    );
    let shipped: Vec<Vec<u8>> = shipped.into_iter().map(|(_, payload)| payload).collect();
    let mut journal = journaled(&dir.path().join("registry"));
    journal.extend(journaled(&dir.path().join("results")));
    assert_eq!(
        shipped, journal,
        "one registration, two batches, no replays"
    );
    let mut entries = vec![WalEntry::Client {
        id: id.clone(),
        token: "tok".into(),
        snapshot,
    }];
    entries.extend(
        batches
            .iter()
            .zip(1u64..)
            .map(|(records, seq)| WalEntry::Batch {
                client: id.clone(),
                seq,
                records: records.clone(),
            }),
    );
    let encoded: Vec<Vec<u8>> = entries.iter().map(WalEntry::encode).collect();
    assert_eq!(shipped, encoded, "the REPL wire's bytes are unchanged");
}

/// A follower fed by tail journals what the leader shipped as it came:
/// its registry, results and testcase journals hold the shipped
/// payloads byte for byte, in shipping order, and a payload delivered
/// twice is journaled once.
#[test]
fn a_tailing_follower_journals_the_payloads_the_leader_shipped() {
    let dir = TempDir::new("uucs-follower-bytes");
    let open = |name: &str, shards| {
        let (stores, _) = StoreSet::open(&dir.path().join(name), CFG, shards).unwrap();
        UucsServer::with_store_set(stores, 11)
    };
    let leader = open("leader", 4);
    let sink = Arc::new(Shipped::default());
    leader.set_replication(sink.clone());
    leader.add_testcases(&varied_library()[..6]).unwrap();
    let mut ids = Vec::new();
    for host in ["a", "b"] {
        let ServerMsg::Id { id, .. } = leader.handle(&ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine(host),
            token: format!("tok-{host}"),
        }) else {
            panic!("registration refused");
        };
        ids.push(id);
    }
    for seq in 1..=3u64 {
        for id in &ids {
            let records = (0..seq as usize)
                .map(|i| RunRecord {
                    client: id.clone(),
                    ..record(i)
                })
                .collect();
            let upload = ClientMsg::Upload {
                client: id.clone(),
                seq,
                records,
            };
            assert_eq!(leader.handle(&upload), ServerMsg::Ack(seq as usize));
        }
    }
    let shipped: Vec<Vec<u8>> = sink
        .0
        .lock()
        .unwrap()
        .iter()
        .map(|(_, p)| p.clone())
        .collect();

    // One shard: the follower's journals are flat, in arrival order.
    let follower = open("follower", 1);
    for payload in shipped.iter().chain(&shipped) {
        follower.apply_entry(payload).unwrap();
    }
    assert_eq!(
        (follower.result_count(), follower.testcase_count()),
        (12, 6)
    );
    for id in &ids {
        assert_eq!(follower.applied_seq(id), 3);
    }
    for (family, tag) in [("registry", b'C'), ("results", b'B'), ("testcases", b'T')] {
        let want: Vec<&Vec<u8>> = shipped.iter().filter(|p| p[0] == tag).collect();
        let held = journaled(&dir.path().join("follower").join(family));
        assert!(!want.is_empty(), "{family}: nothing was shipped");
        assert!(
            held.iter().eq(want),
            "{family}: the journal is not what was shipped"
        );
    }
}

/// The merged sketch the server serves, next to that of the model of
/// exactly the records it holds.
fn sketch_and_records_model(server: &UucsServer) -> (String, String) {
    let mut model = uucs_modelsvc::ComfortModel::new();
    let records = server.results().unwrap();
    model.observe(&uucs_server::models::observations_of(&records));
    (
        server.model_sketch(Resource::Cpu, None).encode(),
        model.merged(Resource::Cpu, None).encode(),
    )
}

/// A data directory with no model cache beside its records — what a
/// parent build leaves (its model journal is never read), or one whose
/// caches were deleted — opens with the fold of every record it holds,
/// at the epoch the live model had: one per sequenced upload. The
/// catch-up a daemon runs once it listens writes the caches, so the next
/// open folds nothing and reads the same.
#[test]
fn records_without_a_model_cache_are_refolded_at_open() {
    let dir = TempDir::new("uucs-model-upgrade");
    let open = || {
        let (stores, _) = StoreSet::open(dir.path(), CFG, 2).unwrap();
        UucsServer::with_store_set(stores, 11)
    };
    let live = {
        let server = open();
        for host in ["a", "b", "c"] {
            let ServerMsg::Id { id, .. } =
                server.handle(&ClientMsg::register(MachineSnapshot::study_machine(host)))
            else {
                panic!("registration refused");
            };
            for seq in 1..=3u64 {
                let records = (0..4)
                    .map(|i| RunRecord {
                        client: id.clone(),
                        ..record(seq as usize * 4 + i)
                    })
                    .collect();
                let reply = server.handle(&ClientMsg::Upload {
                    client: id.clone(),
                    seq,
                    records,
                });
                assert_eq!(reply, ServerMsg::Ack(4));
            }
        }
        assert_eq!((server.result_count(), server.model_epoch()), (36, 9));
        sketch_and_records_model(&server)
    };
    assert_eq!(live.0, live.1, "the live model is the fold of its records");
    for shard in 0..2 {
        let _ = std::fs::remove_file(dir.path().join(format!("model-{shard:03}.cache")));
    }
    for folded in [36, 0] {
        let server = open();
        assert_eq!(server.model_epoch(), 9, "one epoch per sequenced upload");
        assert_eq!(server.model_folded_records(), folded);
        assert_eq!(sketch_and_records_model(&server), live);
        assert!(server.catch_up_model_caches().is_empty(), "a cache write failed");
    }
}

/// A fresh data directory holds the three journal families and, once
/// the results outgrow the bound, the model caches: no model journal.
#[test]
fn a_data_directory_holds_three_journals_and_the_model_caches() {
    let tmp = TempDir::new("uucs-fresh-layout");
    let server = UucsServer::with_store_set(StoreSet::open(tmp.path(), CFG, 2).unwrap().0, 5);
    let ServerMsg::Id { id, .. } = server.handle(&ClientMsg::register(MachineSnapshot::study_machine("h")))
    else {
        panic!("registration refused");
    };
    let mut folded = 0;
    for seq in 1..=400u64 {
        let records: Vec<RunRecord> = (0..8).map(|i| RunRecord { client: id.clone(), ..record(i) }).collect();
        folded += records.len();
        let reply = server.handle(&ClientMsg::Upload { client: id.clone(), seq, records });
        assert_eq!(reply, ServerMsg::Ack(8));
    }
    drop(server);
    let mut names: Vec<String> = std::fs::read_dir(tmp.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let shard = uucs_server::shard_of(&id, 2);
    let cache = format!("model-{shard:03}.cache");
    let mut want = vec![cache, "registry".into(), "results".into(), "testcases".into()];
    want.sort();
    assert_eq!(names, want);
    let server = UucsServer::with_store_set(StoreSet::open(tmp.path(), CFG, 2).unwrap().0, 5);
    assert_eq!(server.model_epoch(), 400);
    assert!((server.model_folded_records() as usize) < folded, "the open folded past the cache");
}

/// A slice of the Internet study's library holding every kind of
/// exercise function its generator makes.
fn varied_library() -> Vec<Testcase> {
    let sweep = uucs_testcase::generate::Library::internet_sweep(42);
    sweep.testcases().iter().step_by(45).cloned().collect()
}

/// Syncs a fresh client through the whole of `server`'s library and
/// checks every reply: it is the held text, and in both framings it is
/// byte for byte the encoding of the same testcases built from
/// `library`'s structs.
fn assert_syncs_encode_like_structs(server: &UucsServer, library: &[Testcase], what: &str) {
    let by_id: std::collections::HashMap<&str, &Testcase> =
        library.iter().map(|t| (t.id.as_str(), t)).collect();
    let snapshot = MachineSnapshot::study_machine("parity");
    let ServerMsg::Id { id, .. } = server.handle(&ClientMsg::register(snapshot)) else {
        panic!("{what}: registration refused");
    };
    let mut have = 0;
    for want in [8, 13, library.len()] {
        let reply = server.handle(&ClientMsg::Sync {
            client: id.clone(),
            have,
            want,
        });
        assert!(
            matches!(reply, ServerMsg::TestcaseText { .. }),
            "{what}: {reply:?}"
        );
        let Ok(ServerMsg::Testcases(got)) = reply.clone().received() else {
            panic!("{what}: reply does not decode");
        };
        let structs =
            ServerMsg::Testcases(got.iter().map(|t| by_id[t.id.as_str()].clone()).collect());
        let (mut text, mut want_text) = (Vec::new(), Vec::new());
        uucs_protocol::wire::write_server_msg(&mut text, &reply).unwrap();
        uucs_protocol::wire::write_server_msg(&mut want_text, &structs).unwrap();
        assert!(
            text == want_text,
            "{what}: text framing differs at have={have}"
        );
        let binary = uucs_wire::codec::encode_server(9, &reply).unwrap();
        let want_binary = uucs_wire::codec::encode_server(9, &structs).unwrap();
        assert!(
            binary == want_binary,
            "{what}: binary framing differs at have={have}"
        );
        have += got.len();
    }
    assert_eq!(
        have,
        library.len(),
        "{what}: the library was not served whole"
    );
}

/// `SYNC` splices the blocks a store holds, and those are the struct
/// encoder's bytes however the store came by them: rendered by `add`,
/// kept from a replayed journal or a checkpoint, moved by a reshard, or
/// applied by a follower from what the leader shipped. What the leader
/// ships and journals is `WalEntry::encode` of each testcase.
#[test]
fn sync_replies_are_the_struct_encoding_however_the_library_was_loaded() {
    use uucs_protocol::WalEntry;
    let tmp = TempDir::new("uucs-sync-text");
    let dir = tmp.path().to_path_buf();
    let library = varied_library();
    let open =
        |shards| UucsServer::with_store_set(StoreSet::open(&dir, CFG, shards).unwrap().0, 21);
    let sink = Arc::new(Shipped::default());
    {
        let leader = open(8);
        leader.set_replication(sink.clone());
        leader.add_testcases(&library).unwrap();
        assert_syncs_encode_like_structs(&leader, &library, "built by add");
    }
    let encoded: Vec<Vec<u8>> = library
        .iter()
        .map(|tc| WalEntry::Testcase(tc.clone()).encode())
        .collect();
    // The parity client's registration was shipped too.
    let shipped: Vec<Vec<u8>> = (sink.0.lock().unwrap().iter())
        .filter(|(_, payload)| payload[0] == uucs_protocol::walenc::TAG_TESTCASE)
        .map(|(_, payload)| payload.clone())
        .collect();
    assert!(
        shipped == encoded,
        "the leader ships each testcase's journal entry"
    );
    let mut held: Vec<Vec<u8>> = (0..8)
        .flat_map(|i| journaled(&dir.join(format!("testcases/by-8/shard-{i:03}"))))
        .collect();
    let mut want = encoded.clone();
    held.sort();
    want.sort();
    assert!(held == want, "the journals hold each testcase's entry once");

    assert_syncs_encode_like_structs(&open(8), &library, "reopened from the journal");
    for i in 0..8 {
        checkpoint_as_an_older_build(&dir.join(format!("testcases/by-8/shard-{i:03}")));
    }
    assert_syncs_encode_like_structs(&open(8), &library, "restored from a checkpoint");
    assert_syncs_encode_like_structs(&open(4), &library, "resharded 8 to 4");

    let follower = UucsServer::with_store_set(StoreSet::in_memory(2), 21);
    for payload in &shipped {
        follower.apply_entry(payload).unwrap();
    }
    assert_syncs_encode_like_structs(&follower, &library, "on a follower");
}

/// CRC-32 of every file under `dir`, in name order, names included.
fn files_crc(dir: &Path) -> u32 {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for name in names {
        bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(dir.join(&name)).unwrap());
    }
    uucs_wal::crc::crc32(&bytes)
}

/// Writes the checkpoint an older build's periodic compaction wrote
/// over the closed testcase journal under `dir`: the store's text,
/// superseding everything journaled, and the segments it covers
/// deleted. Returns that text.
fn checkpoint_as_an_older_build(dir: &Path) -> String {
    let text = TestcaseStore::open_wal(dir, CFG).unwrap().0.text().to_string();
    let (mut wal, _) = uucs_wal::Wal::open(StdIo::new(), dir, CFG).unwrap();
    wal.snapshot(text.as_bytes()).unwrap();
    wal.compact().unwrap();
    text
}

/// The testcase journal holds the bytes the store wrote while it kept
/// testcases as structs, and the server's periodic checkpoint leaves it
/// so; the checkpoint an older build's compaction wrote over it holds
/// the bytes that build wrote, and reopens to the same library. The
/// pinned CRC-32s were taken from those builds, for the same library
/// and segment size.
#[test]
fn testcase_journal_and_checkpoint_bytes_are_pinned() {
    let tmp = TempDir::new("uucs-tc-bytes");
    let (mut store, _) = TestcaseStore::open_wal(tmp.path(), CFG).unwrap();
    for tc in varied_library() {
        store.add(&tc).unwrap();
    }
    assert_eq!(files_crc(tmp.path()), JOURNAL_CRC, "journal bytes moved");
    let server = UucsServer::new(store, 1);
    assert_eq!(files_crc(tmp.path()), JOURNAL_CRC, "a server rewrote the journal");
    drop(server);
    let text = checkpoint_as_an_older_build(tmp.path());
    assert_eq!(
        files_crc(tmp.path()),
        CHECKPOINT_CRC,
        "checkpoint bytes moved"
    );
    let (store, _) = TestcaseStore::open_wal(tmp.path(), CFG).unwrap();
    assert_eq!(store.text(), text);
    assert_eq!(store.testcases(), varied_library());
}

const JOURNAL_CRC: u32 = 0x856e_b80e;
const CHECKPOINT_CRC: u32 = 0x1f52_c178;

/// Every file under `dir`, recursively, by path.
fn tree(dir: &Path) -> std::collections::BTreeMap<std::path::PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

fn is_checkpoint(path: &Path) -> bool {
    path.extension().is_some_and(|x| x == "snap")
}

const TICK_SHARDS: usize = 4;

fn open_tick_server(dir: &Path) -> UucsServer {
    UucsServer::with_store_set(StoreSet::open(dir, CFG, TICK_SHARDS).unwrap().0, 5)
}

/// Registers a client and uploads two batches of three records, each
/// record's `user` unique; returns the users acked.
fn register_and_upload(server: &UucsServer, host: &str) -> Vec<String> {
    let register = ClientMsg::register(MachineSnapshot::study_machine(host));
    let ServerMsg::Id { id: client, .. } = server.handle(&register) else {
        panic!("{host}: no id");
    };
    let mut acked = Vec::new();
    for seq in 1..=2u64 {
        let records: Vec<RunRecord> = (0..3)
            .map(|i| RunRecord {
                client: client.clone(),
                user: format!("{client}-{seq}-{i}"),
                ..record(i)
            })
            .collect();
        let upload = ClientMsg::Upload { client: client.clone(), seq, records: records.clone() };
        match server.handle(&upload) {
            ServerMsg::Ack(3) => acked.extend(records.into_iter().map(|r| r.user)),
            other => panic!("{host}: {other:?}"),
        }
    }
    acked
}

/// A server over `dir` with the varied library seeded and three clients
/// registered, each with two acked batches; returns it and the users
/// acked.
fn loaded(dir: &Path) -> (UucsServer, Vec<String>) {
    let server = open_tick_server(dir);
    server.add_testcases(varied_library()).unwrap();
    let acked = (0..3)
        .flat_map(|c| register_and_upload(&server, &format!("tick-{c}")))
        .collect();
    (server, acked)
}

/// Each shard's testcase and registry text, and its records and
/// horizons, read straight from the journals under `dir`.
fn shard_states(dir: &Path) -> Vec<String> {
    use uucs_server::{RegistryStore, ResultStore};
    let mut states = Vec::new();
    for i in 0..TICK_SHARDS {
        let shard = |family: &str| dir.join(family).join(format!("by-{TICK_SHARDS}/shard-{i:03}"));
        let testcases = TestcaseStore::open_wal(&shard("testcases"), CFG).unwrap().0;
        let registry = RegistryStore::open_wal(&shard("registry"), CFG).unwrap().0;
        let results = ResultStore::open_wal(&shard("results"), CFG).unwrap().0;
        let records: String = results.records().map(|r| r.unwrap().emit()).collect();
        states.push(testcases.text().to_string());
        states.push(registry.text().to_string());
        states.push(format!("{:?}\n{records}", results.applied_horizons()));
    }
    states
}

/// Writes over every testcase, result and registry journal under `dir`
/// the checkpoint an older build's periodic compaction wrote: results as
/// `SEQ <client> <n>` lines and then their blocks, testcases and
/// registrations as the text the stores hold.
fn checkpoint_everything_as_an_older_build(dir: &Path) {
    use uucs_server::{RegistryStore, ResultStore};
    for i in 0..TICK_SHARDS {
        let shard = |family: &str| dir.join(family).join(format!("by-{TICK_SHARDS}/shard-{i:03}"));
        let results = ResultStore::open_wal(&shard("results"), CFG).unwrap().0;
        let mut text: String = (results.applied_horizons().iter())
            .map(|(client, seq)| format!("SEQ {client} {seq}\n"))
            .collect();
        text.extend(results.records().map(|r| r.unwrap().emit()));
        drop(results);
        let texts = [
            ("results", text),
            ("testcases", TestcaseStore::open_wal(&shard("testcases"), CFG).unwrap().0.text().to_string()),
            ("registry", RegistryStore::open_wal(&shard("registry"), CFG).unwrap().0.text().to_string()),
        ];
        for (family, text) in texts {
            let (mut wal, _) = uucs_wal::Wal::open(StdIo::new(), shard(family), CFG).unwrap();
            wal.snapshot(text.as_bytes()).unwrap();
            wal.compact().unwrap();
        }
    }
}

/// A data directory whose testcase, result and registry journals an
/// older build checkpointed, with a tail written past each checkpoint,
/// reopens to the records, horizons, testcases and registrations the
/// same journals give unfolded, and every acked upload is held once.
#[test]
fn a_data_directory_an_older_build_checkpointed_reopens_to_the_same_state() -> Result<(), Violation> {
    let (plain, folded) = (TempDir::new("uucs-old-plain"), TempDir::new("uucs-old-folded"));
    let mut acked = loaded(plain.path()).1;
    for (from, bytes) in tree(plain.path()) {
        let to = folded.join(from.strip_prefix(plain.path()).unwrap());
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::write(to, bytes).unwrap();
    }
    checkpoint_everything_as_an_older_build(folded.path());
    let snaps = tree(folded.path()).into_keys().filter(|p| is_checkpoint(p)).count();
    assert!(snaps >= 3 * TICK_SHARDS, "{snaps} checkpoints");
    let extra = Testcase::single("tail-case", 1.0, Resource::Cpu, ExerciseSpec::Ramp { level: 1.0, duration: 5.0 });
    for dir in [plain.path(), folded.path()] {
        let server = open_tick_server(dir);
        server.add_testcases(std::slice::from_ref(&extra)).unwrap();
        let tail = register_and_upload(&server, "tail-host");
        if dir == plain.path() {
            acked.extend(tail);
        }
    }
    assert_eq!(shard_states(folded.path()), shard_states(plain.path()));
    let server = open_tick_server(folded.path());
    assert_eq!(server.client_count(), 4);
    let held = server.results().unwrap().into_iter().map(|r| r.user);
    exactly_once(acked, held, []).within("reopened over older checkpoints")
}
