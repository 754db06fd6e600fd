//! Server-level crash-recovery round trip: results uploaded over TCP
//! and acknowledged must survive an abrupt server death (no checkpoint,
//! no save — only the write-ahead log), across multiple generations.

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
use uucs_server::{
    tcp, RegistryStore, ReplicationSink, ResultStore, StoreSet, TestcaseStore, UucsServer,
};
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

/// Opens both stores from the WAL directories and builds a server,
/// seeding the library on first boot only — what `uucs-server --wal`
/// does on startup.
fn boot(dir: &Path) -> Arc<UucsServer> {
    let (mut testcases, _) = TestcaseStore::open_wal(&dir.join("testcases"), CFG).unwrap();
    let (results, _) = ResultStore::open_wal(&dir.join("results"), CFG).unwrap();
    let (registry, _) = RegistryStore::open_wal(&dir.join("registry"), CFG).unwrap();
    if testcases.is_empty() {
        for i in 0..3 {
            testcases
                .add(&Testcase::single(
                    format!("t{i}"),
                    1.0,
                    Resource::Cpu,
                    ExerciseSpec::Ramp {
                        level: 1.0,
                        duration: 30.0,
                    },
                ))
                .unwrap();
        }
    }
    Arc::new(UucsServer::with_all_stores(testcases, results, registry, 11))
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
        // Nothing calls save(); durability rests on the journal alone.
        handle.shutdown();
    }

    // Generation 2: recovery sees the 4 acknowledged records *and* the
    // generation-1 registration; a new client's sync sees the recovered
    // library; 3 more records arrive, and this generation also compacts
    // mid-life.
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
        assert!(server.compact().unwrap(), "wal-backed stores must compact");
        handle.shutdown();
    }

    // Generation 3: the snapshot + tail replay reconstruct all 7, in
    // upload order, byte-for-byte.
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

/// The merged sketch the server serves, next to that of the model of
/// exactly the records it holds.
fn sketch_and_records_model(server: &UucsServer) -> (String, String) {
    let mut model = uucs_modelsvc::ComfortModel::new();
    let records = server.results().unwrap();
    let delta = model.next_delta(uucs_server::models::observations_of(&records));
    model.apply(&delta).unwrap();
    (
        server.model_sketch(Resource::Cpu, None).encode(),
        model.merged(Resource::Cpu, None).encode(),
    )
}

/// A data directory whose records were appended but never folded into
/// the model — what a follower of an older build leaves, here made by a
/// server with model updates off — opens with the model of every record
/// it holds, one epoch per client. That model is journaled, so the next
/// open finds epochs and folds nothing again.
#[test]
fn records_beside_an_empty_model_are_folded_once_at_open() {
    let dir = TempDir::new("uucs-model-upgrade");
    let open = || {
        let (stores, _) = StoreSet::open(dir.path(), CFG, 2).unwrap();
        UucsServer::with_store_set(stores, 11)
    };
    {
        let server = open().without_model_updates();
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
        assert_eq!((server.result_count(), server.model_epoch()), (36, 0));
    }
    let (sketch, want) = {
        let server = open();
        assert_eq!(server.model_epoch(), 3, "one epoch per client");
        let (sketch, want) = sketch_and_records_model(&server);
        assert_eq!(sketch, want);
        (sketch, want)
    };
    let server = open();
    assert_eq!(
        server.model_epoch(),
        3,
        "a model with epochs is not folded again"
    );
    assert_eq!(sketch_and_records_model(&server), (sketch, want));
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
    assert!(open(8).compact().unwrap());
    assert_syncs_encode_like_structs(&open(8), &library, "restored from a checkpoint");
    assert_syncs_encode_like_structs(&open(4), &library, "resharded 8 to 4");

    let follower = UucsServer::with_store_set(StoreSet::plain(2), 21);
    for payload in &shipped {
        follower
            .apply_entry(&WalEntry::decode(payload).unwrap())
            .unwrap();
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

/// The testcase journal and its checkpoint hold the bytes the store
/// wrote while it kept testcases as structs: the pinned CRC-32s were
/// taken from that build, for the same library and segment size.
#[test]
fn testcase_journal_and_checkpoint_bytes_are_pinned() {
    let tmp = TempDir::new("uucs-tc-bytes");
    let (mut store, _) = TestcaseStore::open_wal(tmp.path(), CFG).unwrap();
    for tc in varied_library() {
        store.add(&tc).unwrap();
    }
    assert_eq!(files_crc(tmp.path()), JOURNAL_CRC, "journal bytes moved");
    let server = UucsServer::new(store, 1);
    assert!(server.compact().unwrap());
    assert_eq!(
        files_crc(tmp.path()),
        CHECKPOINT_CRC,
        "checkpoint bytes moved"
    );
}

const JOURNAL_CRC: u32 = 0x856e_b80e;
const CHECKPOINT_CRC: u32 = 0x1f52_c178;
