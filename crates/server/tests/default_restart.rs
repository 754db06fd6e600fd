//! The `uucs-server` binary as it starts by default — no `--wal` — keeps
//! what it acknowledged: registrations and uploads acked before a
//! SIGKILL are all there after a restart over the same `--data`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use uucs_harness::invariants::{exactly_once, horizons_cover, Ledger, Within};
use uucs_harness::TempDir;
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_server::{StoreSet, UucsServer};
use uucs_testcase::{format as tcformat, ExerciseSpec, Resource, Testcase};
use uucs_wal::WalConfig;

/// Starts the binary on an ephemeral port and reads its log through the
/// `listening on` line: the child, the address, the `recovered …` line.
fn start(data: &Path, library: &Path) -> (Child, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_uucs-server"))
        .args(["--addr", "127.0.0.1:0", "--data"])
        .args([data, Path::new("--library"), library])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let mut recovered = String::new();
    loop {
        let Some(Ok(line)) = lines.next() else {
            panic!("uucs-server exited before listening: {:?}", child.wait());
        };
        if line.starts_with("recovered ") {
            recovered = line;
        } else if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split_whitespace().next().unwrap().to_string();
            std::thread::spawn(move || lines.for_each(drop));
            return (child, addr, recovered);
        }
    }
}

/// One text-wire connection: each message and its reply.
struct Session(TcpStream, BufReader<TcpStream>);

impl Session {
    fn ask(&mut self, msg: ClientMsg) -> ServerMsg {
        write_client_msg(&mut self.0, &msg).unwrap();
        read_server_msg(&mut self.1).unwrap()
    }

    /// Registers under `token`: the id and its applied horizon.
    fn register(&mut self, token: &str) -> (String, u64) {
        let snapshot = MachineSnapshot::study_machine(token);
        match self.ask(ClientMsg::Register { snapshot, token: token.into() }) {
            ServerMsg::Id { id, applied_seq } => (id, applied_seq),
            other => panic!("expected ID, got {other:?}"),
        }
    }

    /// Uploads batch `seq` of `client`, two records, each `(client,
    /// user)` in the ledger: attempted before, acked after.
    fn upload(&mut self, ledger: &mut Ledger<(String, String)>, client: &str, seq: u64) {
        let records: Vec<RunRecord> = (0..2)
            .map(|i| RunRecord {
                client: client.into(),
                user: format!("u{seq}-{i}"),
                testcase: "t0".into(),
                task: "Word".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 12.5,
                last_levels: vec![(Resource::Cpu, vec![1.0, 2.0])],
                monitor: MonitorSummary::default(),
            })
            .collect();
        let keys: Vec<_> = records.iter().map(|r| (r.client.clone(), r.user.clone())).collect();
        keys.iter().for_each(|key| ledger.attempt(key.clone()));
        let (client, n) = (client.into(), records.len());
        match self.ask(ClientMsg::Upload { client, seq, records }) {
            ServerMsg::Ack(acked) => assert_eq!(acked, n),
            other => panic!("expected ACK, got {other:?}"),
        }
        keys.into_iter().for_each(|key| ledger.ack(key));
    }
}

fn session(addr: &str) -> Session {
    let stream = TcpStream::connect(addr).unwrap();
    Session(stream.try_clone().unwrap(), BufReader::new(stream))
}

#[test]
fn the_default_server_keeps_what_it_acked_across_a_kill() {
    let tmp = TempDir::new("uucs-default-restart");
    let (data, library) = (tmp.join("data"), tmp.join("library.txt"));
    let ramp = ExerciseSpec::Ramp { level: 1.0, duration: 30.0 };
    let testcases: Vec<Testcase> =
        (0..3).map(|i| Testcase::single(format!("t{i}"), 1.0, Resource::Cpu, ramp.clone())).collect();
    std::fs::write(&library, tcformat::emit_many(&testcases)).unwrap();
    let tokens = ["tok-0", "tok-1", "tok-2"];
    let mut ledger = Ledger::default();

    // First life: register every client, upload batches 1 and 2, die.
    let (mut server, addr, _) = start(&data, &library);
    let mut ids = Vec::new();
    for token in tokens {
        let mut s = session(&addr);
        let (id, applied) = s.register(token);
        assert_eq!(applied, 0, "a fresh data directory knows no client");
        s.upload(&mut ledger, &id, 1);
        s.upload(&mut ledger, &id, 2);
        ids.push(id);
    }
    server.kill().unwrap();
    server.wait().unwrap();

    // Second life: every registration and horizon came back, and batch 3
    // applies; then die again.
    let (mut server, addr, recovered) = start(&data, &library);
    assert!(recovered.starts_with("recovered 3 testcases, 12 results, 3 clients"), "{recovered}");
    let mut horizons = HashMap::new();
    for (token, id) in tokens.iter().zip(&ids) {
        let mut s = session(&addr);
        horizons.extend([s.register(token)]);
        s.upload(&mut ledger, id, 3);
    }
    server.kill().unwrap();
    server.wait().unwrap();
    exactly_once(&ids, horizons.keys(), []).within("ids re-registration got back").unwrap();
    horizons_cover(ids.iter().map(|id| (id, 2)), |id| horizons[*id])
        .within("applied horizons in the ID replies")
        .unwrap();

    // What the journal under `--data` holds, read back in-process.
    let (stores, _) = StoreSet::open(&data.join("wal"), WalConfig::default(), 1).unwrap();
    let held = UucsServer::with_store_set(stores, 0);
    let records = held.results().unwrap();
    let keys: Vec<_> = records.iter().map(|r| (r.client.clone(), r.user.clone())).collect();
    ledger.check(&keys).within("results after two kills").unwrap();
    assert_eq!(held.client_count(), tokens.len(), "one registration per token");
    for id in &ids {
        assert_eq!(held.applied_seq(id), 3, "{id}");
    }
}
