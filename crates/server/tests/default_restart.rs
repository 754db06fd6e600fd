//! The `uucs-server` binary as it starts by default — no `--wal` — keeps
//! what it acknowledged: registrations and uploads acked before a
//! SIGKILL are all there after a restart over the same `--data`, and
//! the comfort model it serves is the same reply for reply, however
//! often its journal checkpointed itself.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use uucs_harness::invariants::{exactly_once, horizons_cover, Ledger, Within};
use uucs_harness::TempDir;
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_modelsvc::{advice_from, ComfortModel};
use uucs_protocol::WalEntry;
use uucs_server::models::{checkpoint_bound, observations_of};
use uucs_server::{StoreSet, UucsServer};
use uucs_testcase::{format as tcformat, ExerciseSpec, Resource, Testcase};
use uucs_wal::{StdIo, Wal, WalConfig};

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

/// Writes a three-testcase library file and returns its path.
fn library(dir: &Path) -> std::path::PathBuf {
    let ramp = ExerciseSpec::Ramp { level: 1.0, duration: 30.0 };
    let testcases: Vec<Testcase> =
        (0..3).map(|i| Testcase::single(format!("t{i}"), 1.0, Resource::Cpu, ramp.clone())).collect();
    let path = dir.join("library.txt");
    std::fs::write(&path, tcformat::emit_many(&testcases)).unwrap();
    path
}

fn session(addr: &str) -> Session {
    let stream = TcpStream::connect(addr).unwrap();
    Session(stream.try_clone().unwrap(), BufReader::new(stream))
}

#[test]
fn the_default_server_keeps_what_it_acked_across_a_kill() {
    let tmp = TempDir::new("uucs-default-restart");
    let (data, library) = (tmp.join("data"), library(tmp.path()));
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

/// The records of upload `k`: `n` runs under `task`, each reporting at
/// its own level (one observation apiece).
fn runs(client: &str, task: &str, k: u64, n: u64) -> Vec<RunRecord> {
    (0..n)
        .map(|i| RunRecord {
            client: client.into(),
            user: format!("u{k}-{i}"),
            testcase: "t0".into(),
            task: task.into(),
            skill: "Typical".into(),
            outcome: if (k + i).is_multiple_of(5) { RunOutcome::Exhausted } else { RunOutcome::Discomfort },
            offset_secs: 12.5,
            last_levels: vec![(Resource::Cpu, vec![((k * 7 + i) % 40) as f64 * 0.125])],
            monitor: MonitorSummary::default(),
        })
        .collect()
}

/// Every model query a client makes, and the reply `model` gives each:
/// `MODEL` merged and per task, `ADVICE`, and `MODELDELTA` both from
/// the current epoch (a no-op delta) and from nothing (the full sketch).
fn model_replies(model: &ComfortModel) -> Vec<(ClientMsg, ServerMsg)> {
    let epoch = model.epoch();
    let mut out = Vec::new();
    for task in [None, Some("Word"), Some("Quake")] {
        let sketch = model.merged(Resource::Cpu, task);
        let text = sketch.encode();
        let full = ServerMsg::Model {
            epoch,
            observed: sketch.observed(),
            censored: sketch.censored(),
            sketch: text.clone(),
        };
        let task = task.map(str::to_string);
        out.push((ClientMsg::Model { resource: Resource::Cpu, task: task.clone() }, full.clone()));
        let since = |since, basecrc| {
            let task = task.clone();
            ClientMsg::ModelDelta { resource: Resource::Cpu, task, since, basecrc }
        };
        let noop = ServerMsg::ModelDelta { epoch, since: epoch, delta: sketch.delta_since(&sketch).unwrap().encode() };
        out.push((since(epoch, uucs_wal::crc::crc32(text.as_bytes())), noop));
        out.push((since(0, 0), full));
    }
    for task in ["Word", "Quake", "PowerPoint"] {
        let aggregate = || model.merged(Resource::Cpu, None);
        let level = advice_from(model.merged(Resource::Cpu, Some(task)), aggregate, 0.25);
        let advice = ServerMsg::Advice { epoch, level: level.expect("the model holds observations") };
        out.push((ClientMsg::Advice { resource: Resource::Cpu, task: task.into(), epsilon: 0.25 }, advice));
    }
    out
}

/// The model deltas the `recovered …` line says the open replayed.
fn replayed_deltas(recovered: &str) -> u64 {
    let at = recovered.find(" deltas replayed)").unwrap_or_else(|| panic!("{recovered}"));
    let count = recovered[..at].rsplit('(').next().unwrap();
    count.parse().unwrap_or_else(|_| panic!("{recovered}"))
}

/// A model journal that checkpoints itself once its tail outgrows its
/// last checkpoint serves the same `MODEL`, `ADVICE` and `MODELDELTA`
/// replies as the model it journals, across SIGKILL restarts. The data
/// directory starts as a build that checkpointed only on its 30 s tick
/// left it — the model journal one long tail of deltas, no checkpoint —
/// and the restart after uploads that crossed the bound several times
/// replays at most the bound's worth of deltas.
#[test]
fn model_replies_survive_kills_across_self_checkpoints() {
    let tmp = TempDir::new("uucs-model-restart");
    let (data, library) = (tmp.join("data"), library(tmp.path()));
    let mut model = ComfortModel::new();
    let mut deltas = Vec::new();
    let models = data.join("wal").join("models");
    let mut journal = Wal::open(StdIo::new(), &models, WalConfig::default()).unwrap().0;
    for k in 0..1500 {
        let delta = model.next_delta(observations_of(&runs("client-0001", "Word", k, 1)));
        let payload = WalEntry::Model(delta.clone()).encode();
        journal.append(&payload).unwrap();
        model.apply(&delta).unwrap();
        deltas.push(payload.len() as u64 + 8);
    }
    drop(journal);
    // The tail a checkpointing journal would not have kept.
    assert!(deltas.iter().sum::<u64>() > checkpoint_bound(0));

    let (mut server, addr, recovered) = start(&data, &library);
    assert!(recovered.contains("model epoch 1500 (1500 deltas replayed)"), "{recovered}");
    let mut s = session(&addr);
    for (ask, want) in model_replies(&model) {
        assert_eq!(s.ask(ask.clone()), want, "{ask:?} on the unbounded journal");
    }
    let (id, _) = s.register("tok-model");
    let (mut seq, per_upload) = (0, 20);
    let mut uploaded = 0;
    for life in 0..3 {
        for _ in 0..120 {
            seq += 1;
            let task = if seq % 3 == 0 { "Quake" } else { "Word" };
            let records = runs(&id, task, seq, per_upload);
            let delta = model.next_delta(observations_of(&records));
            model.apply(&delta).unwrap();
            let frame = WalEntry::Model(delta).encode().len() as u64 + 8;
            deltas.push(frame);
            uploaded += frame;
            let client = id.clone();
            assert_eq!(s.ask(ClientMsg::Upload { client, seq, records }), ServerMsg::Ack(per_upload as usize));
        }
        let replies = model_replies(&model);
        for (ask, want) in &replies {
            assert_eq!(&s.ask(ask.clone()), want, "{ask:?} before kill {life}");
        }
        server.kill().unwrap();
        server.wait().unwrap();
        let recovered;
        (server, recovered) = {
            let (child, addr, recovered) = start(&data, &library);
            s = session(&addr);
            (child, recovered)
        };
        assert!(uploaded > (life + 1) * checkpoint_bound(0), "each life outgrows the floor");
        let checkpoint = std::fs::read_dir(&models)
            .unwrap()
            .filter_map(|e| e.ok().filter(|e| e.file_name().to_string_lossy().ends_with(".snap")))
            .map(|e| e.metadata().unwrap().len())
            .max()
            .expect("the model journal checkpointed itself");
        let replayed = replayed_deltas(&recovered);
        assert!(
            replayed * deltas.iter().min().unwrap() <= checkpoint_bound(checkpoint),
            "life {life}: {replayed} deltas replayed onto a {checkpoint}-byte checkpoint: {recovered}"
        );
        assert!(recovered.contains(&format!("model epoch {} ", model.epoch())), "{recovered}");
        for (ask, want) in replies {
            assert_eq!(s.ask(ask.clone()), want, "{ask:?} after kill {life}");
        }
    }
    server.kill().unwrap();
    server.wait().unwrap();
}
