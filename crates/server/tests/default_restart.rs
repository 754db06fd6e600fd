//! The `uucs-server` binary as it starts by default — no `--wal` — keeps
//! what it acknowledged: registrations and uploads acked before a
//! SIGKILL are all there after a restart over the same `--data`, and
//! the comfort model it serves is the same reply for reply, however
//! often its cache was rewritten.

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
use uucs_server::models::{cache_bound, observations_of};
use uucs_server::{ResultStore, StoreSet, UucsServer};
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

/// The records the `recovered …` line says the open folded.
fn folded_records(recovered: &str) -> u64 {
    let at = recovered.find(" records folded past the model cache)").unwrap_or_else(|| panic!("{recovered}"));
    let count = recovered[..at].rsplit('(').next().unwrap();
    count.parse().unwrap_or_else(|_| panic!("{recovered}"))
}

/// A model that is a cache of the results journal serves the same
/// `MODEL`, `ADVICE` and `MODELDELTA` replies as the fold of the records
/// it holds, across SIGKILL restarts. The data directory starts as the
/// parent build left it: a results journal of sequenced uploads and no
/// cache beside it — only a model journal, which is never read, and is
/// deleted once every shard has a cache. Each life uploads past the
/// bound, and each restart folds at most the bound's worth of records
/// past the cache (plus the upload whose cache write a kill may cut
/// short).
#[test]
fn model_replies_survive_kills_across_self_checkpoints() {
    let tmp = TempDir::new("uucs-model-restart");
    let (data, library) = (tmp.join("data"), library(tmp.path()));
    let mut model = ComfortModel::new();
    let wal = data.join("wal");
    let mut results = ResultStore::open_wal(&wal.join("results"), WalConfig::default()).unwrap().0;
    for k in 0..1500 {
        // A client the parent registered; this directory's registry is
        // empty, so the id is never minted again.
        let records = runs("client-0999", "Word", k, 1);
        results.append_batch("client-0999", k + 1, &records).unwrap();
        model.observe(&observations_of(&records));
    }
    drop(results);
    let models = wal.join("models");
    let mut journal = Wal::open(StdIo::new(), &models, WalConfig::default()).unwrap().0;
    journal.append(b"MMODELDELTA 1 1\nOBS cpu Word Typical discomfort 9\nEND\n").unwrap();
    drop(journal);

    let (mut server, addr, recovered) = start(&data, &library);
    assert!(recovered.contains("model epoch 1500 (1500 records folded past the model cache)"), "{recovered}");
    let mut s = session(&addr);
    for (ask, want) in model_replies(&model) {
        assert_eq!(s.ask(ask.clone()), want, "{ask:?} on the parent's directory");
    }
    let (id, _) = s.register("tok-model");
    let (mut seq, per_upload) = (0, 20);
    let mut entry = 0;
    for life in 0..3 {
        let mut uploaded = 0;
        for _ in 0..120 {
            seq += 1;
            let task = if seq % 3 == 0 { "Quake" } else { "Word" };
            let records = runs(&id, task, seq, per_upload);
            model.observe(&observations_of(&records));
            let payload = WalEntry::Batch { client: id.clone(), seq, records: records.clone() }.encode();
            entry = entry.max(payload.len() as u64);
            uploaded += payload.len() as u64;
            let client = id.clone();
            assert_eq!(s.ask(ClientMsg::Upload { client, seq, records }), ServerMsg::Ack(per_upload as usize));
        }
        let replies = model_replies(&model);
        for (ask, want) in &replies {
            assert_eq!(&s.ask(ask.clone()), want, "{ask:?} before kill {life}");
        }
        server.kill().unwrap();
        server.wait().unwrap();
        let cache = std::fs::metadata(wal.join("model-000.cache")).expect("a model cache").len();
        assert!(uploaded > cache_bound(cache), "life {life} stays under the bound");
        assert!(!models.exists(), "life {life}: the model journal outlived the caches");
        let recovered;
        (server, recovered) = {
            let (child, addr, recovered) = start(&data, &library);
            s = session(&addr);
            (child, recovered)
        };
        let folded = folded_records(&recovered);
        let most = (cache_bound(cache) / entry + 2) * per_upload;
        assert!(folded <= most, "life {life}: {folded} records folded past a {cache}-byte cache: {recovered}");
        assert!(recovered.contains(&format!("model epoch {} ", model.epoch())), "{recovered}");
        for (ask, want) in replies {
            assert_eq!(s.ask(ask.clone()), want, "{ask:?} after kill {life}");
        }
    }
    server.kill().unwrap();
    server.wait().unwrap();
}
