//! `uucs-server`'s flags: one given last with no value is refused (exit
//! 2, and no data directory is created), no flag chooses the storage
//! engine (`--io-threads` is accepted and ignored), and a `--library`
//! that cannot be seeded whole is refused on every start.

use std::path::Path;
use std::process::Command;
use uucs_server::StoreSet;
use uucs_testcase::{format as tcformat, ExerciseSpec, Resource, Testcase};
use uucs_wal::{SyncPolicy, WalConfig};

#[test]
fn a_value_flag_given_last_exits_2_and_creates_nothing() {
    uucs_harness::cli::missing_values_exit_2(
        Path::new(env!("CARGO_BIN_EXE_uucs-server")),
        &[["--addr", "127.0.0.1:0"]],
        &[
            "--addr",
            "--library",
            "--data",
            "--generate-library",
            "--shards",
            "--commit-interval-us",
            "--cache-pages",
            "--io-threads",
            "--max-conns",
            "--workers",
        ],
    );
}

/// A library that cannot be seeded whole — an id given twice, or a
/// last block cut short — is refused before its first testcase is
/// journaled: the server exits 1 on two starts in a row (a partial seed
/// would let the second start serve what came before the fault), and
/// the journal holds no testcase.
#[test]
fn a_bad_library_is_refused_on_every_start_and_seeds_nothing() {
    let tmp = uucs_harness::TempDir::new("uucs-server-bad-library");
    let tc = |id: &str| {
        let ramp = ExerciseSpec::Ramp {
            level: 1.0,
            duration: 5.0,
        };
        Testcase::single(id, 1.0, Resource::Cpu, ramp)
    };
    let good = tcformat::emit_many(&[tc("a"), tc("b")]);
    let bad = [
        ("dup", format!("{good}{}", tcformat::emit(&tc("a")))),
        ("torn", format!("{good}TESTCASE c\nRATE 1\n")),
    ];
    for (name, text) in bad {
        let (library, data) = (tmp.join(format!("{name}.txt")), tmp.join(name));
        std::fs::write(&library, text).unwrap();
        for start in 1..=2 {
            let (code, stderr) = uucs_harness::cli::run_to_exit(
                Command::new(env!("CARGO_BIN_EXE_uucs-server"))
                    .args(["--addr", "127.0.0.1:0", "--data"])
                    .args([data.as_path(), Path::new("--library"), &library]),
            );
            assert_eq!(code, Some(1), "{name}, start {start}: {stderr}");
            assert!(stderr.contains("cannot seed"), "{name}, start {start}: {stderr}");
        }
        let config = WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(&data.join("wal"), config, 1).unwrap();
        assert_eq!(stores.testcases.read(0).len(), 0, "{name}: testcases were journaled");
    }
}

/// The number `STATS` reports for a counter or gauge named `name`.
fn stat(json: &str, name: &str) -> i64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    let end = json[at..].find([',', '}']).map_or(json.len(), |n| at + n);
    json[at..end]
        .parse()
        .unwrap_or_else(|_| panic!("{name} in {json}"))
}

/// Every `uucs-server` runs the same storage engine, with no flag: a
/// flagless `--shards 4` server fans the seeding pass over its testcase
/// shards out to its committer's pool (`server.disk.ops` moves) and
/// reports the pool's two threads. `--io-threads 0` is accepted, noted
/// as ignored on stderr, and changes nothing. The server starts, acks a
/// registration, and its `STATS` show a commit pass.
#[test]
fn every_server_fans_a_multi_shard_pass_out_to_its_pool() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};
    use uucs_protocol::wire::{read_server_msg, write_client_msg};
    use uucs_protocol::{ClientMsg, MachineSnapshot, ServerMsg};

    let tmp = uucs_harness::TempDir::new("uucs-server-engine");
    for (name, extra) in [("flagless", &[][..]), ("io-threads-0", &["--io-threads", "0"][..])] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_uucs-server"))
            .args(["--addr", "127.0.0.1:0", "--shards", "4", "--generate-library", "42"])
            .args(extra)
            .arg("--data")
            .arg(tmp.join(name))
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
        let mut before = Vec::new();
        let addr = loop {
            let Some(Ok(line)) = lines.next() else {
                panic!("{name}: uucs-server exited before listening: {:?}", child.wait());
            };
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.split_whitespace().next().unwrap().to_string();
            }
            before.push(line);
        };
        std::thread::spawn(move || lines.for_each(drop));
        let stream = TcpStream::connect(&addr).unwrap();
        let (mut writer, mut reader) = (stream.try_clone().unwrap(), BufReader::new(stream));
        let mut ask = |msg: ClientMsg| {
            write_client_msg(&mut writer, &msg).unwrap();
            read_server_msg(&mut reader).unwrap()
        };
        let reply = ask(ClientMsg::register(MachineSnapshot::study_machine("io")));
        assert!(matches!(reply, ServerMsg::Id { .. }), "{name}: {reply:?}");
        let ServerMsg::Stats(json) = ask(ClientMsg::Stats { reset: false }) else {
            panic!("{name}: STATS refused");
        };
        child.kill().unwrap();
        child.wait().unwrap();
        let noted = before.iter().any(|l| l.starts_with("--io-threads is ignored"));
        assert_eq!(noted, !extra.is_empty(), "{name}: {before:?}");
        assert_eq!(stat(&json, "server.config.io_threads"), 2, "{name}");
        assert_eq!(stat(&json, "server.config.commit_interval_us"), 1000, "{name}");
        assert!(stat(&json, "server.commit.count") > 0, "{name}: {json}");
        assert!(stat(&json, "server.disk.ops") > 0, "{name}: {json}");
    }
}
