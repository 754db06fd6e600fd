//! `uucs-clusterd` refuses a flag given last with no value: exit 2, and
//! neither a data directory nor the cluster directory is created — a
//! `--follow` with no address used to boot a leader and claim an epoch.
//! A leader refuses a `--library` that cannot be seeded whole on every
//! start, too.

use std::path::Path;
use std::process::Command;
use uucs_server::StoreSet;
use uucs_testcase::{format as tcformat, ExerciseSpec, Resource, Testcase};
use uucs_wal::{SyncPolicy, WalConfig};

#[test]
fn a_value_flag_given_last_exits_2_and_creates_nothing() {
    uucs_harness::cli::missing_values_exit_2(
        Path::new(env!("CARGO_BIN_EXE_uucs-clusterd")),
        &[
            ["--node", "a"],
            ["--cluster-dir", "epochs"],
            ["--addr", "127.0.0.1:0"],
            ["--repl-listen", "127.0.0.1:0"],
        ],
        &[
            "--node",
            "--cluster-dir",
            "--addr",
            "--repl-listen",
            "--follow",
            "--repl-ack",
            "--data",
            "--shards",
            "--library",
            "--generate-library",
        ],
    );
}

/// A leader seeds its library as `uucs-server` does: a file with an id
/// given twice, or a last block cut short, is refused before anything
/// is journaled — exit 1 on two starts in a row, and no testcase in any
/// shard of the journal.
#[test]
fn a_leader_refuses_a_bad_library_on_every_start_and_seeds_nothing() {
    let tmp = uucs_harness::TempDir::new("uucs-clusterd-bad-library");
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
                Command::new(env!("CARGO_BIN_EXE_uucs-clusterd"))
                    .args(["--node", "a", "--addr", "127.0.0.1:0", "--repl-listen", "127.0.0.1:0"])
                    .args(["--shards", "2", "--cluster-dir"])
                    .arg(tmp.join(format!("{name}-epochs")))
                    .args([Path::new("--data"), &data, Path::new("--library"), &library]),
            );
            assert_eq!(code, Some(1), "{name}, start {start}: {stderr}");
            assert!(stderr.contains("cannot seed"), "{name}, start {start}: {stderr}");
        }
        let config = WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(&data.join("wal"), config, 2).unwrap();
        for shard in 0..2 {
            assert_eq!(stores.testcases.read(shard).len(), 0, "{name}: testcases were journaled");
        }
    }
}
