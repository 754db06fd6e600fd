//! `uucs-clusterd` refuses a flag given last with no value: exit 2, and
//! neither a data directory nor the cluster directory is created — a
//! `--follow` with no address used to boot a leader and claim an epoch.

use std::path::Path;

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
