//! `uucs-server` refuses a flag given last with no value: exit 2, and
//! no data directory is created.

use std::path::Path;

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
