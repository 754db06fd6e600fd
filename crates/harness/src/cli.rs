//! The command-line contract of the daemons: a flag that takes a value,
//! given last with none, ends the process with status 2 before it has
//! created anything — no data directory, no cluster epoch file.

use crate::TempDir;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` once per flag of `flags`, with `base` (pairs of flag and
/// value; the pair of the flag under test left out) and then the flag
/// alone, each in an empty working directory. Every run must exit with
/// status 2 within ten seconds and leave that directory empty; a daemon
/// that boots instead is killed and named.
pub fn missing_values_exit_2(bin: &Path, base: &[[&str; 2]], flags: &[&str]) {
    for flag in flags {
        let cwd = TempDir::new("uucs-flag-without-value");
        let mut args: Vec<&str> = base.iter().filter(|[f, _]| f != flag).flatten().copied().collect();
        args.push(flag);
        let mut child = Command::new(bin)
            .args(&args)
            .current_dir(cwd.path())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if started.elapsed() > Duration::from_secs(10) {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("{} {args:?} kept running instead of exiting 2", bin.display());
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(status.code(), Some(2), "{} {args:?}", bin.display());
        let left: Vec<_> = std::fs::read_dir(cwd.path()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "{} {args:?} created {left:?}", bin.display());
    }
}
