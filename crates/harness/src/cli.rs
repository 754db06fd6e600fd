//! The command-line contract of the daemons: a flag that takes a value,
//! given last with none, ends the process with status 2 before it has
//! created anything — no data directory, no cluster epoch file — and a
//! start that must be refused ends it before it serves.

use crate::TempDir;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Waits for `child` to exit, for at most ten seconds: a daemon that
/// boots instead is killed, and the panic names `what` it was asked to do.
fn exit_of(child: &mut Child, what: &dyn std::fmt::Display) -> ExitStatus {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if started.elapsed() > Duration::from_secs(10) {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{what} kept running instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `command` to its exit, which must come within ten seconds (a
/// daemon that starts serving instead is killed and named): its exit
/// code and what it wrote to stderr.
pub fn run_to_exit(command: &mut Command) -> (Option<i32>, String) {
    let what = format!("{command:?}");
    let mut child = command.stdout(Stdio::null()).stderr(Stdio::piped()).spawn().unwrap();
    let mut pipe = child.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let status = exit_of(&mut child, &what);
    (status.code(), reader.join().unwrap().unwrap())
}

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
        let status = exit_of(&mut child, &format_args!("{} {args:?}", bin.display()));
        assert_eq!(status.code(), Some(2), "{} {args:?}", bin.display());
        let left: Vec<_> = std::fs::read_dir(cwd.path()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "{} {args:?} created {left:?}", bin.display());
    }
}
