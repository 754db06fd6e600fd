//! The real server processes: spawning on an ephemeral port, parsing
//! the bound address from stderr, killing, and the scratch directories
//! their journals live in.
//!
//! Every guard cleans up in `Drop`, so a server is killed and its data
//! directory removed on success, on a failed check and on a panic;
//! `run.sh` covers Ctrl-C (see its trap).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Store shards every server runs with (`--shards 8`).
pub const SHARDS: usize = 8;

/// How long a server may take to print its address. Library seeding
/// and the largest journal replay both finish in a few seconds.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// The benchmark's own directory (`benchmark/` in a checkout). `run.sh`
/// exports it; the default serves a binary started from the root.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("UUCS_BENCHMARK_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
}

/// `benchmark/out`, created on demand: result files, traces and the
/// scratch data directories. Inside the checkout, so journals sit on
/// the same filesystem on every run.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Directory holding `uucs-server` and `uucs-clusterd`: next to this
/// executable (one shared target directory, see `run.sh`).
pub fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target/release"))
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty directory.
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let path = out_dir()?.join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `uucs-server` or `uucs-clusterd`, killed on drop.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// The client-facing address parsed from stderr.
    pub addr: String,
    /// The `REPL` address (`uucs-clusterd` only).
    pub repl_addr: Option<String>,
    /// Spawn → address printed.
    pub ready_after: Duration,
    stderr_thread: Option<JoinHandle<()>>,
}

/// What the stderr reader found before the server started serving.
#[derive(Debug, Default)]
struct Ready {
    addr: Option<String>,
    repl_addr: Option<String>,
    log: Vec<String>,
}

impl ServerProc {
    /// Spawns `binary` (a name in [`bin_dir`]) with `args` and waits for
    /// its `listening on` / `serving clients on` line.
    pub fn spawn(binary: &str, args: &[String]) -> Result<ServerProc, String> {
        let path = bin_dir().join(binary);
        let started = Instant::now();
        let mut child = Command::new(&path)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel::<Ready>();
        // The thread outlives the handshake: it keeps draining stderr so
        // the server can never block on a full pipe.
        let stderr_thread = std::thread::spawn(move || {
            let mut ready = Some(Ready::default());
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let Some(r) = ready.as_mut() else { continue };
                if let Some(rest) = line.split("(REPL on ").nth(1) {
                    r.repl_addr = rest.split(',').next().map(str::to_string);
                }
                for marker in ["listening on ", "serving clients on "] {
                    if let Some(rest) = line.strip_prefix(marker) {
                        r.addr = rest.split_whitespace().next().map(str::to_string);
                    }
                }
                r.log.push(line);
                if r.addr.is_some() {
                    let _ = tx.send(ready.take().expect("checked above"));
                }
            }
            if let Some(r) = ready {
                let _ = tx.send(r);
            }
        });
        let mut server = ServerProc {
            child,
            addr: String::new(),
            repl_addr: None,
            ready_after: Duration::ZERO,
            stderr_thread: Some(stderr_thread),
        };
        match rx.recv_timeout(READY_DEADLINE) {
            Ok(Ready {
                addr: Some(addr),
                repl_addr,
                ..
            }) => {
                server.addr = addr;
                server.repl_addr = repl_addr;
                server.ready_after = started.elapsed();
                Ok(server)
            }
            Ok(r) => Err(format!(
                "{binary} exited before serving:\n  {}",
                r.log.join("\n  ")
            )),
            Err(_) => Err(format!(
                "{binary} printed no address within {READY_DEADLINE:?}"
            )),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size so far (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Processor time the process's threads have used so far, seconds.
    pub fn cpu_secs(&self) -> f64 {
        cpu_secs(&format!("/proc/{}", self.pid()))
    }

    /// `SIGKILL`s the process and reaps it. Note what this does and
    /// does not prove: the operating system's cache survives, so a
    /// restart shows replay correctness, not device durability.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (0 if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the threads of the process under `proc_dir` (`/proc/<pid>`)
/// have spent on a processor, seconds: the first field of every
/// `task/<tid>/schedstat`, which the scheduler keeps in nanoseconds
/// (`stat`'s `utime`/`stime` only count 10 ms ticks). Threads that have
/// already exited are not counted; the servers' threads live as long as
/// the process. 0 if unreadable.
pub fn cpu_secs(proc_dir: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("{proc_dir}/task")) else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// The `uucs-server` command line shared by `ack-latency` and
/// `hot-sync`: WAL, 8 shards, 1 ms group commit, the generated
/// internet-sweep library; page cache and I/O threads off.
pub fn server_args(data: &Path, shards: usize) -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--wal",
        "--shards",
        &shards.to_string(),
        "--commit-interval-us",
        "1000",
        "--generate-library",
        "42",
        "--data",
        &data.display().to_string(),
    ]
    .map(str::to_string)
    .to_vec()
}

/// [`server_args`] plus the storage engine `pipelined-ingest` and
/// `restart-recovery` run with.
pub fn engine_args(data: &Path, shards: usize) -> Vec<String> {
    let mut args = server_args(data, shards);
    args.extend(["--io-threads", "2", "--cache-pages", "1024"].map(str::to_string));
    args
}

/// The `uucs-clusterd` command line of node `name` under `dir`:
/// ephemeral client and `REPL` ports, 8 shards, then `extra`
/// (`--repl-ack quorum --generate-library 42` on the leader,
/// `--follow <addr>` on a follower).
pub fn cluster_args(dir: &Path, name: &str, extra: &[&str]) -> Vec<String> {
    let (epochs, data) = (dir.join("epochs"), dir.join(name));
    let mut args: Vec<String> = [
        "--node",
        name,
        "--cluster-dir",
        &epochs.display().to_string(),
        "--data",
        &data.display().to_string(),
        "--addr",
        "127.0.0.1:0",
        "--repl-listen",
        "127.0.0.1:0",
        "--shards",
        &SHARDS.to_string(),
    ]
    .map(str::to_string)
    .to_vec();
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}
