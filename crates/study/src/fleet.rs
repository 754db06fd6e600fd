//! Fleet load driver: thousands of client state machines multiplexed
//! over a bounded worker pool, hammering a live `uucs-server` over TCP.
//!
//! The paper's Internet study topped out at dozens of volunteer
//! machines; this driver asks what the same server engine can sustain
//! at fleet scale. Each simulated client keeps one persistent TCP
//! connection (register → sync → a stream of sequenced uploads), but
//! the driver spends only [`FleetConfig::workers`] threads: a worker
//! owns a slice of clients and pipelines them — it writes one upload on
//! every socket of its slice, then collects every reply — so thousands
//! of requests are in flight at once against the server's worker pool
//! and group-commit batcher.
//!
//! The run reports sustained acked uploads/sec (measured client-side)
//! and the server's own p99 verb/commit latency, pulled over the wire
//! with the `STATS` verb at the end of the window.
//!
//! The driver survives its server: every client registers with an
//! idempotency token and, when its connection dies, fails over across
//! [`FleetConfig::failover`] addresses — re-registering with the same
//! token (same GUID back) and fast-forwarding its upload sequence past
//! the server's applied horizon, so a promoted replica neither loses
//! the identity nor double-applies a batch. A server death with no
//! surviving replica does not fail the run either: the outage window is
//! recorded and the report comes back partial with
//! [`FleetReport::interrupted`] set.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs_server::tcp::{self, ServeConfig};
use uucs_server::{StoreSet, UucsServer};
use uucs_telemetry::metrics;
use uucs_testcase::{ExerciseSpec, Resource, Testcase};
use uucs_wal::{SyncPolicy, WalConfig};
use uucs_wire::conn::{negotiate, Negotiated};
use uucs_wire::frame::{read_server_frame, write_client_frame};
use uucs_wire::WireMode;
use uucs_protocol::WIRE_VERSION_BINARY;

/// Tuning for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated clients (each holds one persistent connection).
    pub clients: usize,
    /// Driver worker threads multiplexing the clients.
    pub workers: usize,
    /// Measurement window (after registration and a stats reset).
    pub duration: Duration,
    /// Records per upload batch.
    pub batch: usize,
    /// Talk to an already-running server instead of self-hosting one.
    pub addr: Option<String>,
    /// Additional server addresses a client fails over to when its
    /// current connection dies (a replicated tier's other nodes).
    pub failover: Vec<String>,
    /// Self-hosted server: store shards.
    pub shards: usize,
    /// Self-hosted server: group-commit interval (zero = per-append
    /// fsync, the pre-group-commit engine).
    pub commit_interval: Duration,
    /// Wire framing each client asks for at dial time. `Text` keeps the
    /// legacy line protocol; `Binary`/`Auto` run the text `HELLO`
    /// negotiation and switch to wire v2 frames when the server agrees.
    pub wire: WireMode,
    /// Uploads each *binary* connection keeps in flight per round
    /// (request pipelining). Text connections always run depth 1 — the
    /// legacy one-reply-per-request discipline.
    pub pipeline: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 2000,
            workers: 4,
            duration: Duration::from_secs(10),
            batch: 2,
            addr: None,
            failover: Vec::new(),
            shards: 8,
            commit_interval: Duration::from_millis(1),
            wire: WireMode::Text,
            pipeline: 1,
        }
    }
}

impl FleetConfig {
    /// The CI smoke shape: small fleet, short window.
    pub fn quick() -> Self {
        FleetConfig {
            clients: 200,
            duration: Duration::from_secs(2),
            ..FleetConfig::default()
        }
    }

    /// The CI cluster-smoke shape: 50 clients against a two-node tier
    /// with one induced failover (see [`run_cluster`]).
    pub fn cluster_quick() -> Self {
        FleetConfig {
            clients: 50,
            duration: Duration::from_secs(2),
            ..FleetConfig::default()
        }
    }
}

/// What a fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Clients that completed registration and held a connection.
    pub clients: usize,
    /// Upload exchanges acknowledged inside the window.
    pub uploads_acked: u64,
    /// Records carried by those uploads.
    pub records: u64,
    /// The measured window.
    pub elapsed: Duration,
    /// Sustained acked uploads per second.
    pub uploads_per_sec: f64,
    /// Server-side p99 of the upload verb (handling, excluding the
    /// commit wait), from `STATS`.
    pub upload_p99_us: Option<u64>,
    /// Server-side p99 of the group-commit fsync pass, from `STATS`.
    pub commit_p99_us: Option<u64>,
    /// The fleet ended the window without a reachable server: the
    /// numbers are a partial report up to the outage, not a failure.
    pub interrupted: bool,
    /// Total wall time the whole fleet was dark (no server reachable).
    pub outage: Duration,
    /// Successful client failovers to a different server address.
    pub failovers: u64,
}

impl FleetReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "fleet: {} clients, {} uploads acked in {:.2}s = {:.0} uploads/s ({} records; upload p99 {}, commit p99 {})",
            self.clients,
            self.uploads_acked,
            self.elapsed.as_secs_f64(),
            self.uploads_per_sec,
            self.records,
            self.upload_p99_us
                .map_or("n/a".to_string(), |u| format!("{u}us")),
            self.commit_p99_us
                .map_or("n/a".to_string(), |u| format!("{u}us")),
        );
        if self.failovers > 0 || !self.outage.is_zero() {
            line.push_str(&format!(
                "; {} failover(s), {:.2}s outage",
                self.failovers,
                self.outage.as_secs_f64()
            ));
        }
        if self.interrupted {
            line.push_str(" [INTERRUPTED: server unreachable at window end]");
        }
        line
    }
}

/// One fleet client's half-duplex connection: requests and replies move
/// independently so a worker can pipeline its whole slice. The client
/// knows every server address and its own idempotency token, so a dead
/// connection is survivable: [`FleetConn::reconnect`] re-registers with
/// the token (the server answers with the *same* GUID and the applied
/// upload horizon) and fast-forwards `seq` so nothing is double-applied
/// on the node it failed over to.
struct FleetConn {
    addrs: Vec<String>,
    current: usize,
    name: String,
    wire: WireMode,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    id: String,
    seq: u64,
    alive: bool,
    /// Replies owed on this connection. Text connections never owe more
    /// than one; binary connections owe up to the pipeline depth.
    pending: u32,
    /// Connection speaks wire v2 binary frames (negotiated at dial).
    binary: bool,
    /// Next request id to stamp on a binary frame.
    next_req: u32,
    /// Request id the next reply must carry (the server redeems FIFO).
    ack_req: u32,
}

impl FleetConn {
    /// Dials one address: negotiates the wire (per address — a legacy
    /// follower behind a v2 leader still gets text), registers `name`'s
    /// token, and returns the sockets, the negotiated framing, the
    /// resolved GUID, and the seq to resume from (the server's applied
    /// horizon, never below `seq_floor`).
    fn dial(
        addr: &str,
        name: &str,
        wire: WireMode,
        seq_floor: u64,
    ) -> io::Result<(TcpStream, BufReader<TcpStream>, bool, String, u64)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let binary = match wire {
            WireMode::Text => false,
            WireMode::Binary | WireMode::Auto => {
                match negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY)? {
                    Negotiated::Version(v) if v >= WIRE_VERSION_BINARY => true,
                    _ if matches!(wire, WireMode::Binary) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("server {addr} cannot speak the binary wire"),
                        ));
                    }
                    _ => false,
                }
            }
        };
        let register = ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine(name),
            token: format!("fleet-token-{name}"),
        };
        let reply = if binary {
            write_client_frame(&mut writer, 0, &register)?;
            read_server_frame(&mut reader)?.1
        } else {
            write_client_msg(&mut writer, &register)?;
            read_server_msg(&mut reader)?
        };
        match reply {
            ServerMsg::Id { id, applied_seq } => {
                Ok((writer, reader, binary, id, applied_seq.max(seq_floor)))
            }
            // A read-only replica answers `not leader`: to the dialer
            // that address is simply not accepting yet.
            other => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("registration refused: {other:?}"),
            )),
        }
    }

    fn connect(addrs: Vec<String>, name: &str, wire: WireMode) -> io::Result<Self> {
        let mut last: Option<io::Error> = None;
        for (i, addr) in addrs.iter().enumerate() {
            match Self::dial(addr, name, wire, 0) {
                Ok((writer, reader, binary, id, seq)) => {
                    return Ok(FleetConn {
                        current: i,
                        name: name.to_string(),
                        wire,
                        addrs,
                        writer,
                        reader,
                        id,
                        seq,
                        alive: true,
                        pending: 0,
                        binary,
                        next_req: 1,
                        ack_req: 1,
                    })
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "no address")))
    }

    /// One failover pass: every address tried once, next one first.
    /// `Ok(true)` means the client came back on a *different* address.
    fn reconnect(&mut self) -> io::Result<bool> {
        let n = self.addrs.len();
        let mut last: Option<io::Error> = None;
        for hop in 0..n {
            let i = (self.current + 1 + hop) % n;
            match Self::dial(&self.addrs[i], &self.name, self.wire, self.seq) {
                Ok((writer, reader, binary, id, seq)) => {
                    let moved = i != self.current;
                    self.current = i;
                    self.writer = writer;
                    self.reader = reader;
                    self.binary = binary;
                    self.id = id;
                    self.seq = seq;
                    self.alive = true;
                    self.pending = 0;
                    self.next_req = 1;
                    self.ack_req = 1;
                    return Ok(moved);
                }
                Err(e) => last = Some(e),
            }
        }
        self.alive = false;
        Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "no address")))
    }

    fn send_upload(&mut self, batch: usize) -> io::Result<()> {
        self.seq += 1;
        let records = (0..batch)
            .map(|i| RunRecord {
                client: self.id.clone(),
                user: String::new(),
                testcase: format!("fleet-{}-{}", self.seq, i),
                task: "IE".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 10.0,
                last_levels: vec![(Resource::Cpu, vec![2.0])],
                monitor: MonitorSummary::default(),
            })
            .collect();
        let upload = ClientMsg::Upload {
            client: self.id.clone(),
            seq: self.seq,
            records,
        };
        if self.binary {
            let req = self.next_req;
            self.next_req = self.next_req.wrapping_add(1);
            write_client_frame(&mut self.writer, req, &upload)
        } else {
            write_client_msg(&mut self.writer, &upload)
        }
    }

    fn recv_ack(&mut self) -> io::Result<bool> {
        if self.binary {
            let (req, msg) = read_server_frame(&mut self.reader)?;
            let expected = self.ack_req;
            self.ack_req = self.ack_req.wrapping_add(1);
            Ok(req == expected && matches!(msg, ServerMsg::Ack(_)))
        } else {
            Ok(matches!(
                read_server_msg(&mut self.reader)?,
                ServerMsg::Ack(_)
            ))
        }
    }

    fn bye(&mut self) {
        let _ = if self.binary {
            write_client_frame(&mut self.writer, self.next_req, &ClientMsg::Bye)
        } else {
            write_client_msg(&mut self.writer, &ClientMsg::Bye)
        };
    }
}

/// Pulls the server's metrics snapshot over the wire and extracts the
/// p99 of one histogram, in microseconds.
fn stats_p99_us(addr: &str, hist: &str) -> Option<u64> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    write_client_msg(&mut writer, &ClientMsg::Stats { reset: false }).ok()?;
    let json = match read_server_msg(&mut reader).ok()? {
        ServerMsg::Stats(json) => json,
        _ => return None,
    };
    hist_p99_ns(&json, hist).map(|ns| ns / 1000)
}

/// Extracts `"name":{..."p99_ns":N...}` from the snapshot JSON with a
/// plain string scan (the format is machine-generated and stable).
fn hist_p99_ns(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":{{");
    let start = json.find(&key)? + key.len();
    let body = &json[start..json[start..].find('}')? + start];
    let p = body.find("\"p99_ns\":")? + "\"p99_ns\":".len();
    let digits: String = body[p..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A self-hosted server for fleet runs without an external `--addr`:
/// WAL-backed sharded stores in a scratch directory and group commit
/// when the interval is nonzero.
struct HostedServer {
    handle: Option<tcp::ServerHandle>,
    dir: std::path::PathBuf,
}

impl HostedServer {
    fn start(config: &FleetConfig) -> io::Result<Self> {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "uucs-fleet-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let group_commit = !config.commit_interval.is_zero();
        let wal = WalConfig {
            sync: if group_commit {
                SyncPolicy::Never
            } else {
                SyncPolicy::Always
            },
            ..WalConfig::default()
        };
        let (stores, _) = StoreSet::open(&dir, wal, config.shards)?;
        let mut server = UucsServer::with_store_set(stores, 0x5e17).without_model_updates();
        if group_commit {
            server = server.with_group_commit(config.commit_interval);
        }
        let server = Arc::new(server);
        for i in 0..8 {
            server
                .add_testcase(Testcase::single(
                    format!("fleet-lib-{i}"),
                    1.0,
                    Resource::Cpu,
                    ExerciseSpec::Ramp {
                        level: 2.0,
                        duration: 10.0,
                    },
                ))
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        let handle = tcp::serve_with(
            server,
            "127.0.0.1:0",
            ServeConfig {
                max_connections: config.clients + 64,
                ..ServeConfig::default()
            },
        )?;
        Ok(HostedServer {
            handle: Some(handle),
            dir,
        })
    }

    fn addr(&self) -> String {
        self.handle.as_ref().expect("running").addr().to_string()
    }
}

impl Drop for HostedServer {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the fleet against `config.addr` (or a self-hosted server) and
/// reports sustained throughput and server-side tail latency.
pub fn run(config: &FleetConfig) -> io::Result<FleetReport> {
    let hosted = match &config.addr {
        Some(_) => None,
        None => Some(HostedServer::start(config)?),
    };
    let addr: String = config
        .addr
        .clone()
        .unwrap_or_else(|| hosted.as_ref().expect("self-hosted").addr());
    let mut addrs = vec![addr.clone()];
    addrs.extend(config.failover.iter().cloned());

    // Phase 1: bring the whole fleet online (register + hold the
    // connection). Workers connect their slices concurrently.
    let workers = config.workers.clamp(1, config.clients.max(1));
    let mut slices: Vec<Vec<FleetConn>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let addrs = &addrs;
                s.spawn(move || -> io::Result<Vec<FleetConn>> {
                    let mut conns = Vec::new();
                    for c in (w..config.clients).step_by(workers) {
                        conns.push(FleetConn::connect(
                            addrs.clone(),
                            &format!("fleet-{c:05}"),
                            config.wire,
                        )?);
                    }
                    Ok(conns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let online: usize = slices.iter().map(Vec::len).sum();

    // Reset the server's verb/commit telemetry so STATS reflects only
    // the measured window.
    {
        let stream = TcpStream::connect(&addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        write_client_msg(&mut writer, &ClientMsg::Stats { reset: true })?;
        let _ = read_server_msg(&mut reader)?;
    }

    // Phase 2: pipelined upload rounds until the deadline. A worker
    // writes an upload on every live connection of its slice, then
    // drains the replies — keeping its whole slice in flight at once. A
    // dead connection is failed over at the top of the next round; a
    // round with *nothing* reachable marks the fleet dark and keeps
    // polling (the window runs to its end either way, so a server that
    // comes back — or a replica that promotes — picks the fleet back
    // up, and the report carries the outage instead of an error).
    let acked = AtomicU64::new(0);
    let failovers = AtomicU64::new(0);
    let dark_since: Mutex<Option<Instant>> = Mutex::new(None);
    let outage_ns = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + config.duration;
    std::thread::scope(|s| {
        for slice in &mut slices {
            let acked = &acked;
            let failovers = &failovers;
            let dark_since = &dark_since;
            let outage_ns = &outage_ns;
            s.spawn(move || {
                while Instant::now() < deadline {
                    let mut sent = 0u64;
                    for conn in slice.iter_mut() {
                        if !conn.alive {
                            match conn.reconnect() {
                                Ok(moved) => {
                                    if moved {
                                        failovers.fetch_add(1, Ordering::Relaxed);
                                        metrics::counter("client.failover.count").inc();
                                    }
                                }
                                Err(_) => continue,
                            }
                        }
                        // A binary connection keeps `pipeline` uploads
                        // in flight; text keeps the legacy depth of 1.
                        let depth = if conn.binary {
                            config.pipeline.clamp(1, uucs_wire::MAX_PIPELINE) as u32
                        } else {
                            1
                        };
                        for _ in 0..depth {
                            if conn.send_upload(config.batch).is_ok() {
                                conn.pending += 1;
                                sent += 1;
                            } else {
                                conn.alive = false;
                                break;
                            }
                        }
                    }
                    let mut ok = 0u64;
                    for conn in slice.iter_mut().filter(|c| c.pending > 0) {
                        let owed = conn.pending;
                        conn.pending = 0;
                        for _ in 0..owed {
                            match conn.recv_ack() {
                                Ok(true) => ok += 1,
                                _ => {
                                    conn.alive = false;
                                    break;
                                }
                            }
                        }
                    }
                    acked.fetch_add(ok, Ordering::Relaxed);
                    if ok > 0 {
                        // Light again: close any open outage window.
                        if let Some(t0) = dark_since.lock().unwrap().take() {
                            outage_ns
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                    } else if sent == 0 {
                        // Nothing reachable: open the outage window
                        // (first worker to notice wins) and back off so
                        // the retry loop is not hot.
                        dark_since.lock().unwrap().get_or_insert_with(Instant::now);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let uploads = acked.load(Ordering::Relaxed);
    // An outage still open at the window's end means the run was
    // interrupted: report partial numbers rather than failing.
    let (interrupted, outage) = {
        let open = dark_since.lock().unwrap().take();
        let mut total = Duration::from_nanos(outage_ns.load(Ordering::Relaxed));
        if let Some(t0) = open {
            total += t0.elapsed();
        }
        (open.is_some(), total)
    };

    let report = FleetReport {
        clients: online,
        uploads_acked: uploads,
        records: uploads * config.batch as u64,
        elapsed,
        uploads_per_sec: uploads as f64 / elapsed.as_secs_f64().max(1e-9),
        upload_p99_us: addrs
            .iter()
            .find_map(|a| stats_p99_us(a, "server.verb.upload.ns")),
        commit_p99_us: addrs.iter().find_map(|a| stats_p99_us(a, "server.commit.ns")),
        interrupted,
        outage,
        failovers: failovers.load(Ordering::Relaxed),
    };
    for slice in &mut slices {
        for conn in slice.iter_mut() {
            conn.bye();
        }
    }
    drop(slices);
    Ok(report)
}

/// The two-node replicated-tier smoke: an in-process leader and
/// follower (full [`ClusterNode`]s — WAL shipping, gossip, promotion —
/// each with its own TCP front end), a fleet spread across both
/// addresses, and one induced failover: two fifths into the window the
/// leader's front end is torn down with a zero drain deadline and its
/// replication tier severed. The follower must promote itself and
/// finish the fleet; the report must show the failover happened and the
/// fleet ended the window served (not interrupted).
///
/// Quorum acks are on, so every upload a client saw acknowledged before
/// the kill had already been applied by the follower.
pub fn run_cluster(config: &FleetConfig) -> io::Result<FleetReport> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "uucs-fleet-cluster-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    let node_config = |name: &str, peers: Vec<String>, ack: AckMode| {
        let mut cfg = ClusterConfig::new(name, dir.join("epochs"), dir.join(name));
        cfg.peers = peers;
        cfg.ack = ack;
        cfg.gossip_interval = Duration::from_millis(40);
        cfg.promote_after = 2;
        cfg
    };

    let leader_srv = Arc::new(
        UucsServer::with_store_set(StoreSet::plain(config.shards), 0x5e17)
            .without_model_updates(),
    );
    let leader = ClusterNode::start(
        node_config("fleet-a", Vec::new(), AckMode::Quorum),
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        Role::Leader,
    )?;
    let leader_front = tcp::serve_with(
        Arc::clone(&leader_srv),
        "127.0.0.1:0",
        ServeConfig {
            drain_deadline: Duration::ZERO,
            max_connections: config.clients + 64,
            ..ServeConfig::default()
        },
    )?;

    let follower_srv = Arc::new(
        UucsServer::with_store_set(StoreSet::plain(config.shards), 0x5e17)
            .without_model_updates(),
    );
    let follower = ClusterNode::start(
        node_config(
            "fleet-b",
            vec![leader.repl_addr().to_string()],
            AckMode::Local,
        ),
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        Role::Follower,
    )?;
    let follower_front = tcp::serve_with(
        Arc::clone(&follower_srv),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: config.clients + 64,
            ..ServeConfig::default()
        },
    )?;

    // No fleet before replication is live: quorum waits would burn
    // their timeout on every early upload.
    let live = Instant::now() + Duration::from_secs(10);
    while leader.hub().follower_nodes().is_empty() {
        if Instant::now() > live {
            return Err(io::Error::other("follower never connected to the leader"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut fleet_config = config.clone();
    fleet_config.addr = Some(leader_front.addr().to_string());
    fleet_config.failover = vec![follower_front.addr().to_string()];

    let kill_after = config.duration.mul_f64(0.4);
    let report = std::thread::scope(|s| {
        let leader_node = Arc::clone(&leader);
        let killer = s.spawn(move || {
            std::thread::sleep(kill_after);
            leader_front.shutdown();
            leader_node.shutdown();
        });
        let report = run(&fleet_config);
        let _ = killer.join();
        report
    })?;

    let promoted = follower.was_promoted();
    follower_front.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if !promoted {
        return Err(io::Error::other(
            "the follower never promoted itself after the leader kill",
        ));
    }
    if report.failovers == 0 {
        return Err(io::Error::other(
            "no client failed over: the kill never reached the fleet",
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_p99_extraction() {
        let json = r#"{"histograms":{"a.ns":{"count":5,"mean_ns":10,"p50_ns":9,"p90_ns":12,"p99_ns":14000,"max_ns":20000},"b.ns":{"count":1,"mean_ns":1,"p50_ns":1,"p90_ns":1,"p99_ns":2,"max_ns":3}}}"#;
        assert_eq!(hist_p99_ns(json, "a.ns"), Some(14000));
        assert_eq!(hist_p99_ns(json, "b.ns"), Some(2));
        assert_eq!(hist_p99_ns(json, "c.ns"), None);
    }

    /// A miniature fleet end to end against a self-hosted sharded
    /// group-commit server: everyone registers, uploads flow, the report
    /// adds up.
    #[test]
    fn tiny_fleet_round_trips() {
        let config = FleetConfig {
            clients: 12,
            workers: 3,
            duration: Duration::from_millis(300),
            shards: 2,
            ..FleetConfig::default()
        };
        let report = run(&config).expect("fleet run");
        assert_eq!(report.clients, 12);
        assert!(report.uploads_acked > 0, "no upload was acked");
        assert_eq!(report.records, report.uploads_acked * 2);
        assert!(!report.interrupted, "nothing died, nothing to interrupt");
        assert_eq!(report.failovers, 0);
    }

    /// The same miniature fleet on the negotiated binary wire with
    /// request pipelining: every reply must come back in request order
    /// (recv_ack checks the req id), and the totals must still add up.
    #[test]
    fn binary_pipelined_fleet_round_trips() {
        let config = FleetConfig {
            clients: 8,
            workers: 2,
            duration: Duration::from_millis(300),
            shards: 2,
            wire: WireMode::Binary,
            pipeline: 8,
            ..FleetConfig::default()
        };
        let report = run(&config).expect("binary fleet run");
        assert_eq!(report.clients, 8);
        assert!(report.uploads_acked > 0, "no pipelined upload was acked");
        assert!(!report.interrupted);
    }

    /// The server dies mid-window with nowhere to fail over to: the run
    /// still returns `Ok` — a partial report with the `interrupted`
    /// flag and the outage window — instead of an error.
    #[test]
    fn server_death_mid_run_yields_a_partial_report() {
        let server = Arc::new(
            UucsServer::with_store_set(StoreSet::plain(2), 7).without_model_updates(),
        );
        let front = tcp::serve_with(
            server,
            "127.0.0.1:0",
            ServeConfig {
                drain_deadline: Duration::ZERO,
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let config = FleetConfig {
            clients: 8,
            workers: 2,
            duration: Duration::from_millis(700),
            addr: Some(front.addr().to_string()),
            ..FleetConfig::default()
        };
        let report = std::thread::scope(|s| {
            let killer = s.spawn(move || {
                std::thread::sleep(Duration::from_millis(250));
                front.shutdown();
            });
            let report = run(&config);
            let _ = killer.join();
            report
        })
        .expect("a dead server must still yield a partial report");
        assert!(report.interrupted, "the outage was still open at the end");
        assert!(report.uploads_acked > 0, "partial numbers before the kill");
        assert!(!report.outage.is_zero(), "the outage window was recorded");
    }

    /// The two-node smoke end to end: leader killed mid-window, the
    /// fleet fails over to the promoted follower and finishes served.
    #[test]
    fn cluster_fleet_survives_the_leader_kill() {
        let config = FleetConfig {
            clients: 8,
            workers: 2,
            duration: Duration::from_millis(900),
            shards: 2,
            ..FleetConfig::default()
        };
        let report = run_cluster(&config).expect("cluster fleet run");
        assert!(report.failovers > 0, "the kill never reached the fleet");
        assert!(!report.interrupted, "the promoted follower served the tail");
        assert!(report.uploads_acked > 0);
    }
}
