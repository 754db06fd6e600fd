//! The `uucs-clusterd` daemon: one node of the replicated server tier.
//!
//! ```text
//! uucs-clusterd --node NAME --cluster-dir DIR
//!               [--addr 127.0.0.1:4004] [--repl-listen 127.0.0.1:4104]
//!               [--follow HOST:PORT[,HOST:PORT...]]
//!               [--repl-ack local|quorum] [--data DIR] [--shards N]
//!               [--library FILE] [--generate-library SEED]
//! ```
//!
//! Without `--follow` the node boots as the leader: it claims the next
//! takeover epoch in `--cluster-dir` and serves read-write. With
//! `--follow` it boots read-only, streams the leader's WAL over the
//! `REPL` channel at one of the given addresses, and — should every
//! candidate go silent — races for the takeover file and promotes
//! itself. A flag given without its value (or with one it does not
//! accept) exits 2 before anything is created or claimed.
//!
//! Stores are WAL-backed under `--data` exactly like `uucs-server`'s
//! and are the node's only journals; a follower's progress file
//! lives next to them, and what a leader keeps for reconnecting
//! followers is a bounded in-memory backlog. Durability is group
//! commit on both roles: a leader's ack waits on its own batched fsync
//! and — under `--repl-ack quorum` — on a follower's, side by side; a
//! follower fsyncs and acknowledges a burst of entries at a time.
//!
//! A leader whose data directory holds no testcase seeds it from
//! `--library` or `--generate-library` (42 without either) exactly as
//! `uucs-server` does ([`LibrarySource::seed`]): one testcase at a
//! time, journaled and dropped, and a file checked whole first, so one
//! with a bad block or a repeated id exits 1 having seeded nothing. A
//! follower receives the library over `REPL`.
//!
//! A two-node quickstart is in the README ("Running a cluster").

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use uucs_cluster::{AckMode, ClusterConfig, ClusterNode, Role};
use uucs_server::cli::{parsed, value};
use uucs_server::{tcp, LibrarySource, StoreSet, UucsServer};
use uucs_wal::{SyncPolicy, WalConfig};

fn main() {
    let mut node = String::new();
    let mut cluster_dir: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:4004".to_string();
    let mut repl_listen = "127.0.0.1:4104".to_string();
    let mut follow: Vec<String> = Vec::new();
    let mut ack = AckMode::Local;
    let mut data = PathBuf::from("uucs-cluster-data");
    let mut shards: usize = 4;
    let mut library: Option<PathBuf> = None;
    let mut gen_seed: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--node" => {
                i += 1;
                node = value(&args, i).to_string();
            }
            "--cluster-dir" => {
                i += 1;
                cluster_dir = Some(PathBuf::from(value(&args, i)));
            }
            "--addr" => {
                i += 1;
                addr = value(&args, i).to_string();
            }
            "--repl-listen" => {
                i += 1;
                repl_listen = value(&args, i).to_string();
            }
            "--follow" => {
                i += 1;
                follow = value(&args, i).split(',').map(str::to_string).collect();
            }
            "--repl-ack" => {
                i += 1;
                ack = AckMode::parse(value(&args, i)).unwrap_or_else(|| {
                    eprintln!("bad --repl-ack (want local or quorum)");
                    std::process::exit(2);
                });
            }
            "--data" => {
                i += 1;
                data = PathBuf::from(value(&args, i));
            }
            "--shards" => {
                i += 1;
                shards = parsed(&args, i, "an integer >= 1", |&n| n >= 1);
            }
            "--library" => {
                i += 1;
                library = Some(PathBuf::from(value(&args, i)));
            }
            "--generate-library" => {
                i += 1;
                gen_seed = Some(value(&args, i).to_string());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if node.is_empty() {
        eprintln!("--node NAME is required (the node's identity in the cluster)");
        std::process::exit(2);
    }
    let Some(cluster_dir) = cluster_dir else {
        eprintln!("--cluster-dir DIR is required (the shared takeover directory)");
        std::process::exit(2);
    };
    let source = LibrarySource::from_flags(library, gen_seed.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    eprintln!(
        "recovering journals under {:?} ({shards} shard(s)) ...",
        data.join("wal")
    );
    // The server's commit thread owns durability (gathering for at most
    // `commit::DEFAULT_INTERVAL`): no append pays its own fsync under the
    // shard lock, every ack waits on the committer's watermark.
    let journals = WalConfig {
        sync: SyncPolicy::Never,
        ..Default::default()
    };
    let (stores, _recoveries) =
        StoreSet::open(&data.join("wal"), journals, shards).unwrap_or_else(|e| {
            eprintln!("journal is unrecoverable: {e}");
            std::process::exit(1);
        });
    let server = Arc::new(UucsServer::with_store_set(stores, 0x5e17));

    let role = if follow.is_empty() {
        Role::Leader
    } else {
        Role::Follower
    };
    // Only a leader seeds the library; a follower receives it over the
    // replication stream.
    if role == Role::Leader && server.testcase_count() == 0 {
        eprintln!("seeding the {source} ...");
        if let Err(e) = source.seed(&server) {
            eprintln!("cannot seed the {source}: {e}");
            std::process::exit(1);
        }
    }

    eprintln!("{}", server.recovered_line());

    let mut config = ClusterConfig::new(node.clone(), cluster_dir, data.clone());
    config.peers = follow.clone();
    config.ack = ack;
    let cluster = ClusterNode::start(config, Arc::clone(&server), &repl_listen, role)
        .unwrap_or_else(|e| {
            eprintln!("cannot start cluster node: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "node {node} is {:?} (REPL on {}, epoch dir shared)",
        cluster.role(),
        cluster.repl_addr()
    );

    let handle = tcp::serve(Arc::clone(&server), &addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("serving clients on {} (data dir {data:?})", handle.addr());

    // The node's status every 30 s; the committer keeps the model
    // caches, so nothing else is periodic.
    loop {
        std::thread::sleep(Duration::from_secs(30));
        let role = cluster.role();
        eprintln!(
            "{role:?}: {} clients, {} results, {} follower(s)",
            server.client_count(),
            server.result_count(),
            cluster.hub().follower_nodes().len()
        );
    }
}
