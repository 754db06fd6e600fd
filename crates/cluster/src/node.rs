//! Node roles and the deterministic takeover protocol.
//!
//! Leadership is decided by epoch-numbered *takeover files* in a
//! directory every node of the cluster can reach (`cluster_dir`):
//! `takeover-000001`, `takeover-000002`, ... Claiming epoch `E` means
//! creating `takeover-E` with `create_new` — the filesystem's atomic
//! create-if-absent — so exactly one node wins each epoch no matter how
//! many followers detect the leader's death at once. The file's content
//! names the winner and its addresses; losers re-enter the follower
//! loop and find the new leader on their next peer sweep.
//!
//! Promotion itself is two steps, both local: flip the engine out of
//! read-only, and start the replication hub leading under the claimed
//! epoch. Nothing is installed: the follower has folded every batch it
//! applied into its own comfort model, so it already serves the model
//! of the records it holds.

use crate::follower::{FollowerConfig, ReplFollower};
use crate::hub::{AckMode, HubConfig, ReplHub};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use uucs_server::UucsServer;

/// A node's current cluster role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, ships WAL entries, welcomes followers.
    Leader,
    /// Read-only engine; applies the leader's stream, deriving its
    /// comfort model from the batches it applies.
    Follower,
}

/// Cluster membership configuration for one node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's name (unique within the cluster).
    pub node: String,
    /// The shared takeover directory (all nodes must see it).
    pub cluster_dir: PathBuf,
    /// This node's own data directory (follower progress lives under
    /// it).
    pub data_dir: PathBuf,
    /// `REPL` addresses of every peer that might lead.
    pub peers: Vec<String>,
    /// Ack policy when leading.
    pub ack: AckMode,
    /// Quorum-ack wait bound.
    pub ack_timeout: Duration,
    /// Consecutive leaderless peer sweeps before racing for takeover.
    pub promote_after: u32,
}

impl ClusterConfig {
    /// A config with production-ish defaults for `node` under `data_dir`,
    /// coordinating through `cluster_dir`.
    pub fn new(
        node: impl Into<String>,
        cluster_dir: impl Into<PathBuf>,
        data_dir: impl Into<PathBuf>,
    ) -> ClusterConfig {
        ClusterConfig {
            node: node.into(),
            cluster_dir: cluster_dir.into(),
            data_dir: data_dir.into(),
            peers: Vec::new(),
            ack: AckMode::Local,
            ack_timeout: Duration::from_secs(2),
            promote_after: 3,
        }
    }
}

/// The newest claimed epoch in `cluster_dir` (0 = none yet).
pub fn current_epoch(cluster_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(cluster_dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("takeover-"))
                .and_then(|n| n.parse::<u64>().ok())
        })
        .max()
        .unwrap_or(0)
}

/// Atomically claims `epoch` for `node`. The epoch is explicit (the
/// caller passes `current_epoch() + 1` as observed *before* racing), so
/// one epoch can only ever have one winner: every concurrent claimant
/// targets the same file and `create_new` picks exactly one. Losers get
/// `AlreadyExists` and must re-observe before trying again — by then
/// the winner is leading and the follower sweep finds it.
pub fn claim_epoch(cluster_dir: &Path, node: &str, epoch: u64) -> io::Result<u64> {
    std::fs::create_dir_all(cluster_dir)?;
    let path = cluster_dir.join(format!("takeover-{epoch:06}"));
    let mut opts = std::fs::OpenOptions::new();
    opts.write(true).create_new(true);
    match opts.open(&path) {
        Ok(mut f) => {
            use std::io::Write;
            writeln!(f, "{node}")?;
            f.sync_all()?;
            Ok(epoch)
        }
        Err(e) => Err(e),
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One node of the replicated tier: an engine, a replication hub, and
/// (in follower mode) the apply loop with its promotion trigger.
pub struct ClusterNode {
    config: ClusterConfig,
    server: Arc<UucsServer>,
    hub: Arc<ReplHub>,
    repl_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    follower: Mutex<Option<ReplFollower>>,
    promoted: Arc<AtomicBool>,
}

impl ClusterNode {
    /// Creates the replication hub, binds the `REPL` listener on
    /// `repl_listen`, and starts in `role`:
    ///
    /// * [`Role::Leader`] claims the next epoch in `cluster_dir`
    ///   (creating `takeover-000001` on a fresh cluster) and starts
    ///   fanning out.
    /// * [`Role::Follower`] flips the engine read-only and starts the
    ///   follower loop against `config.peers`; if the loop later finds
    ///   no leader for `promote_after` sweeps, the node races for the
    ///   takeover file and promotes itself on a win.
    pub fn start(
        config: ClusterConfig,
        server: Arc<UucsServer>,
        repl_listen: &str,
        role: Role,
    ) -> io::Result<Arc<ClusterNode>> {
        // `repl-progress.txt` is written best-effort; its directory
        // must exist or a follower silently never persists a watermark.
        std::fs::create_dir_all(&config.data_dir)?;
        let hub = ReplHub::new(
            config.node.clone(),
            server.shard_count(),
            HubConfig {
                ack: config.ack,
                ack_timeout: config.ack_timeout,
            },
        );
        hub.set_server(Arc::clone(&server));
        server.set_replication(hub.clone());
        let (repl_addr, accept_thread) = hub.listen(repl_listen)?;
        let node = Arc::new(ClusterNode {
            config,
            server,
            hub,
            repl_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
            follower: Mutex::new(None),
            promoted: Arc::new(AtomicBool::new(false)),
        });
        match role {
            Role::Leader => {
                let next = current_epoch(&node.config.cluster_dir) + 1;
                let epoch = claim_epoch(&node.config.cluster_dir, &node.config.node, next)?;
                node.server.set_read_only(false);
                node.hub.lead(epoch);
            }
            Role::Follower => {
                node.server.set_read_only(true);
                node.start_follower();
            }
        }
        Ok(node)
    }

    /// The bound `REPL` address (follower handshakes connect here).
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl_addr
    }

    /// This node's engine.
    pub fn server(&self) -> &Arc<UucsServer> {
        &self.server
    }

    /// This node's replication hub.
    pub fn hub(&self) -> &Arc<ReplHub> {
        &self.hub
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        if self.hub.leading() {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    /// Whether this node promoted itself after a leader loss.
    pub fn was_promoted(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }

    fn start_follower(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        let follower = ReplFollower::start(
            FollowerConfig {
                node: self.config.node.clone(),
                leaders: self.config.peers.clone(),
                progress_path: self.config.data_dir.join("repl-progress.txt"),
                promote_after: self.config.promote_after,
            },
            Arc::clone(&self.server),
            move || weak.upgrade().is_some_and(|node| node.try_promote()),
        );
        *lock(&self.follower) = Some(follower);
    }

    /// Races for the next takeover epoch; on a win, promotes this node
    /// to leader. Returns whether the promotion happened (a lost race
    /// keeps the node a follower; its loop will find the winner).
    pub fn try_promote(&self) -> bool {
        let next = current_epoch(&self.config.cluster_dir) + 1;
        match claim_epoch(&self.config.cluster_dir, &self.config.node, next) {
            Ok(epoch) => {
                self.server.set_read_only(false);
                self.hub.lead(epoch);
                self.promoted.store(true, Ordering::SeqCst);
                true
            }
            Err(_) => false,
        }
    }

    /// Stops the follower loop (if any) and the `REPL` listener.
    pub fn shutdown(&self) {
        if let Some(follower) = lock(&self.follower).take() {
            follower.stop();
        }
        self.hub.shutdown(self.repl_addr);
        if let Some(handle) = lock(&self.accept_thread).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}
