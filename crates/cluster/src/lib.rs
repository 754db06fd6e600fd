//! The UUCS replicated server tier.
//!
//! A single sharded engine (PR 6) leaves one failure mode standing:
//! lose the box, lose the service. This crate closes that gap with a
//! deliberately small design — one leader, N followers, and two
//! mechanisms:
//!
//! * **WAL shipping** ([`hub`]): the leader numbers every committed
//!   mutation per replication shard, keeps a bounded in-memory backlog
//!   of them, and streams the entries to connected followers over the
//!   `REPL` channel ([`uucs_protocol::repl`]), CRC-framed like on-disk
//!   WAL records.
//!   Followers acknowledge with per-shard watermarks; `--repl-ack=quorum`
//!   makes the leader wait for a follower ack before acking the client.
//!   This is the only way state reaches a follower: the comfort model
//!   is derived from records on every node, so a follower folds the
//!   batches it applies exactly as the leader folded them on upload.
//! * **Deterministic promotion** ([`node`]): on leader death, a
//!   follower claims the next epoch-numbered takeover file in the
//!   shared cluster directory (`create_new` — first writer wins),
//!   flips its engine out of read-only mode and starts leading, already
//!   serving the model of the records it holds. Clients fail over via
//!   their multi-address transport and re-register with their persisted
//!   tokens; the per-client sequence horizon makes the switch
//!   exactly-once.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod follower;
pub mod hub;
pub mod node;

pub use follower::ReplFollower;
pub use hub::{AckMode, ReplHub};
pub use node::{ClusterConfig, ClusterNode, Role};
