//! The UUCS server (paper §2, Figure 1).
//!
//! Holds the testcase store and the result store (text on disk, as in
//! the paper), registers clients (assigning globally unique
//! identifiers against a hardware/software snapshot), and answers hot
//! syncs: "New testcases, which can be added to the server at any time,
//! are downloaded by the client, while new results are uploaded back to
//! the server."
//!
//! The *growing random sample* the paper describes is implemented with a
//! client-keyed deterministic permutation of the testcase library: each
//! client walks its own random order, so successive syncs extend its
//! sample without duplicates, and the collection of clients covers the
//! library uniformly.
//!
//! Every store journals through a write-ahead log (`uucs-wal`, see
//! [`StoreSet::open`]): every accepted upload, registration or testcase
//! addition is framed, checksummed and fsynced before the client sees
//! an `Ack`, and restarting the server replays the journal, so a crash
//! loses no acknowledged result. An in-process server journals the same
//! way to an in-memory disk ([`StoreSet::in_memory`]).
//!
//! The [`models`] module closes the borrowing loop (`uucs-modelsvc`):
//! every applied upload batch is folded into cohort-keyed discomfort
//! quantile sketches as one model epoch, journaled in its own WAL, and
//! served back through the `MODEL` and `ADVICE` verbs.

#![deny(missing_docs)]
// One `allow`, on `netpoll::poll_ready`: `std` has no readiness API, so
// `poll(2)` is the crate's single foreign call.
#![deny(unsafe_code)]

#[cfg(not(unix))]
compile_error!("uucs-server's TCP front end blocks in poll(2); it needs a unix target");

pub mod cli;
pub mod commit;
mod journal;
pub mod library;
pub mod models;
mod netpoll;
pub mod server;
pub mod shard;
pub mod storage;
pub mod store;
pub mod tcp;

pub use commit::{CommitTicket, GroupCommitter, StoreFlavor};
pub use library::LibrarySource;
pub use models::ModelStore;
pub use server::{ReplicationSink, UucsServer};
pub use shard::{shard_of, Sharded, StoreSet};
pub use storage::{StorageProfile, StoreIo};
pub use store::{BatchStatus, RegistryStore, ResultStore, StoreError, TestcaseStore};
