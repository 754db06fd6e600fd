//! The UUCS client/server record formats and wire protocol.
//!
//! The paper's client and server "store testcases and results on
//! permanent storage in text files" (§2) and interact through two
//! client-initiated exchanges: an initial *registration* (sending a
//! detailed hardware/software snapshot, receiving a globally unique
//! identifier) and periodic *hot syncs* (downloading a growing random
//! sample of new testcases, uploading new results). A third,
//! operator-facing exchange — `STATS` — returns the server's telemetry
//! registry (per-verb request counts and latency histograms, WAL
//! timings, connection gauges) as a single line of JSON; `STATS RESET`
//! additionally zeroes the counters and histograms after snapshotting. See
//! [`wire::ClientMsg::Stats`] and the `uucs-telemetry` crate.
//!
//! Two model-service exchanges close the borrowing loop (`uucs-modelsvc`):
//! `MODEL <resource> [<task>]` returns the server's merged discomfort
//! model (epoch, sample counts, and the quantile sketch in its text
//! encoding), and `ADVICE <resource> <task> <epsilon>` returns the
//! recommended borrowing level whose predicted discomfort probability
//! stays under `epsilon`. See [`wire::ClientMsg::Model`] and
//! [`wire::ClientMsg::Advice`].
//!
//! Two versioning exchanges keep the protocol evolvable without ever
//! breaking a deployed client: `HELLO <version>` negotiates the wire
//! version (agreeing on [`wire::WIRE_VERSION_BINARY`] switches the
//! connection to the `uucs-wire` binary framing; a legacy peer answers
//! `ERROR` and the connection stays text), and
//! `MODELDELTA <resource> <task|-> <since> <basecrc>` downloads only
//! the changed bins of a cached model (full-model fallback when the
//! server no longer retains — or cannot CRC-verify — the client's
//! epoch). See the *Protocol versioning* section of [`wire`].
//!
//! This crate defines:
//! * [`record::RunRecord`] — the result of one testcase run: how it ended
//!   (discomfort vs exhaustion), the time offset of the feedback, the
//!   last five contention values of each exercise function, and the
//!   monitoring summary (§2.3),
//! * [`snapshot::MachineSnapshot`] — the registration payload,
//! * [`walenc::WalEntry`] — the tagged payload encoding the server's
//!   write-ahead log (`uucs-wal`) journals per accepted mutation,
//! * [`wire`] — the line-oriented message framing used over TCP (and the
//!   in-memory transport used by tests).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;
pub mod repl;
pub mod snapshot;
pub mod walenc;
pub mod wire;

pub use record::{MonitorSummary, RunOutcome, RunRecord};
pub use repl::{read_repl_msg, write_repl_msg, ReplMsg};
pub use snapshot::MachineSnapshot;
pub use walenc::WalEntry;
pub use wire::{ClientMsg, ServerMsg, WIRE_VERSION_BINARY, WIRE_VERSION_TEXT};
