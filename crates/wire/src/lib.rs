//! # uucs-wire — the negotiated binary wire protocol (v2)
//!
//! The text line protocol (`uucs_protocol::wire`, wire version 1) is
//! the permanent baseline: every connection starts there, and a v1
//! peer never sees anything else. This crate is what a connection
//! *upgrades into* when both sides agree on
//! `uucs_protocol::wire::WIRE_VERSION_BINARY` via the text `HELLO`
//! exchange:
//!
//! * **Framing** ([`frame`]) — every message is one length-prefixed,
//!   CRC-checked frame, the exact `[len u32 LE][crc u32 LE][payload]`
//!   discipline the WAL and the replication channel already use
//!   (`uucs_wal::frame`), so the corruption story is uniform across
//!   disk, replication, and client wire: a short frame is a torn send
//!   (retryable `UnexpectedEof`), a checksum mismatch is damage
//!   (`InvalidData`, drop the connection).
//! * **Typed encodings** ([`codec`]) — fixed-width little-endian
//!   integers and length-prefixed strings replace text parsing on the
//!   upload hot path; an `UPLOAD` frame carries its whole record batch
//!   in one frame.
//! * **Request pipelining** — every frame payload starts with a
//!   `request id` the reply echoes, so a client may keep up to
//!   [`MAX_PIPELINE`] requests in flight on one connection. Replies
//!   come back in request order (FIFO); the echoed id is an end-to-end
//!   check on that contract, not a license to reorder.
//! * **Forward compatibility** — an unknown opcode in an intact frame
//!   is reported distinctly ([`frame::FrameRead::Unknown`]) so a
//!   server can answer `ERROR` and keep the connection, mirroring the
//!   text protocol's unknown-verb rule.
//!
//! Epoch-delta model sync (`MODELDELTA`) is negotiated per-verb rather
//! than per-connection — it works over both framings; see the protocol
//! crate's versioning notes and `uucs_modelsvc::SketchDelta`.
//!
//! The [`conn`] module holds the client-side pieces: [`WireMode`] (the
//! `--wire text|binary|auto` knob) and [`BinaryConn`] (a negotiated
//! binary connection with send/recv correlation).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod conn;
pub mod frame;

pub use conn::{BinaryConn, WireMode};
pub use frame::{
    encode_client_frame, encode_server_frame, read_server_frame, try_read_client_frame, FrameRead,
    MAX_WIRE_FRAME,
};

/// Re-export of the WAL CRC32 (the polynomial every UUCS frame and the
/// `MODELDELTA` base-CRC use), so callers need no direct `uucs-wal`
/// dependency to compute a `basecrc`.
pub use uucs_wal::crc::crc32;

/// How many requests a server lets one binary connection keep in
/// flight before it stops reading more from that socket (back
/// pressure). Clients may use the same bound for their send window.
pub const MAX_PIPELINE: usize = 64;
