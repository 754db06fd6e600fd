//! CRC-checked frames around [`crate::codec`] payloads.
//!
//! The envelope is the WAL's own `[len u32 LE][crc u32 LE][payload]`
//! (CRC over the length bytes *and* the payload — `uucs_wal::frame`),
//! so every byte stream in the system — segment files, replication,
//! and now the client wire — tears and corrupts the same way:
//!
//! * fewer bytes than the frame declares → **torn**
//!   ([`std::io::ErrorKind::UnexpectedEof`] from the blocking readers,
//!   [`FrameRead::Incomplete`] from the incremental one) — wait for
//!   more bytes or treat as an interrupted send;
//! * checksum mismatch or an implausible declared length →
//!   **corrupt** (`InvalidData`) — drop the connection, nothing after
//!   the damage can be trusted;
//! * an intact frame whose opcode is unknown →
//!   [`FrameRead::Unknown`] / `Unsupported` — a peer from the future;
//!   the server answers `ERROR` on the same connection and keeps
//!   going, because the frame boundary is clean.

use crate::codec::{self, DecodedClient};
use std::io::{self, Read, Write};
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_wal::frame::{encode_frame, read_frame, FrameError, FrameScanner, FRAME_HEADER};

/// Upper bound on a wire frame payload. Deliberately *below* the WAL's
/// 64 MiB `MAX_FRAME` and the server's per-connection input buffer cap
/// (4 MiB), so a conforming frame always fits the server's buffer and
/// an over-long declared length is diagnosed as corruption here, not
/// as a buffer overrun there.
pub const MAX_WIRE_FRAME: u32 = 2 << 20;

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn check_size(payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_WIRE_FRAME as usize {
        return Err(bad(format!(
            "frame payload of {} bytes exceeds the {} byte wire cap",
            payload.len(),
            MAX_WIRE_FRAME
        )));
    }
    Ok(())
}

/// Encodes one client message as a complete frame (`req_id` is echoed
/// by the reply).
pub fn encode_client_frame(req_id: u32, msg: &ClientMsg) -> io::Result<Vec<u8>> {
    let payload = codec::encode_client(req_id, msg)?;
    check_size(&payload)?;
    Ok(encode_frame(&payload))
}

/// Encodes one server reply as a complete frame.
pub fn encode_server_frame(req_id: u32, msg: &ServerMsg) -> io::Result<Vec<u8>> {
    let payload = codec::encode_server(req_id, msg)?;
    check_size(&payload)?;
    Ok(encode_frame(&payload))
}

/// Outcome of one incremental parse attempt against a growing buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRead {
    /// Not enough bytes for a whole frame yet — keep reading; nothing
    /// was consumed.
    Incomplete,
    /// One well-formed message; the first `consumed` buffer bytes are
    /// done.
    Msg {
        /// Bytes of buffer this frame occupied.
        consumed: usize,
        /// The request id to echo in the reply.
        req_id: u32,
        /// The decoded message.
        msg: ClientMsg,
    },
    /// An intact frame carrying an opcode this server does not know:
    /// answer `ERROR` (echoing `req_id`) and keep the connection.
    Unknown {
        /// Bytes of buffer this frame occupied.
        consumed: usize,
        /// The request id to echo in the error reply.
        req_id: u32,
        /// The unknown opcode, for the error message.
        opcode: u8,
    },
    /// An intact, well-formed frame whose content the server must not
    /// journal ([`DecodedClient::Refused`]): answer `ERROR` (echoing
    /// `req_id`) and keep the connection.
    Refused {
        /// Bytes of buffer this frame occupied.
        consumed: usize,
        /// The request id to echo in the error reply.
        req_id: u32,
        /// Why, for the error message.
        reason: String,
    },
}

/// Attempts to parse one client frame from the front of `buf` without
/// blocking — the worker-pool engine's incremental entry point.
/// `Err(InvalidData)` means the connection must be dropped (corrupt
/// frame, malformed body, or implausible length).
pub fn try_read_client_frame(buf: &[u8]) -> io::Result<FrameRead> {
    if buf.len() < FRAME_HEADER {
        return Ok(FrameRead::Incomplete);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    if len > MAX_WIRE_FRAME {
        return Err(bad(format!("implausible wire frame length {len}")));
    }
    let total = FRAME_HEADER + len as usize;
    if buf.len() < total {
        return Ok(FrameRead::Incomplete);
    }
    let payload = match FrameScanner::new(&buf[..total]).next() {
        Some(Ok((_, payload))) => payload,
        Some(Err(FrameError::Corrupt { detail, .. })) => {
            return Err(bad(format!("corrupt wire frame: {detail}")));
        }
        // A torn result is impossible: we sized the slice to `total`.
        Some(Err(FrameError::Torn { .. })) | None => {
            return Err(bad("wire frame scanner disagreed about completeness"));
        }
    };
    match codec::decode_client(payload)? {
        (req_id, DecodedClient::Msg(msg)) => Ok(FrameRead::Msg {
            consumed: total,
            req_id,
            msg,
        }),
        (req_id, DecodedClient::Unknown(opcode)) => Ok(FrameRead::Unknown {
            consumed: total,
            req_id,
            opcode,
        }),
        (req_id, DecodedClient::Refused(reason)) => Ok(FrameRead::Refused {
            consumed: total,
            req_id,
            reason,
        }),
    }
}

/// Reads one server reply from a blocking stream. EOF where a reply
/// was due is `UnexpectedEof` (a connection failure, retryable), like
/// the text reader's contract.
pub fn read_server_frame<R: Read>(r: &mut R) -> io::Result<(u32, ServerMsg)> {
    let Some(payload) = read_frame(r, MAX_WIRE_FRAME, "wire")? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed awaiting server frame",
        ));
    };
    codec::decode_server(&payload)
}

/// Writes one client frame.
pub fn write_client_frame<W: Write>(w: &mut W, req_id: u32, msg: &ClientMsg) -> io::Result<()> {
    w.write_all(&encode_client_frame(req_id, msg)?)?;
    w.flush()
}

/// Writes one server frame.
pub fn write_server_frame<W: Write>(w: &mut W, req_id: u32, msg: &ServerMsg) -> io::Result<()> {
    w.write_all(&encode_server_frame(req_id, msg)?)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sync_msg() -> ClientMsg {
        ClientMsg::Sync {
            client: "c-1".into(),
            have: 3,
            want: 9,
        }
    }

    #[test]
    fn incremental_parse_roundtrip_and_prefixes() {
        let frame = encode_client_frame(11, &sync_msg()).unwrap();
        // Every strict prefix is Incomplete — never an error, never a
        // message.
        for cut in 0..frame.len() {
            assert_eq!(
                try_read_client_frame(&frame[..cut]).unwrap(),
                FrameRead::Incomplete,
                "prefix {cut}"
            );
        }
        match try_read_client_frame(&frame).unwrap() {
            FrameRead::Msg {
                consumed,
                req_id,
                msg,
            } => {
                assert_eq!(consumed, frame.len());
                assert_eq!(req_id, 11);
                assert_eq!(msg, sync_msg());
            }
            other => panic!("{other:?}"),
        }
        // Two frames back to back: the first parse consumes exactly one.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_client_frame(12, &ClientMsg::Bye).unwrap());
        match try_read_client_frame(&two).unwrap() {
            FrameRead::Msg { consumed, .. } => {
                match try_read_client_frame(&two[consumed..]).unwrap() {
                    FrameRead::Msg { req_id, msg, .. } => {
                        assert_eq!(req_id, 12);
                        assert_eq!(msg, ClientMsg::Bye);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bit_flips_are_invalid_data() {
        let frame = encode_client_frame(5, &sync_msg()).unwrap();
        for i in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[i] ^= 0x40;
            // Every single-bit-flipped frame either still waits for
            // more bytes (length field grew) or errors — it never
            // yields the original message with the wrong content.
            match try_read_client_frame(&damaged) {
                Ok(FrameRead::Incomplete) => {
                    // The damaged length claims more bytes than we
                    // have. Feed it enough zeros: it must then fail the
                    // CRC (or the length cap), not parse.
                    let len =
                        u32::from_le_bytes(damaged[..4].try_into().unwrap());
                    if len <= MAX_WIRE_FRAME {
                        let mut padded = damaged.clone();
                        padded.resize(FRAME_HEADER + len as usize, 0);
                        assert!(
                            try_read_client_frame(&padded).is_err(),
                            "flip at {i} padded to a parse"
                        );
                    }
                }
                Ok(other) => panic!("flip at {i} parsed: {other:?}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "flip at {i}"),
            }
        }
    }

    #[test]
    fn unknown_opcode_is_a_clean_frame_boundary() {
        // Hand-build a frame with opcode 250.
        let mut payload = 77u32.to_le_bytes().to_vec();
        payload.push(250);
        payload.extend_from_slice(b"mystery");
        let frame = uucs_wal::frame::encode_frame(&payload);
        match try_read_client_frame(&frame).unwrap() {
            FrameRead::Unknown {
                consumed,
                req_id,
                opcode,
            } => {
                assert_eq!(consumed, frame.len());
                assert_eq!(req_id, 77);
                assert_eq!(opcode, 250);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blocking_readers_roundtrip_and_tear_cleanly() {
        let reply = encode_server_frame(3, &ServerMsg::Ack(2)).unwrap();
        // Every truncation tears (UnexpectedEof), never parses.
        for cut in 1..reply.len() {
            let mut cur = Cursor::new(reply[..cut].to_vec());
            let err = read_server_frame(&mut cur).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        // Reply roundtrip + EOF-awaiting-reply contract.
        let mut cur = Cursor::new(reply);
        assert_eq!(
            read_server_frame(&mut cur).unwrap(),
            (3, ServerMsg::Ack(2))
        );
        let err = read_server_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn implausible_length_is_invalid_data_not_a_wait() {
        // Text bytes misread as a binary frame: "REGISTER\n..." has a
        // first word that decodes as a huge length. The reader must
        // call it corrupt immediately instead of waiting for gigabytes
        // that will never come.
        let text = b"REGISTER tok-1\nHOST h1\nEND\n";
        let err = try_read_client_frame(text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut cur = Cursor::new(text.to_vec());
        let err = read_server_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_is_refused_at_encode_time() {
        let msg = ClientMsg::Upload {
            client: "c".into(),
            seq: 1,
            records: (0..u16::MAX)
                .map(|i| RunRecordFixture::big(i as usize))
                .collect(),
        };
        assert!(encode_client_frame(1, &msg).is_err());
    }

    struct RunRecordFixture;
    impl RunRecordFixture {
        fn big(i: usize) -> uucs_protocol::RunRecord {
            uucs_protocol::RunRecord {
                client: format!("client-{i}"),
                user: "u".repeat(64),
                testcase: "t".repeat(64),
                task: "Quake".into(),
                skill: String::new(),
                outcome: uucs_protocol::RunOutcome::Discomfort,
                offset_secs: 1.0,
                last_levels: vec![],
                monitor: uucs_protocol::MonitorSummary::default(),
            }
        }
    }
}
