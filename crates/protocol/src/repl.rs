//! The `REPL` wire channel: leader → follower WAL shipping and
//! follower → leader acks, framed exactly like on-disk WAL records.
//!
//! Replication reuses the log's own framing (`[len: u32 LE][crc: u32
//! LE][payload]`, CRC over length *and* payload — see
//! `uucs_wal::frame`) so a replication stream has the same corruption
//! story as a segment file: a torn frame at the end of a connection is
//! an interrupted send ([`std::io::ErrorKind::UnexpectedEof`],
//! retryable after reconnect), while a checksum mismatch is bit damage
//! ([`std::io::ErrorKind::InvalidData`]) and the receiver must drop the
//! connection rather than apply a half-trusted entry.
//!
//! Inside a frame the payload is a text header line — the same
//! line-oriented style as the client protocol — optionally followed by
//! a binary body after the first newline:
//!
//! ```text
//! HELLO <node> <epoch> [<shard>:<seq> ...]  follower → leader: resume points
//! WELCOME <node> <epoch> <shards>         leader → follower: accepted
//! NOTLEADER <epoch>                       a non-leader refusing a HELLO
//! ENTRY <shard> <seq>\n<entry bytes>      one committed WAL entry
//! SNAPENTRY <shard>\n<entry bytes>        one folded (snapshot) entry
//! SNAPDONE <shard> <upto>                 snapshot complete; watermark jumps
//! COMMIT <shard> <upto>                   follower ack: applied below `upto`
//! PING <epoch>                            keepalive / epoch beacon
//! ```
//!
//! Nothing else crosses the channel: every node derives its comfort
//! model from the records it applies. An older peer's model beat
//! (`GOSSIP <node> <epoch>` and a model body) still decodes — as a
//! `PING` carrying its epoch, which both ends ignore — so mixed-version
//! pairs keep their sessions.
//!
//! Per-shard sequence numbers are the leader's replication-log LSNs;
//! `COMMIT` carries the follower's next-expected sequence (an exclusive
//! watermark), which doubles as the resume point in a later `HELLO`.

use std::io::{self, Read, Write};
use uucs_wal::frame::{encode_frame, read_frame, MAX_FRAME};

/// One message on the replication channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Follower introduces itself with its per-shard resume points
    /// (`(shard, next wanted seq)`; absent shards resume at 0).
    Hello {
        /// The follower's node name.
        node: String,
        /// The cluster epoch the watermarks were earned under (0 =
        /// never synced). A mismatch with the leader's epoch means the
        /// sequence spaces are unrelated and the leader must send a
        /// full snapshot instead of a tail.
        epoch: u64,
        /// `(shard, next wanted sequence)` pairs.
        watermarks: Vec<(usize, u64)>,
    },
    /// Leader accepts a follower.
    Welcome {
        /// The leader's node name.
        node: String,
        /// The leader's cluster (takeover) epoch.
        epoch: u64,
        /// The leader's shard count — the width of every seq vector.
        shards: usize,
    },
    /// A node that is not (or no longer) the leader refusing a `HELLO`.
    NotLeader {
        /// The refusing node's view of the cluster epoch.
        epoch: u64,
    },
    /// One committed WAL entry, with its per-shard sequence number.
    Entry {
        /// The leader shard this entry's key routes to.
        shard: usize,
        /// The entry's sequence in that shard's replication stream.
        seq: u64,
        /// The [`crate::WalEntry`]-encoded payload.
        bytes: Vec<u8>,
    },
    /// One entry folded into a replication-log snapshot (backfill for a
    /// follower whose watermark predates a compaction). Carries no
    /// sequence: the watermark jumps at the closing [`ReplMsg::SnapDone`].
    SnapEntry {
        /// The leader shard being backfilled.
        shard: usize,
        /// The [`crate::WalEntry`]-encoded payload.
        bytes: Vec<u8>,
    },
    /// Snapshot transfer for one shard is complete; the follower's
    /// watermark for it jumps to `upto`.
    SnapDone {
        /// The backfilled shard.
        shard: usize,
        /// The sequence the snapshot covers (exclusive).
        upto: u64,
    },
    /// Follower acknowledgement: everything below `upto` is applied.
    Commit {
        /// The acknowledged shard.
        shard: usize,
        /// The follower's next expected sequence (exclusive watermark).
        upto: u64,
    },
    /// Keepalive carrying the sender's cluster epoch.
    Ping {
        /// The sender's cluster epoch.
        epoch: u64,
    },
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl ReplMsg {
    /// Encodes the message payload (header line + optional binary body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplMsg::Hello {
                node,
                epoch,
                watermarks,
            } => {
                let mut line = format!("HELLO {node} {epoch}");
                for (shard, seq) in watermarks {
                    line.push_str(&format!(" {shard}:{seq}"));
                }
                line.into_bytes()
            }
            ReplMsg::Welcome {
                node,
                epoch,
                shards,
            } => format!("WELCOME {node} {epoch} {shards}").into_bytes(),
            ReplMsg::NotLeader { epoch } => format!("NOTLEADER {epoch}").into_bytes(),
            ReplMsg::Entry { shard, seq, bytes } => {
                let mut out = format!("ENTRY {shard} {seq}\n").into_bytes();
                out.extend_from_slice(bytes);
                out
            }
            ReplMsg::SnapEntry { shard, bytes } => {
                let mut out = format!("SNAPENTRY {shard}\n").into_bytes();
                out.extend_from_slice(bytes);
                out
            }
            ReplMsg::SnapDone { shard, upto } => format!("SNAPDONE {shard} {upto}").into_bytes(),
            ReplMsg::Commit { shard, upto } => format!("COMMIT {shard} {upto}").into_bytes(),
            ReplMsg::Ping { epoch } => format!("PING {epoch}").into_bytes(),
        }
    }

    /// Decodes a payload produced by [`ReplMsg::encode`]. An unknown
    /// header verb is [`std::io::ErrorKind::Unsupported`] (a peer from
    /// the future); a malformed known message is `InvalidData`.
    pub fn decode(payload: &[u8]) -> io::Result<ReplMsg> {
        let (header, body) = match payload.iter().position(|&b| b == b'\n') {
            Some(nl) => (&payload[..nl], &payload[nl + 1..]),
            None => (payload, &[][..]),
        };
        let header = std::str::from_utf8(header)
            .map_err(|e| bad(format!("repl header is not utf-8: {e}")))?;
        let mut toks = header.split_whitespace();
        let verb = toks.next().unwrap_or("");
        let int = |t: Option<&str>, what: &str| -> io::Result<u64> {
            t.and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("{verb}: missing or bad {what}")))
        };
        let end = |mut toks: std::str::SplitWhitespace<'_>| -> io::Result<()> {
            match toks.next() {
                None => Ok(()),
                Some(extra) => Err(bad(format!("{verb}: trailing token {extra:?}"))),
            }
        };
        match verb {
            "HELLO" => {
                let node = toks
                    .next()
                    .ok_or_else(|| bad("HELLO: missing node"))?
                    .to_string();
                let epoch = int(toks.next(), "epoch")?;
                let mut watermarks = Vec::new();
                for pair in toks {
                    let (s, q) = pair
                        .split_once(':')
                        .ok_or_else(|| bad(format!("HELLO: bad watermark {pair:?}")))?;
                    let shard = s
                        .parse()
                        .map_err(|_| bad(format!("HELLO: bad shard {s:?}")))?;
                    let seq = q.parse().map_err(|_| bad(format!("HELLO: bad seq {q:?}")))?;
                    watermarks.push((shard, seq));
                }
                Ok(ReplMsg::Hello {
                    node,
                    epoch,
                    watermarks,
                })
            }
            "WELCOME" => {
                let node = toks
                    .next()
                    .ok_or_else(|| bad("WELCOME: missing node"))?
                    .to_string();
                let epoch = int(toks.next(), "epoch")?;
                let shards = int(toks.next(), "shards")? as usize;
                end(toks)?;
                Ok(ReplMsg::Welcome {
                    node,
                    epoch,
                    shards,
                })
            }
            "NOTLEADER" => {
                let epoch = int(toks.next(), "epoch")?;
                end(toks)?;
                Ok(ReplMsg::NotLeader { epoch })
            }
            "ENTRY" => {
                let shard = int(toks.next(), "shard")? as usize;
                let seq = int(toks.next(), "seq")?;
                end(toks)?;
                Ok(ReplMsg::Entry {
                    shard,
                    seq,
                    bytes: body.to_vec(),
                })
            }
            "SNAPENTRY" => {
                let shard = int(toks.next(), "shard")? as usize;
                end(toks)?;
                Ok(ReplMsg::SnapEntry {
                    shard,
                    bytes: body.to_vec(),
                })
            }
            "SNAPDONE" => {
                let shard = int(toks.next(), "shard")? as usize;
                let upto = int(toks.next(), "upto")?;
                end(toks)?;
                Ok(ReplMsg::SnapDone { shard, upto })
            }
            "COMMIT" => {
                let shard = int(toks.next(), "shard")? as usize;
                let upto = int(toks.next(), "upto")?;
                end(toks)?;
                Ok(ReplMsg::Commit { shard, upto })
            }
            // An older peer's model beat: its node name and epoch head
            // a model body nobody reads any more.
            "GOSSIP" => {
                toks.next().ok_or_else(|| bad("GOSSIP: missing node"))?;
                let epoch = int(toks.next(), "epoch")?;
                end(toks)?;
                Ok(ReplMsg::Ping { epoch })
            }
            "PING" => {
                let epoch = int(toks.next(), "epoch")?;
                end(toks)?;
                Ok(ReplMsg::Ping { epoch })
            }
            other => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unknown repl verb {other:?}"),
            )),
        }
    }
}

/// Writes one message as a CRC-framed record.
pub fn write_repl_msg<W: Write>(w: &mut W, msg: &ReplMsg) -> io::Result<()> {
    w.write_all(&encode_frame(&msg.encode()))?;
    w.flush()
}

/// Reads one CRC-framed message; EOF and damage are classified as by
/// [`read_frame`] (clean EOF between frames is `Ok(None)`).
pub fn read_repl_msg<R: Read>(r: &mut R) -> io::Result<Option<ReplMsg>> {
    read_frame(r, MAX_FRAME, "repl")?
        .map(|payload| ReplMsg::decode(&payload))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ReplMsg> {
        vec![
            ReplMsg::Hello {
                node: "n2".into(),
                epoch: 2,
                watermarks: vec![(0, 7), (3, 0)],
            },
            ReplMsg::Hello {
                node: "fresh".into(),
                epoch: 0,
                watermarks: vec![],
            },
            ReplMsg::Welcome {
                node: "n1".into(),
                epoch: 4,
                shards: 8,
            },
            ReplMsg::NotLeader { epoch: 5 },
            ReplMsg::Entry {
                shard: 2,
                seq: 99,
                bytes: b"Bsome entry\nbody\n".to_vec(),
            },
            ReplMsg::SnapEntry {
                shard: 1,
                bytes: b"Canother\nentry\n".to_vec(),
            },
            ReplMsg::SnapDone { shard: 1, upto: 41 },
            ReplMsg::Commit { shard: 0, upto: 12 },
            ReplMsg::Ping { epoch: 9 },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in samples() {
            assert_eq!(ReplMsg::decode(&msg.encode()).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn stream_roundtrip_preserves_order() {
        let msgs = samples();
        let mut wire = Vec::new();
        for m in &msgs {
            write_repl_msg(&mut wire, m).unwrap();
        }
        let mut r = &wire[..];
        for want in &msgs {
            assert_eq!(read_repl_msg(&mut r).unwrap().as_ref(), Some(want));
        }
        assert_eq!(read_repl_msg(&mut r).unwrap(), None, "clean EOF at end");
    }

    /// Every strict prefix of a framed message is a torn frame
    /// (`UnexpectedEof`, retryable) — never a decode of the wrong thing.
    #[test]
    fn every_truncation_is_torn() {
        let mut wire = Vec::new();
        write_repl_msg(
            &mut wire,
            &ReplMsg::Entry {
                shard: 1,
                seq: 5,
                bytes: b"Bpayload".to_vec(),
            },
        )
        .unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            let err = read_repl_msg(&mut r).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at {cut}: {err}"
            );
        }
    }

    /// A bit flip anywhere in a complete frame is caught by the CRC and
    /// reported as `InvalidData` — the receiver must not apply it.
    #[test]
    fn bit_flips_are_rejected_by_crc() {
        let mut wire = Vec::new();
        write_repl_msg(
            &mut wire,
            &ReplMsg::Entry {
                shard: 0,
                seq: 1,
                bytes: b"Bsome bytes that matter".to_vec(),
            },
        )
        .unwrap();
        // Flip one byte in the CRC field, the header text, and the body.
        for bad_at in [5usize, 10, wire.len() - 2] {
            let mut copy = wire.clone();
            copy[bad_at] ^= 0x20;
            let mut r = &copy[..];
            let err = read_repl_msg(&mut r).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flip at {bad_at}: {err}"
            );
        }
    }

    /// What an older follower sends on every beat — its node name, its
    /// model epoch, its encoded model — is a `PING` at that epoch here,
    /// and a frame too short to be one is still refused.
    #[test]
    fn a_legacy_gossip_frame_decodes_as_a_ping() {
        let legacy =
            b"GOSSIP n2 3\nCOMFORTMODEL 3 1\nCOHORT cpu Word Typical q1;0;1;4;1;0;0.5;0;1;0;0;\n";
        assert_eq!(ReplMsg::decode(legacy).unwrap(), ReplMsg::Ping { epoch: 3 });
        let err = ReplMsg::decode(b"GOSSIP n2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_verb_is_unsupported() {
        let err = ReplMsg::decode(b"WARP 9").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn malformed_known_messages_are_invalid_data() {
        for payload in [
            &b"HELLO"[..],
            b"HELLO n",
            b"HELLO n 1 0;7",
            b"WELCOME n notanumber 4",
            b"ENTRY 0",
            b"ENTRY 0 1 extra",
            b"SNAPDONE 0",
            b"COMMIT x 1",
            b"PING",
        ] {
            let err = ReplMsg::decode(payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
        }
    }
}
