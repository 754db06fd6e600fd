//! Record framing: `[len: u32 LE][crc: u32 LE][payload]`.
//!
//! The CRC covers the length bytes *and* the payload, so a corrupted
//! length field is caught as a checksum mismatch rather than silently
//! re-framing the rest of the segment.
//!
//! The scanner distinguishes the two ways a frame can be bad, because
//! recovery treats them oppositely:
//!
//! * **Torn** — the frame is cut short by the end of the file: fewer
//!   than 8 header bytes remain, or the declared payload extends past
//!   EOF. Under the prefix-persistence model (append-only file, crash
//!   drops a suffix) this is the signature of an interrupted append.
//!   Recovery truncates it away.
//! * **Corrupt** — the frame is fully present but its checksum fails,
//!   or its declared length is implausible. A crash cannot produce
//!   this; bit rot or foreign writes can. Recovery reports it.

use std::io::{self, Read};

/// Bytes of frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a payload; larger declared lengths are corruption.
pub const MAX_FRAME: u32 = 64 << 20;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is cut short by EOF (interrupted append).
    Torn {
        /// Offset of the frame start within the scanned region.
        offset: usize,
        /// What exactly was missing.
        reason: &'static str,
    },
    /// The frame is complete but fails validation (bit corruption).
    Corrupt {
        /// Offset of the frame start within the scanned region.
        offset: usize,
        /// What exactly failed.
        detail: String,
    },
}

/// Appends one encoded frame to `out` and returns its encoded length.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) -> usize {
    let len = payload.len() as u32;
    let len_bytes = len.to_le_bytes();
    let mut hasher = crate::crc::Crc32::new();
    hasher.update(&len_bytes);
    hasher.update(payload);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&hasher.finish().to_le_bytes());
    out.extend_from_slice(payload);
    FRAME_HEADER + payload.len()
}

/// Encodes one frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    encode_frame_into(payload, &mut out);
    out
}

/// Streaming decoder over a byte region (a segment body).
///
/// Yields `(frame_start_offset, payload)` per good frame; the first bad
/// frame ends iteration with its [`FrameError`]. [`FrameScanner::offset`]
/// is then the end of the last good frame — the truncation point for
/// torn-tail recovery.
#[derive(Debug)]
pub struct FrameScanner<'a> {
    data: &'a [u8],
    offset: usize,
    done: bool,
}

impl<'a> FrameScanner<'a> {
    /// Scans `data` from the beginning.
    pub fn new(data: &'a [u8]) -> FrameScanner<'a> {
        FrameScanner {
            data,
            offset: 0,
            done: false,
        }
    }

    /// End of the last successfully decoded frame.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = Result<(usize, &'a [u8]), FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let start = self.offset;
        let remaining = &self.data[start..];
        if remaining.is_empty() {
            self.done = true;
            return None;
        }
        if remaining.len() < FRAME_HEADER {
            self.done = true;
            return Some(Err(FrameError::Torn {
                offset: start,
                reason: "incomplete frame header",
            }));
        }
        let len = u32::from_le_bytes(remaining[..4].try_into().unwrap());
        if len > MAX_FRAME {
            self.done = true;
            return Some(Err(FrameError::Corrupt {
                offset: start,
                detail: format!("implausible frame length {len}"),
            }));
        }
        let total = FRAME_HEADER + len as usize;
        if remaining.len() < total {
            self.done = true;
            return Some(Err(FrameError::Torn {
                offset: start,
                reason: "payload extends past end of segment",
            }));
        }
        let stored_crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
        let payload = &remaining[FRAME_HEADER..total];
        let mut hasher = crate::crc::Crc32::new();
        hasher.update(&remaining[..4]);
        hasher.update(payload);
        let actual = hasher.finish();
        if actual != stored_crc {
            self.done = true;
            return Some(Err(FrameError::Corrupt {
                offset: start,
                detail: format!("crc mismatch (stored {stored_crc:08x}, computed {actual:08x})"),
            }));
        }
        self.offset = start + total;
        Some(Ok((start, payload)))
    }
}

/// Reads one whole frame from a blocking stream and returns its
/// payload. `cap` bounds the declared payload length and `what` names
/// the channel in error texts (`"repl"`, `"wire"`).
///
/// * Clean EOF before any byte → `Ok(None)` (the peer hung up between
///   frames).
/// * EOF mid-frame → [`io::ErrorKind::UnexpectedEof`]: a torn frame,
///   the retryable signature of an interrupted send.
/// * CRC mismatch or a length over `cap` → `InvalidData`: the frame
///   arrived whole but damaged; nothing after it can be trusted.
pub fn read_frame<R: Read>(r: &mut R, cap: u32, what: &str) -> io::Result<Option<Vec<u8>>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let torn = |part: &str| {
        io::Error::new(io::ErrorKind::UnexpectedEof, format!("torn {what} frame: {part}"))
    };
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(torn("incomplete header")),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > cap {
        return Err(bad(format!("implausible {what} frame length {len}")));
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + len as usize);
    buf.extend_from_slice(&header);
    buf.resize(FRAME_HEADER + len as usize, 0);
    r.read_exact(&mut buf[FRAME_HEADER..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            torn("payload cut short")
        } else {
            e
        }
    })?;
    match FrameScanner::new(&buf).next() {
        Some(Ok(_)) => {
            buf.drain(..FRAME_HEADER);
            Ok(Some(buf))
        }
        Some(Err(FrameError::Corrupt { detail, .. })) => {
            Err(bad(format!("corrupt {what} frame: {detail}")))
        }
        // A torn result is impossible: the buffer is sized to the frame.
        Some(Err(FrameError::Torn { .. })) | None => Err(bad(format!(
            "{what} frame scanner disagreed about completeness"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(data: &[u8]) -> (Vec<Vec<u8>>, usize, Option<FrameError>) {
        let mut scanner = FrameScanner::new(data);
        let mut frames = Vec::new();
        let mut err = None;
        for item in scanner.by_ref() {
            match item {
                Ok((_, p)) => frames.push(p.to_vec()),
                Err(e) => err = Some(e),
            }
        }
        (frames, scanner.offset(), err)
    }

    #[test]
    fn roundtrip_several_frames() {
        let mut data = Vec::new();
        encode_frame_into(b"one", &mut data);
        encode_frame_into(b"", &mut data);
        encode_frame_into(&[0xAB; 1000], &mut data);
        let (frames, end, err) = collect(&data);
        assert_eq!(err, None);
        assert_eq!(end, data.len());
        assert_eq!(frames, vec![b"one".to_vec(), vec![], vec![0xAB; 1000]]);
    }

    #[test]
    fn every_prefix_truncation_is_torn_never_corrupt() {
        let mut data = Vec::new();
        encode_frame_into(b"alpha", &mut data);
        encode_frame_into(b"beta-beta", &mut data);
        let first_len = FRAME_HEADER + 5;
        for cut in 0..data.len() {
            let (frames, end, err) = collect(&data[..cut]);
            // Whole frames before the cut decode; the remainder is torn.
            let whole = if cut >= data.len() {
                2
            } else if cut >= first_len {
                1
            } else {
                0
            };
            assert_eq!(frames.len(), whole, "cut at {cut}");
            if cut == 0 || cut == first_len {
                assert_eq!(err, None, "cut at {cut} is clean");
            } else {
                assert!(
                    matches!(err, Some(FrameError::Torn { .. })),
                    "cut at {cut}: {err:?}"
                );
            }
            assert_eq!(end, if whole == 1 { first_len } else { 0 });
        }
    }

    #[test]
    fn bit_flip_is_corrupt_not_torn() {
        // Flips in the crc field or payload are always Corrupt. (A flip
        // in the *length* field may instead read as Torn when the bogus
        // length points past EOF — that ambiguity is inherent, and
        // recovery errs toward truncation only in the final segment.)
        let mut data = Vec::new();
        encode_frame_into(b"alpha", &mut data); // frame 1: bytes 0..13
        encode_frame_into(b"beta", &mut data); // frame 2: bytes 13..25
        for bad in [4usize, 6, 9, 12, 22] {
            let mut copy = data.clone();
            copy[bad] ^= 0x10;
            let (_, _, err) = collect(&copy);
            assert!(
                matches!(err, Some(FrameError::Corrupt { .. })),
                "flip at {bad}: {err:?}"
            );
        }
        // A length flipped to a *smaller* value is caught by the crc.
        let mut copy = data.clone();
        copy[0] ^= 0x01; // 5 -> 4
        let (_, _, err) = collect(&copy);
        assert!(matches!(err, Some(FrameError::Corrupt { .. })));
    }

    #[test]
    fn implausible_length_is_corrupt() {
        let mut data = (MAX_FRAME + 1).to_le_bytes().to_vec();
        data.extend_from_slice(&[0u8; 12]);
        let (_, _, err) = collect(&data);
        assert!(matches!(err, Some(FrameError::Corrupt { .. })));
    }
}
