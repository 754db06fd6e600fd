//! Wire-protocol fuzzing: arbitrary, truncated, and interleaved byte
//! streams fed to the frame readers — text v1 and binary v2 alike —
//! must produce clean errors or clean EOF — never a panic, never an
//! infinite loop. The cross-version suites feed each framing's bytes
//! to the other's reader: the result must be a clean reject or a wait
//! for more bytes, never a misparsed message.

use std::io::{BufReader, Cursor};
use uucs::protocol::wire::{read_client_msg, read_server_msg, write_client_msg, write_server_msg};
use uucs::protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
};
use uucs::testcase::Resource;
use uucs::wire::frame::{
    encode_client_frame, encode_server_frame, read_server_frame, try_read_client_frame,
};
use uucs::wire::{FrameRead, MAX_WIRE_FRAME};
use uucs_harness::prelude::*;

fn sample_record(i: u64) -> RunRecord {
    RunRecord {
        client: "client-0001".into(),
        user: format!("u{i}"),
        testcase: format!("t{i}"),
        task: "Word".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: i as f64,
        last_levels: vec![(Resource::Cpu, vec![1.0, 2.0])],
        monitor: MonitorSummary::default(),
    }
}

/// A valid client-message byte stream, selected by index.
fn client_msg(which: u64) -> ClientMsg {
    match which % 8 {
        0 => ClientMsg::Register {
            snapshot: MachineSnapshot::study_machine("fuzz"),
            token: "tok-fuzz".into(),
        },
        1 => ClientMsg::Sync {
            client: "client-0001".into(),
            have: (which / 6) as usize,
            want: 8,
        },
        2 => ClientMsg::Upload {
            client: "client-0001".into(),
            seq: which,
            records: vec![sample_record(which), sample_record(which + 1)],
        },
        3 => ClientMsg::Model {
            resource: Resource::Cpu,
            task: if which.is_multiple_of(2) {
                None
            } else {
                Some("Word".into())
            },
        },
        4 => ClientMsg::Advice {
            resource: Resource::Disk,
            task: "Quake".into(),
            epsilon: 0.05,
        },
        5 => ClientMsg::Hello {
            version: (which / 8 % 9) as u32 + 1,
        },
        6 => ClientMsg::ModelDelta {
            resource: Resource::Cpu,
            task: if which.is_multiple_of(2) {
                None
            } else {
                Some("IE".into())
            },
            since: which / 8,
            basecrc: (which % 0xffff_ffff) as u32,
        },
        _ => ClientMsg::Bye,
    }
}

/// A valid, non-empty sketch token for [`ServerMsg::Model`] fuzz frames.
fn sample_sketch(which: u64) -> uucs::modelsvc::QuantileSketch {
    let mut sketch = uucs::modelsvc::QuantileSketch::for_resource(Resource::Cpu);
    sketch.insert((which % 10) as f64);
    sketch.insert_censored();
    sketch
}

fn server_msg(which: u64) -> ServerMsg {
    match which % 8 {
        0 => ServerMsg::id("client-0001"),
        1 => ServerMsg::Testcases(vec![]),
        2 => ServerMsg::Ack((which / 6) as usize),
        3 => {
            let sketch = sample_sketch(which);
            ServerMsg::Model {
                epoch: which,
                observed: sketch.observed(),
                censored: sketch.censored(),
                sketch: sketch.encode(),
            }
        }
        4 => ServerMsg::Advice {
            epoch: which,
            level: (which % 7) as f64 + 0.5,
        },
        5 => ServerMsg::Hello {
            version: (which / 8 % 9) as u32 + 1,
        },
        6 => {
            let sketch = sample_sketch(which);
            ServerMsg::ModelDelta {
                epoch: which,
                since: which / 2,
                delta: sketch.delta_since(&sketch).unwrap().encode(),
            }
        }
        _ => ServerMsg::Error("fuzzed".into()),
    }
}

fn client_bytes(which: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_client_msg(&mut buf, &client_msg(which)).unwrap();
    buf
}

fn server_bytes(which: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_server_msg(&mut buf, &server_msg(which)).unwrap();
    buf
}

/// Reads messages until error or EOF; the bound proves termination (the
/// reader must consume at least one line per call, and there are at
/// most `len` lines).
fn drain_client(bytes: &[u8]) -> usize {
    let mut r = BufReader::new(bytes);
    let mut parsed = 0;
    for _ in 0..=bytes.len() {
        match read_client_msg(&mut r) {
            Ok(Some(_)) => parsed += 1,
            Ok(None) => return parsed,
            Err(_) => return parsed,
        }
    }
    panic!("reader failed to make progress on {} bytes", bytes.len());
}

fn drain_server(bytes: &[u8]) -> usize {
    let mut r = BufReader::new(bytes);
    let mut parsed = 0;
    // read_server_msg has no EOF-is-fine form (a client always expects
    // a reply), so exhaustion surfaces as a clean Err.
    for _ in 0..=bytes.len() {
        match read_server_msg(&mut r) {
            Ok(_) => parsed += 1,
            Err(_) => return parsed,
        }
    }
    panic!("reader failed to make progress on {} bytes", bytes.len());
}

/// A valid wire-v2 client frame, selected by index. `HELLO` is
/// text-phase only (it has no binary encoding), so that variant maps
/// to `BYE` here.
fn binary_client_bytes(which: u64) -> Vec<u8> {
    let msg = match client_msg(which) {
        ClientMsg::Hello { .. } => ClientMsg::Bye,
        m => m,
    };
    encode_client_frame((which % 97) as u32, &msg).unwrap()
}

/// A valid wire-v2 server frame, selected by index (`HELLO` remapped,
/// as above).
fn binary_server_bytes(which: u64) -> Vec<u8> {
    let msg = match server_msg(which) {
        ServerMsg::Hello { .. } => ServerMsg::Error("no hello here".into()),
        m => m,
    };
    encode_server_frame((which % 97) as u32, &msg).unwrap()
}

/// Incrementally parses binary client frames until reject, wait, or
/// exhaustion; the bound proves termination (every parsed frame
/// consumes at least its 8-byte header).
fn drain_binary_client(bytes: &[u8]) -> usize {
    let mut buf = bytes;
    let mut parsed = 0;
    for _ in 0..=bytes.len() {
        match try_read_client_frame(buf) {
            Ok(FrameRead::Msg { consumed, .. })
            | Ok(FrameRead::Unknown { consumed, .. })
            | Ok(FrameRead::Refused { consumed, .. }) => {
                assert!(consumed > 0, "a parsed frame must consume bytes");
                parsed += 1;
                buf = &buf[consumed..];
            }
            Ok(FrameRead::Incomplete) => return parsed,
            Err(_) => return parsed,
        }
    }
    panic!("binary reader failed to make progress on {} bytes", bytes.len());
}

/// Reads binary server frames from a cursor until error or exhaustion.
fn drain_binary_server(bytes: &[u8]) -> usize {
    let mut cur = Cursor::new(bytes);
    let mut parsed = 0;
    for _ in 0..=bytes.len() {
        match read_server_frame(&mut cur) {
            Ok(_) => parsed += 1,
            Err(_) => return parsed,
        }
    }
    panic!("binary reader failed to make progress on {} bytes", bytes.len());
}

proptest! {
    /// Pure garbage never panics or hangs either reader.
    #[test]
    fn garbage_bytes_are_rejected_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        drain_client(&bytes);
        drain_server(&bytes);
    }

    /// Pure garbage never panics or hangs the binary readers either.
    #[test]
    fn binary_garbage_is_rejected_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        drain_binary_client(&bytes);
        drain_binary_server(&bytes);
    }

    /// A strict prefix of a binary frame never parses: the incremental
    /// reader waits for the rest (or rejects), and the blocking server
    /// reader reports a torn frame — never a message.
    #[test]
    fn binary_strict_prefix_never_parses(which in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let full = binary_client_bytes(which);
        let cut = (((full.len() as f64) * cut_frac) as usize).min(full.len() - 1);
        prop_assert_eq!(drain_binary_client(&full[..cut]), 0);
        let full = binary_server_bytes(which);
        let cut = (((full.len() as f64) * cut_frac) as usize).min(full.len() - 1);
        prop_assert_eq!(drain_binary_server(&full[..cut]), 0);
    }

    /// One flipped byte anywhere in a binary frame never yields a
    /// message: the CRC (or the length cap) catches it. When the flip
    /// lands in the length field and merely grows the frame, feeding
    /// the declared number of zero bytes must still end in a reject.
    #[test]
    fn binary_bit_flips_never_misparse(
        which in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let mut frame = binary_client_bytes(which);
        let pos = (((frame.len() as f64) * pos_frac) as usize).min(frame.len() - 1);
        frame[pos] ^= mask;
        match try_read_client_frame(&frame) {
            Ok(FrameRead::Incomplete) => {
                let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
                prop_assert!(len <= MAX_WIRE_FRAME);
                let mut padded = frame.clone();
                padded.resize(8 + len as usize, 0);
                prop_assert!(try_read_client_frame(&padded).is_err());
            }
            Ok(other) => prop_assert!(false, "flipped frame parsed: {other:?}"),
            Err(_) => {}
        }
    }

    /// Valid binary frames glued back to back all parse, whatever the
    /// mix — the length prefix is self-delimiting.
    #[test]
    fn binary_concatenated_frames_all_parse(which in prop::collection::vec(any::<u64>(), 1..8)) {
        let mut stream = Vec::new();
        for &w in &which {
            stream.extend_from_slice(&binary_client_bytes(w));
        }
        prop_assert_eq!(drain_binary_client(&stream), which.len());

        let mut stream = Vec::new();
        for &w in &which {
            stream.extend_from_slice(&binary_server_bytes(w));
        }
        prop_assert_eq!(drain_binary_server(&stream), which.len());
    }

    /// A string the server could not splice into its line-oriented
    /// journal and read back equal — in any record field, or as the
    /// registration token — never reaches a handler: the frame is
    /// consumed whole and reported `Refused`, and the frame behind it
    /// parses as if nothing had happened. The same strings made
    /// harmless parse as messages.
    #[test]
    fn binary_frames_carrying_journal_breaking_text_are_refused_whole(
        which in any::<u64>(),
        field in 0usize..6,
        shape in 0usize..8,
        word in "[a-zA-Z0-9 ]{0,12}",
    ) {
        let hostile = match shape {
            0 => format!("{word}\nBOGUS x"),
            1 => format!("{word}\nEND\nRESULT\nCLIENT victim"),
            2 => format!("{word}\r"),
            3 => format!("a{word}\u{0}b"),
            4 => format!(" x{word}"),
            5 => format!("x{word}\u{a0}"),
            6 => format!("a{word}\u{85}b"),
            _ => "-".to_string(),
        };
        let tame = format!("x{}y", word.replace(' ', "_"));
        let msg = |text: &str| {
            let mut rec = sample_record(which % 1000);
            match field {
                0 => rec.client = text.into(),
                1 => rec.user = text.into(),
                2 => rec.testcase = text.into(),
                3 => rec.task = text.into(),
                4 => rec.skill = text.into(),
                _ => {
                    return ClientMsg::Register {
                        snapshot: MachineSnapshot::study_machine("fuzz"),
                        token: text.into(),
                    }
                }
            }
            ClientMsg::Upload {
                client: "client-0001".into(),
                seq: which,
                records: vec![sample_record(1), rec],
            }
        };
        // A record field is refused in every shape; the token only
        // where whitespace would tear the `CLIENT <id> <token>` line.
        let breaks = field < 5 || hostile.chars().any(char::is_whitespace);
        let frame = encode_client_frame(7, &msg(&hostile)).unwrap();
        let mut stream = frame.clone();
        stream.extend_from_slice(&binary_client_bytes(which));
        match try_read_client_frame(&stream) {
            Ok(FrameRead::Refused { consumed, req_id, .. }) => {
                prop_assert!(breaks, "{hostile:?} refused");
                prop_assert_eq!((consumed, req_id), (frame.len(), 7));
            }
            Ok(FrameRead::Msg { .. }) => prop_assert!(!breaks, "{hostile:?} parsed"),
            other => prop_assert!(false, "{hostile:?}: {other:?}"),
        }
        prop_assert_eq!(drain_binary_client(&stream), 2);
        let parsed = try_read_client_frame(&encode_client_frame(7, &msg(&tame)).unwrap());
        prop_assert!(matches!(parsed, Ok(FrameRead::Msg { .. })), "{tame:?}: {parsed:?}");
    }

    /// Cross-version, text at the binary reader: a v1 line stream fed
    /// to the v2 frame reader is a clean reject or an honest wait —
    /// never a parsed message (the ASCII verb bytes decode as an
    /// implausible length, far over the wire cap).
    #[test]
    fn text_bytes_never_parse_as_binary_frames(which in any::<u64>()) {
        prop_assert_eq!(drain_binary_client(&client_bytes(which)), 0);
        prop_assert_eq!(drain_binary_server(&server_bytes(which)), 0);
    }

    /// Cross-version, binary at the text reader: a v2 frame fed to the
    /// v1 line readers never parses as a message either.
    #[test]
    fn binary_bytes_never_parse_as_text(which in any::<u64>()) {
        prop_assert_eq!(drain_client(&binary_client_bytes(which)), 0);
        prop_assert_eq!(drain_server(&binary_server_bytes(which)), 0);
    }

    /// A single valid message truncated anywhere *strictly before its
    /// end* must never parse as a message. "Never panics" is not
    /// enough: a cut inside `"ID client-0001\n"` once yielded a *valid*
    /// `Id("")` or `Id("client-00")`, which a client then cached as its
    /// identity forever. Every strict prefix must error (or, for the
    /// client reader at cut 0, report clean EOF).
    #[test]
    fn truncated_messages_never_parse(which in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let full = client_bytes(which);
        let cut = (((full.len() as f64) * cut_frac) as usize).min(full.len() - 1);
        prop_assert_eq!(drain_client(&full[..cut]), 0);
        let full = server_bytes(which);
        let cut = (((full.len() as f64) * cut_frac) as usize).min(full.len() - 1);
        prop_assert_eq!(drain_server(&full[..cut]), 0);
    }

    /// Garbage interleaved between valid messages: the readers never
    /// panic, and everything *before* the garbage parses.
    #[test]
    fn interleaved_garbage_never_panics(
        which in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 1..60),
    ) {
        let clean = client_bytes(which);
        let mut stream = clean.clone();
        stream.extend_from_slice(&garbage);
        stream.extend_from_slice(&client_bytes(which + 1));
        // The leading valid message always parses; what happens after
        // the garbage depends on whether it forms a clean line.
        prop_assert!(drain_client(&stream) >= 1);

        let mut stream = server_bytes(which);
        stream.extend_from_slice(&garbage);
        stream.extend_from_slice(&server_bytes(which + 1));
        prop_assert!(drain_server(&stream) >= 1);
    }

    /// Valid frames glued back to back all parse, whatever the mix —
    /// the framing is self-delimiting.
    #[test]
    fn concatenated_valid_frames_all_parse(which in prop::collection::vec(any::<u64>(), 1..8)) {
        let mut stream = Vec::new();
        for &w in &which {
            stream.extend_from_slice(&client_bytes(w));
        }
        prop_assert_eq!(drain_client(&stream), which.len());

        let mut stream = Vec::new();
        for &w in &which {
            stream.extend_from_slice(&server_bytes(w));
        }
        prop_assert_eq!(drain_server(&stream), which.len());
    }
}
