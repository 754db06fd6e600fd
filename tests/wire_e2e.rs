//! Wire-v2 end-to-end: the negotiated binary framing against live
//! servers.
//!
//! * A legacy text client on a v2 server is served **byte-identically**
//!   — no banner, canonical v1 reply encodings, unknown headers still
//!   answered `ERROR` on a live connection.
//! * The `HELLO` matrix: v2 requested → binary; v1 requested → text;
//!   a from-the-future version → clamped to v2.
//! * Request pipelining: replies come back in request order with the
//!   request ids echoed.
//! * Cross-framing abuse (binary frames at a text connection, text at
//!   an upgraded binary connection) drops that connection cleanly and
//!   never wedges the server.
//! * `MODELDELTA` epoch-delta sync: a retained base plus the delta
//!   reconstructs the current model exactly; a CRC mismatch or an
//!   unknown epoch falls back to the full sketch.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use uucs::protocol::wire::{read_server_msg, write_client_msg, write_server_msg, Endpoint};
use uucs::protocol::{
    ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg,
    WIRE_VERSION_BINARY, WIRE_VERSION_TEXT,
};
use uucs::modelsvc::{QuantileSketch, SketchDelta};
use uucs::server::tcp;
use uucs::server::{StoreSet, UucsServer};
use uucs::testcase::Resource;
use uucs::wire::conn::{negotiate, Negotiated};
use uucs::wire::frame::{read_server_frame, write_client_frame};
use uucs::wire::crc32;

fn serve() -> tcp::ServerHandle {
    let server = Arc::new(UucsServer::with_store_set(StoreSet::in_memory(2), 7));
    tcp::serve(server, "127.0.0.1:0").expect("bind")
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (writer, BufReader::new(stream))
}

fn record(id: &str, seq: u64, i: u64) -> RunRecord {
    RunRecord {
        client: id.to_string(),
        user: String::new(),
        testcase: format!("wire-{seq}-{i}"),
        task: "IE".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 10.0,
        last_levels: vec![(Resource::Cpu, vec![(i % 7) as f64 + 0.5])],
        monitor: MonitorSummary::default(),
    }
}

fn register_msg(name: &str) -> ClientMsg {
    ClientMsg::Register {
        snapshot: MachineSnapshot::study_machine(name),
        token: format!("wire-token-{name}"),
    }
}

/// A legacy text client never sees a byte it would not have seen from a
/// v1 server: no unsolicited banner, and every reply is the canonical
/// v1 encoding (captured raw and compared against a re-encode of its
/// own parse). An unknown header keeps the connection alive.
#[test]
fn legacy_text_client_is_served_byte_identically() {
    let handle = serve();
    let (mut writer, mut reader) = connect(handle.addr());

    // Silence until the client speaks: no HELLO banner, nothing.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut probe = [0u8; 1];
    assert!(
        reader.read(&mut probe).is_err(),
        "the server volunteered bytes to a silent legacy client"
    );
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Each single-line reply, captured raw, must equal the
    // canonical v1 encoding of what it parses as.
    fn exchange_raw(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        msg: &ClientMsg,
    ) -> ServerMsg {
        write_client_msg(writer, msg).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let parsed =
            read_server_msg(&mut BufReader::new(line.as_bytes())).expect("parse reply");
        let mut reencoded = Vec::new();
        write_server_msg(&mut reencoded, &parsed).unwrap();
        assert_eq!(
            reencoded,
            line.as_bytes(),
            "reply is not the canonical v1 encoding"
        );
        parsed
    }

    let ServerMsg::Id { id, .. } =
        exchange_raw(&mut writer, &mut reader, &register_msg("legacy"))
    else {
        panic!("registration failed");
    };
    let reply = exchange_raw(
        &mut writer,
        &mut reader,
        &ClientMsg::Upload {
            client: id.clone(),
            seq: 1,
            records: vec![record(&id, 1, 0)],
        },
    );
    assert!(matches!(reply, ServerMsg::Ack(_)), "{reply:?}");

    // A verb from the future: ERROR on a live connection, exactly
    // the v1 forward-compatibility contract.
    writer.write_all(b"FUTUREVERB 1 2 3\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(
        line.starts_with("ERROR "),
        "unknown header got {line:?}"
    );
    let reply = exchange_raw(
        &mut writer,
        &mut reader,
        &ClientMsg::Upload {
            client: id.clone(),
            seq: 2,
            records: vec![record(&id, 2, 0)],
        },
    );
    assert!(
        matches!(reply, ServerMsg::Ack(_)),
        "connection must survive the unknown header"
    );

    write_client_msg(&mut writer, &ClientMsg::Bye).ok();
    handle.shutdown();
}

/// The negotiation matrix: `HELLO 2` upgrades to
/// binary frames, `HELLO 1` stays text, and a from-the-future version
/// is clamped down to v2.
#[test]
fn hello_negotiation_matrix() {
    let handle = serve();

    // Want v2 → get v2; the same connection then speaks frames.
    let (mut writer, mut reader) = connect(handle.addr());
    assert_eq!(
        negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY).expect("negotiate"),
        Negotiated::Version(WIRE_VERSION_BINARY)
    );
    write_client_frame(&mut writer, 1, &register_msg("bin")).expect("frame");
    let (req, reply) = read_server_frame(&mut reader).expect("framed reply");
    assert_eq!(req, 1);
    assert!(matches!(reply, ServerMsg::Id { .. }), "{reply:?}");
    write_client_frame(&mut writer, 2, &ClientMsg::Bye).ok();

    // Want v1 → stay text; the connection keeps speaking lines.
    let (mut writer, mut reader) = connect(handle.addr());
    assert_eq!(
        negotiate(&mut writer, &mut reader, WIRE_VERSION_TEXT).expect("negotiate"),
        Negotiated::Version(WIRE_VERSION_TEXT)
    );
    write_client_msg(&mut writer, &register_msg("txt")).unwrap();
    assert!(
        matches!(read_server_msg(&mut reader), Ok(ServerMsg::Id { .. })),
        "text must keep working after HELLO 1"
    );
    write_client_msg(&mut writer, &ClientMsg::Bye).ok();

    // Want v9 → clamped to v2.
    let (mut writer, mut reader) = connect(handle.addr());
    assert_eq!(
        negotiate(&mut writer, &mut reader, 9).expect("negotiate"),
        Negotiated::Version(WIRE_VERSION_BINARY)
    );
    write_client_frame(&mut writer, 1, &ClientMsg::Bye).ok();
    handle.shutdown();
}

/// Pipelined binary uploads: a burst of frames written back to back
/// comes back as one reply per request, in request order, each echoing
/// its request id.
#[test]
fn pipelined_uploads_reply_in_request_order() {
    let handle = serve();
    let (mut writer, mut reader) = connect(handle.addr());
    negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY).expect("negotiate");
    write_client_frame(&mut writer, 1, &register_msg("pipeline")).unwrap();
    let (_, reply) = read_server_frame(&mut reader).unwrap();
    let ServerMsg::Id { id, .. } = reply else {
        panic!("registration failed: {reply:?}");
    };

    let depth = 8u32;
    for k in 0..depth {
        write_client_frame(
            &mut writer,
            2 + k,
            &ClientMsg::Upload {
                client: id.clone(),
                seq: (k + 1) as u64,
                records: vec![record(&id, (k + 1) as u64, k as u64)],
            },
        )
        .expect("pipelined frame");
    }
    for k in 0..depth {
        let (req, reply) = read_server_frame(&mut reader).expect("pipelined reply");
        assert_eq!(req, 2 + k, "replies must come back in order");
        assert!(matches!(reply, ServerMsg::Ack(_)), "{reply:?}");
    }
    write_client_frame(&mut writer, 99, &ClientMsg::Bye).ok();
    handle.shutdown();
}

/// Cross-framing abuse is a clean connection drop, never a wedge: a
/// binary frame at a (still-text) connection, and raw text at an
/// upgraded binary connection, both end that connection while the
/// server keeps serving fresh ones.
#[test]
fn cross_framing_abuse_drops_the_connection_not_the_server() {
    let handle = serve();

    // Binary frame with no HELLO: the text parser must reject (or
    // the connection close) — and never reply with a parsed message.
    let (mut writer, mut reader) = connect(handle.addr());
    write_client_frame(&mut writer, 1, &register_msg("rude")).unwrap();
    writer.shutdown(std::net::Shutdown::Write).ok();
    let mut sink = Vec::new();
    // Whatever comes back (an ERROR line or nothing), the stream
    // must end — bounded by the read timeout, not a hang.
    // A read error (reset mid-read) is a clean drop too.
    if reader.read_to_end(&mut sink).is_ok() && !sink.is_empty() {
        let text = String::from_utf8_lossy(&sink);
        assert!(
            text.starts_with("ERROR "),
            "binary-at-text produced a non-error reply: {text:?}"
        );
    }

    // Text at an upgraded binary connection: the frame reader calls
    // the ASCII length implausible and drops the connection.
    let (mut writer, mut reader) = connect(handle.addr());
    negotiate(&mut writer, &mut reader, WIRE_VERSION_BINARY).expect("negotiate");
    writer.write_all(b"SYNC client-0001 0 4\n").unwrap();
    writer.flush().unwrap();
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
    assert!(
        sink.is_empty(),
        "text-at-binary must drop, not answer: {sink:?}"
    );

    // The server is still alive for a well-behaved text client.
    let (mut writer, mut reader) = connect(handle.addr());
    write_client_msg(&mut writer, &register_msg("polite")).unwrap();
    assert!(
        matches!(read_server_msg(&mut reader), Ok(ServerMsg::Id { .. })),
        "server must survive cross-framing abuse"
    );
    write_client_msg(&mut writer, &ClientMsg::Bye).ok();
    handle.shutdown();
}

/// `MODELDELTA` at the endpoint: a client holding the epoch-`e0` sketch
/// gets back exactly the growth since `e0`, and applying it reproduces
/// the current full sketch byte for byte. A wrong base CRC or an epoch
/// the server never saw falls back to the full model.
#[test]
fn model_delta_reconstructs_the_full_sketch() {
    let server = UucsServer::with_store_set(StoreSet::in_memory(2), 7);
    let ServerMsg::Id { id, .. } = server.handle(&register_msg("delta")) else {
        panic!("registration failed");
    };
    let upload = |seq: u64, count: u64| {
        let records = (0..count).map(|i| record(&id, seq, seq * 100 + i)).collect();
        let reply = server.handle(&ClientMsg::Upload {
            client: id.clone(),
            seq,
            records,
        });
        assert!(matches!(reply, ServerMsg::Ack(_)), "{reply:?}");
    };
    let model = || ClientMsg::Model {
        resource: Resource::Cpu,
        task: None,
    };

    // Epoch e0: a broad base the server will retain as a delta base.
    upload(1, 40);
    let ServerMsg::Model {
        epoch: e0,
        sketch: s0,
        ..
    } = server.handle(&model())
    else {
        panic!("MODEL failed");
    };
    assert!(e0 > 0);

    // The model grows; the client asks for the delta since e0.
    upload(2, 3);
    let ask = |since: u64, basecrc: u32| {
        server.handle(&ClientMsg::ModelDelta {
            resource: Resource::Cpu,
            task: None,
            since,
            basecrc,
        })
    };
    let reply = ask(e0, crc32(s0.as_bytes()));
    let ServerMsg::ModelDelta {
        epoch: e1,
        since,
        delta,
    } = reply
    else {
        panic!("expected a delta, got {reply:?}");
    };
    assert_eq!(since, e0);
    assert!(e1 > e0);

    // base + delta == the current full sketch, byte for byte.
    let mut reconstructed = QuantileSketch::decode(&s0).expect("base decodes");
    let decoded = SketchDelta::decode(&delta).expect("delta decodes");
    reconstructed.apply_delta(&decoded).expect("delta applies");
    let ServerMsg::Model {
        epoch: e_full,
        sketch: s_full,
        ..
    } = server.handle(&model())
    else {
        panic!("MODEL failed");
    };
    assert_eq!(e_full, e1);
    assert_eq!(reconstructed.encode(), s_full);

    // Wrong base CRC: full-sketch fallback, never a bogus delta.
    match ask(e0, crc32(s0.as_bytes()) ^ 1) {
        ServerMsg::Model { epoch, sketch, .. } => {
            assert_eq!(epoch, e1);
            assert_eq!(sketch, s_full);
        }
        other => panic!("CRC mismatch must fall back to Model, got {other:?}"),
    }

    // An epoch from the future: fallback too.
    match ask(e1 + 1000, crc32(s_full.as_bytes())) {
        ServerMsg::Model { epoch, .. } => assert_eq!(epoch, e1),
        other => panic!("unknown epoch must fall back to Model, got {other:?}"),
    }

    // Asking at the current epoch with the right CRC: a valid (no-op)
    // delta whose application changes nothing.
    match ask(e1, crc32(s_full.as_bytes())) {
        ServerMsg::ModelDelta { epoch, since, delta } => {
            assert_eq!((epoch, since), (e1, e1));
            let mut cur = QuantileSketch::decode(&s_full).unwrap();
            cur.apply_delta(&SketchDelta::decode(&delta).unwrap())
                .expect("no-op delta applies");
            assert_eq!(cur.encode(), s_full);
        }
        // A no-op delta no smaller than the sketch is allowed to fall
        // back — but it must still be the identical full model.
        ServerMsg::Model { sketch, .. } => assert_eq!(sketch, s_full),
        other => panic!("{other:?}"),
    }
}
