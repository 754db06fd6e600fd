//! Typed binary payload encodings for protocol v2.
//!
//! A frame payload is `[request id: u32 LE][opcode: u8][body]`. Bodies
//! use fixed-width little-endian integers, `f64` bits, and two
//! length-prefixed byte shapes:
//!
//! * **str** — `u16 LE` length + UTF-8 bytes (identifiers, tokens,
//!   resource names, sketch/delta encodings),
//! * **blob** — `u32 LE` length + bytes (machine snapshots, testcase
//!   blocks, STATS JSON),
//!
//! and result records are fully typed (see [`encode ▸ UPLOAD`](self)):
//! no per-field text parsing on the upload hot path.
//!
//! Decoding enforces the same deep-validation contract as the text
//! readers: a `MODEL` reply's sketch must decode and agree with its
//! counts, a `MODELDELTA` reply's delta must decode, `ADVICE` levels
//! and epsilons must be finite/in-range, and every payload must be
//! consumed *exactly* — trailing bytes are `InvalidData`, so two
//! messages can never hide in one frame.
//!
//! `HELLO` has no binary opcode on purpose: negotiation happens in the
//! text phase, *before* this framing is active. Asking either encoder
//! to emit one is `InvalidData`.

use std::io;
use uucs_modelsvc::{QuantileSketch, SketchDelta};
use uucs_protocol::record::{MonitorSummary, RunOutcome, RunRecord};
use uucs_protocol::snapshot::MachineSnapshot;
use uucs_protocol::wire::{is_token, parse_testcases};
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_testcase::{format as tcformat, Resource};

/// Client opcodes (request frames).
pub mod client_op {
    /// `REGISTER` — snapshot blob + token str.
    pub const REGISTER: u8 = 1;
    /// `SYNC` — client str, have u64, want u64.
    pub const SYNC: u8 = 2;
    /// `UPLOAD` — client str, seq u64, typed record batch.
    pub const UPLOAD: u8 = 3;
    /// `MODEL` — resource str, optional task str.
    pub const MODEL: u8 = 4;
    /// `ADVICE` — resource str, task str, epsilon f64.
    pub const ADVICE: u8 = 5;
    /// `STATS` — reset flag u8.
    pub const STATS: u8 = 6;
    /// `BYE` — empty body.
    pub const BYE: u8 = 7;
    /// `MODELDELTA` — resource str, optional task str, since u64,
    /// basecrc u32.
    pub const MODELDELTA: u8 = 8;
}

/// Server opcodes (reply frames).
pub mod server_op {
    /// `ID` — id str, applied_seq u64.
    pub const ID: u8 = 1;
    /// `TESTCASES` — count u32 + testcase text blob.
    pub const TESTCASES: u8 = 2;
    /// `ACK` — count u64.
    pub const ACK: u8 = 3;
    /// `MODEL` — epoch u64, observed u64, censored u64, sketch str.
    pub const MODEL: u8 = 4;
    /// `ADVICE` — epoch u64, level f64.
    pub const ADVICE: u8 = 5;
    /// `STATS` — JSON blob.
    pub const STATS: u8 = 6;
    /// `ERROR` — message str.
    pub const ERROR: u8 = 7;
    /// `MODELDELTA` — epoch u64, since u64, delta str.
    pub const MODELDELTA: u8 = 8;
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

// ---------------------------------------------------------------- write

struct Out {
    buf: Vec<u8>,
}

impl Out {
    fn new(req_id: u32, opcode: u8) -> Out {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&req_id.to_le_bytes());
        buf.push(opcode);
        Out { buf }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, what: &str, s: &str) -> io::Result<()> {
        let len: u16 = s
            .len()
            .try_into()
            .map_err(|_| bad(format!("{what} exceeds {} bytes", u16::MAX)))?;
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
    fn blob(&mut self, what: &str, b: &[u8]) -> io::Result<()> {
        let len: u32 = b
            .len()
            .try_into()
            .map_err(|_| bad(format!("{what} exceeds {} bytes", u32::MAX)))?;
        self.u32(len);
        self.buf.extend_from_slice(b);
        Ok(())
    }
    fn opt_str(&mut self, what: &str, s: &Option<String>) -> io::Result<()> {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(what, s)
            }
            None => {
                self.u8(0);
                Ok(())
            }
        }
    }
}

/// A `TESTCASES` reply: the count, then the blocks as one blob.
fn testcases(req_id: u32, count: usize, body: &str) -> io::Result<Out> {
    let mut out = Out::new(req_id, server_op::TESTCASES);
    let n: u32 = count
        .try_into()
        .map_err(|_| bad("TESTCASES batch exceeds u32"))?;
    out.u32(n);
    out.blob("TESTCASES body", body.as_bytes())?;
    Ok(out)
}

fn check_epsilon(epsilon: f64) -> io::Result<()> {
    if !epsilon.is_finite() || epsilon <= 0.0 || epsilon >= 1.0 {
        return Err(bad(format!("ADVICE epsilon must be in (0, 1), got {epsilon}")));
    }
    Ok(())
}

fn put_record(out: &mut Out, rec: &RunRecord) -> io::Result<()> {
    out.str("record client", &rec.client)?;
    out.str("record user", &rec.user)?;
    out.str("record testcase", &rec.testcase)?;
    out.str("record task", &rec.task)?;
    out.str("record skill", &rec.skill)?;
    out.u8(match rec.outcome {
        RunOutcome::Discomfort => 0,
        RunOutcome::Exhausted => 1,
    });
    out.f64(rec.offset_secs);
    let n: u8 = rec
        .last_levels
        .len()
        .try_into()
        .map_err(|_| bad("record has more than 255 level series"))?;
    out.u8(n);
    for (resource, levels) in &rec.last_levels {
        out.str("record resource", &resource.to_string())?;
        let k: u16 = levels
            .len()
            .try_into()
            .map_err(|_| bad("record level series exceeds 65535 samples"))?;
        out.u16(k);
        for l in levels {
            out.f64(*l);
        }
    }
    let m = &rec.monitor;
    out.f64(m.cpu_util);
    out.f64(m.peak_mem_fraction);
    out.f64(m.disk_busy);
    out.u64(m.faults);
    match m.mean_latency_us {
        Some(v) => {
            out.u8(1);
            out.f64(v);
        }
        None => out.u8(0),
    }
    Ok(())
}

/// Encodes one client message as a frame payload
/// (`[req_id][opcode][body]`). [`ClientMsg::Hello`] is refused: the
/// negotiation verb exists only in the text phase.
pub fn encode_client(req_id: u32, msg: &ClientMsg) -> io::Result<Vec<u8>> {
    let out = match msg {
        ClientMsg::Hello { .. } => {
            return Err(bad("HELLO has no binary encoding (text-phase only)"));
        }
        ClientMsg::Register { snapshot, token } => {
            let mut out = Out::new(req_id, client_op::REGISTER);
            out.blob("REGISTER snapshot", snapshot.emit().as_bytes())?;
            out.str("REGISTER token", token)?;
            out
        }
        ClientMsg::Sync { client, have, want } => {
            let mut out = Out::new(req_id, client_op::SYNC);
            out.str("SYNC client", client)?;
            out.u64(*have as u64);
            out.u64(*want as u64);
            out
        }
        ClientMsg::Upload {
            client,
            seq,
            records,
        } => {
            let mut out = Out::new(req_id, client_op::UPLOAD);
            out.str("UPLOAD client", client)?;
            out.u64(*seq);
            let n: u16 = records
                .len()
                .try_into()
                .map_err(|_| bad("UPLOAD batch exceeds 65535 records"))?;
            out.u16(n);
            for rec in records {
                put_record(&mut out, rec)?;
            }
            out
        }
        ClientMsg::Model { resource, task } => {
            let mut out = Out::new(req_id, client_op::MODEL);
            out.str("MODEL resource", &resource.to_string())?;
            out.opt_str("MODEL task", task)?;
            out
        }
        ClientMsg::ModelDelta {
            resource,
            task,
            since,
            basecrc,
        } => {
            let mut out = Out::new(req_id, client_op::MODELDELTA);
            out.str("MODELDELTA resource", &resource.to_string())?;
            out.opt_str("MODELDELTA task", task)?;
            out.u64(*since);
            out.u32(*basecrc);
            out
        }
        ClientMsg::Advice {
            resource,
            task,
            epsilon,
        } => {
            check_epsilon(*epsilon)?;
            let mut out = Out::new(req_id, client_op::ADVICE);
            out.str("ADVICE resource", &resource.to_string())?;
            out.str("ADVICE task", task)?;
            out.f64(*epsilon);
            out
        }
        ClientMsg::Stats { reset } => {
            let mut out = Out::new(req_id, client_op::STATS);
            out.u8(u8::from(*reset));
            out
        }
        ClientMsg::Bye => Out::new(req_id, client_op::BYE),
    };
    Ok(out.buf)
}

/// Encodes one server message as a frame payload, echoing the
/// request's id. [`ServerMsg::Hello`] is refused: the negotiation
/// reply is sent in the text phase, before binary framing is active.
pub fn encode_server(req_id: u32, msg: &ServerMsg) -> io::Result<Vec<u8>> {
    let out = match msg {
        ServerMsg::Hello { .. } => {
            return Err(bad("HELLO has no binary encoding (text-phase only)"));
        }
        ServerMsg::Id { id, applied_seq } => {
            let mut out = Out::new(req_id, server_op::ID);
            out.str("ID id", id)?;
            out.u64(*applied_seq);
            out
        }
        ServerMsg::Testcases(tcs) => testcases(req_id, tcs.len(), &tcformat::emit_many(tcs))?,
        ServerMsg::TestcaseText { count, body } => testcases(req_id, *count, body)?,
        ServerMsg::Ack(n) => {
            let mut out = Out::new(req_id, server_op::ACK);
            out.u64(*n as u64);
            out
        }
        ServerMsg::Model {
            epoch,
            observed,
            censored,
            sketch,
        } => {
            let mut out = Out::new(req_id, server_op::MODEL);
            out.u64(*epoch);
            out.u64(*observed);
            out.u64(*censored);
            out.str("MODEL sketch", sketch)?;
            out
        }
        ServerMsg::ModelDelta {
            epoch,
            since,
            delta,
        } => {
            let mut out = Out::new(req_id, server_op::MODELDELTA);
            out.u64(*epoch);
            out.u64(*since);
            out.str("MODELDELTA delta", delta)?;
            out
        }
        ServerMsg::Advice { epoch, level } => {
            if !level.is_finite() {
                return Err(bad("ADVICE level must be finite"));
            }
            let mut out = Out::new(req_id, server_op::ADVICE);
            out.u64(*epoch);
            out.f64(*level);
            out
        }
        ServerMsg::Stats(json) => {
            let mut out = Out::new(req_id, server_op::STATS);
            out.blob("STATS payload", json.as_bytes())?;
            out
        }
        ServerMsg::Error(e) => {
            let mut out = Out::new(req_id, server_op::ERROR);
            out.str("ERROR message", e)?;
            out
        }
    };
    Ok(out.buf)
}

// ----------------------------------------------------------------- read

struct In<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> In<'a> {
    fn new(buf: &'a [u8]) -> In<'a> {
        In { buf, pos: 0 }
    }
    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("payload too short reading {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &str) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn str(&mut self, what: &str) -> io::Result<String> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad(format!("{what} is not utf-8")))
    }
    fn blob(&mut self, what: &str) -> io::Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }
    fn opt_str(&mut self, what: &str) -> io::Result<Option<String>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            other => Err(bad(format!("bad {what} presence flag {other}"))),
        }
    }
    fn resource(&mut self, what: &str) -> io::Result<Resource> {
        self.str(what)?
            .parse()
            .map_err(|_| bad(format!("unknown {what}")))
    }
    /// Every decoder must land exactly at the end: trailing bytes mean
    /// the frame was built by a confused (or malicious) encoder, and
    /// parsing "most of" a frame is how divergence starts.
    fn done(&self, what: &str) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn take_record(r: &mut In<'_>) -> io::Result<RunRecord> {
    let client = r.str("record client")?;
    let user = r.str("record user")?;
    let testcase = r.str("record testcase")?;
    let task = r.str("record task")?;
    let skill = r.str("record skill")?;
    let outcome = match r.u8("record outcome")? {
        0 => RunOutcome::Discomfort,
        1 => RunOutcome::Exhausted,
        other => return Err(bad(format!("bad record outcome {other}"))),
    };
    let offset_secs = r.f64("record offset")?;
    if !offset_secs.is_finite() || offset_secs < 0.0 {
        return Err(bad(format!("bad record offset {offset_secs}")));
    }
    let series = r.u8("record level series count")?;
    let mut last_levels = Vec::with_capacity(series as usize);
    for _ in 0..series {
        let resource = r.resource("record resource")?;
        let k = r.u16("record level count")?;
        let mut levels = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let l = r.f64("record level")?;
            if !l.is_finite() {
                return Err(bad("non-finite record level"));
            }
            levels.push(l);
        }
        last_levels.push((resource, levels));
    }
    let monitor = MonitorSummary {
        cpu_util: r.f64("monitor cpu")?,
        peak_mem_fraction: r.f64("monitor mem")?,
        disk_busy: r.f64("monitor disk")?,
        faults: r.u64("monitor faults")?,
        mean_latency_us: match r.u8("monitor latency flag")? {
            0 => None,
            1 => Some(r.f64("monitor latency")?),
            other => return Err(bad(format!("bad monitor latency flag {other}"))),
        },
    };
    Ok(RunRecord {
        client,
        user,
        testcase,
        task,
        skill,
        outcome,
        offset_secs,
        last_levels,
        monitor,
    })
}

/// A decoded client frame payload: either a message, or an intact
/// frame carrying an opcode from the future — the server answers
/// `ERROR` and keeps the connection (the binary analogue of the text
/// protocol's unknown-verb rule; the frame boundary is clean, so
/// nothing is torn).
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedClient {
    /// A well-formed known message.
    Msg(ClientMsg),
    /// An intact frame with an opcode this peer does not know.
    Unknown(u8),
    /// A well-formed known message carrying a string the server would
    /// have to splice into line-oriented journal text and could not
    /// read back equal — a line break in a record field, a
    /// registration token that is not one token. The server answers
    /// `ERROR` with this reason and keeps the connection: the frame
    /// boundary is clean, only the content is refused.
    Refused(String),
}

/// Why the server must not journal `msg`, if it must not.
fn refusal(msg: &ClientMsg) -> Option<String> {
    match msg {
        ClientMsg::Register { token, .. } => (!token.is_empty() && !is_token(token))
            .then(|| format!("REGISTER token {token:?} is not one token")),
        ClientMsg::Upload { records, .. } => records
            .iter()
            .enumerate()
            .find_map(|(i, rec)| Some(format!("UPLOAD record {i}: {}", rec.check_text().err()?))),
        _ => None,
    }
}

/// Decodes a client frame payload produced by [`encode_client`].
pub fn decode_client(payload: &[u8]) -> io::Result<(u32, DecodedClient)> {
    let mut r = In::new(payload);
    let req_id = r.u32("request id")?;
    let opcode = r.u8("opcode")?;
    let msg = match opcode {
        client_op::REGISTER => {
            let body = r.blob("REGISTER snapshot")?;
            let text = std::str::from_utf8(body)
                .map_err(|_| bad("REGISTER snapshot is not utf-8"))?;
            let snapshot = MachineSnapshot::parse(text).map_err(bad)?;
            let token = r.str("REGISTER token")?;
            ClientMsg::Register { snapshot, token }
        }
        client_op::SYNC => ClientMsg::Sync {
            client: r.str("SYNC client")?,
            have: r.u64("SYNC have")? as usize,
            want: r.u64("SYNC want")? as usize,
        },
        client_op::UPLOAD => {
            let client = r.str("UPLOAD client")?;
            let seq = r.u64("UPLOAD seq")?;
            let n = r.u16("UPLOAD count")?;
            let mut records = Vec::with_capacity(n as usize);
            for _ in 0..n {
                records.push(take_record(&mut r)?);
            }
            ClientMsg::Upload {
                client,
                seq,
                records,
            }
        }
        client_op::MODEL => ClientMsg::Model {
            resource: r.resource("MODEL resource")?,
            task: r.opt_str("MODEL task")?,
        },
        client_op::MODELDELTA => ClientMsg::ModelDelta {
            resource: r.resource("MODELDELTA resource")?,
            task: r.opt_str("MODELDELTA task")?,
            since: r.u64("MODELDELTA since")?,
            basecrc: r.u32("MODELDELTA basecrc")?,
        },
        client_op::ADVICE => {
            let resource = r.resource("ADVICE resource")?;
            let task = r.str("ADVICE task")?;
            let epsilon = r.f64("ADVICE epsilon")?;
            check_epsilon(epsilon)?;
            ClientMsg::Advice {
                resource,
                task,
                epsilon,
            }
        }
        client_op::STATS => ClientMsg::Stats {
            reset: match r.u8("STATS reset flag")? {
                0 => false,
                1 => true,
                other => return Err(bad(format!("bad STATS reset flag {other}"))),
            },
        },
        client_op::BYE => ClientMsg::Bye,
        other => {
            // Don't validate the rest of the body — we can't know its
            // shape — but the frame itself was CRC-intact.
            return Ok((req_id, DecodedClient::Unknown(other)));
        }
    };
    r.done("client message")?;
    Ok((
        req_id,
        match refusal(&msg) {
            Some(why) => DecodedClient::Refused(why),
            None => DecodedClient::Msg(msg),
        },
    ))
}

/// Decodes a server frame payload produced by [`encode_server`]. An
/// unknown opcode is [`std::io::ErrorKind::Unsupported`] (a reply from
/// the future), mirroring the text reader.
pub fn decode_server(payload: &[u8]) -> io::Result<(u32, ServerMsg)> {
    let mut r = In::new(payload);
    let req_id = r.u32("request id")?;
    let opcode = r.u8("opcode")?;
    let msg = match opcode {
        server_op::ID => {
            let id = r.str("ID id")?;
            if id.is_empty() {
                return Err(bad("empty ID id"));
            }
            ServerMsg::Id {
                id,
                applied_seq: r.u64("ID applied-seq")?,
            }
        }
        server_op::TESTCASES => {
            let n = r.u32("TESTCASES count")? as usize;
            let body = r.blob("TESTCASES body")?;
            let text = std::str::from_utf8(body)
                .map_err(|_| bad("TESTCASES body is not utf-8"))?;
            ServerMsg::Testcases(parse_testcases(n, text)?)
        }
        server_op::ACK => ServerMsg::Ack(r.u64("ACK count")? as usize),
        server_op::MODEL => {
            let epoch = r.u64("MODEL epoch")?;
            let observed = r.u64("MODEL observed")?;
            let censored = r.u64("MODEL censored")?;
            let sketch = r.str("MODEL sketch")?;
            let decoded = QuantileSketch::decode(&sketch)
                .map_err(|e| bad(format!("bad MODEL sketch: {e}")))?;
            if decoded.observed() != observed || decoded.censored() != censored {
                return Err(bad("MODEL counts disagree with sketch"));
            }
            ServerMsg::Model {
                epoch,
                observed,
                censored,
                sketch,
            }
        }
        server_op::MODELDELTA => {
            let epoch = r.u64("MODELDELTA epoch")?;
            let since = r.u64("MODELDELTA since")?;
            let delta = r.str("MODELDELTA delta")?;
            SketchDelta::decode(&delta)
                .map_err(|e| bad(format!("bad MODELDELTA delta: {e}")))?;
            ServerMsg::ModelDelta {
                epoch,
                since,
                delta,
            }
        }
        server_op::ADVICE => {
            let epoch = r.u64("ADVICE epoch")?;
            let level = r.f64("ADVICE level")?;
            if !level.is_finite() {
                return Err(bad("non-finite ADVICE level"));
            }
            ServerMsg::Advice { epoch, level }
        }
        server_op::STATS => {
            let body = r.blob("STATS payload")?;
            let json = std::str::from_utf8(body)
                .map_err(|_| bad("STATS payload is not utf-8"))?;
            ServerMsg::Stats(json.to_string())
        }
        server_op::ERROR => ServerMsg::Error(r.str("ERROR message")?),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unknown server opcode {other}"),
            ));
        }
    };
    r.done("server message")?;
    Ok((req_id, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_testcase::{ExerciseSpec, Testcase};

    fn record() -> RunRecord {
        RunRecord {
            client: "c1".into(),
            user: "u1".into(),
            testcase: "t1".into(),
            task: "Quake".into(),
            skill: String::new(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 12.5,
            last_levels: vec![
                (Resource::Cpu, vec![0.5, 0.55, 0.6]),
                (Resource::Memory, vec![]),
            ],
            monitor: MonitorSummary {
                cpu_util: 0.9,
                peak_mem_fraction: 0.4,
                disk_busy: 0.1,
                faults: 3,
                mean_latency_us: Some(120.0),
            },
        }
    }

    fn sketch_token() -> String {
        let mut s = QuantileSketch::new(0.0, 10.0, 8);
        s.insert(1.0);
        s.insert(7.0);
        s.insert_censored();
        s.encode()
    }

    #[test]
    fn client_roundtrips() {
        let msgs = vec![
            ClientMsg::register(MachineSnapshot::study_machine("h1")),
            ClientMsg::Register {
                snapshot: MachineSnapshot::study_machine("h2"),
                token: "tok-1234".into(),
            },
            ClientMsg::Sync {
                client: "c-9".into(),
                have: 12,
                want: 30,
            },
            ClientMsg::Upload {
                client: "c-9".into(),
                seq: 17,
                records: vec![record(), record()],
            },
            ClientMsg::Upload {
                client: "c-9".into(),
                seq: 0,
                records: vec![],
            },
            ClientMsg::Model {
                resource: Resource::Cpu,
                task: None,
            },
            ClientMsg::Model {
                resource: Resource::Disk,
                task: Some("Word".into()),
            },
            ClientMsg::ModelDelta {
                resource: Resource::Memory,
                task: Some("Quake".into()),
                since: 42,
                basecrc: 0xdead_beef,
            },
            ClientMsg::Advice {
                resource: Resource::Cpu,
                task: "Word".into(),
                epsilon: 0.05,
            },
            ClientMsg::Stats { reset: true },
            ClientMsg::Stats { reset: false },
            ClientMsg::Bye,
        ];
        for (i, msg) in msgs.into_iter().enumerate() {
            let req_id = 1000 + i as u32;
            let payload = encode_client(req_id, &msg).unwrap();
            let (rid, decoded) = decode_client(&payload).unwrap();
            assert_eq!(rid, req_id);
            assert_eq!(decoded, DecodedClient::Msg(msg));
        }
    }

    #[test]
    fn server_roundtrips() {
        let tc = Testcase::single(
            "x",
            1.0,
            Resource::Disk,
            ExerciseSpec::Ramp {
                level: 5.0,
                duration: 120.0,
            },
        );
        let sk = sketch_token();
        let decoded_sketch = QuantileSketch::decode(&sk).unwrap();
        let mut target = decoded_sketch.clone();
        target.insert(3.0);
        let delta = target.delta_since(&decoded_sketch).unwrap().encode();
        let msgs = vec![
            ServerMsg::id("guid-42"),
            ServerMsg::Id {
                id: "guid-42".into(),
                applied_seq: 17,
            },
            ServerMsg::Testcases(vec![tc.clone(), tc]),
            ServerMsg::Testcases(vec![]),
            ServerMsg::Ack(7),
            ServerMsg::Model {
                epoch: 9,
                observed: decoded_sketch.observed(),
                censored: decoded_sketch.censored(),
                sketch: sk,
            },
            ServerMsg::ModelDelta {
                epoch: 10,
                since: 9,
                delta,
            },
            ServerMsg::Advice {
                epoch: 9,
                level: 4.25,
            },
            ServerMsg::Stats("{\"counters\":{}}".into()),
            ServerMsg::Error("nope".into()),
        ];
        for (i, msg) in msgs.into_iter().enumerate() {
            let req_id = 7 * i as u32;
            let payload = encode_server(req_id, &msg).unwrap();
            let (rid, decoded) = decode_server(&payload).unwrap();
            assert_eq!(rid, req_id);
            assert_eq!(decoded, msg);
        }
    }

    /// Testcase text is framed byte for byte as the testcases it holds,
    /// decodes as them, and a count its body does not fill is refused
    /// here as it is by an in-process receiver.
    #[test]
    fn testcase_text_encodes_as_testcases() {
        let tcs = vec![
            Testcase::single(
                "x",
                0.5,
                Resource::Disk,
                ExerciseSpec::Ramp {
                    level: 5.0,
                    duration: 40.0,
                },
            ),
            Testcase::blank("b", 1.0, 9.0),
        ];
        for n in 0..=tcs.len() {
            let structs = ServerMsg::Testcases(tcs[..n].to_vec());
            let text = ServerMsg::TestcaseText {
                count: n,
                body: tcformat::emit_many(&tcs[..n]),
            };
            let payload = encode_server(5, &text).unwrap();
            assert_eq!(payload, encode_server(5, &structs).unwrap());
            assert_eq!(decode_server(&payload).unwrap(), (5, structs));
        }
        let short = ServerMsg::TestcaseText {
            count: 3,
            body: tcformat::emit_many(&tcs),
        };
        let refused = decode_server(&encode_server(5, &short).unwrap()).unwrap_err();
        let received = short.received().unwrap_err();
        assert_eq!(
            (refused.kind(), refused.to_string()),
            (received.kind(), received.to_string())
        );
    }

    /// A binary `TESTCASES` reply whose text names more values than it
    /// holds, or a rate no testcase can have, is refused as the text
    /// framing refuses it.
    #[test]
    fn untrusted_testcase_replies_are_refused_not_fatal() {
        for (rate, count) in [("1", "1000000000000"), ("1", "18446744073709551615"), ("0", "1"), ("nan", "1")] {
            let reply = ServerMsg::TestcaseText {
                count: 1,
                body: format!("TESTCASE t\nRATE {rate}\nFUNCTION cpu {count}\n0\nEND\n"),
            };
            let refused = decode_server(&encode_server(5, &reply).unwrap()).unwrap_err();
            assert!(refused.to_string().starts_with("bad testcase block: "), "{refused}");
            assert_eq!(refused.to_string(), reply.received().unwrap_err().to_string());
        }
    }

    #[test]
    fn hello_has_no_binary_encoding() {
        assert!(encode_client(1, &ClientMsg::Hello { version: 2 }).is_err());
        assert!(encode_server(1, &ServerMsg::Hello { version: 2 }).is_err());
    }

    #[test]
    fn unknown_client_opcode_is_reported_not_errored() {
        let mut payload = 9u32.to_le_bytes().to_vec();
        payload.push(200);
        payload.extend_from_slice(b"future stuff");
        match decode_client(&payload).unwrap() {
            (9, DecodedClient::Unknown(200)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_server_opcode_is_unsupported() {
        let mut payload = 9u32.to_le_bytes().to_vec();
        payload.push(200);
        let err = decode_server(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn strict_prefixes_never_decode() {
        let payload = encode_client(
            3,
            &ClientMsg::Upload {
                client: "c".into(),
                seq: 4,
                records: vec![record()],
            },
        )
        .unwrap();
        for cut in 0..payload.len() {
            assert!(
                decode_client(&payload[..cut]).is_err(),
                "client prefix {cut} decoded"
            );
        }
        let payload = encode_server(
            3,
            &ServerMsg::Model {
                epoch: 1,
                observed: 2,
                censored: 1,
                sketch: sketch_token(),
            },
        )
        .unwrap();
        for cut in 0..payload.len() {
            assert!(
                decode_server(&payload[..cut]).is_err(),
                "server prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_client(1, &ClientMsg::Bye).unwrap();
        payload.push(0);
        assert!(decode_client(&payload).is_err());
        let mut payload = encode_server(1, &ServerMsg::Ack(3)).unwrap();
        payload.push(0);
        assert!(decode_server(&payload).is_err());
    }

    #[test]
    fn deep_validation_matches_the_text_readers() {
        // MODEL counts must agree with the sketch.
        let sk = sketch_token();
        let payload = encode_server(
            1,
            &ServerMsg::Model {
                epoch: 1,
                observed: 99,
                censored: 1,
                sketch: sk,
            },
        )
        .unwrap();
        assert!(decode_server(&payload).is_err());
        // Epsilon out of range is refused on encode and decode.
        assert!(encode_client(
            1,
            &ClientMsg::Advice {
                resource: Resource::Cpu,
                task: "Word".into(),
                epsilon: 1.5,
            }
        )
        .is_err());
        // Bad outcome byte.
        let mut payload = encode_client(
            2,
            &ClientMsg::Upload {
                client: "c".into(),
                seq: 1,
                records: vec![record()],
            },
        )
        .unwrap();
        // Find the outcome byte: after 5 strings; flip it to 9. The
        // record starts at req(4)+op(1)+client str(2+1)+seq(8)+count(2).
        let rec_start = 4 + 1 + 3 + 8 + 2;
        let mut pos = rec_start;
        for _ in 0..5 {
            let len = u16::from_le_bytes([payload[pos], payload[pos + 1]]) as usize;
            pos += 2 + len;
        }
        payload[pos] = 9;
        assert!(decode_client(&payload).is_err());
    }
}
