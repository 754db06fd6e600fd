//! WAL payload encoding for the server's durable stores.
//!
//! The server journals every accepted mutation — a run result upload or
//! a testcase addition — as one WAL record before acknowledging it. The
//! payload is the store's existing text format prefixed with a one-byte
//! tag, so a journal survives tooling changes as long as the text
//! formats do, and a `hexdump` of a segment stays human-readable.
//!
//! * `b'R'` + [`RunRecord`] text — a result appended to the result store.
//! * `b'T'` + testcase text — a testcase added to the testcase store.
//! * `b'B'` + `BATCH <client> <seq> <n>` line + `n` record blocks — an
//!   idempotent upload batch: the records *and* the client's batch
//!   sequence number, journaled as one atomic entry so recovery restores
//!   the dedup horizon along with the data.
//! * `b'C'` + `CLIENT <id>` line + snapshot block — a registration, so a
//!   recovered server still knows its clients and their ids.
//! * `b'M'` + [`ModelDelta`] text — one epoch's comfort-model update
//!   (the observations minted from an accepted upload batch), journaled
//!   by the model store before the delta is applied so replaying the
//!   journal reproduces the exact epoch sequence.

use crate::record::RunRecord;
use crate::snapshot::MachineSnapshot;
use uucs_modelsvc::ModelDelta;
use uucs_testcase::format::{self as tcformat, words};
use uucs_testcase::Testcase;

/// Tag byte for a result entry.
pub const TAG_RESULT: u8 = b'R';
/// Tag byte for a testcase entry.
pub const TAG_TESTCASE: u8 = b'T';
/// Tag byte for an idempotent upload batch.
pub const TAG_BATCH: u8 = b'B';
/// Tag byte for a client registration.
pub const TAG_CLIENT: u8 = b'C';
/// Tag byte for a comfort-model delta.
pub const TAG_MODEL: u8 = b'M';

/// The name of an entry kind in error text, by tag byte.
pub fn entry_kind(tag: u8) -> Option<&'static str> {
    match tag {
        TAG_RESULT => Some("result"),
        TAG_TESTCASE => Some("testcase"),
        TAG_BATCH => Some("batch"),
        TAG_CLIENT => Some("client"),
        TAG_MODEL => Some("model"),
        _ => None,
    }
}

/// Splits a payload into its tag byte and text — the two checks every
/// entry kind shares.
pub fn split_payload(payload: &[u8]) -> Result<(u8, &str), String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty wal payload".to_string())?;
    let text =
        std::str::from_utf8(body).map_err(|e| format!("wal payload is not utf-8: {e}"))?;
    Ok((tag, text))
}

/// Splits a batch entry's text into the `BATCH <client> <seq> <n>`
/// fields and the record blocks after the header line.
fn split_batch(text: &str) -> Result<(&str, u64, usize, &str), String> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "batch payload missing header line".to_string())?;
    let mut toks = words(header);
    if toks.next() != Some("BATCH") {
        return Err(format!("bad batch header {header:?}"));
    }
    let client = toks
        .next()
        .ok_or_else(|| "batch header missing client".to_string())?;
    let seq: u64 = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| "batch header missing seq".to_string())?;
    let n: usize = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| "batch header missing count".to_string())?;
    Ok((client, seq, n, body))
}

fn count_mismatch(promised: usize, found: usize) -> String {
    format!("batch promised {promised} records, parsed {found}")
}

/// A result-store entry checked as far as replay needs and no further,
/// in one pass over its bytes: the header line split by [`words`], the
/// record blocks counted ([`RunRecord::count_blocks`]) but left as the
/// text they are. What a field holds is the business of whoever reads
/// the record.
#[derive(Debug, Clone, PartialEq)]
pub struct BorrowedBlocks<'a> {
    /// `(client, seq)` of a [`WalEntry::Batch`]; `None` for a legacy
    /// [`WalEntry::Result`].
    pub batch: Option<(&'a str, u64)>,
    /// The `RESULT`…`END` blocks, verbatim.
    pub body: &'a str,
    /// How many blocks `body` holds.
    pub count: usize,
}

impl<'a> BorrowedBlocks<'a> {
    /// The text of a [`TAG_BATCH`] payload: `BATCH <client> <seq> <n>`
    /// and exactly `n` blocks. The header grammar and every error
    /// string are [`WalEntry::decode`]'s.
    pub fn batch(text: &'a str) -> Result<Self, String> {
        let (client, seq, n, body) = split_batch(text)?;
        let count = RunRecord::count_blocks(body)?;
        if count != n {
            return Err(count_mismatch(n, count));
        }
        Ok(BorrowedBlocks {
            batch: Some((client, seq)),
            body,
            count,
        })
    }

    /// The text of a [`TAG_RESULT`] payload: exactly one block.
    pub fn result(text: &'a str) -> Result<Self, String> {
        if RunRecord::count_blocks(text)? != 1 {
            return Err("result payload must hold exactly one record".to_string());
        }
        Ok(BorrowedBlocks {
            batch: None,
            body: text,
            count: 1,
        })
    }

    /// The payload [`WalEntry::encode`] produces for the same entry,
    /// built from text that is already rendered.
    pub fn encode(&self) -> Vec<u8> {
        let header = match self.batch {
            Some((client, seq)) => format!("BATCH {client} {seq} {}\n", self.count),
            None => String::new(),
        };
        let mut out = Vec::with_capacity(1 + header.len() + self.body.len());
        out.push(if self.batch.is_some() { TAG_BATCH } else { TAG_RESULT });
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// The [`WalEntry::Testcase`] payload of a testcase already rendered as
/// `block` ([`tcformat::emit`] output): what a store holding testcases
/// as text journals and ships without rendering them again.
pub fn testcase_payload(block: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + block.len());
    out.push(TAG_TESTCASE);
    out.extend_from_slice(block.as_bytes());
    out
}

/// The text of a [`TAG_CLIENT`] payload as [`WalEntry::decode`] reads
/// it: the id and token ("" = none) of its `CLIENT <id> [token]` line,
/// and the snapshot block after that line, unchecked.
pub fn client_header(text: &str) -> Result<(&str, &str, &str), String> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "client payload missing header line".to_string())?;
    let rest = header
        .strip_prefix("CLIENT ")
        .ok_or_else(|| format!("bad client header {header:?}"))?;
    let mut toks = rest.split_whitespace();
    let id = toks
        .next()
        .ok_or_else(|| "client header missing id".to_string())?;
    Ok((id, toks.next().unwrap_or(""), body))
}

/// One logical mutation of the server's stores, as journaled in the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A run result accepted into the result store.
    Result(RunRecord),
    /// A testcase added to the testcase store.
    Testcase(Testcase),
    /// An idempotent upload batch accepted into the result store: the
    /// per-client sequence number and every record, as one atomic entry.
    Batch {
        /// The uploading client's GUID.
        client: String,
        /// The client's batch sequence number (never 0 — legacy
        /// non-idempotent uploads journal as [`WalEntry::Result`]).
        seq: u64,
        /// The records in the batch.
        records: Vec<RunRecord>,
    },
    /// A client registration accepted into the registry.
    Client {
        /// The assigned GUID.
        id: String,
        /// The client's registration idempotency token ("" = legacy).
        token: String,
        /// The machine snapshot the client registered with.
        snapshot: MachineSnapshot,
    },
    /// One epoch's comfort-model update accepted into the model store.
    Model(ModelDelta),
}

impl WalEntry {
    /// Encodes the entry into a WAL payload: tag byte + text format.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalEntry::Result(rec) => BorrowedBlocks {
                batch: None,
                body: &rec.emit(),
                count: 1,
            }
            .encode(),
            WalEntry::Testcase(tc) => testcase_payload(&tcformat::emit(tc)),
            WalEntry::Batch {
                client,
                seq,
                records,
            } => BorrowedBlocks {
                batch: Some((client, *seq)),
                body: &RunRecord::emit_many(records),
                count: records.len(),
            }
            .encode(),
            WalEntry::Client {
                id,
                token,
                snapshot,
            } => {
                let mut out = vec![TAG_CLIENT];
                if token.is_empty() {
                    out.extend_from_slice(format!("CLIENT {id}\n").as_bytes());
                } else {
                    out.extend_from_slice(format!("CLIENT {id} {token}\n").as_bytes());
                }
                out.extend_from_slice(snapshot.emit().as_bytes());
                out
            }
            WalEntry::Model(delta) => {
                let mut out = vec![TAG_MODEL];
                out.extend_from_slice(delta.encode().as_bytes());
                out
            }
        }
    }

    /// Decodes a WAL payload produced by [`WalEntry::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalEntry, String> {
        let (tag, text) = split_payload(payload)?;
        match tag {
            TAG_RESULT => {
                let mut records = RunRecord::parse_many(text)?;
                match (records.pop(), records.is_empty()) {
                    (Some(rec), true) => Ok(WalEntry::Result(rec)),
                    _ => Err("result payload must hold exactly one record".to_string()),
                }
            }
            TAG_TESTCASE => tcformat::parse(text)
                .map(WalEntry::Testcase)
                .map_err(|e| format!("bad testcase payload: {e}")),
            TAG_BATCH => {
                let (client, seq, n, body) = split_batch(text)?;
                let records = RunRecord::parse_many(body)?;
                if records.len() != n {
                    return Err(count_mismatch(n, records.len()));
                }
                Ok(WalEntry::Batch {
                    client: client.to_string(),
                    seq,
                    records,
                })
            }
            TAG_CLIENT => {
                let (id, token, body) = client_header(text)?;
                let snapshot =
                    MachineSnapshot::parse(body).map_err(|e| format!("bad client snapshot: {e}"))?;
                Ok(WalEntry::Client {
                    id: id.to_string(),
                    token: token.to_string(),
                    snapshot,
                })
            }
            TAG_MODEL => ModelDelta::decode(text).map(WalEntry::Model),
            other => Err(format!("unknown wal entry tag {other:#04x}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Blocks, MonitorSummary, RunOutcome};
    use uucs_testcase::{ExerciseFunction, Resource};

    fn record() -> RunRecord {
        RunRecord {
            client: "c-9".into(),
            user: "u1".into(),
            testcase: "cpu-ramp-3-60".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 12.25,
            last_levels: vec![(Resource::Cpu, vec![1.0, 2.0])],
            monitor: MonitorSummary::default(),
        }
    }

    fn delta() -> ModelDelta {
        ModelDelta {
            epoch: 7,
            observations: vec![uucs_modelsvc::Observation {
                resource: Resource::Cpu,
                task: "Word".into(),
                skill: "Typical".into(),
                level: 3.5,
                censored: false,
            }],
        }
    }

    fn testcase() -> Testcase {
        Testcase::new(
            "word-cpu-ramp",
            1.0,
            vec![ExerciseFunction::from_values(
                Resource::Cpu,
                1.0,
                vec![0.0, 1.0, 2.0],
            )],
        )
    }

    #[test]
    fn roundtrip_all_variants() {
        for entry in [
            WalEntry::Result(record()),
            WalEntry::Testcase(testcase()),
            WalEntry::Batch {
                client: "client-0007".into(),
                seq: 42,
                records: vec![record(), record()],
            },
            WalEntry::Batch {
                client: "client-0007".into(),
                seq: 43,
                records: vec![],
            },
            WalEntry::Client {
                id: "client-0001".into(),
                token: String::new(),
                snapshot: MachineSnapshot::study_machine("optiplex-9"),
            },
            WalEntry::Client {
                id: "client-0002".into(),
                token: "tok-deadbeef".into(),
                snapshot: MachineSnapshot::study_machine("optiplex-9"),
            },
            WalEntry::Model(delta()),
            WalEntry::Model(ModelDelta {
                epoch: 8,
                observations: vec![],
            }),
        ] {
            let bytes = entry.encode();
            assert_eq!(WalEntry::decode(&bytes).unwrap(), entry);
        }
    }

    /// The result-store payloads spelled out, so the shared encoder
    /// cannot drift from what journals on disk already hold; and the
    /// borrowed view of each is the decoded entry minus the decoding.
    #[test]
    fn result_payloads_are_pinned_and_borrow_as_they_decode() {
        let text = record().emit();
        let single = WalEntry::Result(record()).encode();
        assert_eq!(single, format!("R{text}").into_bytes());
        let batch = WalEntry::Batch {
            client: "client-0007".into(),
            seq: 42,
            records: vec![record(), record()],
        }
        .encode();
        assert_eq!(batch, format!("BBATCH client-0007 42 2\n{text}{text}").into_bytes());

        let (tag, body) = split_payload(&batch).unwrap();
        let borrowed = BorrowedBlocks::batch(body).unwrap();
        assert_eq!((tag, borrowed.batch, borrowed.count), (TAG_BATCH, Some(("client-0007", 42)), 2));
        assert_eq!(borrowed.body, format!("{text}{text}"));
        assert_eq!(borrowed.encode(), batch);
        let (tag, body) = split_payload(&single).unwrap();
        let borrowed = BorrowedBlocks::result(body).unwrap();
        assert_eq!((tag, borrowed.batch, borrowed.body), (TAG_RESULT, None, text.as_str()));
        assert_eq!(borrowed.encode(), single);
    }

    /// `split_batch` as it was before its header was split by `words`,
    /// kept as the reference.
    fn reference_split_batch(text: &str) -> Result<(&str, u64, usize, &str), String> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| "batch payload missing header line".to_string())?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("BATCH") {
            return Err(format!("bad batch header {header:?}"));
        }
        let client = toks
            .next()
            .ok_or_else(|| "batch header missing client".to_string())?;
        let seq: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| "batch header missing seq".to_string())?;
        let n: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| "batch header missing count".to_string())?;
        Ok((client, seq, n, body))
    }

    fn reference_count(body: &str) -> Result<usize, String> {
        let mut n = 0;
        for block in crate::record::reference::Blocks::new(body) {
            block?;
            n += 1;
        }
        Ok(n)
    }

    /// Both result-payload checks as they were: the reference header
    /// split, then the reference block scanner.
    fn reference_checks(text: &str) -> (Result<BorrowedBlocks<'_>, String>, Result<usize, String>) {
        let batch = reference_split_batch(text).and_then(|(client, seq, n, body)| {
            let count = reference_count(body)?;
            if count != n {
                return Err(count_mismatch(n, count));
            }
            Ok(BorrowedBlocks {
                batch: Some((client, seq)),
                body,
                count,
            })
        });
        (batch, reference_count(text))
    }

    /// The one-pass checks give the reference's verdicts — the borrowed
    /// view or the error string — and the block scanner the reference's
    /// blocks, errors and remainders, on the batch text and its body.
    fn assert_checks_like_the_reference(text: &str, context: &str) {
        let (batch, count) = reference_checks(text);
        assert_eq!(BorrowedBlocks::batch(text), batch, "{context}: {text:?}");
        assert_eq!(RunRecord::count_blocks(text), count, "{context}: {text:?}");
        let single = match count {
            Ok(1) => Ok(1),
            Ok(_) => Err("result payload must hold exactly one record".to_string()),
            Err(e) => Err(e),
        };
        assert_eq!(BorrowedBlocks::result(text).map(|b| b.count), single, "{context}");
        let body = text.split_once('\n').map_or(text, |(_, body)| body);
        for scanned in [text, body] {
            let mut mine = Blocks::new(scanned);
            let mut theirs = crate::record::reference::Blocks::new(scanned);
            loop {
                let (a, b) = (mine.next(), theirs.next());
                assert_eq!(a, b, "{context}: {scanned:?}");
                assert_eq!(mine.rest(), theirs.rest(), "{context}: {scanned:?}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Lines damage can leave in a batch: the record format's strays,
    /// header lines, and `END` near-misses.
    const BATCH_STRAY: [&str; 12] = [
        "BATCH c1 2 1",
        "BATCH",
        "BATCH c1 x 1",
        "BATCH c1 2",
        "END END",
        " END\u{b}",
        "\u{a0}END\u{3000}",
        "xEND",
        "ENDx",
        "# END",
        "EN D",
        "D",
    ];

    #[test]
    fn one_pass_batch_check_equals_the_reference() {
        use crate::record::tests::{generated, STRAY};
        use uucs_harness::prop::{any, run_property, Config};
        let stray: Vec<&str> = STRAY.iter().chain(&BATCH_STRAY).copied().collect();
        for text in &stray {
            assert_checks_like_the_reference(text, "fixed input");
            assert_checks_like_the_reference(&format!("BATCH c 1 1\nRESULT\n{text}\nEND\n"), "inside");
        }
        run_property(
            &Config::default(),
            "one_pass_batch_check_equals_the_reference",
            (any::<u64>(),),
            |&(seed,)| {
                let mut rng = uucs_stats::Pcg64::new(seed);
                let records: Vec<RunRecord> = (0..rng.below(4)).map(|_| generated(&mut rng)).collect();
                let entry = WalEntry::Batch {
                    client: format!("client-{:04}", rng.below(50)),
                    seq: rng.below(9),
                    records,
                };
                let mut text = String::from_utf8(entry.encode()[1..].to_vec()).unwrap();
                assert_checks_like_the_reference(&text, &format!("seed {seed}, undamaged"));
                for round in 0..4 {
                    text = uucs_harness::textfuzz::mutate_lines(&mut rng, &text, &stray);
                    assert_checks_like_the_reference(&text, &format!("seed {seed}, round {round}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tags_are_first_byte() {
        assert_eq!(WalEntry::Result(record()).encode()[0], TAG_RESULT);
        assert_eq!(WalEntry::Testcase(testcase()).encode()[0], TAG_TESTCASE);
        let batch = WalEntry::Batch {
            client: "c".into(),
            seq: 1,
            records: vec![],
        };
        assert_eq!(batch.encode()[0], TAG_BATCH);
        let client = WalEntry::Client {
            id: "c".into(),
            token: String::new(),
            snapshot: MachineSnapshot::study_machine("h"),
        };
        assert_eq!(client.encode()[0], TAG_CLIENT);
        assert_eq!(WalEntry::Model(delta()).encode()[0], TAG_MODEL);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalEntry::decode(b"").is_err());
        assert!(WalEntry::decode(b"X").is_err());
        assert!(WalEntry::decode(b"Rnot a record").is_err());
        assert!(WalEntry::decode(b"Tnot a testcase").is_err());
        assert!(WalEntry::decode(&[TAG_RESULT, 0xFF, 0xFE]).is_err());
        // Two records in one payload: the journal is one-entry-per-record.
        let two = format!("R{}{}", record().emit(), record().emit());
        assert!(WalEntry::decode(two.as_bytes()).is_err());
        // Batch defects: bad header, count mismatch, torn body.
        assert!(WalEntry::decode(b"B").is_err());
        assert!(WalEntry::decode(b"BNOPE x y\n").is_err());
        assert!(WalEntry::decode(b"BBATCH c1 notanumber 1\nRESULT\nEND\n").is_err());
        let short = format!("BBATCH c1 9 2\n{}", record().emit());
        assert!(WalEntry::decode(short.as_bytes()).is_err());
        // Client defects: no header, empty id, torn snapshot.
        assert!(WalEntry::decode(b"C").is_err());
        assert!(WalEntry::decode(b"CCLIENT \nSNAPSHOT\nEND\n").is_err());
        assert!(WalEntry::decode(b"CCLIENT c1\nSNAPSHOT\nHOST x\n").is_err());
        // Model defects: not a delta, count mismatch, missing END.
        assert!(WalEntry::decode(b"Mnot a delta").is_err());
        assert!(WalEntry::decode(b"MMODELDELTA 1 2\nEND\n").is_err());
        assert!(WalEntry::decode(b"MMODELDELTA 1 0\n").is_err());
    }
}
