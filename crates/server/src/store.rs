//! Text-file-backed stores, as in the paper ("store testcases and
//! results on permanent storage in text files") — optionally journaled
//! through a write-ahead log (`uucs-wal`) so a server crash between
//! periodic checkpoints loses nothing that was acknowledged.
//!
//! Each store runs in one of two modes:
//!
//! * **Plain** ([`TestcaseStore::new`], [`ResultStore::new`], and the
//!   `load`/`save` text files): the paper's original design. Durability
//!   is whatever the last whole-file checkpoint captured.
//! * **Durable** ([`TestcaseStore::open_wal`],
//!   [`ResultStore::open_wal`]): every mutation is journaled as a
//!   [`WalEntry`] *before* it is applied in memory, and reopening the
//!   same directory replays the journal — snapshot first, then the
//!   records past it. A durable result store keeps no record text: its
//!   journal is its record log.
//!
//! In both modes the testcase store holds each testcase as the text its
//! journal entry carries, so serving, checkpointing and resharding the
//! library copy text and render nothing.
//!
//! Corruption policy: a WAL tolerates a torn final frame (crash
//! residue) but reports mid-log damage; the *text* loaders tolerate
//! nothing and point at the damaged line (`line 41: bad outcome ...`),
//! because a checkpoint file has no append-in-flight excuse.

use crate::journal::{decoded, foreign, Journal, Journaled};
use crate::storage::plain_io;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::Path;
use uucs_protocol::record::Blocks;
use uucs_protocol::walenc::{
    split_payload, testcase_payload, BorrowedBlocks, TAG_BATCH, TAG_CLIENT, TAG_RESULT,
    TAG_TESTCASE,
};
use uucs_protocol::wire::is_token;
use uucs_protocol::{MachineSnapshot, RunRecord, WalEntry};
use uucs_testcase::{format as tcformat, Testcase};
use uucs_wal::{Lsn, Recovery, Snapshot, Visitor, WalConfig};

/// Why a store rejected a mutation.
#[derive(Debug)]
pub enum StoreError {
    /// The testcase id is already present; ids are globally unique.
    Duplicate(String),
    /// The write-ahead log could not journal the mutation; nothing was
    /// applied, so the caller must not acknowledge it.
    Io(io::Error),
    /// The mutation holds text that cannot be written into a
    /// line-oriented journal and read back equal; nothing was journaled
    /// or applied.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Duplicate(id) => write!(f, "duplicate testcase id {id}"),
            StoreError::Io(e) => write!(f, "journal write failed: {e}"),
            StoreError::Invalid(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

pub(crate) fn invalid(msg: impl fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The server's testcase library.
///
/// The store holds each testcase as its text block — the
/// [`tcformat::emit`] output its journal entry carries after the tag —
/// with no decoded copy beside it. A testcase is rendered once, by
/// [`TestcaseStore::add`]; replay and restore keep the text they check,
/// and snapshots, reshards, replication and `SYNC` replies reuse it.
/// Readers that want structs ([`TestcaseStore::get`],
/// [`TestcaseStore::testcases`]) decode on demand.
#[derive(Debug, Default)]
pub struct TestcaseStore {
    /// Every block in insertion order, concatenated.
    text: String,
    /// Each testcase's id and where its block ends in `text`.
    blocks: Vec<(String, usize)>,
    /// The ordinal of each id.
    index: HashMap<String, usize>,
    journal: Journal,
}

impl Journaled for TestcaseStore {
    const FLAVOR: &'static str = "testcases";

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Keeps each block of the checkpoint once it parses as exactly one
    /// testcase.
    fn restore(&mut self, snapshot: &str) -> io::Result<()> {
        for block in tcformat::blocks(snapshot) {
            let tc = tcformat::parse(block).map_err(invalid)?;
            self.put(tc.id.as_str(), block, false).map_err(invalid)?;
        }
        Ok(())
    }

    /// Keeps the payload's text once it parses as exactly one testcase.
    fn replay(&mut self, payload: &[u8]) -> io::Result<()> {
        let (tc, block) = checked_testcase(payload)?;
        self.put(tc.id.as_str(), block, false).map_err(invalid)?;
        Ok(())
    }

    fn snapshot(&self) -> io::Result<String> {
        Ok(self.text.clone())
    }

    /// One `T` payload per testcase, keyed by its id, in insertion order.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        for (id, block) in self.entries() {
            emit(id, testcase_payload(block))?;
        }
        Ok(())
    }

    /// A testcase whose id is held already is left as it is.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool> {
        let (tc, block) = checked_testcase(payload)?;
        if self.contains(tc.id.as_str()) {
            return Ok(false);
        }
        self.put(tc.id.as_str(), block, false).map_err(invalid)?;
        Ok(true)
    }
}

/// A testcase payload checked as replay checks it — its tag, and text
/// that parses as exactly one testcase — as that testcase and its text.
fn checked_testcase(payload: &[u8]) -> io::Result<(Testcase, &str)> {
    let (tag, block) = split_payload(payload).map_err(invalid)?;
    if tag != TAG_TESTCASE {
        return Err(foreign::<TestcaseStore>(tag));
    }
    let tc = tcformat::parse(block).map_err(|e| invalid(format!("bad testcase payload: {e}")))?;
    Ok((tc, block))
}

impl TestcaseStore {
    /// An empty, non-durable store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a non-durable store from testcases, rejecting duplicate
    /// ids.
    pub fn from_testcases(testcases: Vec<Testcase>) -> Result<Self, StoreError> {
        let mut s = Self::new();
        for tc in &testcases {
            s.add(tc)?;
        }
        Ok(s)
    }

    /// Opens (creating if necessary) a WAL-backed store: replays the
    /// journal under `dir` and journals every subsequent [`add`]
    /// before applying it.
    ///
    /// [`add`]: TestcaseStore::add
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// Adds a testcase ("new testcases can be added to the server at any
    /// time"). Rejects a duplicate id; in durable mode the addition is
    /// journaled before it is applied, so an `Ok` survives a crash.
    pub fn add(&mut self, tc: &Testcase) -> Result<(), StoreError> {
        self.add_shipped(tc, false).map(drop)
    }

    /// [`TestcaseStore::add`] for a leader: with `ship`, it also hands
    /// back the encoded [`WalEntry::Testcase`] — the very payload the
    /// journal took — so the replication tier sends what was journaled
    /// without rendering the testcase a second time.
    pub fn add_shipped(
        &mut self,
        tc: &Testcase,
        ship: bool,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        // The one place the server renders a testcase.
        self.put(tc.id.as_str(), &tcformat::emit(tc), ship)
    }

    /// Journals (in durable mode) and holds `block`, which parses as
    /// exactly the testcase `id`: rendered by `add`, or text that
    /// replay, restore and admit already checked. With `ship`, hands
    /// back the payload. Rejects a duplicate id.
    fn put(&mut self, id: &str, block: &str, ship: bool) -> Result<Option<Vec<u8>>, StoreError> {
        if self.contains(id) {
            return Err(StoreError::Duplicate(id.to_string()));
        }
        let payload = (ship || self.journal.is_durable()).then(|| testcase_payload(block));
        if let Some(payload) = &payload {
            self.journal.append_encoded(payload)?;
        }
        self.text.push_str(block);
        self.index.insert(id.to_string(), self.blocks.len());
        self.blocks.push((id.to_string(), self.text.len()));
        Ok(payload.filter(|_| ship))
    }

    /// The LSN the next journal append would get, or `None` in plain
    /// mode. Captured under the store's write lock right after an
    /// append, it is the durability watermark a group-commit waiter
    /// needs: once a sync covers it, the append is on stable storage.
    pub fn wal_next_lsn(&self) -> Option<Lsn> {
        self.journal.next_lsn()
    }

    /// Number of testcases.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether a testcase with this id is held.
    pub fn contains(&self, id: &str) -> bool {
        self.index.contains_key(id)
    }

    /// The text block of the `i`th testcase in insertion order.
    pub fn block(&self, i: usize) -> &str {
        let start = match i {
            0 => 0,
            _ => self.blocks[i - 1].1,
        };
        &self.text[start..self.blocks[i].1]
    }

    /// Every testcase's id and text block, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.len()).map(|i| (self.blocks[i].0.as_str(), self.block(i)))
    }

    /// Every block in insertion order, concatenated: the library in the
    /// text format, as [`TestcaseStore::save`] writes it.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Finds by id, decoded now.
    pub fn get(&self, id: &str) -> Option<Testcase> {
        self.index.get(id).map(|&i| decode(self.block(i)))
    }

    /// All testcases in insertion order, decoded now.
    pub fn testcases(&self) -> Vec<Testcase> {
        (0..self.len()).map(|i| decode(self.block(i))).collect()
    }

    /// Saves the library to a text file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, &self.text)
    }

    /// Loads a library from a text file. Any defect is an
    /// `InvalidData` error naming the file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let testcases = tcformat::parse_many(&text)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        Self::from_testcases(testcases).map_err(|e| invalid(format!("{}: {e}", path.display())))
    }
}

/// Decodes a held testcase block.
fn decode(block: &str) -> Testcase {
    tcformat::parse(block).expect("a held block parses: it was rendered or parsed on entry")
}

/// What [`ResultStore::append_batch`] did with an upload batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// The batch was new: `n` records journaled and applied.
    Applied(usize),
    /// The batch's sequence number was already applied: nothing stored,
    /// but the caller should re-acknowledge all `n` records — the
    /// previous `ACK` was evidently lost in transit.
    Replayed(usize),
}

impl BatchStatus {
    /// The record count to acknowledge, either way.
    pub fn acked(self) -> usize {
        match self {
            BatchStatus::Applied(n) | BatchStatus::Replayed(n) => n,
        }
    }
}

/// The server's result store.
///
/// A durable store holds no record text: its records are the canonical
/// `RESULT`…`END` blocks its journal holds, in upload order, and in
/// memory it keeps their count, each client's horizon and the journal.
/// An open checks each journaled batch's header and block structure and
/// counts; every reader ([`ResultStore::records`], `records_of`,
/// `write_to`, the compaction snapshot) streams the checkpoint and then
/// each live segment, one journal file in memory at a time, checks each
/// payload the way the open did, and yields no more than
/// [`ResultStore::len`] blocks. A plain store keeps the same blocks in
/// one text behind the same reader. A record is decoded when somebody
/// reads it, and a field-level defect is that reader's to report.
///
/// Beyond the records it tracks, per client, the highest *batch
/// sequence number* applied ([`ResultStore::append_batch`]), which is
/// what makes `UPLOAD` idempotent: a batch retransmitted because its
/// `ACK` was lost is recognized and re-acknowledged without storing a
/// second copy. In durable mode the sequence horizon rides in the same
/// WAL entry as the records (one atomic [`WalEntry::Batch`]) and in the
/// compaction snapshot, so dedup survives crashes and checkpoints alike.
#[derive(Debug, Default)]
pub struct ResultStore {
    /// A plain store's record blocks, every one newline-terminated;
    /// empty in durable mode, where the journal holds them.
    log: String,
    /// How many blocks the store holds.
    count: usize,
    /// Per-client highest applied batch sequence number.
    applied: BTreeMap<String, u64>,
    /// The `CLIENT` of every held record, from the first
    /// [`ResultStore::held_of`] on — never built at open.
    holders: Option<HashSet<String>>,
    journal: Journal,
}

impl Journaled for ResultStore {
    const FLAVOR: &'static str = "results";

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Snapshots from before sequence tracking have no `SEQ` lines and
    /// restore an empty horizon map.
    fn restore(&mut self, snapshot: &str) -> io::Result<()> {
        let (horizons, body) = split_checkpoint(snapshot)?;
        for (client, seq) in horizons {
            self.applied.insert(client.to_string(), seq);
        }
        self.count += RunRecord::count_blocks(body).map_err(invalid)?;
        Ok(())
    }

    /// Header-only: the payload is [`checked`], its blocks counted and
    /// its horizon raised.
    fn replay(&mut self, payload: &[u8]) -> io::Result<()> {
        let blocks = checked(payload)?;
        self.count += blocks.count;
        if let Some((client, seq)) = blocks.batch {
            self.raise_horizon(client, seq);
        }
        Ok(())
    }

    /// `SEQ <client> <n>` header lines (the idempotency horizon)
    /// followed by the record blocks.
    fn snapshot(&self) -> io::Result<String> {
        use std::fmt::Write;
        let mut out = String::new();
        for (client, seq) in &self.applied {
            writeln!(out, "SEQ {client} {seq}").unwrap();
        }
        for chunk in self.chunks() {
            out.push_str(&chunk?);
        }
        Ok(out)
    }

    /// Every horizon as an empty `B` payload, then every held block, in
    /// upload order, as an `R` payload — each keyed by the client it
    /// names. A store admitting them in that order holds what a replay
    /// of the same entries would give it.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        for (client, &seq) in &self.applied {
            let horizon = BorrowedBlocks {
                batch: Some((client, seq)),
                body: "",
                count: 0,
            };
            emit(client, horizon.encode())?;
        }
        for chunk in self.chunks() {
            let chunk = chunk?;
            for block in Blocks::new(&chunk) {
                let block = block.map_err(invalid)?;
                let single = BorrowedBlocks {
                    batch: None,
                    body: block,
                    count: 1,
                };
                emit(RunRecord::block_client(block), single.encode())?;
            }
        }
        Ok(())
    }

    /// A sequenced batch at or below its client's horizon is held
    /// already. A `seq 0` batch raises no horizon and is journaled a
    /// record per entry, as the upload it came from was.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool> {
        let blocks = checked(payload)?;
        match blocks.batch {
            Some((client, seq)) if seq != 0 => {
                if self.applied_seq(client) >= seq {
                    return Ok(false);
                }
                self.journal.append_encoded(payload)?;
                self.raise_horizon(client, seq);
            }
            Some(_) => self.journal_singly(blocks.body)?,
            None => self.journal.append_encoded(payload)?,
        }
        self.hold(blocks.body, blocks.count);
        Ok(true)
    }
}

/// Renders records as they are journaled and held. This is the one
/// place record text is made on the server, so it is where a field that
/// would not read back equal ([`RunRecord::check_text`]) is refused.
fn render(records: &[RunRecord]) -> Result<String, StoreError> {
    // A rendered record runs to a couple of hundred bytes.
    let mut body = String::with_capacity(256 * records.len());
    for (i, rec) in records.iter().enumerate() {
        rec.emit_checked_into(&mut body)
            .map_err(|why| StoreError::Invalid(format!("record {i}: {why}")))?;
    }
    Ok(body)
}

/// A results-journal payload checked as far as an open checks it — tag,
/// UTF-8, the `BATCH` line and the block structure, in
/// [`WalEntry::decode`]'s words — and no further.
fn checked(payload: &[u8]) -> io::Result<BorrowedBlocks<'_>> {
    let (tag, text) = split_payload(payload).map_err(invalid)?;
    match tag {
        TAG_BATCH => BorrowedBlocks::batch(text),
        TAG_RESULT => BorrowedBlocks::result(text),
        other => return Err(foreign::<ResultStore>(other)),
    }
    .map_err(invalid)
}

/// Splits a results checkpoint into its `SEQ <client> <n>` lines and
/// the record blocks after them.
fn split_checkpoint(snapshot: &str) -> io::Result<(Vec<(&str, u64)>, &str)> {
    let mut horizons = Vec::new();
    let mut offset = 0usize;
    for line in snapshot.lines() {
        let Some(rest) = line.strip_prefix("SEQ ") else {
            break;
        };
        let bad = || invalid(format!("bad snapshot seq line {line:?}"));
        let (client, seq) = rest.rsplit_once(' ').ok_or_else(bad)?;
        horizons.push((client, seq.parse().map_err(|_| bad())?));
        offset += line.len() + 1;
    }
    Ok((horizons, &snapshot[offset.min(snapshot.len())..]))
}

/// Appends checked blocks to a text, newline-terminated.
fn push_blocks(text: &mut String, body: &str) {
    text.push_str(body);
    if !body.is_empty() && !body.ends_with('\n') {
        text.push('\n');
    }
}

/// Decodes the `n`th block of a store for a reader.
fn decode_block(n: usize, block: Result<&str, String>) -> io::Result<RunRecord> {
    block
        .and_then(RunRecord::parse_block)
        .map_err(|e| invalid(format!("record {n}: {e}")))
}

/// Gathers the record text of one journal file for a reader: every
/// payload [`checked`], and no more than `left` blocks in all.
struct Gather {
    text: String,
    left: usize,
}

impl Gather {
    fn take(&mut self, body: &str, count: usize) {
        let body = if count <= self.left {
            body
        } else {
            let mut blocks = Blocks::new(body);
            blocks.by_ref().take(self.left).for_each(drop);
            &body[..body.len() - blocks.rest().len()]
        };
        self.left -= count.min(self.left);
        push_blocks(&mut self.text, body);
    }
}

impl Visitor for Gather {
    fn snapshot(&mut self, snapshot: Snapshot) -> io::Result<()> {
        let text = std::str::from_utf8(&snapshot.state).map_err(invalid)?;
        let (_, body) = split_checkpoint(text)?;
        self.take(body, RunRecord::count_blocks(body).map_err(invalid)?);
        Ok(())
    }

    fn record(&mut self, lsn: Lsn, payload: &[u8]) -> io::Result<()> {
        let blocks = checked(payload).map_err(|e| invalid(format!("record {lsn}: {e}")))?;
        self.take(blocks.body, blocks.count);
        Ok(())
    }
}

/// A store's record text, a journal file at a time: a plain store's
/// log in one piece, a durable store's checkpoint body and then each
/// segment's blocks, stopping at [`ResultStore::len`] blocks.
struct Chunks<'a> {
    store: &'a ResultStore,
    /// The next journal file to read.
    file: usize,
    /// Blocks not yet handed out.
    left: usize,
    done: bool,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = io::Result<Cow<'a, str>>;

    fn next(&mut self) -> Option<Self::Item> {
        let store = self.store;
        if !store.journal.is_durable() {
            let first = !std::mem::replace(&mut self.done, true);
            return first.then_some(Ok(Cow::Borrowed(store.log.as_str())));
        }
        while !self.done && self.left > 0 {
            let mut gather = Gather {
                text: String::new(),
                left: self.left,
            };
            match store.journal.visit_file(self.file, &mut gather) {
                Ok(true) => {
                    self.file += 1;
                    self.left = gather.left;
                    if !gather.text.is_empty() {
                        return Some(Ok(Cow::Owned(gather.text)));
                    }
                }
                Ok(false) => {
                    self.done = true;
                    let found = store.count - self.left;
                    let why = format!("the journal holds {found} of {} records", store.count);
                    return Some(Err(invalid(why)));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

/// The records of [`Chunks`], each decoded as it is reached — those
/// of every client, or only the blocks whose `CLIENT` is in `of`.
struct Records<'a> {
    chunks: Chunks<'a>,
    text: Cow<'a, str>,
    /// Where in `text` the next block starts.
    at: usize,
    /// The store ordinal of the next block.
    n: usize,
    of: Option<&'a HashSet<&'a str>>,
}

impl Iterator for Records<'_> {
    type Item = io::Result<RunRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut blocks = Blocks::new(&self.text[self.at..]);
            let Some(block) = blocks.next() else {
                match self.chunks.next()? {
                    Ok(text) => (self.text, self.at) = (text, 0),
                    Err(e) => return Some(Err(e)),
                }
                continue;
            };
            self.at = self.text.len() - blocks.rest().len();
            self.n += 1;
            let skip = block.as_ref().is_ok_and(|b| {
                self.of.is_some_and(|of| !of.contains(RunRecord::block_client(b)))
            });
            if !skip {
                return Some(decode_block(self.n - 1, block));
            }
        }
    }
}

impl ResultStore {
    /// An empty, non-durable store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating if necessary) a WAL-backed store: replays the
    /// journal under `dir` and journals every subsequent upload before
    /// applying it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// Raises `client`'s applied horizon to at least `seq`.
    fn raise_horizon(&mut self, client: &str, seq: u64) {
        match self.applied.get_mut(client) {
            Some(horizon) => *horizon = (*horizon).max(seq),
            None => {
                self.applied.insert(client.to_string(), seq);
            }
        }
    }

    /// Holds the `count` blocks of `body`: a plain store keeps the text,
    /// a durable one has just journaled it.
    fn hold(&mut self, body: &str, count: usize) {
        if !self.journal.is_durable() {
            push_blocks(&mut self.log, body);
        }
        self.count += count;
        if let Some(holders) = &mut self.holders {
            for block in Blocks::new(body).flatten() {
                let client = RunRecord::block_client(block);
                if !holders.contains(client) {
                    holders.insert(client.to_string());
                }
            }
        }
    }

    /// Appends uploaded records, returning how many were accepted. In
    /// durable mode every record is journaled first — under
    /// `SyncPolicy::Always` an `Ok(n)` means all `n` survive a crash.
    /// On a journal error nothing is applied in memory and the upload
    /// must not be acknowledged.
    pub fn append(&mut self, records: &[RunRecord]) -> Result<usize, StoreError> {
        let body = render(records)?;
        self.journal_singly(&body)?;
        self.hold(&body, records.len());
        Ok(records.len())
    }

    /// Journals each block of checked `body` as its own entry.
    fn journal_singly(&mut self, body: &str) -> io::Result<()> {
        if self.journal.is_durable() {
            for block in Blocks::new(body) {
                let entry = BorrowedBlocks {
                    batch: None,
                    body: block.map_err(invalid)?,
                    count: 1,
                };
                self.journal.append(|| entry.encode())?;
            }
        }
        Ok(())
    }

    /// Appends an upload batch idempotently. `seq` is the client's batch
    /// sequence number: if it is at or below the client's applied
    /// horizon the batch is a retransmit — nothing is stored and
    /// [`BatchStatus::Replayed`] tells the caller to re-acknowledge.
    /// `seq == 0` is the legacy non-idempotent path (always applied).
    ///
    /// The records are rendered once, into the body of the journal
    /// entry (or, in plain mode, the text the store holds). In durable
    /// mode a new batch is journaled as a single atomic
    /// [`WalEntry::Batch`] carrying both records and horizon, *before*
    /// being applied: an acknowledged batch can neither be lost nor
    /// double-applied across a crash.
    pub fn append_batch(
        &mut self,
        client: &str,
        seq: u64,
        records: &[RunRecord],
    ) -> Result<BatchStatus, StoreError> {
        self.append_batch_shipped(client, seq, records, false)
            .map(|(status, _)| status)
    }

    /// [`ResultStore::append_batch`] for a leader: with `ship`, an
    /// applied batch also hands back its encoded [`WalEntry::Batch`] —
    /// for a sequenced batch the very payload the journal took — so the
    /// replication tier sends what was journaled without rendering the
    /// records a second time. A replayed batch ships nothing.
    pub fn append_batch_shipped(
        &mut self,
        client: &str,
        seq: u64,
        records: &[RunRecord],
        ship: bool,
    ) -> Result<(BatchStatus, Option<Vec<u8>>), StoreError> {
        if seq != 0 && self.applied_seq(client) >= seq {
            return Ok((BatchStatus::Replayed(records.len()), None));
        }
        // The `BATCH <client> <seq> <n>` line is read back by whitespace.
        if seq != 0 && !is_token(client) {
            return Err(StoreError::Invalid(format!(
                "client id {client:?} is not one token"
            )));
        }
        let body = render(records)?;
        let entry = BorrowedBlocks {
            batch: Some((client, seq)),
            body: &body,
            count: records.len(),
        };
        let payload = if seq == 0 {
            // Journaled record by record; followers get it as one batch.
            self.journal_singly(&body)?;
            ship.then(|| entry.encode())
        } else {
            let payload = (ship || self.journal.is_durable()).then(|| entry.encode());
            if let Some(payload) = &payload {
                self.journal.append_encoded(payload)?;
            }
            self.raise_horizon(client, seq);
            payload.filter(|_| ship)
        };
        self.hold(&body, records.len());
        Ok((BatchStatus::Applied(records.len()), payload))
    }

    /// The highest batch sequence number applied for `client` (0 if the
    /// client never uploaded with sequence numbers).
    pub fn applied_seq(&self, client: &str) -> u64 {
        self.applied.get(client).copied().unwrap_or(0)
    }

    /// The per-client applied-sequence horizons.
    pub fn applied_horizons(&self) -> &BTreeMap<String, u64> {
        &self.applied
    }

    /// See [`TestcaseStore::wal_next_lsn`].
    pub fn wal_next_lsn(&self) -> Option<Lsn> {
        self.journal.next_lsn()
    }

    /// The record text, a journal file at a time.
    fn chunks(&self) -> Chunks<'_> {
        Chunks {
            store: self,
            file: 0,
            left: self.count,
            done: false,
        }
    }

    fn read<'a>(&'a self, of: Option<&'a HashSet<&'a str>>) -> Records<'a> {
        Records {
            chunks: self.chunks(),
            text: Cow::Borrowed(""),
            at: 0,
            n: 0,
            of,
        }
    }

    /// Every record in upload order, decoded as it is reached. A block
    /// whose fields do not parse (only a writer bug gets one past the
    /// CRC) yields `record N: line L: …` — `N` its 0-based ordinal in
    /// this store, `L` the line within the block — and the iteration
    /// goes on with the next block. A journal that cannot be read back
    /// yields its error and ends the iteration.
    pub fn records(&self) -> impl Iterator<Item = io::Result<RunRecord>> + '_ {
        self.read(None)
    }

    /// [`ResultStore::records`], skipping undecoded every block whose
    /// `CLIENT` line names nobody in `clients`.
    pub fn records_of<'a>(
        &'a self,
        clients: &'a HashSet<&str>,
    ) -> impl Iterator<Item = io::Result<RunRecord>> + 'a {
        self.read(Some(clients))
    }

    /// The held blocks of any of `clients`, as text with trailing
    /// whitespace cut — what a snapshot batch's blocks are compared
    /// with; records render canonically, so equal text is an equal
    /// record. The first call reads the whole store, and from then on
    /// the store knows (and keeps current on append) the `CLIENT` of
    /// every record it holds, so a call none of whose `clients` is among
    /// them reads nothing.
    fn held_of(&mut self, clients: &HashSet<&str>) -> io::Result<HashSet<String>> {
        if let Some(holders) = &self.holders {
            if !clients.iter().any(|c| holders.contains(*c)) {
                return Ok(HashSet::new());
            }
        }
        let (mut holders, mut held, mut n) = (HashSet::new(), HashSet::new(), 0);
        for chunk in self.chunks() {
            let chunk = chunk?;
            for block in Blocks::new(&chunk) {
                let block = block.map_err(|e| invalid(format!("record {n}: {e}")))?;
                let client = RunRecord::block_client(block);
                if clients.contains(client) {
                    held.insert(block.trim_end().to_string());
                }
                if !holders.contains(client) {
                    holders.insert(client.to_string());
                }
                n += 1;
            }
        }
        self.holders = Some(holders);
        Ok(held)
    }

    /// Admits a snapshot batch — one client's whole record set at its
    /// horizon — into a store that may hold part of it already: at or
    /// below a sequenced batch's horizon nothing is even compared, and
    /// otherwise every block whose text the store holds is skipped and
    /// the rest are [`Journaled::admit`]ted as one batch at the
    /// snapshot's sequence (a `seq 0` one raises no horizon). Returns
    /// the ordinals, within the batch, of the blocks it appended.
    pub(crate) fn admit_snapshot(&mut self, payload: &[u8]) -> io::Result<Vec<usize>> {
        let snapshot = checked(payload)?;
        let Some((client, seq)) = snapshot.batch else {
            return Err(invalid("a snapshot entry of the results must be a batch"));
        };
        if seq != 0 && self.applied_seq(client) >= seq {
            return Ok(Vec::new());
        }
        let blocks: Vec<&str> = Blocks::new(snapshot.body)
            .collect::<Result<_, _>>()
            .map_err(invalid)?;
        let clients = blocks.iter().map(|b| RunRecord::block_client(b)).collect();
        let held = self.held_of(&clients)?;
        let fresh: Vec<usize> = (0..blocks.len())
            .filter(|&i| !held.contains(blocks[i].trim_end()))
            .collect();
        let mut body = String::new();
        for &i in &fresh {
            push_blocks(&mut body, blocks[i]);
        }
        let batch = BorrowedBlocks {
            batch: Some((client, seq)),
            body: &body,
            count: fresh.len(),
        };
        self.admit(&batch.encode())?;
        Ok(fresh)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Writes every record block, undecoded, in upload order — what a
    /// `results.txt` checkpoint holds.
    pub fn write_to(&self, out: &mut impl io::Write) -> io::Result<()> {
        for chunk in self.chunks() {
            out.write_all(chunk?.as_bytes())?;
        }
        Ok(())
    }

    /// Saves all results to a text file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.write_to(&mut std::fs::File::create(path)?)
    }

    /// Loads results from a text file.
    ///
    /// Any defect — a bad key, a truncated record, a garbled number —
    /// is an `InvalidData` error naming the file and the 1-based line,
    /// e.g. `results.txt: line 41: bad outcome "maybee"`. Contrast the
    /// WAL loaders above, which tolerate (and truncate) a torn final
    /// frame: a crash can interrupt a journal append, but nothing
    /// legitimately interrupts a whole-file text checkpoint.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let named = |e: &dyn fmt::Display| invalid(format!("{}: {e}", path.display()));
        let text = std::fs::read_to_string(path)?;
        let records = RunRecord::parse_many(&text).map_err(|e| named(&e))?;
        let mut store = Self::new();
        store.append(&records).map_err(|e| named(&e))?;
        Ok(store)
    }
}

/// The server's client registry: `(GUID, machine snapshot)` pairs in
/// registration order, optionally journaled through a WAL so a restarted
/// server still recognizes the clients it handed ids to — without it,
/// every server restart would orphan every client in the field. Ids and
/// tokens are indexed, so a lookup costs the same at any fleet size.
#[derive(Debug, Default)]
pub struct RegistryStore {
    clients: Vec<(String, MachineSnapshot)>,
    /// Each id's row in `clients` (its first, should one repeat).
    rows: HashMap<String, usize>,
    /// `token → id` for every registration that carried an idempotency
    /// token: a re-registration presenting a known token gets the same
    /// id back instead of a new row. Rebuilt from the journal and the
    /// snapshot on recovery, so the guarantee survives a server restart.
    ids: HashMap<String, String>,
    /// `id → token`, the same registrations the other way round.
    tokens: HashMap<String, String>,
    journal: Journal,
}

impl Journaled for RegistryStore {
    const FLAVOR: &'static str = "registry";

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    fn restore(&mut self, snapshot: &str) -> io::Result<()> {
        // (id, token, pending block text) for the entry being accumulated.
        let mut current: Option<(String, String, String)> = None;
        for line in snapshot.lines() {
            if let Some(rest) = line.strip_prefix("CLIENT ") {
                if let Some((id, token, block)) = current.take() {
                    let snap = MachineSnapshot::parse(&block).map_err(invalid)?;
                    self.insert(id, snap, &token);
                }
                let mut toks = rest.split_whitespace();
                let id = toks.next().unwrap_or("").to_string();
                if id.is_empty() {
                    return Err(invalid("registry snapshot: CLIENT line missing id"));
                }
                let token = toks.next().unwrap_or("").to_string();
                current = Some((id, token, String::new()));
            } else if let Some((_, _, block)) = &mut current {
                block.push_str(line);
                block.push('\n');
            } else {
                return Err(invalid(format!("registry snapshot: stray line {line:?}")));
            }
        }
        if let Some((id, token, block)) = current.take() {
            let snap = MachineSnapshot::parse(&block).map_err(invalid)?;
            self.insert(id, snap, &token);
        }
        Ok(())
    }

    fn replay(&mut self, payload: &[u8]) -> io::Result<()> {
        match decoded(payload)? {
            WalEntry::Client {
                id,
                token,
                snapshot,
            } => self.register_with_id(id, snapshot, &token).map_err(invalid),
            _ => Err(foreign::<Self>(payload[0])),
        }
    }

    /// Each row's `C` payload text, in registration order.
    fn snapshot(&self) -> io::Result<String> {
        let mut out = String::new();
        for (id, snap) in &self.clients {
            push_client(&mut out, id, self.token_of(id).unwrap_or(""), snap);
        }
        Ok(out)
    }

    /// One `C` payload per row, keyed by its id, carrying the id's
    /// first token — rendered now: the registry holds structs.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        for (id, snap) in &self.clients {
            emit(
                id,
                client_payload(id, self.token_of(id).unwrap_or(""), snap),
            )?;
        }
        Ok(())
    }

    /// A registration of an id that is held already is left as it is.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool> {
        let WalEntry::Client {
            id,
            token,
            snapshot,
        } = decoded(payload)?
        else {
            return Err(foreign::<Self>(payload[0]));
        };
        if self.get(&id).is_some() {
            return Ok(false);
        }
        self.journal.append_encoded(payload)?;
        self.insert(id, snapshot, &token);
        Ok(true)
    }
}

/// Appends one registration as its journal text: the `CLIENT <id>`
/// line, with the token when there is one, and the snapshot block.
fn push_client(out: &mut String, id: &str, token: &str, snapshot: &MachineSnapshot) {
    out.push_str("CLIENT ");
    out.push_str(id);
    if !token.is_empty() {
        out.push(' ');
        out.push_str(token);
    }
    out.push('\n');
    out.push_str(&snapshot.emit());
}

/// The `C` payload of one registration.
pub(crate) fn client_payload(id: &str, token: &str, snapshot: &MachineSnapshot) -> Vec<u8> {
    let mut text = String::from(char::from(TAG_CLIENT));
    push_client(&mut text, id, token, snapshot);
    text.into_bytes()
}

impl RegistryStore {
    /// An empty, non-durable registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating if necessary) a WAL-backed registry: replays the
    /// journal under `dir` and journals every subsequent registration
    /// before applying it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// Registers a machine, assigning the next GUID. In durable mode the
    /// registration is journaled before it is applied, so an id handed
    /// out survives a server restart.
    ///
    /// A non-empty `token` makes the call idempotent: if this token has
    /// registered before, the *original* id comes back and nothing is
    /// journaled. A client whose `ID` reply was lost in transit can
    /// therefore retry the registration without becoming two clients.
    pub fn register(
        &mut self,
        snapshot: MachineSnapshot,
        token: &str,
    ) -> Result<String, StoreError> {
        if let Some(id) = self.id_for_token(token) {
            return Ok(id.to_string());
        }
        let id = format!("client-{:04}", self.clients.len() + 1);
        self.register_with_id(id.clone(), snapshot, token)?;
        Ok(id)
    }

    /// Registers a machine under a caller-chosen id — the sharded
    /// registry's entry point, where ids come from a global counter
    /// rather than this shard's row count. Journals before applying;
    /// token dedup is the *caller's* job (it requires a cross-shard
    /// scan).
    pub fn register_with_id(
        &mut self,
        id: String,
        snapshot: MachineSnapshot,
        token: &str,
    ) -> Result<(), StoreError> {
        // `CLIENT <id> <token>` is read back by whitespace: a token that
        // is not one word would come back cut short, or as lines of its
        // own inside the snapshot block.
        if !token.is_empty() && !is_token(token) {
            return Err(StoreError::Invalid(format!(
                "registration token {token:?} is not one token"
            )));
        }
        self.journal
            .append(|| client_payload(&id, token, &snapshot))?;
        self.insert(id, snapshot, token);
        Ok(())
    }

    /// Adds a row and indexes it; the first row or token of a kind wins
    /// a lookup, as a scan from the front would.
    fn insert(&mut self, id: String, snapshot: MachineSnapshot, token: &str) {
        self.rows.entry(id.clone()).or_insert(self.clients.len());
        if !token.is_empty() {
            self.ids.entry(token.to_string()).or_insert_with(|| id.clone());
            self.tokens.entry(id.clone()).or_insert_with(|| token.to_string());
        }
        self.clients.push((id, snapshot));
    }

    /// The id a registration token resolved to, if it registered before.
    pub fn id_for_token(&self, token: &str) -> Option<&str> {
        self.ids.get(token).map(String::as_str)
    }

    /// The registration token a client id presented, if any — the
    /// replication tier ships it alongside the snapshot so a promoted
    /// follower still honors token-matched re-registrations.
    pub fn token_of(&self, id: &str) -> Option<&str> {
        self.tokens.get(id).map(String::as_str)
    }

    /// See [`TestcaseStore::wal_next_lsn`].
    pub fn wal_next_lsn(&self) -> Option<Lsn> {
        self.journal.next_lsn()
    }

    /// The registered snapshot for an id.
    pub fn get(&self, id: &str) -> Option<&MachineSnapshot> {
        self.rows.get(id).map(|&row| &self.clients[row].1)
    }

    /// All registrations in order.
    pub fn all(&self) -> &[(String, MachineSnapshot)] {
        &self.clients
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True if no client ever registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelStore;
    use crate::storage::{Disk, StoreIo};
    use uucs_harness::TempDir;
    use uucs_protocol::{MonitorSummary, RunOutcome};
    use uucs_testcase::{ExerciseSpec, Resource};
    use uucs_wal::{Io, SyncPolicy};

    fn tc(id: &str) -> Testcase {
        Testcase::single(
            id,
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level: 1.0,
                duration: 10.0,
            },
        )
    }

    fn rec(user: &str) -> RunRecord {
        RunRecord {
            client: "c".into(),
            user: user.into(),
            testcase: "t".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 10.0,
            last_levels: vec![],
            monitor: MonitorSummary::default(),
        }
    }

    #[test]
    fn testcase_store_roundtrips_through_disk() {
        let dir = TempDir::new("uucs-store");
        let path = dir.join("testcases.txt");
        let store = TestcaseStore::from_testcases(vec![tc("a"), tc("b")]).unwrap();
        store.save(&path).unwrap();
        let loaded = TestcaseStore::load(&path).unwrap();
        assert_eq!(loaded.testcases(), store.testcases());
        assert_eq!(loaded.text(), store.text());
        assert!(loaded.get("a").is_some());
        assert!(loaded.get("zzz").is_none());
    }

    #[test]
    fn duplicate_testcase_rejected() {
        let mut s = TestcaseStore::new();
        s.add(&tc("x")).unwrap();
        let err = s.add(&tc("x")).unwrap_err();
        assert!(matches!(&err, StoreError::Duplicate(id) if id == "x"));
        assert!(err.to_string().contains("duplicate testcase id x"));
        assert_eq!(s.len(), 1, "the duplicate was not applied");
        assert!(TestcaseStore::from_testcases(vec![tc("y"), tc("y")]).is_err());
    }

    #[test]
    fn result_store_roundtrips_through_disk() {
        let dir = TempDir::new("uucs-rstore");
        let path = dir.join("results.txt");
        let mut store = ResultStore::new();
        store.append(&[rec("u1"), rec("u2")]).unwrap();
        store.append(&[rec("u3")]).unwrap();
        assert_eq!(store.len(), 3);
        store.save(&path).unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.snapshot().unwrap(), store.snapshot().unwrap());
        let read: io::Result<Vec<_>> = loaded.records().collect();
        assert_eq!(read.unwrap(), vec![rec("u1"), rec("u2"), rec("u3")]);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(TestcaseStore::load(Path::new("/nonexistent/x.txt")).is_err());
        assert!(ResultStore::load(Path::new("/nonexistent/x.txt")).is_err());
    }

    #[test]
    fn result_load_error_names_file_and_line() {
        let dir = TempDir::new("uucs-rstore-corrupt");
        let path = dir.join("results.txt");
        let mut text = RunRecord::emit_many(&[rec("u1")]);
        let good_lines = text.lines().count();
        text.push_str("RESULT\nOUTCOME maybee\nEND\n");
        std::fs::write(&path, &text).unwrap();
        let err = ResultStore::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("results.txt"), "no file name in: {msg}");
        assert!(
            msg.contains(&format!("line {}", good_lines + 2)),
            "no line number in: {msg}"
        );
    }

    /// What the journal-core table needs from a flavor beyond
    /// [`Journaled`]: a couple of mutations, distinct per round, and a
    /// probe of what a *recovered* store must still do with them.
    trait Fill: Journaled {
        fn fill(&mut self, round: u64);
        fn probe(&mut self);
    }

    impl Fill for TestcaseStore {
        fn fill(&mut self, round: u64) {
            self.add(&tc(&format!("t{round}-a"))).unwrap();
            self.add(&tc(&format!("t{round}-b"))).unwrap();
        }

        fn probe(&mut self) {
            assert!(self.get("t0-a").is_some() && self.get("t1-b").is_some());
            let dup = self.add(&tc("t1-a"));
            assert!(matches!(dup, Err(StoreError::Duplicate(_))));
        }
    }

    impl Fill for ResultStore {
        fn fill(&mut self, round: u64) {
            self.append_batch("c1", round + 1, &[rec("u1"), rec("u2")])
                .unwrap();
            self.append_batch("c2", 5, &[rec("u3")]).unwrap();
            self.append(&[rec(&format!("legacy-{round}"))]).unwrap();
        }

        /// The dedup horizon came back with the records: a retransmit
        /// whose ack was lost is still discarded, the next batch applies.
        fn probe(&mut self) {
            assert_eq!((self.applied_seq("c1"), self.applied_seq("c2")), (2, 5));
            let held = self.len();
            let retransmit = self.append_batch("c1", 2, &[rec("u1"), rec("u2")]);
            assert_eq!(retransmit.unwrap(), BatchStatus::Replayed(2));
            assert_eq!(self.len(), held);
            let next = self.append_batch("c1", 3, &[rec("u4")]);
            assert_eq!(next.unwrap(), BatchStatus::Applied(1));
        }
    }

    impl Fill for RegistryStore {
        fn fill(&mut self, round: u64) {
            self.register(MachineSnapshot::study_machine("h"), &format!("tok-{round}"))
                .unwrap();
            let legacy = MachineSnapshot::study_machine(format!("legacy-{round}"));
            self.register(legacy, "").unwrap();
        }

        /// Token dedup survived, and new ids keep advancing past
        /// recovered ones: no collision with an id handed out before.
        fn probe(&mut self) {
            let held: Vec<String> = self.all().iter().map(|(id, _)| id.clone()).collect();
            assert_eq!(self.get(&held[3]).unwrap().hostname, "legacy-1");
            let again = self
                .register(MachineSnapshot::study_machine("h"), "tok-0")
                .unwrap();
            assert_eq!(again, held[0], "token dedup lost in recovery");
            assert_eq!(self.len(), held.len());
            let fresh = self
                .register(MachineSnapshot::study_machine("new"), "")
                .unwrap();
            assert!(!held.contains(&fresh), "{fresh} was already handed out");
        }
    }

    impl Fill for ModelStore {
        fn fill(&mut self, round: u64) {
            self.observe_batch(vec![uucs_modelsvc::Observation {
                resource: Resource::Cpu,
                task: "Word".into(),
                skill: "Typical".into(),
                level: 1.0 + round as f64,
                censored: false,
            }])
            .unwrap();
        }

        fn probe(&mut self) {
            assert_eq!(self.epoch(), 2);
        }
    }

    const TABLE_CFG: WalConfig = WalConfig {
        segment_bytes: 512,
        sync: SyncPolicy::Always,
    };

    /// One flavor of the journal-core table, type-erased: the state is
    /// compared through its own snapshot encoding.
    struct Row {
        flavor: &'static str,
        /// The kind of the first entry this flavor journals.
        first_entry: &'static str,
        /// Writes a journal under the directory — fill, optionally
        /// compact, fill again, drop with no explicit save — and returns
        /// the state it held.
        write: fn(&Path, bool) -> String,
        /// Opens the directory as this flavor and probes what came back.
        open: fn(&Path) -> io::Result<String>,
    }

    fn row<S: Fill>(first_entry: &'static str) -> Row {
        Row {
            flavor: S::FLAVOR,
            first_entry,
            write: |dir, compact| {
                let (mut store, recovery) = S::open(plain_io(), dir, TABLE_CFG).unwrap();
                assert_eq!(recovery.records, 0);
                assert!(store.journal().is_durable());
                store.fill(0);
                if compact {
                    assert!(store.compact().unwrap());
                }
                store.fill(1);
                store.snapshot().unwrap()
            },
            open: |dir| {
                let (mut store, recovery) = S::open(plain_io(), dir, TABLE_CFG)?;
                assert!(recovery.snapshot.is_none(), "open folds the snapshot");
                let state = store.snapshot()?;
                store.probe();
                Ok(state)
            },
        }
    }

    fn table() -> [Row; 4] {
        [
            row::<TestcaseStore>("testcase"),
            row::<ResultStore>("batch"),
            row::<RegistryStore>("client"),
            row::<ModelStore>("model"),
        ]
    }

    #[test]
    fn every_flavor_reopens_equal_with_and_without_compaction() {
        for row in table() {
            for compact in [false, true] {
                let dir = TempDir::new("uucs-journal-reopen");
                let written = (row.write)(dir.path(), compact);
                let reopened = (row.open)(dir.path()).unwrap();
                assert_eq!(reopened, written, "{} (compact: {compact})", row.flavor);
            }
        }
    }

    #[test]
    fn a_journal_of_another_flavor_is_refused_naming_entry_and_lsn() {
        for writer in table() {
            let dir = TempDir::new("uucs-journal-foreign");
            (writer.write)(dir.path(), false);
            for reader in table().iter().filter(|r| r.flavor != writer.flavor) {
                let err = (reader.open)(dir.path()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let want = format!(
                    "record 0: foreign {} entry in a {} journal",
                    writer.first_entry, reader.flavor
                );
                assert_eq!(err.to_string(), want);
            }
        }
    }

    #[test]
    fn plain_stores_are_not_durable_and_compact_to_nothing() {
        fn check<S: Fill>() {
            let mut store = S::default();
            store.fill(0);
            assert!(!store.journal().is_durable(), "{}", S::FLAVOR);
            assert!(!store.compact().unwrap(), "{}", S::FLAVOR);
        }
        check::<TestcaseStore>();
        check::<ResultStore>();
        check::<RegistryStore>();
        check::<ModelStore>();
    }

    #[test]
    fn wal_backed_duplicate_not_journaled() {
        let dir = TempDir::new("uucs-store-dup");
        let cfg = WalConfig::default();
        {
            let (mut tcs, _) = TestcaseStore::open_wal(dir.path(), cfg).unwrap();
            tcs.add(&tc("only")).unwrap();
            assert!(matches!(
                tcs.add(&tc("only")),
                Err(StoreError::Duplicate(_))
            ));
        }
        let (tcs, recovery) = TestcaseStore::open_wal(dir.path(), cfg).unwrap();
        assert_eq!(recovery.records, 1, "rejected duplicate left no record");
        assert_eq!(tcs.len(), 1);
    }

    #[test]
    fn append_batch_is_idempotent() {
        let mut r = ResultStore::new();
        let batch = vec![rec("u1"), rec("u2")];
        assert_eq!(
            r.append_batch("c1", 1, &batch).unwrap(),
            BatchStatus::Applied(2)
        );
        // The retransmit (lost ACK) is recognized and re-acked, and the
        // store holds exactly one copy.
        assert_eq!(
            r.append_batch("c1", 1, &batch).unwrap(),
            BatchStatus::Replayed(2)
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.applied_seq("c1"), 1);
        // A later batch applies; an earlier replay is still discarded.
        assert_eq!(
            r.append_batch("c1", 2, &[rec("u3")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(
            r.append_batch("c1", 1, &batch).unwrap(),
            BatchStatus::Replayed(2)
        );
        assert_eq!(r.len(), 3);
        // Horizons are per client.
        assert_eq!(
            r.append_batch("c2", 1, &[rec("u4")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(r.applied_seq("c2"), 1);
        // seq 0 is the legacy always-apply path.
        assert_eq!(
            r.append_batch("c1", 0, &[rec("u5")]).unwrap(),
            BatchStatus::Applied(1)
        );
        assert_eq!(r.len(), 5);
        assert_eq!(r.applied_seq("c1"), 2, "legacy path leaves the horizon alone");
    }

    /// An in-memory disk for a store's journal.
    fn memory() -> StoreIo {
        Disk::Memory(uucs_wal::MemIo::new())
    }

    /// Opens a store on a journal of one payload, reporting a refusal
    /// without the open's `record 0: ` prefix.
    fn replayed(payload: &[u8]) -> io::Result<ResultStore> {
        let (io, dir) = (memory(), Path::new("/results"));
        let cfg = WalConfig::default();
        uucs_wal::Wal::open(io.clone(), dir, cfg)?.0.append(payload)?;
        ResultStore::open(io, dir, cfg).map(|(store, _)| store).map_err(|e| {
            let msg = e.to_string();
            invalid(msg.strip_prefix("record 0: ").unwrap_or(&msg))
        })
    }

    fn read(store: &ResultStore) -> io::Result<Vec<RunRecord>> {
        store.records().collect()
    }

    /// Lines damage can leave between good ones: blanks, comments,
    /// stray markers, and keys with a missing or malformed operand.
    const STRAY: [&str; 12] = [
        "",
        "# comment",
        "HELLO",
        "RESULT",
        "END",
        " END ",
        "CLIENT",
        "OUTCOME maybe",
        "OFFSET abc",
        "LEVELS gpu 1",
        "MONITOR bogus 1",
        "BATCH c1 2 1",
    ];

    fn generated(rng: &mut uucs_stats::Pcg64) -> RunRecord {
        let name = |rng: &mut uucs_stats::Pcg64| {
            let names = ["", "c-123", "Word", "two words", "caf\u{e9}", "x"];
            rng.choose(&names).to_string()
        };
        RunRecord {
            client: name(rng),
            user: name(rng),
            testcase: name(rng),
            task: name(rng),
            skill: name(rng),
            outcome: if rng.bernoulli(0.5) {
                RunOutcome::Discomfort
            } else {
                RunOutcome::Exhausted
            },
            offset_secs: rng.uniform(0.0, 120.0),
            last_levels: if rng.bernoulli(0.5) {
                vec![(Resource::Cpu, vec![rng.f64(), rng.below(9) as f64])]
            } else {
                vec![]
            },
            monitor: MonitorSummary {
                faults: rng.below(1 << 20),
                mean_latency_us: rng.bernoulli(0.5).then(|| rng.f64() * 1e6),
                ..MonitorSummary::default()
            },
        }
    }

    /// Holds the header-only replay of one payload to
    /// [`WalEntry::decode`] of the same bytes.
    fn assert_replays_like_decode(payload: &[u8], context: &str) {
        let reference = WalEntry::decode(payload);
        let store = match replayed(payload) {
            Ok(store) => store,
            Err(mine) => {
                // Refusing is decode's call too, in decode's words —
                // unless decode tripped over a field first, which
                // replay no longer looks at.
                let theirs = reference.expect_err(context);
                let field_level = ["bad ", "unknown ", "LEVELS missing", "record missing"]
                    .iter()
                    .any(|kind| theirs.contains(kind));
                assert!(mine.to_string() == theirs || field_level, "{context}: {mine} vs {theirs}");
                return;
            }
        };
        match reference {
            Ok(WalEntry::Batch {
                client,
                seq,
                records,
            }) => {
                assert_eq!(store.applied_horizons(), &BTreeMap::from([(client, seq)]), "{context}");
                assert_eq!(store.len(), records.len(), "{context}");
                assert_eq!(read(&store).unwrap(), records, "{context}");
            }
            Ok(WalEntry::Result(rec)) => {
                assert!(store.applied_horizons().is_empty(), "{context}");
                assert_eq!(store.len(), 1, "{context}");
                assert_eq!(read(&store).unwrap(), vec![rec], "{context}");
            }
            Ok(other) => panic!("{context}: replay accepted {other:?}"),
            Err(theirs) => {
                // Accepted with a defect inside a block: the reader
                // reports what decode reported, against the record and
                // the line within it instead of the line of the body.
                let (line, msg) = theirs
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(": "))
                    .unwrap_or_else(|| panic!("{context}: accepted despite {theirs:?}"));
                let text = std::str::from_utf8(&payload[1..]).unwrap();
                let body = match payload[0] {
                    TAG_BATCH => text.split_once('\n').unwrap().1,
                    _ => text,
                };
                let (k, block) = Blocks::new(body)
                    .map(Result::unwrap)
                    .enumerate()
                    .find(|(_, block)| RunRecord::parse_block(block).is_err())
                    .unwrap_or_else(|| panic!("{context}: no bad block despite {theirs:?}"));
                let before = body[..block.as_ptr() as usize - body.as_ptr() as usize]
                    .matches('\n')
                    .count();
                let within = line.parse::<usize>().unwrap() - before;
                let mine = store.records().find_map(Result::err).expect(context);
                assert_eq!(mine.to_string(), format!("record {k}: line {within}: {msg}"), "{context}");
            }
        }
    }

    #[test]
    fn header_only_replay_equals_full_decode() {
        for seed in 0..400u64 {
            let mut rng = uucs_stats::Pcg64::new(seed);
            let records: Vec<RunRecord> = (0..rng.below(4)).map(|_| generated(&mut rng)).collect();
            let entry = if records.len() == 1 && rng.bernoulli(0.5) {
                WalEntry::Result(records[0].clone())
            } else {
                WalEntry::Batch {
                    client: format!("client-{:04}", rng.below(50)),
                    seq: 1 + rng.below(9),
                    records,
                }
            };
            let mut payload = entry.encode();
            assert_replays_like_decode(&payload, &format!("seed {seed}, undamaged"));
            for round in 0..4 {
                let text = std::str::from_utf8(&payload[1..]).unwrap();
                let damaged = uucs_harness::textfuzz::mutate_lines(&mut rng, text, &STRAY);
                payload.truncate(1);
                payload.extend_from_slice(damaged.as_bytes());
                assert_replays_like_decode(&payload, &format!("seed {seed}, round {round}"));
            }
        }
        // The defects an open must still refuse, word for word.
        let good = rec("u1").emit();
        let refused: [(&str, Vec<u8>); 9] = [
            ("empty payload", vec![]),
            ("non-utf-8", vec![TAG_BATCH, 0xFF, 0xFE]),
            ("no header line", b"B".to_vec()),
            ("bad header", b"BNOPE x y\n".to_vec()),
            ("bad seq", b"BBATCH c1 notanumber 1\nRESULT\nEND\n".to_vec()),
            ("count mismatch", format!("BBATCH c1 9 2\n{good}").into_bytes()),
            ("torn body", format!("BBATCH c1 9 1\n{}", &good[..good.len() - 4]).into_bytes()),
            ("between blocks", format!("BBATCH c1 9 2\n{good}HELLO\n{good}").into_bytes()),
            ("two results", format!("R{good}{good}").into_bytes()),
        ];
        for (what, payload) in refused {
            let mine = replayed(&payload).expect_err(what).to_string();
            assert_eq!(mine, WalEntry::decode(&payload).expect_err(what), "{what}");
        }
        let foreign = WalEntry::Testcase(tc("t")).encode();
        assert!(WalEntry::decode(&foreign).is_ok());
        let err = replayed(&foreign).unwrap_err().to_string();
        assert_eq!(err, "foreign testcase entry in a results journal");
        assert_eq!(replayed(b"Xjunk").unwrap_err().to_string(), "unknown wal entry tag 0x58");
    }

    /// Every file under a journal directory, by name.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
            .collect()
    }

    /// The store renders once and journals that text: the journal it
    /// writes is, byte for byte, the one [`WalEntry::encode`] writes
    /// for the same uploads, and either opens to the same store.
    #[test]
    fn the_rendered_journal_is_the_encoded_journal() {
        let cfg = WalConfig::default();
        let uploads = [
            ("c1", 1, vec![rec("u1"), rec("u2")]),
            ("c2", 5, vec![]),
            ("c1", 0, vec![rec("legacy-a"), rec("legacy-b")]),
            ("c1", 2, vec![rec("u3")]),
        ];
        let (ours, theirs) = (TempDir::new("uucs-render-ours"), TempDir::new("uucs-render-theirs"));
        let snapshot = {
            let (mut store, _) = ResultStore::open_wal(ours.path(), cfg).unwrap();
            for (client, seq, records) in &uploads {
                store.append_batch(client, *seq, records).unwrap();
            }
            store.snapshot().unwrap()
        };
        {
            let (mut wal, _) = uucs_wal::Wal::open(plain_io(), theirs.path(), cfg).unwrap();
            for (client, seq, records) in &uploads {
                let entries = match seq {
                    0 => records.iter().cloned().map(WalEntry::Result).collect(),
                    _ => vec![WalEntry::Batch {
                        client: client.to_string(),
                        seq: *seq,
                        records: records.clone(),
                    }],
                };
                for entry in entries {
                    wal.append(&entry.encode()).unwrap();
                }
            }
        }
        assert_eq!(files(ours.path()), files(theirs.path()));

        let all: Vec<RunRecord> = uploads.iter().flat_map(|(_, _, r)| r.clone()).collect();
        let want = format!("SEQ c1 2\nSEQ c2 5\n{}", RunRecord::emit_many(&all));
        assert_eq!(snapshot, want, "the snapshot is the encoder's text");
        let (reopened, recovery) = ResultStore::open_wal(theirs.path(), cfg).unwrap();
        assert_eq!(recovery.records, 5);
        assert_eq!(reopened.len(), all.len());
        assert_eq!((reopened.applied_seq("c1"), reopened.applied_seq("c2")), (2, 5));
        assert_eq!(read(&reopened).unwrap(), all);
        assert_eq!(reopened.snapshot().unwrap(), want);
    }

    /// A field that does not parse is past every check an open makes
    /// (the frame's CRC holds, the blocks are whole, the count is
    /// right): the store opens and counts the record, and whoever
    /// reads it is told which record and which line.
    #[test]
    fn a_field_level_defect_opens_and_is_reported_by_the_reader() {
        let dir = TempDir::new("uucs-field-defect");
        let cfg = WalConfig::default();
        {
            let (mut wal, _) = uucs_wal::Wal::open(plain_io(), dir.path(), cfg).unwrap();
            let bad = rec("u2").emit().replace("OUTCOME exhausted", "OUTCOME maybee");
            let body = format!("{}{bad}{}", rec("u1").emit(), rec("u3").emit());
            wal.append(format!("BBATCH c1 1 3\n{body}").as_bytes()).unwrap();
        }
        let (store, _) = ResultStore::open_wal(dir.path(), cfg).unwrap();
        assert_eq!((store.len(), store.applied_seq("c1")), (3, 1));
        let line = 1 + rec("u2").emit().lines().position(|l| l.starts_with("OUTCOME")).unwrap();
        let read: Vec<_> = store.records().map(|r| r.map_err(|e| e.to_string())).collect();
        let want = format!("record 1: line {line}: bad outcome \"maybee\"");
        assert_eq!(read, vec![Ok(rec("u1")), Err(want.clone()), Ok(rec("u3"))]);
        let mut stores = crate::StoreSet::plain(1);
        stores.results = crate::Sharded::new(vec![store]);
        let server = crate::UucsServer::with_store_set(stores, 1);
        assert_eq!(server.result_count(), 3);
        assert_eq!(server.results().unwrap_err().to_string(), want);
    }

    /// Text that would not read back equal is refused before anything
    /// is journaled or held, for both upload paths.
    #[test]
    fn unrenderable_records_are_refused_and_leave_no_trace() {
        let dir = TempDir::new("uucs-unrenderable");
        let cfg = WalConfig::default();
        let hostile = RunRecord {
            task: "Word\nBOGUS x".into(),
            ..rec("u2")
        };
        {
            let (mut store, _) = ResultStore::open_wal(dir.path(), cfg).unwrap();
            store.append_batch("c1", 1, &[rec("u1")]).unwrap();
            for seq in [0, 2] {
                let err = store.append_batch("c1", seq, &[rec("u3"), hostile.clone()]).unwrap_err();
                let want = "record 1: task \"Word\\nBOGUS x\" contains a control character";
                assert_eq!(err.to_string(), want);
            }
            let err = store.append_batch("c 1", 1, &[rec("u1")]).unwrap_err();
            assert_eq!(err.to_string(), "client id \"c 1\" is not one token");
            assert_eq!((store.len(), store.applied_seq("c1")), (1, 1));
        }
        let (store, recovery) = ResultStore::open_wal(dir.path(), cfg).unwrap();
        assert_eq!(recovery.records, 1, "a refused batch left a journal entry");
        assert_eq!(read(&store).unwrap(), vec![rec("u1")]);
    }

    /// A follower's snapshot dedup learns on its first pass whose records
    /// a shard holds, keeps that current on append, and reads nothing
    /// for a batch of anyone else: with the journal damaged afterwards,
    /// only a lookup that must read it fails.
    #[test]
    fn held_of_reads_a_shard_once_to_learn_its_clients() {
        let mem = uucs_wal::MemIo::new();
        let io = Disk::Memory(mem.clone());
        let dir = Path::new("/results");
        let (mut store, _) = ResultStore::open(io, dir, WalConfig::default()).unwrap();
        let of = |client: &str| RunRecord {
            client: client.into(),
            ..rec("u1")
        };
        let text = |client: &str| HashSet::from([of(client).emit().trim_end().to_string()]);
        store.append_batch("a", 1, &[of("a")]).unwrap();
        assert_eq!(
            store.held_of(&HashSet::from(["b"])).unwrap(),
            HashSet::new()
        );
        store.append_batch("b", 1, &[of("b")]).unwrap();
        assert_eq!(store.held_of(&HashSet::from(["b"])).unwrap(), text("b"));
        mem.corrupt(&dir.join("0000000000000000.wal"), 20);
        assert_eq!(
            store.held_of(&HashSet::from(["c"])).unwrap(),
            HashSet::new()
        );
        assert!(store.held_of(&HashSet::from(["a", "c"])).is_err());
    }

    /// A registration retried with the same token (lost `ID` reply) must
    /// resolve to the same id — in memory, across a WAL recovery, and
    /// across a compaction that folds the token into the snapshot.
    #[test]
    fn registration_token_is_idempotent() {
        let mut g = RegistryStore::new();
        let a = g
            .register(MachineSnapshot::study_machine("h"), "tok-a")
            .unwrap();
        let again = g
            .register(MachineSnapshot::study_machine("h"), "tok-a")
            .unwrap();
        assert_eq!(a, again, "same token must return the same id");
        assert_eq!(g.len(), 1, "retry must not add a second client");
        // Distinct tokens are distinct identities even from an identical
        // snapshot (the controlled study registers 33 identical machines).
        let b = g
            .register(MachineSnapshot::study_machine("h"), "tok-b")
            .unwrap();
        assert_ne!(a, b);
        // Legacy tokenless registrations never dedup.
        let c = g.register(MachineSnapshot::study_machine("h"), "").unwrap();
        let d = g.register(MachineSnapshot::study_machine("h"), "").unwrap();
        assert_ne!(c, d);
        assert_eq!(g.len(), 4);
    }

    /// The indexed registry emits what the scanning one did: rows in
    /// registration order, each `CLIENT <id> <token>` line carrying the
    /// first token the id presented — and so does its reopen, before and
    /// after a compaction.
    #[test]
    fn registry_snapshot_bytes_and_order_are_pinned() {
        let dir = TempDir::new("uucs-registry-pin");
        let cfg = WalConfig::default();
        let snap = MachineSnapshot::study_machine;
        let written = {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            assert_eq!(g.register(snap("a"), "tok-a").unwrap(), "client-0001");
            g.register(snap("b"), "").unwrap();
            g.register_with_id("client-0009".into(), snap("c"), "tok-c").unwrap();
            assert_eq!(g.register(snap("again"), "tok-a").unwrap(), "client-0001");
            assert_eq!(g.register(snap("d"), "tok-d").unwrap(), "client-0004");
            g.snapshot().unwrap()
        };
        let want = format!(
            "CLIENT client-0001 tok-a\n{}CLIENT client-0002\n{}\
             CLIENT client-0009 tok-c\n{}CLIENT client-0004 tok-d\n{}",
            snap("a").emit(),
            snap("b").emit(),
            snap("c").emit(),
            snap("d").emit()
        );
        assert_eq!(written, want);
        let order = ["client-0001", "client-0002", "client-0009", "client-0004"];
        for compact in [false, true] {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            let ids: Vec<&str> = g.all().iter().map(|(id, _)| id.as_str()).collect();
            assert_eq!(ids, order, "compacted: {compact}");
            assert_eq!(g.snapshot().unwrap(), want, "compacted: {compact}");
            assert_eq!(g.get("client-0009").unwrap().hostname, "c");
            assert_eq!((g.id_for_token("tok-c"), g.token_of("client-0002")), (Some("client-0009"), None));
            if !compact {
                g.compact().unwrap();
            }
        }
        let (g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
        let pairs: Vec<(&str, &str)> = (g.all().iter())
            .filter_map(|(id, _)| Some((g.token_of(id)?, id.as_str())))
            .collect();
        assert_eq!(pairs, [("tok-a", "client-0001"), ("tok-c", "client-0009"), ("tok-d", "client-0004")]);
    }

    /// A mutation the property applies to both stores; kept so a
    /// durable one that failed can be reconciled after its reopen.
    #[derive(Debug, Clone)]
    enum Upload {
        Batch(String, u64, Vec<RunRecord>),
        Append(Vec<RunRecord>),
    }

    impl Upload {
        fn apply(&self, store: &mut ResultStore) -> Result<usize, StoreError> {
            match self {
                Upload::Batch(client, seq, records) => {
                    store.append_batch(client, *seq, records).map(BatchStatus::acked)
                }
                Upload::Append(records) => store.append(records),
            }
        }

        /// Applies to `plain` what of this upload a durable store that
        /// failed it and then reopened as `durable` turned out to hold;
        /// `true` when that was anything.
        fn reconcile(&self, plain: &mut ResultStore, durable: &ResultStore) -> Result<bool, String> {
            let held = durable.len().checked_sub(plain.len()).ok_or("records lost")?;
            match self {
                Upload::Batch(client, seq, _) if *seq > 0 => {
                    let kept = durable.applied_seq(client) != plain.applied_seq(client);
                    if kept {
                        self.apply(plain).map_err(|e| e.to_string())?;
                    }
                    Ok(kept)
                }
                Upload::Batch(_, _, records) | Upload::Append(records) => {
                    let part = records.get(..held).ok_or("more records than uploaded")?;
                    plain.append(part).map_err(|e| e.to_string())?;
                    Ok(held > 0)
                }
            }
        }
    }

    /// What every reader of a store yields, `Err` naming the failing one.
    fn reading(store: &ResultStore, of: &HashSet<&str>) -> Result<String, String> {
        let all: io::Result<Vec<_>> = store.records().collect();
        let some: io::Result<Vec<_>> = store.records_of(of).collect();
        let mut text = Vec::new();
        store.write_to(&mut text).map_err(|e| format!("write_to: {e}"))?;
        Ok(format!(
            "len {}\nhorizons {:?}\nrecords {:?}\nrecords_of {:?}\nwrite_to {}\nsnapshot {}",
            store.len(),
            store.applied_horizons(),
            all.map_err(|e| format!("records: {e}"))?,
            some.map_err(|e| format!("records_of: {e}"))?,
            String::from_utf8_lossy(&text),
            store.snapshot().map_err(|e| format!("snapshot: {e}"))?,
        ))
    }

    fn same(plain: &ResultStore, durable: &ResultStore, after: &str) -> Result<(), String> {
        let of = HashSet::from(["client-0002"]);
        let (want, got) = (reading(plain, &of)?, reading(durable, &of)?);
        if want != got {
            return Err(format!("after {after}:\nplain   {want}\ndurable {got}"));
        }
        Ok(())
    }

    /// The plain store a reshard through `k` shards and back to one
    /// leaves: horizons first, then every record regrouped by its
    /// `k`-shard, upload order kept within a shard.
    fn resharded(plain: &ResultStore, k: usize) -> ResultStore {
        let mut records: Vec<RunRecord> = plain.records().map(Result::unwrap).collect();
        records.sort_by_key(|r| crate::shard::shard_of(&r.client, k));
        let mut out = ResultStore::new();
        for (client, seq) in plain.applied_horizons() {
            out.append_batch(client, *seq, &[]).unwrap();
        }
        if !records.is_empty() {
            out.append(&records).unwrap();
        }
        out
    }

    /// The paths a [`reader_contract`] case can take that the property
    /// as a whole must have reached.
    const CONTRACT_PATHS: [&str; 6] = [
        "a compaction",
        "a retransmit",
        "a torn tail under a live store",
        "a reshard",
        "a failed upload the reopen kept",
        "a failed upload the reopen lost",
    ];

    /// One case of the reader contract: a random run of uploads,
    /// retransmits, compactions, reopens, reshards, torn tails and one
    /// planned fault against a plain store and a durable one on an
    /// in-memory disk. Every reader of the two must agree after every
    /// step — including a live store whose journal holds a failed
    /// append's bytes past `len()` — and after each reopen once the
    /// failed upload is reconciled with what the journal kept.
    fn reader_contract(seed: u64) -> Result<[bool; CONTRACT_PATHS.len()], String> {
        let mut seen = [false; CONTRACT_PATHS.len()];
        let mut rng = uucs_stats::Pcg64::new(seed);
        let dir = Path::new("/results");
        let cfg = WalConfig {
            segment_bytes: 200 + rng.below(3000),
            sync: SyncPolicy::Always,
        };
        let mut mem = uucs_wal::MemIo::new();
        let io = |mem: &uucs_wal::MemIo| Disk::Memory(mem.clone());
        let open = |mem: &uucs_wal::MemIo| -> Result<ResultStore, String> {
            // A fault planned for the open itself fires, then the disk reboots.
            match ResultStore::open(io(mem), dir, cfg) {
                Ok((store, _)) => Ok(store),
                Err(_) if mem.is_dead() => {
                    mem.crash(1.0);
                    ResultStore::open(io(mem), dir, cfg).map(|(s, _)| s).map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            }
        };
        let (mut plain, mut durable) = (ResultStore::new(), open(&mem)?);
        let clients = ["client-0001", "client-0002", "client-0003"];
        for step in 0..24 {
            let at = format!("step {step}");
            let mut failed = None;
            match rng.below(13) {
                0..=6 => {
                    let client = *rng.choose(&clients);
                    let horizon = plain.applied_seq(client);
                    let seq = match rng.below(6) {
                        0 => 0,
                        1 => horizon.saturating_sub(rng.below(2)),
                        2 => horizon + 2,
                        _ => horizon + 1,
                    };
                    let records = (0..rng.below(4))
                        .map(|_| RunRecord {
                            client: if rng.bernoulli(0.7) { client.to_string() } else { generated(&mut rng).client },
                            ..generated(&mut rng)
                        })
                        .collect();
                    let upload = if rng.below(5) == 0 {
                        Upload::Append(records)
                    } else {
                        Upload::Batch(client.to_string(), seq, records)
                    };
                    match upload.apply(&mut durable) {
                        Ok(n) => {
                            seen[1] |= matches!(upload, Upload::Batch(_, seq, _) if seq > 0 && seq <= horizon);
                            let want = upload.apply(&mut plain).map_err(|e| e.to_string())?;
                            if n != want {
                                return Err(format!("{at}: {upload:?} acked {n}, plain {want}"));
                            }
                        }
                        Err(StoreError::Io(_)) if mem.is_dead() => failed = Some(Some(upload)),
                        Err(e) => return Err(format!("{at}: {upload:?}: {e}")),
                    }
                }
                7 => match durable.compact() {
                    Ok(compacted) => seen[0] |= compacted,
                    Err(_) if mem.is_dead() => failed = Some(None),
                    Err(e) => return Err(format!("{at}: compact: {e}")),
                },
                8 => durable = open(&mem)?,
                9 => {
                    // A torn append under the live store, then the reopen that heals it.
                    let active = mem.list(dir).map_err(|e| e.to_string())?.into_iter().filter(|n| n.ends_with(".wal")).max();
                    let frame = uucs_wal::frame::encode_frame(b"BBATCH client-0001 99 0\n");
                    let torn = &frame[..1 + rng.below(frame.len() as u64 - 1) as usize];
                    if mem.append(&dir.join(active.ok_or("no segment")?), torn).is_err() {
                        failed = Some(None);
                    } else {
                        same(&plain, &durable, &format!("{at} (torn tail, live)"))?;
                        seen[2] = true;
                        durable = open(&mem)?;
                    }
                }
                10 if !mem.is_dead() => mem.set_fault(Some(uucs_wal::FaultPlan {
                    fail_at: mem.mutating_ops() + rng.below(6),
                    short_write: rng.bernoulli(0.5).then(|| rng.below(24) as usize),
                })),
                11 if rng.bernoulli(0.3) => {
                    // Through `StoreSet::open` at `k` shards and back to one,
                    // on real files, then back onto a fresh in-memory disk.
                    let k = 2 + rng.below(3) as usize;
                    let tmp = TempDir::new("uucs-reader-contract");
                    let flat = tmp.join("results");
                    std::fs::create_dir_all(&flat).unwrap();
                    for name in mem.list(dir).map_err(|e| e.to_string())? {
                        std::fs::write(flat.join(&name), mem.contents(&dir.join(&name)).unwrap()).unwrap();
                    }
                    drop(durable);
                    let unsynced = WalConfig { sync: SyncPolicy::Never, ..cfg };
                    for shards in [k, 1] {
                        crate::StoreSet::open(tmp.path(), unsynced, shards).map_err(|e| e.to_string())?;
                    }
                    mem = uucs_wal::MemIo::new();
                    let one = flat.join("by-1").join("shard-000");
                    for entry in std::fs::read_dir(&one).unwrap() {
                        let entry = entry.unwrap();
                        let to = dir.join(entry.file_name());
                        mem.append(&to, &std::fs::read(entry.path()).unwrap()).unwrap();
                        mem.sync(&to).unwrap();
                    }
                    durable = open(&mem)?;
                    plain = resharded(&plain, k);
                    seen[3] = true;
                }
                _ => {}
            }
            if let Some(upload) = failed {
                // The planned fault fired: the live store is what it was
                // before, whatever the failed operation left on disk.
                mem.crash(rng.f64());
                same(&plain, &durable, &format!("{at} (fault, live)"))?;
                durable = open(&mem)?;
                if let Some(upload) = upload {
                    let kept = upload.reconcile(&mut plain, &durable).map_err(|e| format!("{at}: {e}"))?;
                    seen[if kept { 4 } else { 5 }] = true;
                }
            }
            same(&plain, &durable, &at)?;
        }
        Ok(seen)
    }

    /// [`reader_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`CONTRACT_PATHS`].
    #[test]
    fn durable_and_plain_result_stores_read_alike() {
        let mut seen = [false; CONTRACT_PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "durable_and_plain_result_stores_read_alike",
            (uucs_harness::prop::any::<u64>(),),
            |&(seed,)| {
                let taken = reader_contract(seed)
                    .map_err(|e| uucs_harness::prop::CaseError::Fail(format!("seed {seed}: {e}")))?;
                seen.iter_mut().zip(taken).for_each(|(s, t)| *s |= t);
                Ok(())
            },
        );
        let never: Vec<_> = (CONTRACT_PATHS.iter().zip(seen))
            .filter_map(|(path, seen)| (!seen).then_some(path))
            .collect();
        assert!(never.is_empty(), "no case reached: {never:?}");
    }

    /// The testcase store as it was before it held text: decoded
    /// testcases in insertion order, each id once. What the text store
    /// must read like.
    #[derive(Debug, Default)]
    struct StructStore(Vec<Testcase>);

    impl StructStore {
        fn add(&mut self, tc: &Testcase) -> Result<(), String> {
            if self.0.iter().any(|t| t.id == tc.id) {
                return Err(format!("duplicate testcase id {}", tc.id));
            }
            self.0.push(tc.clone());
            Ok(())
        }
    }

    /// Every reader of a text store, next to what the same reader of the
    /// struct store it should equal gives.
    fn tc_readings(text: &TestcaseStore, structs: &StructStore) -> [String; 2] {
        let probe = ["tc-0", "tc-3", "tc-7", "nowhere"];
        let text_blocks: Vec<&str> = (0..text.len()).map(|i| text.block(i)).collect();
        let text_entries: Vec<(&str, &str)> = text.entries().collect();
        let text_reading = format!(
            "len {}\ntestcases {:?}\nget {:?}\ncontains {:?}\nblocks {:?}\nentries {:?}\ntext {}\nsnapshot {}",
            text.len(),
            text.testcases(),
            probe.map(|id| text.get(id)),
            probe.map(|id| text.contains(id)),
            text_blocks,
            text_entries,
            text.text(),
            text.snapshot().unwrap(),
        );
        let emitted: Vec<String> = structs.0.iter().map(tcformat::emit).collect();
        let ids: Vec<&str> = structs.0.iter().map(|t| t.id.as_str()).collect();
        let struct_entries: Vec<(&str, &str)> = ids
            .iter()
            .copied()
            .zip(emitted.iter().map(String::as_str))
            .collect();
        let find = |id: &str| structs.0.iter().find(|t| t.id.as_str() == id);
        let struct_reading = format!(
            "len {}\ntestcases {:?}\nget {:?}\ncontains {:?}\nblocks {:?}\nentries {:?}\ntext {}\nsnapshot {}",
            structs.0.len(),
            structs.0,
            probe.map(|id| find(id).cloned()),
            probe.map(|id| find(id).is_some()),
            emitted,
            struct_entries,
            tcformat::emit_many(&structs.0),
            tcformat::emit_many(&structs.0),
        );
        [text_reading, struct_reading]
    }

    fn tc_same(text: &TestcaseStore, structs: &StructStore, after: &str) -> Result<(), String> {
        let [got, want] = tc_readings(text, structs);
        if got != want {
            return Err(format!("after {after}:\ntext    {got}\nstructs {want}"));
        }
        Ok(())
    }

    /// A testcase under one of a dozen ids, so that additions collide:
    /// one to three functions of any length (none included), values in
    /// range, on the quarter-unit grid, or any finite `f64` the resource
    /// clamps, at a rate that need not be whole.
    fn random_testcase(rng: &mut uucs_stats::Pcg64) -> Testcase {
        let id = format!("tc-{}", rng.below(12));
        let rate = *rng.choose(&[0.25, 0.5, 1.0, 2.0, 1.0 / 3.0]);
        let mut resources = [Resource::Cpu, Resource::Memory, Resource::Disk];
        rng.shuffle(&mut resources);
        let n = 1 + rng.below(3) as usize;
        let functions = resources[..n]
            .iter()
            .map(|&r| {
                let values = (0..rng.below(20))
                    .map(|_| match rng.below(3) {
                        0 => rng.f64() * r.max_contention(),
                        1 => rng.below(16) as f64 / 4.0,
                        _ => Some(f64::from_bits(rng.next_u64()))
                            .filter(|v| v.is_finite())
                            .unwrap_or(0.5),
                    })
                    .collect();
                uucs_testcase::ExerciseFunction::from_values(r, rate, values)
            })
            .collect();
        Testcase::new(id, rate, functions)
    }

    /// The paths a [`testcase_contract`] case can take that the property
    /// as a whole must have reached.
    const TC_PATHS: [&str; 6] = [
        "a compaction",
        "a duplicate",
        "a torn tail under a live store",
        "a reshard",
        "a failed addition the reopen kept",
        "a failed addition the reopen lost",
    ];

    /// One case of the testcase-store contract: a random run of
    /// additions (colliding ids among them), compactions, reopens, torn
    /// tails, reshards and planned faults against a durable text store
    /// on an in-memory disk and the struct store. Every reader of the
    /// two must agree after every step, and after each reopen once a
    /// failed addition is reconciled with what the journal kept.
    fn testcase_contract(seed: u64) -> Result<[bool; TC_PATHS.len()], String> {
        use crate::shard::shard_of;
        let mut seen = [false; TC_PATHS.len()];
        let mut rng = uucs_stats::Pcg64::new(seed);
        let dir = Path::new("/testcases");
        let cfg = WalConfig {
            segment_bytes: 200 + rng.below(3000),
            sync: SyncPolicy::Always,
        };
        let mut mem = uucs_wal::MemIo::new();
        let open = |mem: &uucs_wal::MemIo| -> Result<TestcaseStore, String> {
            let io = || Disk::Memory(mem.clone());
            // A fault planned for the open itself fires, then the disk reboots.
            match TestcaseStore::open(io(), dir, cfg) {
                Ok((store, _)) => Ok(store),
                Err(_) if mem.is_dead() => {
                    mem.crash(1.0);
                    TestcaseStore::open(io(), dir, cfg)
                        .map(|(s, _)| s)
                        .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            }
        };
        let (mut structs, mut text) = (StructStore::default(), open(&mem)?);
        for step in 0..24 {
            let at = format!("step {step}");
            let mut failed = None;
            match rng.below(11) {
                0..=5 => {
                    let tc = random_testcase(&mut rng);
                    match (text.add(&tc), structs.add(&tc)) {
                        (Ok(()), Ok(())) => {}
                        (Err(StoreError::Duplicate(id)), Err(_)) if id == tc.id.as_str() => {
                            seen[1] = true
                        }
                        (Err(StoreError::Io(_)), Ok(())) if mem.is_dead() => {
                            structs.0.pop();
                            failed = Some(Some(tc));
                        }
                        (got, want) => {
                            return Err(format!("{at}: add {}: {got:?}, structs {want:?}", tc.id))
                        }
                    }
                }
                6 => match text.compact() {
                    Ok(compacted) => seen[0] |= compacted,
                    Err(_) if mem.is_dead() => failed = Some(None),
                    Err(e) => return Err(format!("{at}: compact: {e}")),
                },
                7 => text = open(&mem)?,
                8 => {
                    // A torn append under the live store, then the reopen that heals it.
                    let active = mem
                        .list(dir)
                        .map_err(|e| e.to_string())?
                        .into_iter()
                        .filter(|n| n.ends_with(".wal"))
                        .max();
                    let payload = testcase_payload(&tcformat::emit(&random_testcase(&mut rng)));
                    let frame = uucs_wal::frame::encode_frame(&payload);
                    let torn = &frame[..1 + rng.below(frame.len() as u64 - 1) as usize];
                    if mem
                        .append(&dir.join(active.ok_or("no segment")?), torn)
                        .is_err()
                    {
                        failed = Some(None);
                    } else {
                        tc_same(&text, &structs, &format!("{at} (torn tail, live)"))?;
                        seen[2] = true;
                        text = open(&mem)?;
                    }
                }
                9 if !mem.is_dead() => mem.set_fault(Some(uucs_wal::FaultPlan {
                    fail_at: mem.mutating_ops() + rng.below(6),
                    short_write: rng.bernoulli(0.5).then(|| rng.below(24) as usize),
                })),
                10 if !mem.is_dead() => {
                    // Out to `k` shards and back to one, as a reshard moves
                    // blocks, onto a fresh in-memory disk.
                    let k = 2 + rng.below(7) as usize;
                    let mut parts: Vec<TestcaseStore> =
                        (0..k).map(|_| TestcaseStore::new()).collect();
                    text.export(&mut |id, payload| {
                        parts[shard_of(id, k)].admit(&payload).map(drop)
                    })
                    .map_err(|e| e.to_string())?;
                    mem = uucs_wal::MemIo::new();
                    text = open(&mem)?;
                    for part in &parts {
                        part.export(&mut |_, payload| text.admit(&payload).map(drop))
                            .map_err(|e| e.to_string())?;
                    }
                    structs.0.sort_by_key(|t| shard_of(t.id.as_str(), k));
                    seen[3] = true;
                }
                _ => {}
            }
            if let Some(addition) = failed {
                // The planned fault fired: the live store is what it was
                // before, whatever the failed operation left on disk. The
                // power loss keeps none, all or part of the unsynced tail.
                let flushed = match rng.below(3) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.f64(),
                };
                mem.crash(flushed);
                tc_same(&text, &structs, &format!("{at} (fault, live)"))?;
                text = open(&mem)?;
                if let Some(tc) = addition {
                    let kept = text.contains(tc.id.as_str());
                    if kept {
                        structs.add(&tc)?;
                    }
                    seen[if kept { 4 } else { 5 }] = true;
                }
            }
            tc_same(&text, &structs, &at)?;
        }
        Ok(seen)
    }

    /// [`testcase_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`TC_PATHS`].
    #[test]
    fn text_testcase_store_reads_like_the_struct_store() {
        let mut seen = [false; TC_PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "text_testcase_store_reads_like_the_struct_store",
            (uucs_harness::prop::any::<u64>(),),
            |&(seed,)| {
                let taken = testcase_contract(seed).map_err(|e| {
                    uucs_harness::prop::CaseError::Fail(format!("seed {seed}: {e}"))
                })?;
                seen.iter_mut().zip(taken).for_each(|(s, t)| *s |= t);
                Ok(())
            },
        );
        let never: Vec<_> = (TC_PATHS.iter().zip(seen))
            .filter_map(|(path, seen)| (!seen).then_some(path))
            .collect();
        assert!(never.is_empty(), "no case reached: {never:?}");
    }
}
