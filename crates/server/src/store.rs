//! The server's stores, kept as the paper keeps them — "on permanent
//! storage in text files" — in a write-ahead log (`uucs-wal`) whose
//! entries are that text.
//!
//! Every store journals: each mutation is journaled *before* it is
//! applied in memory, and reopening the journal replays it, so nothing
//! acknowledged is lost. None of these stores writes a checkpoint — the
//! text its journal holds is the store, so the journal is its own
//! checkpoint — but each restores one an older build wrote before it
//! replays the records past it. `open_wal` journals to files under a
//! directory; `new` journals to an in-memory disk of the store's own, for
//! an in-process server.
//!
//! Every store holds the text its journal carries. The testcase library
//! and the client registry are each a [`BlockLog`]: checked blocks keyed
//! by id, which serving and resharding copy and never render. The result
//! store keeps no record text: its journal is its record log.
//!
//! Corruption policy: a WAL tolerates a torn final frame (crash
//! residue) but reports mid-log damage, naming the record.

use crate::journal::{foreign, Journal, Journaled};
use crate::models::{CacheFile, ModelStore};
use crate::storage::{plain_io, StoreIo};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::Path;
use uucs_protocol::record::Blocks;
use uucs_protocol::walenc::{
    client_header, split_payload, BorrowedBlocks, TAG_BATCH, TAG_CLIENT, TAG_RESULT, TAG_TESTCASE,
};
use uucs_protocol::wire::is_token;
use uucs_protocol::{MachineSnapshot, RunRecord};
#[cfg(doc)]
use uucs_protocol::WalEntry;
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

/// What a keyed text store's blocks are: the [`Testcases`] library and
/// the [`Clients`] registry are each a [`BlockLog`] over one of these.
pub trait BlockPolicy: Default + fmt::Debug {
    /// The store's name in `server.wal.<flavor>.*` and in error text.
    const FLAVOR: &'static str;
    /// The tag of the journal payloads that carry a block.
    const TAG: u8;
    /// Whether replay holds a block under a key that is held already,
    /// beside the first (whose lookups win), rather than refusing it.
    const REPEATS: bool;

    /// The blocks of a checkpoint an older build wrote, in order.
    fn split(checkpoint: &str) -> impl Iterator<Item = &str>;

    /// The key a block names on its first line, read to route it.
    fn key(block: &str) -> Result<&str, String>;

    /// Checks a block as a full decode of its payload would, in
    /// [`WalEntry::decode`]'s words: its key, and the part of it held —
    /// through its `END` line.
    fn check(block: &str) -> Result<(String, &str), String>;

    /// Notes a block the store has just taken.
    fn held(&mut self, _key: &str, _block: &str) {}
}

/// A keyed text store: every block its journal carries, checked and
/// held as text in one `String` in arrival order, each block's key, and
/// the ordinal of each key's first block. A block is rendered once, by
/// the store's own mutator; replay, restore and admit keep the text they
/// check, and reshards, replication and `SYNC` replies reuse it. A
/// checked block is held through its `END` line, newline-terminated, so
/// the held text is what an older build checkpointed: it splits back
/// into the same blocks.
/// Readers that want structs decode a block on demand.
#[derive(Debug)]
pub struct BlockLog<P> {
    held: Held<P>,
    journal: Journal,
}

/// What a [`BlockLog`] holds beside its journal.
#[derive(Debug, Default)]
pub(crate) struct Held<P> {
    /// Every block in arrival order, concatenated.
    text: String,
    /// Each block's key and where the block ends in `text`.
    blocks: Vec<(String, usize)>,
    /// The ordinal of each key's first block.
    index: HashMap<String, usize>,
    policy: P,
}

impl<P: BlockPolicy> Journaled for BlockLog<P> {
    const FLAVOR: &'static str = P::FLAVOR;
    type State = Held<P>;

    fn attach(held: Held<P>, journal: Journal) -> Self {
        BlockLog { held, journal }
    }

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    fn restore(held: &mut Held<P>, _upto: Lsn, snapshot: &str) -> io::Result<()> {
        P::split(snapshot).try_for_each(|block| held.keep(block))
    }

    fn replay(held: &mut Held<P>, _lsn: Lsn, payload: &[u8]) -> io::Result<()> {
        held.keep(Self::block_of(payload)?)
    }

    /// One payload per block, keyed, in arrival order.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        for (key, block) in self.entries() {
            emit(key, payload(P::TAG, block))?;
        }
        Ok(())
    }

    /// A block whose key is held already is left as it is; any other is
    /// journaled as received and held.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool> {
        let (key, block) = P::check(Self::block_of(payload)?).map_err(invalid)?;
        if self.contains(&key) {
            return Ok(false);
        }
        self.journal.append(payload)?;
        self.held.hold(key, block);
        Ok(true)
    }
}

/// A journal payload: the tag byte, then the block.
fn payload(tag: u8, block: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + block.len());
    out.push(tag);
    out.extend_from_slice(block.as_bytes());
    out
}

/// [`BlockLog::new`]: journaled in memory.
impl<P: BlockPolicy> Default for BlockLog<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: BlockPolicy> BlockLog<P> {
    /// An empty store journaling to an in-memory disk of its own.
    pub fn new() -> Self {
        Self::in_memory()
    }

    /// Opens (creating if necessary) the store journaled under `dir`:
    /// replays the journal and journals every later addition before
    /// holding it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// The block of one of this store's payloads; a payload of another
    /// store's kind is refused with [`foreign`].
    fn block_of(payload: &[u8]) -> io::Result<&str> {
        let (tag, block) = split_payload(payload).map_err(invalid)?;
        if tag != P::TAG {
            return Err(foreign::<Self>(tag));
        }
        Ok(block)
    }

    /// The key one of this store's payloads names, read to route it to
    /// the shard whose [`Journaled::admit`] checks the rest.
    pub(crate) fn key_of(payload: &[u8]) -> io::Result<&str> {
        P::key(Self::block_of(payload)?).map_err(invalid)
    }

    /// Journals and holds `block`, rendered by the store as the key
    /// `key`; with `ship`, hands back the payload the journal took.
    /// Rejects a held key unless the policy repeats keys.
    fn put(&mut self, key: &str, block: &str, ship: bool) -> Result<Option<Vec<u8>>, StoreError> {
        if !P::REPEATS && self.contains(key) {
            return Err(StoreError::Duplicate(key.to_string()));
        }
        let payload = payload(P::TAG, block);
        self.journal.append(&payload)?;
        self.held.hold(key.to_string(), block);
        Ok(ship.then_some(payload))
    }

    /// The LSN the next journal append would get. Captured under the
    /// store's write lock right after an append, it is the durability
    /// watermark a group-commit waiter needs: once a sync covers it, the
    /// append is on stable storage.
    pub fn wal_next_lsn(&self) -> Lsn {
        self.journal.next_lsn()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.held.blocks.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.held.blocks.is_empty()
    }

    /// Whether a block under this key is held.
    pub fn contains(&self, key: &str) -> bool {
        self.held.contains(key)
    }

    /// The `i`th block in arrival order.
    pub fn block(&self, i: usize) -> &str {
        let Held { text, blocks, .. } = &self.held;
        let start = match i {
            0 => 0,
            _ => blocks[i - 1].1,
        };
        &text[start..blocks[i].1]
    }

    /// The first block held under `key`.
    fn find(&self, key: &str) -> Option<&str> {
        self.held.index.get(key).map(|&i| self.block(i))
    }

    /// Every block's key and text, in arrival order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.len()).map(|i| (self.held.blocks[i].0.as_str(), self.block(i)))
    }

    /// Every block in arrival order, concatenated — for the testcase
    /// library, the text format of a `--library` file.
    pub fn text(&self) -> &str {
        &self.held.text
    }
}

impl<P: BlockPolicy> Held<P> {
    /// Whether a block under this key is held.
    fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Holds a replayed or restored block once it checks.
    fn keep(&mut self, block: &str) -> io::Result<()> {
        let (key, block) = P::check(block).map_err(invalid)?;
        if !P::REPEATS && self.contains(&key) {
            return Err(invalid(StoreError::Duplicate(key)));
        }
        self.hold(key, block);
        Ok(())
    }

    /// Holds a block under `key`, and shows it to the policy.
    fn hold(&mut self, key: String, block: &str) {
        let start = self.text.len();
        self.text.push_str(block);
        if !block.ends_with('\n') {
            self.text.push('\n');
        }
        self.policy.held(&key, &self.text[start..]);
        if !self.index.contains_key(&key) {
            self.index.insert(key.clone(), self.blocks.len());
        }
        self.blocks.push((key, self.text.len()));
    }
}

/// The testcase library's blocks: [`tcformat`] testcases, keyed by id,
/// each id once.
#[derive(Debug, Default)]
pub struct Testcases;

impl BlockPolicy for Testcases {
    const FLAVOR: &'static str = "testcases";
    const TAG: u8 = TAG_TESTCASE;
    const REPEATS: bool = false;

    fn split(checkpoint: &str) -> impl Iterator<Item = &str> {
        tcformat::blocks(checkpoint)
    }

    /// The id of a `TESTCASE <id>` first line.
    fn key(block: &str) -> Result<&str, String> {
        let mut words = tcformat::words(block.lines().next().unwrap_or(""));
        match (words.next(), words.next()) {
            (Some("TESTCASE"), Some(id)) => Ok(id),
            _ => Err("TESTCASE payload names no id".to_string()),
        }
    }

    /// Text that parses as exactly one testcase, checked without
    /// building it ([`tcformat::check`]).
    fn check(block: &str) -> Result<(String, &str), String> {
        let id = tcformat::check(block).map_err(|e| format!("bad testcase payload: {e}"))?;
        // `parse` allows only blank and comment lines after `END`.
        let held = match block.ends_with("END\n") {
            true => block,
            false => through_end(block),
        };
        Ok((id.to_string(), held))
    }
}

/// `text` through its first `END` line, where both block formats end.
fn through_end(text: &str) -> &str {
    tcformat::blocks(text).next().unwrap_or(text)
}

/// The server's testcase library: each testcase held as its text block,
/// the [`tcformat::emit`] output its journal entry carries after the
/// tag, rendered once by [`TestcaseStore::add`].
pub type TestcaseStore = BlockLog<Testcases>;

impl TestcaseStore {
    /// Builds a store journaling in memory ([`BlockLog::new`]) from
    /// testcases, rejecting duplicate ids.
    pub fn from_testcases(testcases: Vec<Testcase>) -> Result<Self, StoreError> {
        let mut s = Self::new();
        for tc in &testcases {
            s.add(tc)?;
        }
        Ok(s)
    }

    /// Adds a testcase ("new testcases can be added to the server at any
    /// time"). Rejects a duplicate id; the addition is journaled before
    /// it is applied, so an `Ok` survives a crash.
    pub fn add(&mut self, tc: &Testcase) -> Result<(), StoreError> {
        self.add_shipped(tc, false).map(drop)
    }

    /// [`TestcaseStore::add`] for a leader: with `ship`, it also hands
    /// back the encoded testcase payload — the very payload the journal
    /// took — so the replication tier sends what was journaled without
    /// rendering the testcase a second time.
    pub fn add_shipped(
        &mut self,
        tc: &Testcase,
        ship: bool,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        // The one place the server renders a testcase.
        self.put(tc.id.as_str(), &tcformat::emit(tc), ship)
    }

    /// Finds by id, decoded now.
    pub fn get(&self, id: &str) -> Option<Testcase> {
        self.find(id).map(decode)
    }

    /// All testcases in insertion order, decoded now.
    pub fn testcases(&self) -> Vec<Testcase> {
        self.entries().map(|(_, block)| decode(block)).collect()
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
/// The store holds no record text: its records are the canonical
/// `RESULT`…`END` blocks its journal holds, in upload order, and in
/// memory it keeps their count, each client's horizon and the journal.
/// An open checks each journaled batch's header and block structure and
/// counts; every reader ([`ResultStore::records`], a reshard's export)
/// streams the checkpoint an older build may have left and then
/// each live segment, one journal file in memory at a time, checks each
/// payload the way the open did, and yields no more than
/// [`ResultStore::len`] blocks. A record is decoded when somebody reads
/// it, and a field-level defect is that reader's to report.
///
/// Beyond the records it tracks, per client, the highest *batch
/// sequence number* applied ([`ResultStore::append_batch`]), which is
/// what makes `UPLOAD` idempotent: a batch retransmitted because its
/// `ACK` was lost is recognized and re-acknowledged without storing a
/// second copy. The sequence horizon rides in the same WAL entry as the
/// records (one atomic [`WalEntry::Batch`]), so dedup survives a crash.
///
/// Each mutator notes the entries it journaled ([`ResultStore::appended`]),
/// which is what the server folds into the comfort model.
#[derive(Debug)]
pub struct ResultStore {
    tally: Tally,
    /// The `CLIENT` of every held record, from the first
    /// [`ResultStore::held_of`] on — never built at open.
    holders: Option<HashSet<String>>,
    /// The entries the last mutation journaled, in order.
    appended: Vec<Appended>,
    journal: Journal,
}

/// One journal entry a mutation appended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Appended {
    /// Its payload's length.
    pub(crate) bytes: u64,
    /// How many of the mutation's blocks it holds, after those of the
    /// entries before it.
    pub(crate) blocks: usize,
}

/// What a [`ResultStore`] keeps of its records beside its journal.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// How many blocks the store holds.
    count: usize,
    /// Per-client highest applied batch sequence number.
    applied: BTreeMap<String, u64>,
    /// The comfort model an open of a store set's shard rebuilds from
    /// its cache and the entries past it ([`Journaled::open_cached`]).
    model: Option<ModelStore>,
}

impl Tally {
    fn raise_horizon(&mut self, client: &str, seq: u64) {
        match self.applied.get_mut(client) {
            Some(horizon) => *horizon = (*horizon).max(seq),
            None => {
                self.applied.insert(client.to_string(), seq);
            }
        }
    }
}

impl Journaled for ResultStore {
    const FLAVOR: &'static str = "results";
    type State = Tally;

    fn attach(tally: Tally, journal: Journal) -> Self {
        ResultStore {
            tally,
            holders: None,
            appended: Vec::new(),
            journal,
        }
    }

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// A checkpoint an older build wrote: `SEQ <client> <n>` header
    /// lines (the idempotency horizon) followed by the record blocks.
    /// One from before sequence tracking has no `SEQ` lines and restores
    /// an empty horizon map. A model the open rebuilds folds each block
    /// as an entry of its own, unless its cache covers the checkpoint —
    /// and folds everything afresh if the cache predates it.
    fn restore(tally: &mut Tally, upto: Lsn, snapshot: &str) -> io::Result<()> {
        let (horizons, body) = split_checkpoint(snapshot)?;
        for (client, seq) in horizons {
            tally.applied.insert(client.to_string(), seq);
        }
        tally.count += RunRecord::count_blocks(body).map_err(invalid)?;
        if let Some(model) = tally.model.as_mut().filter(|m| m.covers < upto) {
            model.clear();
            for block in Blocks::new(body) {
                let block = block.map_err(invalid)?;
                model.fold_text(upto - 1, block.len() as u64, block);
            }
        }
        Ok(())
    }

    /// Header-only: the payload is [`checked`], its blocks counted and
    /// its horizon raised — and, past the model's cache, folded.
    fn replay(tally: &mut Tally, lsn: Lsn, payload: &[u8]) -> io::Result<()> {
        let blocks = checked(payload)?;
        tally.count += blocks.count;
        if let Some((client, seq)) = blocks.batch {
            tally.raise_horizon(client, seq);
        }
        if let Some(model) = tally.model.as_mut().filter(|m| lsn >= m.covers) {
            model.fold_text(lsn, payload.len() as u64, blocks.body);
        }
        Ok(())
    }

    /// Opens the shard and rebuilds its comfort model: the cache, then
    /// the entries past it, after which the model covers the whole
    /// journal. A cache that names an LSN past the journal's end holds
    /// entries a power loss took, so it is deleted and the shard opened
    /// again, folding every entry. If this open left the cache behind
    /// ([`ModelStore::behind`]), a daemon's catch-up writes it again.
    fn open_cached(
        io: StoreIo,
        dir: &Path,
        config: WalConfig,
        cache: Option<CacheFile>,
    ) -> io::Result<(Self, Recovery)> {
        let Some(cache) = cache else {
            return Self::open(io, dir, config);
        };
        let model = ModelStore::open(cache.clone())?;
        let tally = Tally { model: Some(model), ..Tally::default() };
        let (mut store, recovery) = Self::open_onto(io.clone(), dir, config, tally)?;
        let end = store.journal.next_lsn();
        let model = store.tally.model.as_mut().expect("opened folding");
        if model.covers > end {
            cache.remove()?;
            return Self::open_cached(io, dir, config, Some(cache));
        }
        model.covers = end;
        Ok((store, recovery))
    }

    /// Every horizon as an empty `B` payload, then every held block, in
    /// upload order, as an `R` payload — each keyed by the client it
    /// names. A store admitting them in that order holds what a replay
    /// of the same entries would give it.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        for (client, &seq) in &self.tally.applied {
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
        self.appended.clear();
        let blocks = checked(payload)?;
        match blocks.batch {
            Some((client, seq)) if seq != 0 => {
                if self.applied_seq(client) >= seq {
                    return Ok(false);
                }
                self.log(payload, blocks.count)?;
                self.tally.raise_horizon(client, seq);
            }
            Some(_) => self.journal_singly(blocks.body)?,
            None => self.log(payload, blocks.count)?,
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

/// Splits a results checkpoint an older build wrote into its
/// `SEQ <client> <n>` lines and the record blocks after them.
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

/// A store's record text, a journal file at a time: the checkpoint body
/// and then each segment's blocks, stopping at [`ResultStore::len`]
/// blocks.
struct Chunks<'a> {
    store: &'a ResultStore,
    /// The next journal file to read.
    file: usize,
    /// Blocks not yet handed out.
    left: usize,
    done: bool,
}

impl Iterator for Chunks<'_> {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<Self::Item> {
        let store = self.store;
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
                        return Some(Ok(gather.text));
                    }
                }
                Ok(false) => {
                    self.done = true;
                    let found = store.tally.count - self.left;
                    let why = format!("the journal holds {found} of {} records", store.tally.count);
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

/// The records of [`Chunks`], each decoded as it is reached.
struct Records<'a> {
    chunks: Chunks<'a>,
    text: String,
    /// Where in `text` the next block starts.
    at: usize,
    /// The store ordinal of the next block.
    n: usize,
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
            return Some(decode_block(self.n - 1, block));
        }
    }
}

/// [`ResultStore::new`]: journaled in memory.
impl Default for ResultStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultStore {
    /// An empty store journaling to an in-memory disk of its own.
    pub fn new() -> Self {
        Self::in_memory()
    }

    /// Opens (creating if necessary) the store journaled under `dir`:
    /// replays the journal and journals every subsequent upload before
    /// applying it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// Raises `client`'s applied horizon to at least `seq`.
    /// Holds the `count` blocks of `body`, just journaled.
    fn hold(&mut self, body: &str, count: usize) {
        self.tally.count += count;
        if let Some(holders) = &mut self.holders {
            for block in Blocks::new(body).flatten() {
                let client = RunRecord::block_client(block);
                if !holders.contains(client) {
                    holders.insert(client.to_string());
                }
            }
        }
    }

    /// Appends uploaded records, returning how many were accepted. Every
    /// record is journaled first — under `SyncPolicy::Always` an `Ok(n)`
    /// means all `n` survive a crash.
    /// On a journal error nothing is applied in memory and the upload
    /// must not be acknowledged.
    pub fn append(&mut self, records: &[RunRecord]) -> Result<usize, StoreError> {
        self.appended.clear();
        let body = render(records)?;
        self.journal_singly(&body)?;
        self.hold(&body, records.len());
        Ok(records.len())
    }

    /// Journals each block of checked `body` as its own entry.
    fn journal_singly(&mut self, body: &str) -> io::Result<()> {
        for block in Blocks::new(body) {
            let entry = BorrowedBlocks {
                batch: None,
                body: block.map_err(invalid)?,
                count: 1,
            };
            self.log(&entry.encode(), 1)?;
        }
        Ok(())
    }

    /// Journals one entry holding `blocks` blocks and notes it.
    fn log(&mut self, payload: &[u8], blocks: usize) -> io::Result<()> {
        self.journal.append(payload)?;
        let bytes = payload.len() as u64;
        self.appended.push(Appended { bytes, blocks });
        Ok(())
    }

    /// The entries the last mutation ([`ResultStore::append_batch`] and
    /// the rest) journaled, in order: none for a replayed batch or a
    /// payload the store already held.
    pub(crate) fn appended(&self) -> &[Appended] {
        &self.appended
    }

    /// The comfort model the open rebuilt, handed to its model shard.
    pub(crate) fn take_model(&mut self) -> Option<ModelStore> {
        self.tally.model.take()
    }

    /// Appends an upload batch idempotently. `seq` is the client's batch
    /// sequence number: if it is at or below the client's applied
    /// horizon the batch is a retransmit — nothing is stored and
    /// [`BatchStatus::Replayed`] tells the caller to re-acknowledge.
    /// `seq == 0` is the legacy non-idempotent path (always applied).
    ///
    /// The records are rendered once, into the body of the journal
    /// entry. A new batch is journaled as a single atomic
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
        self.appended.clear();
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
            let payload = entry.encode();
            self.log(&payload, records.len())?;
            self.tally.raise_horizon(client, seq);
            ship.then_some(payload)
        };
        self.hold(&body, records.len());
        Ok((BatchStatus::Applied(records.len()), payload))
    }

    /// The highest batch sequence number applied for `client` (0 if the
    /// client never uploaded with sequence numbers).
    pub fn applied_seq(&self, client: &str) -> u64 {
        self.tally.applied.get(client).copied().unwrap_or(0)
    }

    /// The per-client applied-sequence horizons.
    pub fn applied_horizons(&self) -> &BTreeMap<String, u64> {
        &self.tally.applied
    }

    /// See [`TestcaseStore::wal_next_lsn`].
    pub fn wal_next_lsn(&self) -> Lsn {
        self.journal.next_lsn()
    }

    /// The record text, a journal file at a time.
    fn chunks(&self) -> Chunks<'_> {
        Chunks {
            store: self,
            file: 0,
            left: self.tally.count,
            done: false,
        }
    }

    /// Every record in upload order, decoded as it is reached. A block
    /// whose fields do not parse (only a writer bug gets one past the
    /// CRC) yields `record N: line L: …` — `N` its 0-based ordinal in
    /// this store, `L` the line within the block — and the iteration
    /// goes on with the next block. A journal that cannot be read back
    /// yields its error and ends the iteration.
    pub fn records(&self) -> impl Iterator<Item = io::Result<RunRecord>> + '_ {
        Records {
            chunks: self.chunks(),
            text: String::new(),
            at: 0,
            n: 0,
        }
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
        self.appended.clear();
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
        self.tally.count
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tally.count == 0
    }
}

/// The registry's blocks: a `CLIENT <id> [token]` line and a
/// [`MachineSnapshot`] block, keyed by id. A repeated id is held beside
/// the first, whose lookups win, as a scan from the front would find.
/// Indexes `token → id` and `id → token` for every block that carries a
/// token, the first of each kind winning, so a re-registration
/// presenting a known token gets the same id back, across restarts too.
#[derive(Debug, Default)]
pub struct Clients {
    ids: HashMap<String, String>,
    tokens: HashMap<String, String>,
}

impl BlockPolicy for Clients {
    const FLAVOR: &'static str = "registry";
    const TAG: u8 = TAG_CLIENT;
    const REPEATS: bool = true;

    /// A block starts at each `CLIENT ` line.
    fn split(checkpoint: &str) -> impl Iterator<Item = &str> {
        let mut rest = checkpoint;
        std::iter::from_fn(move || {
            let end = rest.find("\nCLIENT ").map_or(rest.len(), |at| at + 1);
            let (block, tail) = rest.split_at(end);
            rest = tail;
            (!block.is_empty()).then_some(block)
        })
    }

    fn key(block: &str) -> Result<&str, String> {
        client_header(block).map(|(id, _, _)| id)
    }

    /// The header, and a snapshot block that parses.
    fn check(block: &str) -> Result<(String, &str), String> {
        let (id, _, body) = client_header(block)?;
        MachineSnapshot::parse(body).map_err(|e| format!("bad client snapshot: {e}"))?;
        Ok((id.to_string(), through_end(block)))
    }

    fn held(&mut self, id: &str, block: &str) {
        let (_, token, _) = client_header(block).expect("a held block's header was checked");
        if !token.is_empty() {
            self.ids
                .entry(token.to_string())
                .or_insert_with(|| id.to_string());
            self.tokens
                .entry(id.to_string())
                .or_insert_with(|| token.to_string());
        }
    }
}

/// The server's client registry: each registration held as the text of
/// its `C` journal payload, in registration order, so a restarted
/// server still recognizes the clients it handed ids to — without it,
/// every server restart would orphan every client in the field. Ids and
/// tokens are indexed, so a lookup costs the same at any fleet size.
pub type RegistryStore = BlockLog<Clients>;

impl RegistryStore {
    /// Registers a machine under a caller-chosen id: renders the
    /// registration once, journals it and holds it,
    /// and with `ship` hands back the payload the journal took. Ids come
    /// from the server's global counter, and token dedup is the
    /// *caller's* job (it requires a cross-shard scan).
    pub fn register_with_id(
        &mut self,
        id: &str,
        snapshot: &MachineSnapshot,
        token: &str,
        ship: bool,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        // `CLIENT <id> <token>` is read back by whitespace: an id or
        // token that is not one word would come back cut short, or as
        // lines of its own inside the snapshot block.
        if !is_token(id) {
            return Err(StoreError::Invalid(format!(
                "client id {id:?} is not one token"
            )));
        }
        if !token.is_empty() && !is_token(token) {
            return Err(StoreError::Invalid(format!(
                "registration token {token:?} is not one token"
            )));
        }
        let mut block = format!("CLIENT {id}");
        if !token.is_empty() {
            block.push(' ');
            block.push_str(token);
        }
        block.push('\n');
        block.push_str(&snapshot.emit());
        self.put(id, &block, ship)
    }

    /// The id a registration token resolved to, if it registered before.
    pub fn id_for_token(&self, token: &str) -> Option<&str> {
        self.held.policy.ids.get(token).map(String::as_str)
    }

    /// The registration token a client id presented, if any.
    pub fn token_of(&self, id: &str) -> Option<&str> {
        self.held.policy.tokens.get(id).map(String::as_str)
    }

    /// The registered snapshot for an id, decoded now.
    pub fn get(&self, id: &str) -> Option<MachineSnapshot> {
        let (_, _, body) =
            client_header(self.find(id)?).expect("a held block's header was checked");
        Some(MachineSnapshot::parse(body).expect("a held snapshot parses: it was checked on entry"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::Disk;
    use uucs_harness::TempDir;
    use uucs_protocol::walenc::testcase_payload;
    use uucs_protocol::{MonitorSummary, RunOutcome, WalEntry};
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
    fn duplicate_testcase_rejected() {
        let mut s = TestcaseStore::new();
        s.add(&tc("x")).unwrap();
        let err = s.add(&tc("x")).unwrap_err();
        assert!(matches!(&err, StoreError::Duplicate(id) if id == "x"));
        assert!(err.to_string().contains("duplicate testcase id x"));
        assert_eq!(s.len(), 1, "the duplicate was not applied");
        assert!(TestcaseStore::from_testcases(vec![tc("y"), tc("y")]).is_err());
    }

    /// A checked testcase is held through its `END` line and
    /// newline-terminated, whatever its payload carried past that, so the
    /// held text still splits back into the testcases held.
    #[test]
    fn held_testcases_end_at_their_end_line() {
        let (a, b) = (tcformat::emit(&tc("a")), tcformat::emit(&tc("b")));
        let mut store = TestcaseStore::new();
        assert!(store.admit(&testcase_payload(&format!("{a}\n# trailing\n"))).unwrap());
        assert!(store.admit(&testcase_payload(b.trim_end())).unwrap());
        assert_eq!(store.text(), format!("{a}{b}"));
        let mut restored = TestcaseStore::new();
        TestcaseStore::restore(&mut restored.held, 0, store.text()).unwrap();
        assert_eq!(restored.testcases(), [tc("a"), tc("b")]);
    }

    /// The checkpoint text an older build wrote of a result store:
    /// `SEQ <client> <n>` lines, then every held block.
    pub(crate) fn results_checkpoint(store: &ResultStore) -> io::Result<String> {
        let mut out: String = (store.tally.applied.iter())
            .map(|(client, seq)| format!("SEQ {client} {seq}\n"))
            .collect();
        for chunk in store.chunks() {
            out.push_str(&chunk?);
        }
        Ok(out)
    }

    /// Writes `state` over the closed journal under `dir` as an older
    /// build's compaction did: a checkpoint superseding everything
    /// journaled ([`uucs_wal::Wal::snapshot`]), then the segments it
    /// covers deleted.
    pub(crate) fn write_old_checkpoint(
        io: StoreIo,
        dir: &Path,
        cfg: WalConfig,
        state: &str,
    ) -> io::Result<()> {
        let (mut wal, _) = uucs_wal::Wal::open(io, dir, cfg)?;
        wal.snapshot(state.as_bytes())?;
        wal.compact()?;
        Ok(())
    }

    /// What the journal-core table needs from a flavor beyond
    /// [`Journaled`]: a couple of mutations, distinct per round, a probe
    /// of what a *recovered* store must still do with them, and the
    /// state as the checkpoint text an older build wrote of it.
    trait Fill: Journaled {
        fn fill(&mut self, round: u64);
        fn probe(&mut self);
        fn state(&self) -> String;
    }

    impl Fill for TestcaseStore {
        fn fill(&mut self, round: u64) {
            self.add(&tc(&format!("t{round}-a"))).unwrap();
            self.add(&tc(&format!("t{round}-b"))).unwrap();
        }

        fn state(&self) -> String {
            self.text().to_string()
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

        fn state(&self) -> String {
            results_checkpoint(self).unwrap()
        }
    }

    impl Fill for RegistryStore {
        fn fill(&mut self, round: u64) {
            let (host, legacy) = (
                MachineSnapshot::study_machine("h"),
                MachineSnapshot::study_machine(format!("legacy-{round}")),
            );
            self.register_with_id(
                &format!("client-{round}a"),
                &host,
                &format!("tok-{round}"),
                false,
            )
            .unwrap();
            self.register_with_id(&format!("client-{round}b"), &legacy, "", false)
                .unwrap();
        }

        /// Both indexes survived: every id in registration order, its
        /// snapshot, and the token dedup the server consults.
        fn probe(&mut self) {
            let held: Vec<&str> = self.entries().map(|(id, _)| id).collect();
            assert_eq!(held, ["client-0a", "client-0b", "client-1a", "client-1b"]);
            assert_eq!(self.get("client-1b").unwrap().hostname, "legacy-1");
            assert_eq!(
                self.id_for_token("tok-0"),
                Some("client-0a"),
                "token dedup lost in recovery"
            );
            assert_eq!(
                (self.token_of("client-1a"), self.token_of("client-1b")),
                (Some("tok-1"), None)
            );
        }

        fn state(&self) -> String {
            self.text().to_string()
        }
    }

    const TABLE_CFG: WalConfig = WalConfig {
        segment_bytes: 512,
        sync: SyncPolicy::Always,
    };

    /// One flavor of the journal-core table, type-erased: the state is
    /// compared as its checkpoint text ([`Fill::state`]).
    struct Row {
        flavor: &'static str,
        /// The kind of the first entry this flavor journals.
        first_entry: &'static str,
        /// Writes a journal under the directory — fill, optionally close
        /// it and checkpoint it as an older build did, fill again — and
        /// returns the state it held.
        write: fn(&Path, bool) -> String,
        /// Opens the directory as this flavor and probes what came back.
        open: fn(&Path) -> io::Result<String>,
    }

    fn row<S: Fill>(first_entry: &'static str) -> Row {
        Row {
            flavor: S::FLAVOR,
            first_entry,
            write: |dir, checkpoint| {
                let (mut store, recovery) = S::open(plain_io(), dir, TABLE_CFG).unwrap();
                assert_eq!(recovery.records, 0);
                store.fill(0);
                if checkpoint {
                    let state = store.state();
                    drop(store);
                    write_old_checkpoint(plain_io(), dir, TABLE_CFG, &state).unwrap();
                    store = S::open(plain_io(), dir, TABLE_CFG).unwrap().0;
                }
                store.fill(1);
                store.state()
            },
            open: |dir| {
                let (mut store, recovery) = S::open(plain_io(), dir, TABLE_CFG)?;
                assert!(recovery.snapshot.is_none(), "open folds the snapshot");
                let state = store.state();
                store.probe();
                Ok(state)
            },
        }
    }

    fn table() -> [Row; 3] {
        [
            row::<TestcaseStore>("testcase"),
            row::<ResultStore>("batch"),
            row::<RegistryStore>("client"),
        ]
    }

    /// Each flavor reopens to what it held, from its journal alone and
    /// from a checkpoint an older build wrote plus the tail past it.
    #[test]
    fn every_flavor_reopens_equal_with_and_without_compaction() {
        for row in table() {
            for checkpoint in [false, true] {
                let dir = TempDir::new("uucs-journal-reopen");
                let written = (row.write)(dir.path(), checkpoint);
                let reopened = (row.open)(dir.path()).unwrap();
                assert_eq!(reopened, written, "{} (checkpoint: {checkpoint})", row.flavor);
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

    /// A store built in memory journals what it takes.
    #[test]
    fn in_memory_stores_journal() {
        fn check<S: Fill>() {
            let mut store = S::in_memory();
            store.fill(0);
            assert!(store.journal().next_lsn() > 0, "{}", S::FLAVOR);
            store.fill(1);
            store.probe();
        }
        check::<TestcaseStore>();
        check::<ResultStore>();
        check::<RegistryStore>();
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
    fn replayed<S: Journaled>(payload: &[u8]) -> io::Result<S> {
        replayed_after::<S>(&[], payload)
    }

    /// Opens a store on a journal of `before` and then `payload`,
    /// reporting a refusal of `payload` without its `record N: ` prefix.
    fn replayed_after<S: Journaled>(before: &[Vec<u8>], payload: &[u8]) -> io::Result<S> {
        let (io, dir) = (memory(), Path::new("/journal"));
        let cfg = WalConfig::default();
        let mut wal = uucs_wal::Wal::open(io.clone(), dir, cfg)?.0;
        for entry in before {
            wal.append(entry)?;
        }
        wal.append(payload)?;
        drop(wal);
        let prefix = format!("record {}: ", before.len());
        S::open(io, dir, cfg).map(|(store, _)| store).map_err(|e| {
            let msg = e.to_string();
            invalid(msg.strip_prefix(&prefix).unwrap_or(&msg))
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
        let store = match replayed::<ResultStore>(payload) {
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
            let mine = replayed::<ResultStore>(&payload)
                .expect_err(what)
                .to_string();
            assert_eq!(mine, WalEntry::decode(&payload).expect_err(what), "{what}");
        }
        let foreign = WalEntry::Testcase(tc("t")).encode();
        assert!(WalEntry::decode(&foreign).is_ok());
        let err = replayed::<ResultStore>(&foreign).unwrap_err().to_string();
        assert_eq!(err, "foreign testcase entry in a results journal");
        assert_eq!(
            replayed::<ResultStore>(b"Xjunk").unwrap_err().to_string(),
            "unknown wal entry tag 0x58"
        );
    }

    /// Lines damage can leave in a model delta: every field of an `OBS`
    /// line missing, malformed or surplus, a second header, `END`
    /// near-misses.
    /// Lines damage can leave in a testcase, the untrusted counts and
    /// rates among them, and values at the edges of `f64`'s grammar.
    const TESTCASE_STRAY: [&str; 15] = [
        "",
        "# comment",
        "END",
        "TESTCASE t2",
        "RATE 0",
        "RATE -1",
        "RATE nan",
        "FUNCTION cpu 1000000000000",
        "FUNCTION cpu 18446744073709551615",
        "FUNCTION disk 2",
        "FUNCTION gpu 1",
        "1e",
        ". 1.",
        "+inf -.5e-3 NaN",
        "0x1 1e+ infinit",
    ];

    /// Holds the testcase store's replay check of one payload to
    /// [`tcformat::parse`]: what it holds decodes to what parse gives,
    /// and what it refuses parse refuses, in the same words.
    fn assert_testcase_replays_like_parse(payload: &[u8], context: &str) {
        let text = std::str::from_utf8(&payload[1..]).unwrap();
        match (replayed::<TestcaseStore>(payload), tcformat::parse(text)) {
            (Ok(store), Ok(tc)) => {
                assert_eq!(store.len(), 1, "{context}");
                assert_eq!(store.get(tc.id.as_str()), Some(tc), "{context}");
            }
            (Err(mine), Err(theirs)) => {
                assert_eq!(mine.to_string(), format!("bad testcase payload: {theirs}"), "{context}")
            }
            (mine, theirs) => panic!("{context}: replay {:?}, parse {theirs:?}", mine.map(|s| s.len())),
        }
    }

    /// The testcase store's check walks the text parse walks, holding
    /// values to `f64`'s grammar without converting them — over
    /// `UUCS_PROPTEST_CASES` seeds of generated, damaged testcases.
    #[test]
    fn testcase_check_replays_like_parse() {
        use uucs_harness::prop::{any, run_property, Config};
        run_property(
            &Config::default(),
            "testcase_check_replays_like_parse",
            (any::<u64>(),),
            |&(seed,)| {
                let mut rng = uucs_stats::Pcg64::new(seed);
                let mut functions = Vec::new();
                for resource in [Resource::Cpu, Resource::Memory, Resource::Disk] {
                    if rng.bernoulli(0.5) {
                        let values = (0..rng.below(12)).map(|_| rng.uniform(0.0, 1.0)).collect();
                        functions.push(uucs_testcase::ExerciseFunction::from_values(resource, 2.0, values));
                    }
                }
                let tc = Testcase::new(format!("tc-{seed}"), 2.0, functions);
                let mut payload = WalEntry::Testcase(tc).encode();
                assert_testcase_replays_like_parse(&payload, &format!("seed {seed}, undamaged"));
                for round in 0..4 {
                    let text = std::str::from_utf8(&payload[1..]).unwrap();
                    let damaged = uucs_harness::textfuzz::mutate_lines(&mut rng, text, &TESTCASE_STRAY);
                    payload.truncate(1);
                    payload.extend_from_slice(damaged.as_bytes());
                    assert_testcase_replays_like_parse(&payload, &format!("seed {seed}, round {round}"));
                }
                Ok(())
            },
        );
        for text in [
            "TESTCASE t\nRATE 0\nEND\n",
            "TESTCASE t\nRATE nan\nFUNCTION cpu 1\n0\nEND\n",
            "TESTCASE t\nRATE 1\nFUNCTION cpu 1000000000000\n0\nEND\n",
            "TESTCASE t\nRATE 1\nFUNCTION cpu 1\n0\nFUNCTION cpu 1\n1\nEND\n",
        ] {
            let payload = testcase_payload(text);
            assert_testcase_replays_like_parse(&payload, text);
            assert!(replayed::<TestcaseStore>(&payload).is_err(), "{text}");
        }
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
            results_checkpoint(&store).unwrap()
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
        assert_eq!(snapshot, want, "the checkpoint text is the encoder's text");
        let (reopened, recovery) = ResultStore::open_wal(theirs.path(), cfg).unwrap();
        assert_eq!(recovery.records, 5);
        assert_eq!(reopened.len(), all.len());
        assert_eq!((reopened.applied_seq("c1"), reopened.applied_seq("c2")), (2, 5));
        assert_eq!(read(&reopened).unwrap(), all);
        assert_eq!(results_checkpoint(&reopened).unwrap(), want);
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
        let mut stores = crate::StoreSet::in_memory(1);
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

    /// The indexed registry holds what the scanning one emitted: rows in
    /// registration order, each `CLIENT <id> <token>` line carrying the
    /// first token the id presented — and so does its reopen, from its
    /// journal and from that text checkpointed by an older build.
    #[test]
    fn registry_snapshot_bytes_and_order_are_pinned() {
        let dir = TempDir::new("uucs-registry-pin");
        let cfg = WalConfig::default();
        let snap = MachineSnapshot::study_machine;
        let written = {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            g.register_with_id("client-0001", &snap("a"), "tok-a", false)
                .unwrap();
            g.register_with_id("client-0002", &snap("b"), "", false)
                .unwrap();
            g.register_with_id("client-0009", &snap("c"), "tok-c", false)
                .unwrap();
            // A known token resolves to its id, and nothing is registered.
            assert_eq!(g.id_for_token("tok-a"), Some("client-0001"));
            g.register_with_id("client-0004", &snap("d"), "tok-d", false)
                .unwrap();
            g.text().to_string()
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
        for checkpointed in [false, true] {
            let snaps = files(dir.path()).into_keys().filter(|f| f.ends_with(".snap")).count();
            assert_eq!(snaps, usize::from(checkpointed));
            let (g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            let ids: Vec<&str> = g.entries().map(|(id, _)| id).collect();
            assert_eq!(ids, order, "checkpointed: {checkpointed}");
            assert_eq!(g.text(), want, "checkpointed: {checkpointed}");
            assert_eq!(g.get("client-0009").unwrap().hostname, "c");
            assert_eq!((g.id_for_token("tok-c"), g.token_of("client-0002")), (Some("client-0009"), None));
            if !checkpointed {
                let text = g.text().to_string();
                drop(g);
                write_old_checkpoint(plain_io(), dir.path(), cfg, &text).unwrap();
            }
        }
        let (g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
        let pairs: Vec<(&str, &str)> = (g.entries())
            .filter_map(|(id, _)| Some((g.token_of(id)?, id)))
            .collect();
        assert_eq!(pairs, [("tok-a", "client-0001"), ("tok-c", "client-0009"), ("tok-d", "client-0004")]);
    }

    /// A registration as any writer could journal it: ids and tokens
    /// that collide, and snapshots of any host, count and app list.
    fn generated_client(rng: &mut uucs_stats::Pcg64) -> WalEntry {
        let word = |rng: &mut uucs_stats::Pcg64| {
            rng.choose(&["h", "optiplex-9", "caf\u{e9}", "Windows XP", "x"])
                .to_string()
        };
        WalEntry::Client {
            id: format!("client-{:04}", rng.below(50)),
            token: match rng.below(3) {
                0 => String::new(),
                _ => format!("tok-{}", rng.below(9)),
            },
            snapshot: MachineSnapshot {
                hostname: word(rng),
                cpu_mhz: rng.below(4000) as u32,
                mem_mb: rng.below(1 << 16) as u32,
                disk_gb: rng.below(500) as u32,
                os: word(rng),
                apps: (0..rng.below(3)).map(|_| word(rng)).collect(),
            },
        }
    }

    /// Lines damage can leave in a registration: markers, keys with a
    /// missing or malformed operand, and a second header.
    const CLIENT_STRAY: [&str; 11] = [
        "",
        "# comment",
        "SNAPSHOT",
        "END",
        "CLIENT",
        "CLIENT client-0002 tok-1",
        "HOST",
        "CPU fast",
        "MEM -1",
        "BOGUS x",
        "APPS",
    ];

    /// Holds the registry's check of one payload to [`WalEntry::decode`]
    /// of the same bytes: it accepts exactly what decode accepts, holds
    /// what decode read — also once its checkpoint is restored — and
    /// refuses in decode's words.
    fn assert_registers_like_decode(payload: &[u8], context: &str) {
        match (
            WalEntry::decode(payload),
            replayed::<RegistryStore>(payload),
        ) {
            (
                Ok(WalEntry::Client {
                    id,
                    token,
                    snapshot,
                }),
                Ok(store),
            ) => {
                let mut restored = RegistryStore::new();
                RegistryStore::restore(&mut restored.held, 0, store.text()).expect(context);
                for g in [&store, &restored] {
                    assert_eq!(g.len(), 1, "{context}");
                    assert_eq!(g.get(&id).as_ref(), Some(&snapshot), "{context}");
                    let token = (!token.is_empty()).then_some(token.as_str());
                    assert_eq!(g.token_of(&id), token, "{context}");
                    assert_eq!(
                        token.and_then(|t| g.id_for_token(t)),
                        token.map(|_| id.as_str()),
                        "{context}"
                    );
                }
                assert_eq!(restored.text(), store.text(), "{context}");
            }
            (Err(theirs), Err(mine)) => assert_eq!(mine.to_string(), theirs, "{context}"),
            (theirs, mine) => panic!("{context}: decode {theirs:?}, registry {mine:?}"),
        }
    }

    #[test]
    fn registry_header_only_check_equals_full_decode() {
        for seed in 0..400u64 {
            let mut rng = uucs_stats::Pcg64::new(seed);
            let mut payload = generated_client(&mut rng).encode();
            assert_registers_like_decode(&payload, &format!("seed {seed}, undamaged"));
            for round in 0..4 {
                let text = std::str::from_utf8(&payload[1..]).unwrap();
                let damaged = uucs_harness::textfuzz::mutate_lines(&mut rng, text, &CLIENT_STRAY);
                payload.truncate(1);
                payload.extend_from_slice(damaged.as_bytes());
                assert_registers_like_decode(&payload, &format!("seed {seed}, round {round}"));
            }
        }
        let good = MachineSnapshot::study_machine("h").emit();
        let damaged: [(&str, Vec<u8>); 9] = [
            ("empty payload", vec![]),
            ("non-utf-8", vec![TAG_CLIENT, 0xFF, 0xFE]),
            ("truncated header", b"CCLIENT client-0001".to_vec()),
            ("bad header", format!("CCLIENTS c1\n{good}").into_bytes()),
            ("missing id", format!("CCLIENT \n{good}").into_bytes()),
            (
                "bad snapshot key",
                format!("CCLIENT c1\n{}", good.replace("OS ", "OZ ")).into_bytes(),
            ),
            (
                "bad integer",
                format!("CCLIENT c1\n{}", good.replace("CPU ", "CPU x")).into_bytes(),
            ),
            (
                "no END",
                format!("CCLIENT c1 tok\n{}", good.replace("END\n", "")).into_bytes(),
            ),
            (
                "trailing lines",
                format!("CCLIENT c1 tok\n{good}CLIENT c2\n# after END").into_bytes(),
            ),
        ];
        for (what, payload) in &damaged {
            assert_registers_like_decode(payload, what);
        }
        let refused = damaged
            .iter()
            .filter(|(_, p)| WalEntry::decode(p).is_err())
            .count();
        assert_eq!(
            refused, 8,
            "every damaged payload but the trailing lines is refused"
        );
        let err = replayed::<RegistryStore>(&WalEntry::Testcase(tc("t")).encode()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "foreign testcase entry in a registry journal"
        );
        let err = replayed::<RegistryStore>(b"Xjunk").unwrap_err().to_string();
        assert_eq!(err, "unknown wal entry tag 0x58");
    }

    /// Where the held text differs from what re-rendering each
    /// registration gave: a repeated id keeps the token its own
    /// registration carried (the first still wins every lookup), and a
    /// block is held through its `END` line, newline-terminated,
    /// whatever its payload carried past that — so a checkpoint of it
    /// reopens to the same registry. No server path writes either.
    #[test]
    fn held_registrations_keep_their_own_text() {
        let dir = TempDir::new("uucs-registry-held");
        let cfg = WalConfig::default();
        let snap = MachineSnapshot::study_machine;
        let (a, b) = (snap("a").emit(), snap("b").emit());
        let blocks = [
            ("c-1", format!("CLIENT c-1\n{a}")),
            ("c-1", format!("CLIENT c-1 tok\n{b}")),
            ("c-1", format!("CLIENT c-1 tok-x\n{b}")),
            ("c-2", format!("CLIENT c-2 tok-2\n{a}")),
        ];
        let check = |g: &RegistryStore, when: &str| {
            assert_eq!(
                g.text(),
                blocks.iter().map(|(_, b)| b.as_str()).collect::<String>(),
                "{when}"
            );
            assert_eq!(
                (g.len(), g.get("c-1").unwrap().hostname.as_str()),
                (4, "a"),
                "{when}"
            );
            let tokens = ["tok", "tok-x"].map(|t| g.id_for_token(t));
            assert_eq!((g.token_of("c-1"), tokens), (Some("tok"), [Some("c-1"); 2]), "{when}");
            assert!(!g.contains("c-3"), "{when}");
            let want: Vec<(String, Vec<u8>)> = blocks
                .iter()
                .map(|(id, b)| (id.to_string(), format!("C{b}").into_bytes()))
                .collect();
            assert_eq!(exported(g), want, "{when}");
        };
        {
            let (mut g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
            g.register_with_id("c-1", &snap("a"), "", false).unwrap();
            g.register_with_id("c-1", &snap("b"), "tok", false).unwrap();
            g.register_with_id("c-1", &snap("b"), "tok-x", false).unwrap();
            let trailing = format!(
                "CCLIENT c-2 tok-2\n{}\n# after END\nCLIENT c-3\n",
                a.trim_end()
            );
            assert!(g.admit(trailing.as_bytes()).unwrap());
            assert!(!g
                .admit(format!("CCLIENT c-1 other\n{b}").as_bytes())
                .unwrap());
            let err = g
                .register_with_id("c 3", &snap("c"), "", false)
                .unwrap_err();
            assert_eq!(err.to_string(), "client id \"c 3\" is not one token");
            check(&g, "live");
        }
        let (g, _) = RegistryStore::open_wal(dir.path(), cfg).unwrap();
        check(&g, "replayed");
        let text = g.text().to_string();
        drop(g);
        write_old_checkpoint(plain_io(), dir.path(), cfg, &text).unwrap();
        check(
            &RegistryStore::open_wal(dir.path(), cfg).unwrap().0,
            "restored",
        );
    }

    /// What a result store must read like, kept by the test: every
    /// record in upload order and each client's horizon.
    #[derive(Debug, Default)]
    struct Reference {
        records: Vec<RunRecord>,
        horizons: BTreeMap<String, u64>,
    }

    impl Reference {
        fn applied_seq(&self, client: &str) -> u64 {
            self.horizons.get(client).copied().unwrap_or(0)
        }

        /// Every reader of a store holding this, as [`reading`] reports
        /// them: the record text is the canonical rendering.
        fn reading(&self) -> String {
            let text = RunRecord::emit_many(&self.records);
            let seq: String = (self.horizons.iter())
                .map(|(client, seq)| format!("SEQ {client} {seq}\n"))
                .collect();
            let (n, horizons, records) = (self.records.len(), &self.horizons, &self.records);
            format!("len {n}\nhorizons {horizons:?}\nrecords {records:?}\nsnapshot {seq}{text}")
        }

        /// What a reshard through `k` shards and back to one leaves:
        /// every record regrouped by its `k`-shard, upload order kept
        /// within a shard, and the horizons as they were.
        fn reshard(&mut self, k: usize) {
            self.records.sort_by_key(|r| crate::shard::shard_of(&r.client, k));
        }
    }

    /// A mutation the property applies to the store and the reference;
    /// kept so a store that failed it can be reconciled after its reopen.
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

        /// Applies the upload to the reference, returning what the store
        /// must acknowledge: a sequenced batch at or below its client's
        /// horizon is re-acknowledged and stores nothing.
        fn expect(&self, reference: &mut Reference) -> usize {
            let records = match self {
                Upload::Batch(client, seq, records) if *seq != 0 => {
                    if reference.applied_seq(client) < *seq {
                        reference.horizons.insert(client.clone(), *seq);
                        reference.records.extend_from_slice(records);
                    }
                    return records.len();
                }
                Upload::Batch(_, _, records) | Upload::Append(records) => records,
            };
            reference.records.extend_from_slice(records);
            records.len()
        }

        /// Applies to the reference what of this upload a store that
        /// failed it and then reopened as `store` turned out to hold;
        /// `true` when that was anything.
        fn reconcile(&self, reference: &mut Reference, store: &ResultStore) -> Result<bool, String> {
            let held = (store.len().checked_sub(reference.records.len())).ok_or("records lost")?;
            match self {
                Upload::Batch(client, seq, _) if *seq > 0 => {
                    let kept = store.applied_seq(client) != reference.applied_seq(client);
                    if kept {
                        self.expect(reference);
                    }
                    Ok(kept)
                }
                Upload::Batch(_, _, records) | Upload::Append(records) => {
                    let part = records.get(..held).ok_or("more records than uploaded")?;
                    reference.records.extend_from_slice(part);
                    Ok(held > 0)
                }
            }
        }
    }

    /// What every reader of a store yields, `Err` naming the failing one.
    fn reading(store: &ResultStore) -> Result<String, String> {
        let all: io::Result<Vec<_>> = store.records().collect();
        Ok(format!(
            "len {}\nhorizons {:?}\nrecords {:?}\nsnapshot {}",
            store.len(),
            store.applied_horizons(),
            all.map_err(|e| format!("records: {e}"))?,
            results_checkpoint(store).map_err(|e| format!("snapshot: {e}"))?,
        ))
    }

    fn same(reference: &Reference, store: &ResultStore, after: &str) -> Result<(), String> {
        let (want, got) = (reference.reading(), reading(store)?);
        if want != got {
            return Err(format!("after {after}:\nreference {want}\nstore     {got}"));
        }
        Ok(())
    }

    /// The paths a [`reader_contract`] case can take that the property
    /// as a whole must have reached.
    const CONTRACT_PATHS: [&str; 6] = [
        "a checkpoint an older build wrote",
        "a retransmit",
        "a torn tail under a live store",
        "a reshard",
        "a failed upload the reopen kept",
        "a failed upload the reopen lost",
    ];

    /// One case of the reader contract: a random run of uploads,
    /// retransmits, checkpoints as an older build wrote them, reopens,
    /// reshards, torn tails and one
    /// planned fault against a store on an in-memory disk and the
    /// [`Reference`]. Every reader of the store must read like the
    /// reference after every step — including a live store whose journal
    /// holds a failed append's bytes past `len()` — and after each
    /// reopen once the failed upload is reconciled with what the journal
    /// kept.
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
        let (mut reference, mut store) = (Reference::default(), open(&mem)?);
        let clients = ["client-0001", "client-0002", "client-0003"];
        for step in 0..24 {
            let at = format!("step {step}");
            let mut failed = None;
            match rng.below(13) {
                0..=6 => {
                    let client = *rng.choose(&clients);
                    let horizon = reference.applied_seq(client);
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
                    match upload.apply(&mut store) {
                        Ok(n) => {
                            seen[1] |= matches!(upload, Upload::Batch(_, seq, _) if seq > 0 && seq <= horizon);
                            let want = upload.expect(&mut reference);
                            if n != want {
                                return Err(format!("{at}: {upload:?} acked {n}, reference {want}"));
                            }
                        }
                        Err(StoreError::Io(_)) if mem.is_dead() => failed = Some(Some(upload)),
                        Err(e) => return Err(format!("{at}: {upload:?}: {e}")),
                    }
                }
                7 => {
                    // The store closed, an older build's checkpoint of it
                    // written, and the reopen that reads it; a fault inside
                    // the checkpoint is a power loss, then the same reopen.
                    let state = results_checkpoint(&store).map_err(|e| format!("{at}: {e}"))?;
                    drop(store);
                    match write_old_checkpoint(io(&mem), dir, cfg, &state) {
                        Ok(()) => seen[0] = true,
                        Err(_) if mem.is_dead() => mem.crash(rng.f64()),
                        Err(e) => return Err(format!("{at}: checkpoint: {e}")),
                    }
                    store = open(&mem)?;
                }
                8 => store = open(&mem)?,
                9 => {
                    // A torn append under the live store, then the reopen that heals it.
                    let active = mem.list(dir).map_err(|e| e.to_string())?.into_iter().filter(|n| n.ends_with(".wal")).max();
                    let frame = uucs_wal::frame::encode_frame(b"BBATCH client-0001 99 0\n");
                    let torn = &frame[..1 + rng.below(frame.len() as u64 - 1) as usize];
                    if mem.append(&dir.join(active.ok_or("no segment")?), torn).is_err() {
                        failed = Some(None);
                    } else {
                        same(&reference, &store, &format!("{at} (torn tail, live)"))?;
                        seen[2] = true;
                        store = open(&mem)?;
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
                    drop(store);
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
                    store = open(&mem)?;
                    reference.reshard(k);
                    seen[3] = true;
                }
                _ => {}
            }
            if let Some(upload) = failed {
                // The planned fault fired: the live store is what it was
                // before, whatever the failed operation left on disk.
                mem.crash(rng.f64());
                same(&reference, &store, &format!("{at} (fault, live)"))?;
                store = open(&mem)?;
                if let Some(upload) = upload {
                    let kept = upload.reconcile(&mut reference, &store).map_err(|e| format!("{at}: {e}"))?;
                    seen[if kept { 4 } else { 5 }] = true;
                }
            }
            same(&reference, &store, &at)?;
        }
        Ok(seen)
    }

    /// [`reader_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`CONTRACT_PATHS`].
    #[test]
    fn result_store_reads_like_its_reference() {
        let mut seen = [false; CONTRACT_PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "result_store_reads_like_its_reference",
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
            "len {}\ntestcases {:?}\nget {:?}\ncontains {:?}\nblocks {:?}\nentries {:?}\ntext {}",
            text.len(),
            text.testcases(),
            probe.map(|id| text.get(id)),
            probe.map(|id| text.contains(id)),
            text_blocks,
            text_entries,
            text.text(),
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
            "len {}\ntestcases {:?}\nget {:?}\ncontains {:?}\nblocks {:?}\nentries {:?}\ntext {}",
            structs.0.len(),
            structs.0,
            probe.map(|id| find(id).cloned()),
            probe.map(|id| find(id).is_some()),
            emitted,
            struct_entries,
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
        "a checkpoint an older build wrote",
        "a duplicate",
        "a torn tail under a live store",
        "a reshard",
        "a failed addition the reopen kept",
        "a failed addition the reopen lost",
    ];

    /// One case of the testcase-store contract: a random run of
    /// additions (colliding ids among them), checkpoints as an older
    /// build wrote them, reopens, torn
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
                6 => {
                    // The store closed, an older build's checkpoint of it
                    // written, and the reopen that reads it; a fault inside
                    // the checkpoint is a power loss, then the same reopen.
                    let state = text.text().to_string();
                    drop(text);
                    match write_old_checkpoint(Disk::Memory(mem.clone()), dir, cfg, &state) {
                        Ok(()) => seen[0] = true,
                        Err(_) if mem.is_dead() => mem.crash(rng.f64()),
                        Err(e) => return Err(format!("{at}: checkpoint: {e}")),
                    }
                    text = open(&mem)?;
                }
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

    /// The registry as it was before it held text: `(id, snapshot)`
    /// rows in registration order, the first row of an id and the first
    /// token of a kind winning every lookup, and each row rendered again
    /// on snapshot and export, with its id's first token. What the text
    /// registry must read like.
    #[derive(Debug, Default)]
    struct StructRegistry {
        clients: Vec<(String, MachineSnapshot)>,
        /// `token → id`.
        ids: HashMap<String, String>,
        /// `id → token`.
        tokens: HashMap<String, String>,
    }

    impl StructRegistry {
        fn insert(&mut self, id: &str, snapshot: MachineSnapshot, token: &str) {
            if !token.is_empty() {
                self.ids
                    .entry(token.to_string())
                    .or_insert_with(|| id.to_string());
                self.tokens
                    .entry(id.to_string())
                    .or_insert_with(|| token.to_string());
            }
            self.clients.push((id.to_string(), snapshot));
        }

        fn get(&self, id: &str) -> Option<&MachineSnapshot> {
            self.clients
                .iter()
                .find(|(held, _)| held == id)
                .map(|(_, snapshot)| snapshot)
        }

        fn admit(&mut self, payload: &[u8]) -> bool {
            let Ok(WalEntry::Client {
                id,
                token,
                snapshot,
            }) = WalEntry::decode(payload)
            else {
                panic!("not a registration: {payload:?}");
            };
            let fresh = self.get(&id).is_none();
            if fresh {
                self.insert(&id, snapshot, &token);
            }
            fresh
        }

        fn export(&self) -> Vec<(String, Vec<u8>)> {
            (self.clients.iter())
                .map(|(id, snapshot)| {
                    let token = self.tokens.get(id).cloned().unwrap_or_default();
                    let entry = WalEntry::Client {
                        id: id.clone(),
                        token,
                        snapshot: snapshot.clone(),
                    };
                    (id.clone(), entry.encode())
                })
                .collect()
        }
    }

    /// Every reader of a text registry, next to what the same reader of
    /// the struct registry it should equal gives.
    fn reg_readings(text: &RegistryStore, structs: &StructRegistry) -> [String; 2] {
        let ids: Vec<String> = (0..14).map(|n| format!("client-{n:04}")).collect();
        let tokens: Vec<String> = (0..7).map(|n| format!("tok-{n}")).collect();
        let shown = |export: Vec<(String, Vec<u8>)>| -> Vec<(String, String)> {
            export
                .into_iter()
                .map(|(id, p)| (id, String::from_utf8(p).unwrap()))
                .collect()
        };
        let text_reading = format!(
            "len {}\ncontains {:?}\nget {:?}\nid_for_token {:?}\ntoken_of {:?}\nexport {:?}\nsnapshot {}",
            text.len(),
            ids.iter().map(|id| text.contains(id)).collect::<Vec<_>>(),
            ids.iter().map(|id| text.get(id)).collect::<Vec<_>>(),
            tokens.iter().map(|t| text.id_for_token(t)).collect::<Vec<_>>(),
            ids.iter().map(|id| text.token_of(id)).collect::<Vec<_>>(),
            shown(exported(text)),
            text.text(),
        );
        let rendered = shown(structs.export());
        let struct_reading = format!(
            "len {}\ncontains {:?}\nget {:?}\nid_for_token {:?}\ntoken_of {:?}\nexport {:?}\nsnapshot {}",
            structs.clients.len(),
            ids.iter().map(|id| structs.get(id).is_some()).collect::<Vec<_>>(),
            ids.iter().map(|id| structs.get(id).cloned()).collect::<Vec<_>>(),
            tokens.iter().map(|t| structs.ids.get(t).map(String::as_str)).collect::<Vec<_>>(),
            ids.iter().map(|id| structs.tokens.get(id).map(String::as_str)).collect::<Vec<_>>(),
            rendered,
            rendered.iter().map(|(_, p)| &p[1..]).collect::<String>(),
        );
        [text_reading, struct_reading]
    }

    /// A registry's export, collected.
    fn exported(g: &RegistryStore) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        g.export(&mut |id, payload| {
            out.push((id.to_string(), payload));
            Ok(())
        })
        .unwrap();
        out
    }

    /// What a reshard of exported `parts` into `n` fresh stores exports.
    fn moved<S: Default>(
        parts: Vec<Vec<(String, Vec<u8>)>>,
        n: usize,
        admit: impl Fn(&mut S, &[u8]) -> bool,
        export: impl Fn(&S) -> Vec<(String, Vec<u8>)>,
    ) -> Vec<Vec<(String, Vec<u8>)>> {
        let mut to: Vec<S> = (0..n).map(|_| S::default()).collect();
        for (key, payload) in parts.concat() {
            admit(&mut to[crate::shard::shard_of(&key, n)], &payload);
        }
        to.iter().map(export).collect()
    }

    fn reg_same(text: &RegistryStore, structs: &StructRegistry, after: &str) -> Result<(), String> {
        let [got, want] = reg_readings(text, structs);
        if got != want {
            return Err(format!("after {after}:\ntext    {got}\nstructs {want}"));
        }
        Ok(())
    }

    /// The paths a [`registry_contract`] case can take that the property
    /// as a whole must have reached.
    const REG_PATHS: [&str; 9] = [
        "a checkpoint an older build wrote",
        "a token retry",
        "a repeated id",
        "an admit of a known id",
        "a torn tail under a live store",
        "a reshard",
        "a fault",
        "a failed registration the reopen kept",
        "a failed registration the reopen lost",
    ];

    /// One case of the registry contract: a random run of registrations
    /// (with and without tokens, tokens repeating, now and then an id
    /// registered again), admits of known and unknown ids, checkpoints as
    /// an older build wrote them,
    /// reopens, torn tails, reshards 1 → 3 → 2 → 1 and planned faults
    /// against a durable text registry on an in-memory disk and the
    /// struct registry. Every reader of the two must agree after every
    /// step, and after each reopen once a failed mutation is reconciled
    /// with what the journal kept. Tokens dedup as the server does it:
    /// a known token's id comes back and nothing is registered.
    fn registry_contract(seed: u64) -> Result<[bool; REG_PATHS.len()], String> {
        let mut seen = [false; REG_PATHS.len()];
        let mut rng = uucs_stats::Pcg64::new(seed);
        let dir = Path::new("/registry");
        let cfg = WalConfig {
            segment_bytes: 200 + rng.below(3000),
            sync: SyncPolicy::Always,
        };
        let mut mem = uucs_wal::MemIo::new();
        let open = |mem: &uucs_wal::MemIo| -> Result<RegistryStore, String> {
            let io = || Disk::Memory(mem.clone());
            // A fault planned for the open itself fires, then the disk reboots.
            match RegistryStore::open(io(), dir, cfg) {
                Ok((store, _)) => Ok(store),
                Err(_) if mem.is_dead() => {
                    mem.crash(1.0);
                    RegistryStore::open(io(), dir, cfg)
                        .map(|(s, _)| s)
                        .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            }
        };
        let snapshot = |rng: &mut uucs_stats::Pcg64| {
            MachineSnapshot::study_machine(format!("h{}", rng.below(5)))
        };
        let (mut structs, mut text) = (StructRegistry::default(), open(&mem)?);
        let mut minted = 0;
        for step in 0..24 {
            let at = format!("step {step}");
            let mut failed = None;
            match rng.below(12) {
                0..=4 => {
                    let token = match rng.below(3) {
                        0 => String::new(),
                        _ => format!("tok-{}", rng.below(7)),
                    };
                    // Now and then an id again, under the token it first
                    // carried — the one repeat whose text the re-rendering
                    // struct registry reproduces.
                    let registered = match (structs.ids.get(&token), structs.clients.first()) {
                        (Some(id), _) => {
                            let resolved = text.id_for_token(&token);
                            if resolved != Some(id.as_str()) {
                                return Err(format!(
                                    "{at}: {token} resolves to {resolved:?}, structs {id}"
                                ));
                            }
                            seen[1] = true;
                            None
                        }
                        (None, Some((id, _))) if rng.below(8) == 0 => {
                            seen[2] = true;
                            Some((
                                id.clone(),
                                structs.tokens.get(id).cloned().unwrap_or_default(),
                            ))
                        }
                        (None, _) => {
                            minted += 1;
                            Some((format!("client-{minted:04}"), token))
                        }
                    };
                    if let Some((id, token)) = registered {
                        let snap = snapshot(&mut rng);
                        match text.register_with_id(&id, &snap, &token, false) {
                            Ok(None) => structs.insert(&id, snap, &token),
                            Err(StoreError::Io(_)) if mem.is_dead() => {
                                failed = Some(Some((id, token, snap)))
                            }
                            got => return Err(format!("{at}: register {id}: {got:?}")),
                        }
                    }
                }
                5 => {
                    // A shipped registration, of a held id or a new one.
                    let id = match structs
                        .clients
                        .get(rng.below(structs.clients.len() as u64 + 2) as usize)
                    {
                        Some((id, _)) => id.clone(),
                        None => {
                            minted += 1;
                            format!("client-{minted:04}")
                        }
                    };
                    let token = match rng.below(2) {
                        0 => String::new(),
                        _ => format!("tok-{}", rng.below(7)),
                    };
                    let snap = snapshot(&mut rng);
                    let payload = WalEntry::Client {
                        id: id.clone(),
                        token: token.clone(),
                        snapshot: snap.clone(),
                    }
                    .encode();
                    match text.admit(&payload) {
                        Ok(fresh) => {
                            seen[3] |= !fresh;
                            if fresh != structs.admit(&payload) {
                                return Err(format!("{at}: admit {id} gave {fresh}"));
                            }
                        }
                        Err(_) if mem.is_dead() => failed = Some(Some((id, token, snap))),
                        Err(e) => return Err(format!("{at}: admit {id}: {e}")),
                    }
                }
                6 => {
                    // The store closed, an older build's checkpoint of it
                    // written, and the reopen that reads it; a fault inside
                    // the checkpoint is a power loss, then the same reopen.
                    let state = text.text().to_string();
                    drop(text);
                    match write_old_checkpoint(Disk::Memory(mem.clone()), dir, cfg, &state) {
                        Ok(()) => seen[0] = true,
                        Err(_) if mem.is_dead() => {
                            seen[6] = true;
                            mem.crash(rng.f64());
                        }
                        Err(e) => return Err(format!("{at}: checkpoint: {e}")),
                    }
                    text = open(&mem)?;
                }
                7 => text = open(&mem)?,
                8 => {
                    // A torn append under the live store, then the reopen that heals it.
                    let active = (mem.list(dir).map_err(|e| e.to_string())?.into_iter())
                        .filter(|n| n.ends_with(".wal"))
                        .max();
                    let entry = WalEntry::Client {
                        id: "client-9999".into(),
                        token: String::new(),
                        snapshot: snapshot(&mut rng),
                    };
                    let frame = uucs_wal::frame::encode_frame(&entry.encode());
                    let torn = &frame[..1 + rng.below(frame.len() as u64 - 1) as usize];
                    if mem
                        .append(&dir.join(active.ok_or("no segment")?), torn)
                        .is_err()
                    {
                        failed = Some(None);
                    } else {
                        reg_same(&text, &structs, &format!("{at} (torn tail, live)"))?;
                        seen[4] = true;
                        text = open(&mem)?;
                    }
                }
                9 if !mem.is_dead() => mem.set_fault(Some(uucs_wal::FaultPlan {
                    fail_at: mem.mutating_ops() + rng.below(6),
                    short_write: rng.bernoulli(0.5).then(|| rng.below(24) as usize),
                })),
                10 if !mem.is_dead() => {
                    // Out to three shards, on to two and back to one, as a
                    // reshard moves blocks, onto a fresh in-memory disk.
                    let (mut text_parts, mut struct_parts) =
                        (vec![exported(&text)], vec![structs.export()]);
                    for n in [3, 2] {
                        text_parts = moved(
                            text_parts,
                            n,
                            |g: &mut RegistryStore, p| g.admit(p).unwrap(),
                            exported,
                        );
                        struct_parts = moved(
                            struct_parts,
                            n,
                            StructRegistry::admit,
                            StructRegistry::export,
                        );
                    }
                    mem = uucs_wal::MemIo::new();
                    text = open(&mem)?;
                    structs = StructRegistry::default();
                    for (_, payload) in text_parts.concat() {
                        text.admit(&payload).unwrap();
                    }
                    for (_, payload) in struct_parts.concat() {
                        structs.admit(&payload);
                    }
                    seen[5] = true;
                }
                _ => {}
            }
            if let Some(mutation) = failed {
                // The planned fault fired: the live store is what it was
                // before, whatever the failed operation left on disk. The
                // power loss keeps none, all or part of the unsynced tail.
                seen[6] = true;
                let flushed = match rng.below(3) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.f64(),
                };
                mem.crash(flushed);
                reg_same(&text, &structs, &format!("{at} (fault, live)"))?;
                text = open(&mem)?;
                if let Some((id, token, snap)) = mutation {
                    // A failed registration or admit would have added one block.
                    let kept = text.len() > structs.clients.len();
                    if kept {
                        structs.insert(&id, snap, &token);
                    }
                    seen[if kept { 7 } else { 8 }] = true;
                }
            }
            reg_same(&text, &structs, &at)?;
        }
        Ok(seen)
    }

    /// [`registry_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`REG_PATHS`].
    #[test]
    fn text_registry_reads_like_the_struct_registry() {
        let mut seen = [false; REG_PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "text_registry_reads_like_the_struct_registry",
            (uucs_harness::prop::any::<u64>(),),
            |&(seed,)| {
                let taken = registry_contract(seed).map_err(|e| {
                    uucs_harness::prop::CaseError::Fail(format!("seed {seed}: {e}"))
                })?;
                seen.iter_mut().zip(taken).for_each(|(s, t)| *s |= t);
                Ok(())
            },
        );
        let never: Vec<_> = (REG_PATHS.iter().zip(seen))
            .filter_map(|(path, seen)| (!seen).then_some(path))
            .collect();
        assert!(never.is_empty(), "no case reached: {never:?}");
    }
}
