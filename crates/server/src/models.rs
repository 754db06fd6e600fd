//! The server's comfort-model store (`uucs-modelsvc` integration).
//!
//! Holds one shard of the fleet-wide [`ComfortModel`] the `MODEL`,
//! `ADVICE` and `MODELDELTA` verbs answer from, updated incrementally
//! wherever the node appends records — an upload on a leader, a
//! replicated batch on a follower: every *applied* (non-replayed) batch
//! that yields at least one observation becomes one epoch of the
//! uploader's shard. A journaled store journals each
//! [`uucs_modelsvc::ModelDelta`] as a [`WalEntry::Model`] before
//! applying it, replay folds each delta's text straight into the cohort
//! sketches ([`ComfortModel::fold`]), and compaction snapshots the full
//! [`ComfortModel::encode`] text — so a recovered server serves the
//! exact epoch and byte-identical sketches it served before the crash.
//!
//! A model shard checkpoints itself: once the deltas journaled past its
//! last checkpoint outgrow that checkpoint ([`CHECKPOINT_FLOOR_BYTES`],
//! [`CHECKPOINT_TAIL_RATIO`]), [`ModelStore::observe_batch`] compacts
//! it on the spot, and the server's 30 s tick checkpoints each shard with
//! deltas past its last checkpoint. Only the model store checkpoints,
//! because only its state stops growing: the sketches are O(cohorts)
//! while its journal is O(uploads), which a restart would otherwise
//! replay whole. The other stores' state *is* their journal's content,
//! so each journal is its own checkpoint. Uploads, a follower's apply
//! and a snapshot backfill all reach the model through `observe_batch`,
//! so a leader and its followers checkpoint by the one rule.
//!
//! A store answers no query itself: the server merges every shard's
//! [`ModelStore::merged_sketch`] under one set of read guards, whatever
//! the shard count, and keeps the result per `(resource, task)` key
//! until the epoch sum moves (`UucsServer`'s model read path).

use crate::journal::{foreign, Journal, Journaled};
use crate::storage::plain_io;
use crate::store::invalid;
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use uucs_modelsvc::{ComfortModel, Observation, QuantileSketch};
use uucs_protocol::walenc::{split_payload, TAG_MODEL};
use uucs_protocol::{RunOutcome, RunRecord, WalEntry};
use uucs_telemetry::{metrics, Counter, Gauge, Histogram};
use uucs_wal::{Recovery, WalConfig};

/// Telemetry handles for the model service, registered once.
struct ModelMetrics {
    /// Current model epoch (gauge: it survives `STATS RESET` as a level,
    /// not a rate).
    epoch: Gauge,
    /// Latency of one model update (mint + journal + apply), ns.
    update_ns: Histogram,
    /// Observations folded into the model, total.
    observations: Counter,
    /// Model updates that failed to journal (the upload itself still
    /// acks — records are the source of truth, the model is derived).
    update_errors: Counter,
}

fn model_metrics() -> &'static ModelMetrics {
    static METRICS: OnceLock<ModelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ModelMetrics {
        epoch: metrics::gauge("modelsvc.epoch"),
        update_ns: metrics::histogram("modelsvc.update.ns"),
        observations: metrics::counter("modelsvc.observations"),
        update_errors: metrics::counter("modelsvc.update.errors"),
    })
}

/// The smallest journal tail past its last checkpoint at which a model
/// shard checkpoints. Together with [`CHECKPOINT_TAIL_RATIO`] it bounds
/// the two costs the rule trades:
///
/// * a reopen replays at most `max(CHECKPOINT_FLOOR_BYTES,
///   CHECKPOINT_TAIL_RATIO × checkpoint)` bytes of deltas per shard —
///   plus the one delta whose checkpoint a crash cut short;
/// * checkpoint writes add at most `1 / CHECKPOINT_TAIL_RATIO` (¼) to
///   the bytes the model journal writes, besides the newest checkpoint:
///   a checkpoint is written only after at least that ratio times the
///   previous one's size of deltas.
///
/// The floor keeps a young model (a checkpoint of a few hundred bytes)
/// from checkpointing every few uploads.
pub const CHECKPOINT_FLOOR_BYTES: u64 = 64 << 10;

/// How many times its last checkpoint's size the journal tail may grow
/// to before a model shard checkpoints again; see
/// [`CHECKPOINT_FLOOR_BYTES`] for the bounds it sets.
pub const CHECKPOINT_TAIL_RATIO: u64 = 4;

/// The journal tail at which a shard whose last checkpoint holds
/// `checkpoint_bytes` checkpoints again.
pub fn checkpoint_bound(checkpoint_bytes: u64) -> u64 {
    CHECKPOINT_FLOOR_BYTES.max(CHECKPOINT_TAIL_RATIO.saturating_mul(checkpoint_bytes))
}

/// Extracts the model observations an upload batch contributes: one per
/// `(record, exercised resource)` pair, at the contention level in force
/// when the user reported (or the run exhausted, which censors the
/// sample — the user's threshold lies above every level explored).
pub fn observations_of(records: &[RunRecord]) -> Vec<Observation> {
    let mut out = Vec::new();
    for rec in records {
        for (resource, levels) in &rec.last_levels {
            let Some(&level) = levels.last() else {
                continue;
            };
            if !level.is_finite() {
                continue;
            }
            out.push(Observation {
                resource: *resource,
                task: rec.task.clone(),
                skill: rec.skill.clone(),
                level,
                censored: rec.outcome == RunOutcome::Exhausted,
            });
        }
    }
    out
}

/// One shard of the server's comfort model: the cohort model and its
/// WAL.
pub struct ModelStore {
    model: ComfortModel,
    journal: Journal,
}

/// Journal = epoch deltas, snapshot = the full [`ComfortModel::encode`]
/// text.
impl Journaled for ModelStore {
    const FLAVOR: &'static str = "model";

    type State = ComfortModel;

    fn attach(model: ComfortModel, journal: Journal) -> Self {
        model_metrics().epoch.set(model.epoch() as i64);
        ModelStore { model, journal }
    }

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    fn restore(model: &mut ComfortModel, snapshot: &str) -> io::Result<()> {
        *model = ComfortModel::decode(snapshot).map_err(invalid)?;
        Ok(())
    }

    /// Folds a delta's text straight into the cohort sketches
    /// ([`ComfortModel::fold`]). A payload of another kind is refused
    /// in the words a full decode gives it.
    fn replay(model: &mut ComfortModel, payload: &[u8]) -> io::Result<()> {
        match split_payload(payload).map_err(invalid)? {
            (TAG_MODEL, text) => model.fold(text).map_err(invalid),
            (tag, _) => Err(WalEntry::decode(payload).map_or_else(invalid, |_| foreign::<Self>(tag))),
        }
    }

    /// The whole model as one payload, its snapshot text.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        emit("", self.snapshot().into_bytes())
    }

    /// Merges an exported model into this one: epochs add (each shard
    /// mints its own, and every read sums them) and cohort sketches
    /// merge exactly, so the merged model reads the same however the
    /// cohorts were spread. A whole model is no journal entry, so the
    /// store is checkpointed instead.
    fn admit(&mut self, payload: &[u8]) -> io::Result<bool> {
        let text = std::str::from_utf8(payload).map_err(invalid)?;
        let model = ComfortModel::decode(text).map_err(invalid)?;
        self.model.merge(&model).map_err(invalid)?;
        model_metrics().epoch.set(self.model.epoch() as i64);
        self.compact()?;
        Ok(true)
    }

    /// Wherever its cohorts sat, a merged model reads the same, so the
    /// whole of it goes to shard 0 and later uploads fold into their
    /// client's shard.
    fn route(_key: &str, _n: usize) -> usize {
        0
    }
}

/// [`ModelStore::new`]: journaled in memory.
impl Default for ModelStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelStore {
    /// An empty model store at epoch 0 journaling to an in-memory disk
    /// of its own, as every other store's `new` does: its updates are
    /// lost with it.
    pub fn new() -> Self {
        Self::in_memory()
    }

    /// Opens (creating if necessary) a WAL-backed model store: replays
    /// the journal under `dir` (snapshot = full model, entries = epoch
    /// deltas) and journals every subsequent update before applying it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
    }

    /// The whole model as its checkpoint holds it: the
    /// [`ComfortModel::encode`] text.
    pub(crate) fn snapshot(&self) -> String {
        self.model.encode()
    }

    /// Folds the journal into a checkpoint of [`ModelStore::snapshot`]
    /// and deletes the segments it covers.
    pub(crate) fn compact(&mut self) -> io::Result<()> {
        self.journal.checkpoint(self.snapshot().as_bytes())
    }

    /// The bytes of deltas a reopen would replay, and the size of the
    /// last checkpoint they would be replayed onto.
    pub fn journal_tail(&self) -> (u64, u64) {
        self.journal.tail()
    }

    /// The current model epoch.
    pub fn epoch(&self) -> u64 {
        self.model.epoch()
    }

    /// Folds an applied upload batch into the model as one epoch.
    /// Returns the new epoch, or the unchanged one when the batch
    /// contributed no observations (no epoch is minted for nothing —
    /// clients use epoch advances as a "new data" signal).
    ///
    /// The store journals the delta *before* applying it, so
    /// recovery replays the identical epoch sequence, and checkpoints
    /// once its journal tail reaches [`checkpoint_bound`] of its last
    /// checkpoint. A failed checkpoint is an `Err` after the delta was
    /// journaled and applied: the model is intact, its journal is
    /// broken until the next reopen.
    pub fn observe_batch(&mut self, observations: Vec<Observation>) -> io::Result<u64> {
        if observations.is_empty() {
            return Ok(self.model.epoch());
        }
        let m = model_metrics();
        let timer = m.update_ns.start_timer();
        let count = observations.len() as u64;
        let delta = self.model.next_delta(observations);
        self.journal.append(&WalEntry::Model(delta.clone()).encode())?;
        self.model
            .apply(&delta)
            .map_err(|e| invalid(format!("model delta rejected: {e}")))?;
        m.observations.add(count);
        m.epoch.set(self.model.epoch() as i64);
        let (tail, checkpoint) = self.journal.tail();
        if tail >= checkpoint_bound(checkpoint) {
            self.compact()?;
        }
        drop(timer);
        Ok(self.model.epoch())
    }

    /// Counts a failed model update (the journal refused the delta). The
    /// caller still acks the upload — the raw records are the source of
    /// truth and the model is derived state, rebuildable from them.
    pub fn count_update_error() {
        model_metrics().update_errors.inc();
    }

    /// This shard's merged sketch for a resource (optionally one task).
    pub fn merged_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        self.model.merged(resource, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use std::ops::Range;
    use crate::storage::Disk;
    use uucs_stats::Pcg64;
    use uucs_testcase::Resource;
    use uucs_wal::frame::FRAME_HEADER;
    use uucs_wal::{FaultPlan, MemIo, SyncPolicy};

    const DIR: &str = "/model";
    const RESOURCES: [Resource; 3] = [Resource::Cpu, Resource::Memory, Resource::Disk];
    const TASKS: [&str; 4] = ["Word", "Quake", "PowerPoint", "caf\u{e9}"];

    /// Up to `most` observations over 192 cohorts: enough of them for a
    /// checkpoint to outgrow a quarter of the floor, so the ratio sets
    /// the bound too.
    fn observations(rng: &mut Pcg64, most: u64) -> Vec<Observation> {
        (0..rng.below(most + 1))
            .map(|_| Observation {
                resource: *rng.choose(&RESOURCES),
                task: rng.choose(&TASKS).to_string(),
                skill: format!("s{}", rng.below(16)),
                level: rng.below(41) as f64 * 0.125,
                censored: rng.bernoulli(0.2),
            })
            .collect()
    }

    /// The bytes a delta of `observations` minted by `store` adds to its
    /// journal.
    fn frame_of(store: &ModelStore, observations: &[Observation]) -> (Vec<u8>, u64) {
        let payload = WalEntry::Model(store.model.next_delta(observations.to_vec())).encode();
        let frame = (FRAME_HEADER + payload.len()) as u64;
        (payload, frame)
    }

    /// One bounded shard and the in-memory disk it journals to.
    struct Shard {
        mem: MemIo,
        store: ModelStore,
    }

    impl Shard {
        fn open(mem: MemIo, cfg: WalConfig) -> Result<Shard, String> {
            let (store, _) = ModelStore::open(Disk::Memory(mem.clone()), Path::new(DIR), cfg)
                .map_err(|e| format!("open: {e}"))?;
            Ok(Shard { mem, store })
        }

        /// Reopens the shard from what its disk holds after a crash that
        /// kept `flush` of every unsynced tail, while it held a live
        /// tail and was writing a delta of `frame` bytes (0 for none).
        /// The replay is at most the two: a crash inside an update adds
        /// to the bound only the delta whose checkpoint it cut short.
        fn reopen(&mut self, cfg: WalConfig, flush: f64, frame: u64) -> Result<(), String> {
            let live = self.store.journal_tail().0;
            self.mem.crash(flush);
            *self = Shard::open(self.mem.clone(), cfg)?;
            let (tail, checkpoint) = self.store.journal_tail();
            if tail > live + frame {
                let what = format!("{tail} bytes onto a {checkpoint}-byte checkpoint");
                return Err(format!("a reopen replayed {what}, live {live} + {frame}"));
            }
            Ok(())
        }
    }

    /// What a model family reads like: the epoch and snapshot text of
    /// each shard in `shards` (those a step touched), and every merged
    /// sketch across all of them.
    fn reading<'a>(stores: impl Iterator<Item = &'a ModelStore> + Clone, shards: &Range<usize>) -> String {
        let touched = stores.clone().skip(shards.start).take(shards.len());
        let mut out: Vec<String> = touched.map(|s| format!("{} {}", s.epoch(), s.model.encode())).collect();
        for resource in RESOURCES {
            for task in [None].into_iter().chain(TASKS.map(Some)) {
                let mut merged = QuantileSketch::for_resource(resource);
                for store in stores.clone() {
                    merged.merge(&store.merged_sketch(resource, task)).expect("one resource");
                }
                out.push(merged.encode());
            }
        }
        out.join("\n")
    }

    fn same(
        shards: &[Shard],
        reference: &[ModelStore],
        touched: Range<usize>,
        after: &str,
    ) -> Result<(), String> {
        let got = reading(shards.iter().map(|s| &s.store), &touched);
        let want = reading(reference.iter(), &touched);
        if got != want {
            return Err(format!("after {after}:\nreference {want}\nbounded   {got}"));
        }
        let epochs: u64 = shards.iter().map(|s| s.store.epoch()).sum();
        let reference_epochs: u64 = reference.iter().map(ModelStore::epoch).sum();
        if epochs != reference_epochs {
            return Err(format!("after {after}: epoch sum {epochs}, reference {reference_epochs}"));
        }
        Ok(())
    }

    /// The paths a [`bounded_contract`] case can take that the property
    /// as a whole must have reached.
    const PATHS: [&str; 10] = [
        "a checkpoint at the floor",
        "a checkpoint at the ratio",
        "a reopen replaying a tail onto a checkpoint",
        "a reshard 8 -> 3 -> 1",
        "a fault writing the checkpoint",
        "a fault at its rename",
        "a fault rotating past it",
        "a fault removing the segments it covers",
        "a fault in a batch the reopen kept",
        "a fault in a batch the reopen lost",
    ];

    /// Folds one batch into a shard and the reference, noting a
    /// checkpoint it took.
    fn observe(
        shard: &mut Shard,
        reference: &mut ModelStore,
        batch: Vec<Observation>,
        seen: &mut [bool; PATHS.len()],
    ) -> Result<(), String> {
        let last = shard.store.journal_tail().1;
        reference.observe_batch(batch.clone()).map_err(|e| e.to_string())?;
        let nonempty = !batch.is_empty();
        shard.store.observe_batch(batch).map_err(|e| format!("observe: {e}"))?;
        let (tail, checkpoint) = shard.store.journal_tail();
        if nonempty && tail == 0 {
            seen[usize::from(CHECKPOINT_TAIL_RATIO * last > CHECKPOINT_FLOOR_BYTES)] = true;
        }
        if nonempty && tail >= checkpoint_bound(checkpoint) {
            return Err(format!("{tail} bytes past a {checkpoint}-byte checkpoint and none taken"));
        }
        Ok(())
    }

    /// Moves both families to `n` shards as a reshard does: every shard
    /// exports, each payload is admitted where its key routes, and every
    /// new shard is checkpointed.
    fn reshard(
        shards: &mut Vec<Shard>,
        reference: &mut Vec<ModelStore>,
        n: usize,
        cfg: WalConfig,
    ) -> Result<(), String> {
        let mut parts = (0..n).map(|_| Shard::open(MemIo::new(), cfg)).collect::<Result<Vec<_>, _>>()?;
        let mut plain: Vec<ModelStore> = (0..n).map(|_| ModelStore::new()).collect();
        for (shard, old) in shards.iter().zip(reference.iter()) {
            let mut admit = |key: &str, payload: Vec<u8>| {
                parts[ModelStore::route(key, n)].store.admit(&payload).map(drop)
            };
            shard.store.export(&mut admit).map_err(|e| format!("reshard: {e}"))?;
            let mut admit = |key: &str, payload: Vec<u8>| plain[ModelStore::route(key, n)].admit(&payload).map(drop);
            old.export(&mut admit).map_err(|e| format!("reshard the reference: {e}"))?;
        }
        for part in &mut parts {
            part.store.compact().map_err(|e| format!("reshard: {e}"))?;
        }
        (*shards, *reference) = (parts, plain);
        Ok(())
    }

    /// One case: a bounded model family of 8 shards on in-memory disks
    /// against a reference that is never reopened (`ModelStore::new`
    /// shards: their in-memory checkpoints change nothing they read),
    /// through random batches, reopens, reshards 8 -> 3 -> 1 and faults
    /// planned inside each step of a checkpoint or anywhere in a batch.
    /// After every step both read alike, and no shard holds (or a reopen
    /// replays) a tail past its bound.
    fn bounded_contract(seed: u64) -> Result<[bool; PATHS.len()], String> {
        let mut seen = [false; PATHS.len()];
        let mut rng = Pcg64::new(seed);
        let cfg = WalConfig {
            segment_bytes: 2048 + rng.below(48 << 10),
            sync: SyncPolicy::Always,
        };
        let mut shards = (0..8).map(|_| Shard::open(MemIo::new(), cfg)).collect::<Result<Vec<_>, _>>()?;
        let mut reference: Vec<ModelStore> = (0..8).map(|_| ModelStore::new()).collect();
        let clients: Vec<String> = (1..=12).map(|i| format!("client-{i:04}")).collect();
        for step in 0..40 {
            let at = format!("step {step}");
            let i = shard_of(rng.choose(&clients).as_str(), shards.len());
            let (shard, plain) = (&mut shards[i], &mut reference[i]);
            match rng.below(12) {
                0..=6 => observe(shard, plain, observations(&mut rng, 160), &mut seen)?,
                7 => loop {
                    // Batches until the next one checkpoints; a dry run of
                    // it on a copy of the disk counts the operations of
                    // its append and of its checkpoint, and a fault is
                    // planned at one of the latter.
                    let batch = observations(&mut rng, 160);
                    let (payload, frame) = frame_of(&shard.store, &batch);
                    let (tail, checkpoint) = shard.store.journal_tail();
                    if batch.is_empty() || tail + frame < checkpoint_bound(checkpoint) {
                        observe(shard, plain, batch, &mut seen)?;
                        continue;
                    }
                    let dry = shard.mem.fork();
                    let mut copy = Shard::open(dry.clone(), cfg)?.store;
                    let start = dry.mutating_ops();
                    copy.journal.append(&payload).map_err(|e| e.to_string())?;
                    let append = dry.mutating_ops() - start;
                    copy.compact().map_err(|e| e.to_string())?;
                    let ops = dry.mutating_ops() - start - append;
                    // sync, create, write and sync the .tmp; rename it;
                    // sync, create, head and sync a segment; removals.
                    if ops < 10 {
                        return Err(format!("{at}: a checkpoint of {ops} operations"));
                    }
                    let k = rng.below(ops);
                    seen[match k {
                        0..=3 => 4,
                        4 => 5,
                        5..=8 => 6,
                        _ => 7,
                    }] = true;
                    shard.mem.set_fault(Some(FaultPlan {
                        fail_at: shard.mem.mutating_ops() + append + k,
                        short_write: rng.bernoulli(0.5).then(|| rng.below(24) as usize),
                    }));
                    if shard.store.observe_batch(batch.clone()).is_ok() || !shard.mem.is_dead() {
                        return Err(format!("{at}: a fault at operation {k} of a checkpoint did not fire"));
                    }
                    // The delta was synced before the checkpoint began: the
                    // live shard and its reopen both hold it.
                    plain.observe_batch(batch).map_err(|e| e.to_string())?;
                    same(&shards, &reference, i..i + 1, &format!("{at} (fault in a checkpoint, live)"))?;
                    shards[i].reopen(cfg, rng.f64(), 0)?;
                    break;
                },
                8 => {
                    let batch = observations(&mut rng, 160);
                    let (_, frame) = frame_of(&shard.store, &batch);
                    let epoch = plain.epoch();
                    shard.mem.set_fault(Some(FaultPlan {
                        fail_at: shard.mem.mutating_ops() + rng.below(8),
                        short_write: rng.bernoulli(0.5).then(|| rng.below(24) as usize),
                    }));
                    let result = shard.store.observe_batch(batch.clone());
                    if !shard.mem.is_dead() {
                        shard.mem.set_fault(None);
                        result.map_err(|e| format!("{at}: {e}"))?;
                        plain.observe_batch(batch).map_err(|e| e.to_string())?;
                    } else {
                        shard.reopen(cfg, rng.f64(), frame)?;
                        let kept = shard.store.epoch() == epoch + 1;
                        if kept {
                            plain.observe_batch(batch).map_err(|e| e.to_string())?;
                        } else if shard.store.epoch() != epoch {
                            return Err(format!("{at}: epoch {epoch} reopened at {}", shard.store.epoch()));
                        }
                        seen[if kept { 8 } else { 9 }] = true;
                    }
                }
                9 => {
                    // A reopen replays what the live shard held past its
                    // checkpoint: within the bound once a batch followed
                    // the last crash.
                    let live = shard.store.journal_tail();
                    shard.reopen(cfg, 1.0, 0)?;
                    if shard.store.journal_tail() != live {
                        return Err(format!("{at}: live {live:?}, reopened {:?}", shard.store.journal_tail()));
                    }
                    seen[2] |= live.0 > 0 && live.1 > 0;
                }
                10 if shards.len() > 1 && rng.bernoulli(0.3) => {
                    let n = if shards.len() == 8 { 3 } else { 1 };
                    reshard(&mut shards, &mut reference, n, cfg)?;
                    seen[3] |= n == 1;
                    same(&shards, &reference, 0..n, &at)?;
                }
                _ => {}
            }
            // Only shard `i` changed (a reshard was checked whole).
            let i = i.min(shards.len() - 1);
            same(&shards, &reference, i..i + 1, &at)?;
        }
        Ok(seen)
    }

    /// [`bounded_contract`] over `UUCS_PROPTEST_CASES` seeds, which
    /// between them must have taken every one of [`PATHS`].
    #[test]
    fn a_bounded_model_reads_like_one_that_never_checkpoints() {
        let mut seen = [false; PATHS.len()];
        uucs_harness::prop::run_property(
            &uucs_harness::prop::Config::default(),
            "a_bounded_model_reads_like_one_that_never_checkpoints",
            (uucs_harness::prop::any::<u64>(),),
            |&(seed,)| {
                let taken = bounded_contract(seed)
                    .map_err(|e| uucs_harness::prop::CaseError::Fail(format!("seed {seed}: {e}")))?;
                seen.iter_mut().zip(taken).for_each(|(s, t)| *s |= t);
                Ok(())
            },
        );
        let never: Vec<_> = (PATHS.iter().zip(seen))
            .filter_map(|(path, seen)| (!seen).then_some(path))
            .collect();
        assert!(never.is_empty(), "no case reached: {never:?}");
    }
}
