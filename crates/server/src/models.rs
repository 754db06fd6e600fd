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
/// WAL — which only [`ModelStore::new`] leaves out.
#[derive(Default)]
pub struct ModelStore {
    model: ComfortModel,
    journal: Journal,
}

/// Journal = epoch deltas, snapshot = the full [`ComfortModel::encode`]
/// text.
impl Journaled for ModelStore {
    const FLAVOR: &'static str = "model";

    fn empty() -> Self {
        Self::default()
    }

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    fn restore(&mut self, snapshot: &str) -> io::Result<()> {
        self.model = ComfortModel::decode(snapshot).map_err(invalid)?;
        Ok(())
    }

    /// Folds a delta's text straight into the cohort sketches
    /// ([`ComfortModel::fold`]). A payload of another kind is refused
    /// in the words a full decode gives it.
    fn replay(&mut self, payload: &[u8]) -> io::Result<()> {
        match split_payload(payload).map_err(invalid)? {
            (TAG_MODEL, text) => self.model.fold(text).map_err(invalid),
            (tag, _) => Err(WalEntry::decode(payload).map_or_else(invalid, |_| foreign::<Self>(tag))),
        }
    }

    fn opened(&mut self) {
        model_metrics().epoch.set(self.model.epoch() as i64);
    }

    fn snapshot(&self) -> io::Result<String> {
        Ok(self.model.encode())
    }

    /// The whole model as one payload, its snapshot text.
    fn export(&self, emit: &mut dyn FnMut(&str, Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        emit("", self.model.encode().into_bytes())
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

impl ModelStore {
    /// An empty model store at epoch 0 with no journal: its updates
    /// are lost with it. The one unjournaled constructor among the
    /// server's stores — a server's model shards journal, on disk or in
    /// memory like the rest of its [`crate::StoreSet`]; this one serves
    /// a model held outside a server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating if necessary) a WAL-backed model store: replays
    /// the journal under `dir` (snapshot = full model, entries = epoch
    /// deltas) and journals every subsequent update before applying it.
    pub fn open_wal(dir: &Path, config: WalConfig) -> io::Result<(Self, Recovery)> {
        Self::open(plain_io(), dir, config)
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
    /// A journaled store journals the delta *before* applying it, so
    /// recovery replays the identical epoch sequence.
    pub fn observe_batch(&mut self, observations: Vec<Observation>) -> io::Result<u64> {
        if observations.is_empty() {
            return Ok(self.model.epoch());
        }
        let m = model_metrics();
        let timer = m.update_ns.start_timer();
        let count = observations.len() as u64;
        let delta = self.model.next_delta(observations);
        self.journal.append(|| WalEntry::Model(delta.clone()).encode())?;
        self.model
            .apply(&delta)
            .map_err(|e| invalid(format!("model delta rejected: {e}")))?;
        m.observations.add(count);
        m.epoch.set(self.model.epoch() as i64);
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
