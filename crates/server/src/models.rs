//! The server's comfort-model store (`uucs-modelsvc` integration).
//!
//! Holds the fleet-wide [`ComfortModel`] the `MODEL` and `ADVICE` verbs
//! answer from, updated incrementally wherever the node appends records
//! — an upload on a leader, a replicated batch on a follower: every
//! *applied* (non-replayed) batch that yields at least one observation
//! becomes one epoch. In durable mode the store journals each
//! [`uucs_modelsvc::ModelDelta`] as a [`WalEntry::Model`] before
//! applying it, and
//! compaction snapshots the full [`ComfortModel::encode`] text — so a
//! recovered server serves the exact epoch and byte-identical sketches
//! it served before the crash.
//!
//! Queries are cached per `(resource, task)` key and tagged with the
//! epoch they were merged at: the merge over cohorts reruns only when
//! the model actually advanced, so a fleet of clients polling `MODEL`
//! between uploads costs one `HashMap` hit each.

use crate::journal::{decoded, foreign, Journal, Journaled};
use crate::storage::plain_io;
use crate::store::invalid;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::sync::OnceLock;
use uucs_modelsvc::{ComfortModel, Observation, QuantileSketch};
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

/// A cached `MODEL` reply body: the merged sketch (encoded and decoded
/// forms) plus the epoch it was computed at.
struct CachedMerge {
    epoch: u64,
    observed: u64,
    censored: u64,
    encoded: String,
}

/// The server's comfort-model state: the cohort model, its optional WAL,
/// and the per-epoch query cache.
#[derive(Default)]
pub struct ModelStore {
    model: ComfortModel,
    journal: Journal,
    /// Merged-query cache keyed by `(resource name, task)`. Interior
    /// mutability because queries come in through read locks; entries
    /// are invalidated by epoch tag, not eviction.
    cache: Mutex<HashMap<(&'static str, Option<String>), CachedMerge>>,
}

/// Journal = epoch deltas, snapshot = the full [`ComfortModel::encode`]
/// text.
impl Journaled for ModelStore {
    const FLAVOR: &'static str = "model";

    fn journal(&mut self) -> &mut Journal {
        &mut self.journal
    }

    fn restore(&mut self, snapshot: &str) -> io::Result<()> {
        self.model = ComfortModel::decode(snapshot).map_err(invalid)?;
        model_metrics().epoch.set(self.model.epoch() as i64);
        Ok(())
    }

    fn replay(&mut self, payload: &[u8]) -> io::Result<()> {
        match decoded(payload)? {
            WalEntry::Model(delta) => {
                self.model.apply(&delta).map_err(invalid)?;
                model_metrics().epoch.set(self.model.epoch() as i64);
                Ok(())
            }
            _ => Err(foreign::<Self>(payload[0])),
        }
    }

    fn snapshot(&self) -> io::Result<String> {
        Ok(self.model.encode())
    }
}

impl ModelStore {
    /// An empty, non-durable model store at epoch 0.
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
    /// In durable mode the delta is journaled *before* it is applied,
    /// so recovery replays the identical epoch sequence.
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

    /// The merged model for a `MODEL` query: `(epoch, observed, censored,
    /// encoded sketch)`. Served from the per-epoch cache when the model
    /// has not advanced since the same query last ran.
    pub fn merged(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> (u64, u64, u64, String) {
        let epoch = self.model.epoch();
        let key = (resource.name(), task.map(str::to_string));
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = cache.get(&key) {
            if hit.epoch == epoch {
                return (epoch, hit.observed, hit.censored, hit.encoded.clone());
            }
        }
        let sketch = self.model.merged(resource, task);
        let entry = CachedMerge {
            epoch,
            observed: sketch.observed(),
            censored: sketch.censored(),
            encoded: sketch.encode(),
        };
        let reply = (epoch, entry.observed, entry.censored, entry.encoded.clone());
        cache.insert(key, entry);
        reply
    }

    /// The recommended borrowing level for an `ADVICE` query, or `None`
    /// when the resource has no observations at all.
    pub fn advice(
        &self,
        resource: uucs_testcase::Resource,
        task: &str,
        epsilon: f64,
    ) -> Option<(u64, f64)> {
        self.model
            .advice(resource, task, epsilon)
            .map(|level| (self.model.epoch(), level))
    }

    /// Direct access to the merged sketch (tests, offline analysis).
    pub fn merged_sketch(
        &self,
        resource: uucs_testcase::Resource,
        task: Option<&str>,
    ) -> QuantileSketch {
        self.model.merged(resource, task)
    }

    /// Consumes the store, yielding the model (shard migration).
    pub fn into_model(self) -> ComfortModel {
        self.model
    }

    /// Replaces the model wholesale and, in durable mode, checkpoints it
    /// immediately — the shard-migration path, where the new state does
    /// not arrive as deltas. The snapshot supersedes any journal tail,
    /// so a reopened store serves exactly the installed model.
    pub fn install_model(&mut self, model: ComfortModel) -> io::Result<()> {
        self.model = model;
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).clear();
        model_metrics().epoch.set(self.model.epoch() as i64);
        self.compact().map(|_| ())
    }
}
