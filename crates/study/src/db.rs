//! The analysis-phase result database (Figure 2: "importing testcase
//! results into a database. An additional set of tools is then used to
//! analyze the results").
//!
//! [`ResultDatabase`] indexes uploaded run records by task, testcase,
//! user, and client, and offers a small query builder so analysis tools
//! can slice the data the way the paper's figures do.

use std::collections::HashMap;
use std::path::Path;
use uucs_protocol::{RunOutcome, RunRecord, WalEntry};
use uucs_workloads::Task;

/// The kind of testcase a record came from, judged by id convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A `*-ramp` testcase.
    Ramp,
    /// A `*-step` testcase.
    Step,
    /// A blank testcase.
    Blank,
    /// Anything else (sin/saw/queueing/trace).
    Other,
}

impl RunKind {
    /// Classifies a testcase id by its structured suffix.
    ///
    /// Every generator in the workspace builds ids from `-`-separated
    /// segments under one of two conventions:
    ///
    /// * Internet sweep: `{resource}-{kind}-{params...}`, e.g.
    ///   `cpu-ramp-7-120`, `disk-step-4-60-30`, `memory-sin-0.5-40`;
    ///   blanks are `blank-{n}-{duration}`.
    /// * Controlled study: `{task}-{resource}-{kind}`, e.g.
    ///   `word-cpu-ramp`, `quake-disk-step`; blanks are
    ///   `{task}-blank-{n}`.
    ///
    /// So the classification is structural, not substring matching: an
    /// id with an exact `blank` segment is [`RunKind::Blank`];
    /// otherwise the segment *immediately following the first resource
    /// segment* (`cpu`/`memory`/`disk`/`network`, per
    /// [`Resource`](uucs_testcase::Resource)) names the kind — exactly
    /// `ramp` or `step`, anything else (`sin`, `saw`, `expexp`,
    /// `exppar`, a missing segment) is [`RunKind::Other`]. Ids with no
    /// resource segment, such as a hypothetical `step-ramp-mix`, are
    /// [`RunKind::Other`] rather than whatever substring happens to
    /// appear first.
    pub fn of(testcase_id: &str) -> RunKind {
        let mut segments = testcase_id.split('-');
        if segments.clone().any(|s| s == "blank") {
            return RunKind::Blank;
        }
        let kind = segments
            .find(|s| s.parse::<uucs_testcase::Resource>().is_ok())
            .and_then(|_| segments.next());
        match kind {
            Some("ramp") => RunKind::Ramp,
            Some("step") => RunKind::Step,
            _ => RunKind::Other,
        }
    }
}

/// An indexed store of run records.
#[derive(Debug, Default)]
pub struct ResultDatabase {
    records: Vec<RunRecord>,
    by_task: HashMap<String, Vec<usize>>,
    by_user: HashMap<String, Vec<usize>>,
    by_testcase: HashMap<String, Vec<usize>>,
}

impl ResultDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from records.
    pub fn from_records(records: Vec<RunRecord>) -> Self {
        let mut db = Self::new();
        for r in records {
            db.insert(r);
        }
        db
    }

    /// Imports a result text file (the server's `results.txt`). Parse
    /// errors carry the file's line number.
    pub fn import(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let records = RunRecord::parse_many(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Self::from_records(records))
    }

    /// Imports a server's result *journal* (the `--wal` mode result
    /// directory) without going through a text export: folds the newest
    /// checkpoint, replays the records past it, and tolerates the torn
    /// final frame a crashed server leaves behind.
    ///
    /// The scan is strictly read-only ([`uucs_wal::WalReader`]), so the
    /// analysis phase can point at the data directory of a *live*
    /// server — nothing is truncated, renamed, or deleted.
    pub fn import_wal(dir: &Path) -> std::io::Result<Self> {
        let invalid =
            |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let mut reader = uucs_wal::WalReader::open(uucs_wal::StdIo::new(), dir)?;
        let mut records = Vec::new();
        if let Some(snap) = reader.take_snapshot() {
            let text = std::str::from_utf8(&snap.state)
                .map_err(|e| invalid(format!("snapshot is not utf-8: {e}")))?;
            // The result store's checkpoints lead with `SEQ <client> <n>`
            // dedup-horizon lines; the analysis phase only wants the
            // records below them.
            let mut body = text;
            while let Some(rest) = body.strip_prefix("SEQ ") {
                body = rest.split_once('\n').map_or("", |(_, tail)| tail);
            }
            records = RunRecord::parse_many(body).map_err(invalid)?;
        }
        for item in reader.records() {
            let (lsn, payload) = item?;
            match WalEntry::decode(&payload).map_err(invalid)? {
                WalEntry::Result(rec) => records.push(rec),
                WalEntry::Batch { records: batch, .. } => records.extend(batch),
                WalEntry::Testcase(_) => {
                    return Err(invalid(format!(
                        "record {lsn}: testcase entry in a result journal"
                    )))
                }
                WalEntry::Client { .. } => {
                    return Err(invalid(format!(
                        "record {lsn}: registry entry in a result journal"
                    )))
                }
                WalEntry::Model(_) => {
                    return Err(invalid(format!(
                        "record {lsn}: model entry in a result journal"
                    )))
                }
            }
        }
        Ok(Self::from_records(records))
    }

    /// Inserts one record, maintaining the indexes.
    pub fn insert(&mut self, record: RunRecord) {
        let idx = self.records.len();
        self.by_task.entry(record.task.clone()).or_default().push(idx);
        self.by_user.entry(record.user.clone()).or_default().push(idx);
        self.by_testcase
            .entry(record.testcase.clone())
            .or_default()
            .push(idx);
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn all(&self) -> &[RunRecord] {
        &self.records
    }

    /// Distinct users, sorted.
    pub fn users(&self) -> Vec<&str> {
        let mut u: Vec<&str> = self.by_user.keys().map(String::as_str).collect();
        u.sort_unstable();
        u
    }

    /// Distinct testcase ids, sorted.
    pub fn testcases(&self) -> Vec<&str> {
        let mut t: Vec<&str> = self.by_testcase.keys().map(String::as_str).collect();
        t.sort_unstable();
        t
    }

    /// Starts a query.
    pub fn query(&self) -> Query<'_> {
        Query {
            db: self,
            task: None,
            user: None,
            kind: None,
            outcome: None,
            testcase_contains: None,
        }
    }
}

/// A filter builder over the database.
#[derive(Debug, Clone)]
pub struct Query<'a> {
    db: &'a ResultDatabase,
    task: Option<Task>,
    user: Option<String>,
    kind: Option<RunKind>,
    outcome: Option<RunOutcome>,
    testcase_contains: Option<String>,
}

impl<'a> Query<'a> {
    /// Restrict to one foreground task.
    pub fn task(mut self, task: Task) -> Self {
        self.task = Some(task);
        self
    }

    /// Restrict to one subject.
    pub fn user(mut self, user: impl Into<String>) -> Self {
        self.user = Some(user.into());
        self
    }

    /// Restrict to one testcase kind.
    pub fn kind(mut self, kind: RunKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restrict to one outcome.
    pub fn outcome(mut self, outcome: RunOutcome) -> Self {
        self.outcome = Some(outcome);
        self
    }

    /// Restrict to testcase ids containing a marker (e.g. `"cpu"`).
    pub fn testcase_contains(mut self, marker: impl Into<String>) -> Self {
        self.testcase_contains = Some(marker.into());
        self
    }

    /// Runs the query.
    pub fn collect(&self) -> Vec<&'a RunRecord> {
        // Use the most selective available index as the base set.
        let base: Box<dyn Iterator<Item = usize>> = if let Some(u) = &self.user {
            Box::new(
                self.db
                    .by_user
                    .get(u)
                    .map(|v| v.iter().copied())
                    .into_iter()
                    .flatten(),
            )
        } else if let Some(t) = self.task {
            Box::new(
                self.db
                    .by_task
                    .get(t.name())
                    .map(|v| v.iter().copied())
                    .into_iter()
                    .flatten(),
            )
        } else {
            Box::new(0..self.db.records.len())
        };
        base.map(|i| &self.db.records[i])
            .filter(|r| self.task.is_none_or(|t| r.task == t.name()))
            .filter(|r| self.user.as_deref().is_none_or(|u| r.user == u))
            .filter(|r| self.kind.is_none_or(|k| RunKind::of(&r.testcase) == k))
            .filter(|r| self.outcome.is_none_or(|o| r.outcome == o))
            .filter(|r| {
                self.testcase_contains
                    .as_deref()
                    .is_none_or(|m| r.testcase.contains(m))
            })
            .collect()
    }

    /// Number of matching records.
    pub fn count(&self) -> usize {
        self.collect().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controlled::{ControlledStudy, StudyConfig};
    use uucs_comfort::Fidelity;

    fn db() -> ResultDatabase {
        let data = ControlledStudy::new(StudyConfig {
            seed: 55,
            users: 8,
            fidelity: Fidelity::Fast,
        })
        .run();
        ResultDatabase::from_records(data.records)
    }

    #[test]
    fn indexes_cover_everything() {
        let db = db();
        assert_eq!(db.len(), 8 * 32);
        assert_eq!(db.users().len(), 8);
        assert_eq!(db.testcases().len(), 32);
    }

    #[test]
    fn query_by_task_and_kind() {
        let db = db();
        let quake_ramps = db.query().task(Task::Quake).kind(RunKind::Ramp).collect();
        // 8 users x 3 ramps.
        assert_eq!(quake_ramps.len(), 24);
        assert!(quake_ramps.iter().all(|r| r.task == "Quake"));
        let blanks = db.query().kind(RunKind::Blank).count();
        assert_eq!(blanks, 8 * 4 * 2);
    }

    #[test]
    fn query_composition() {
        let db = db();
        let total = db.query().count();
        let by_outcome = db.query().outcome(RunOutcome::Discomfort).count()
            + db.query().outcome(RunOutcome::Exhausted).count();
        assert_eq!(total, by_outcome);
        let u = db.users()[0].to_string();
        let user_runs = db.query().user(u.clone()).count();
        assert_eq!(user_runs, 32);
        let narrow = db
            .query()
            .user(u)
            .task(Task::Word)
            .testcase_contains("cpu")
            .collect();
        assert_eq!(narrow.len(), 2); // cpu ramp + cpu step
    }

    #[test]
    fn run_kind_classification() {
        // One row per id shape the workspace's generators can emit,
        // plus the adversarial shapes substring matching used to get
        // wrong. See the `RunKind::of` docs for the two conventions.
        let table: &[(&str, RunKind)] = &[
            // Controlled study: {task}-{resource}-{kind}.
            ("word-cpu-ramp", RunKind::Ramp),
            ("ie-disk-step", RunKind::Step),
            ("quake-network-ramp", RunKind::Ramp),
            ("quake-blank-2", RunKind::Blank),
            // Internet sweep: {resource}-{kind}-{params...}.
            ("cpu-ramp-7-120", RunKind::Ramp),
            ("disk-step-4-60-30", RunKind::Step),
            ("memory-sin-0.5-40", RunKind::Other),
            ("net-saw-0.25-40", RunKind::Other),
            ("cpu-expexp-0007", RunKind::Other),
            ("cpu-exppar-0012", RunKind::Other),
            ("blank-3-60", RunKind::Blank),
            // Adversarial: `ramp`/`step` segments that do not follow a
            // resource segment must not classify.
            ("step-ramp-mix", RunKind::Other),
            ("ramp-cpu", RunKind::Other),
            ("trace-17", RunKind::Other),
            // A resource with no following segment at all.
            ("cpu", RunKind::Other),
            ("", RunKind::Other),
        ];
        for (id, want) in table {
            assert_eq!(RunKind::of(id), *want, "id {id:?}");
        }
    }

    #[test]
    fn import_roundtrip() {
        let db = db();
        let dir = uucs_harness::TempDir::new("uucs-db");
        let path = dir.join("results.txt");
        std::fs::write(&path, RunRecord::emit_many(db.all())).unwrap();
        let imported = ResultDatabase::import(&path).unwrap();
        assert_eq!(imported.all(), db.all());
    }

    #[test]
    fn import_wal_folds_snapshot_and_tail() {
        use uucs_protocol::WalEntry;
        use uucs_wal::{StdIo, SyncPolicy, Wal, WalConfig};

        let db = db();
        let records = &db.all()[..10];
        let dir = uucs_harness::TempDir::new("uucs-db-wal");
        let config = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Always,
        };
        // Journal records the way the server's result store does: the
        // first half folded into a checkpoint, the rest left as tail.
        {
            let (mut wal, _) = Wal::open(StdIo::new(), dir.path(), config).unwrap();
            for rec in &records[..5] {
                wal.append(&WalEntry::Result(rec.clone()).encode()).unwrap();
            }
            wal.snapshot(RunRecord::emit_many(&records[..5]).as_bytes())
                .unwrap();
            wal.compact().unwrap();
            for rec in &records[5..8] {
                wal.append(&WalEntry::Result(rec.clone()).encode()).unwrap();
            }
            // Idempotent uploads journal whole batches; the importer
            // folds those too.
            wal.append(
                &WalEntry::Batch {
                    client: "client-0001".into(),
                    seq: 1,
                    records: records[8..].to_vec(),
                }
                .encode(),
            )
            .unwrap();
        }
        let imported = ResultDatabase::import_wal(dir.path()).unwrap();
        assert_eq!(imported.all(), records);

        // A testcase entry in a result journal is a structural error.
        let dir2 = uucs_harness::TempDir::new("uucs-db-wal-bad");
        {
            let (mut wal, _) = Wal::open(StdIo::new(), dir2.path(), config).unwrap();
            let tc = uucs_testcase::Testcase::single(
                "t0",
                1.0,
                uucs_testcase::Resource::Cpu,
                uucs_testcase::ExerciseSpec::Ramp {
                    level: 1.0,
                    duration: 30.0,
                },
            );
            wal.append(&WalEntry::Testcase(tc).encode()).unwrap();
        }
        let err = ResultDatabase::import_wal(dir2.path()).unwrap_err();
        assert!(err.to_string().contains("testcase entry"), "{err}");
    }

    #[test]
    fn empty_database() {
        let db = ResultDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.query().task(Task::Ie).count(), 0);
    }
}
