//! The controlled study driver (§3).
//!
//! Exercises the *entire* system: a server holding the Figure 8 testcase
//! library, one deterministic-mode client per subject running the 8
//! testcases of each task in per-user random order, results hot-synced
//! back, and the analysis reading the server's result store — the full
//! Figure 1 / Figure 2 pipeline.

use std::sync::Arc;
use uucs_client::{LocalTransport, Script, UucsClient};
use uucs_comfort::{calibration, Fidelity, UserPopulation, UserProfile};
use uucs_protocol::{MachineSnapshot, RunRecord};
use uucs_server::{TestcaseStore, UucsServer};
use uucs_stats::{parallel, Pcg64};
use uucs_telemetry::metrics;
use uucs_testcase::Testcase;
use uucs_workloads::Task;

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Number of subjects (the paper ran 33).
    pub users: usize,
    /// Run fidelity ([`Fidelity::Fast`] for the statistics; `Full` also
    /// simulates the machine per run).
    pub fidelity: Fidelity,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 2004,
            users: 33,
            fidelity: Fidelity::Fast,
        }
    }
}

/// The study outputs: every uploaded run record plus the population that
/// produced them (needed for the skill analysis).
#[derive(Debug, Clone)]
pub struct StudyData {
    /// All uploaded run records.
    pub records: Vec<RunRecord>,
    /// The synthetic subjects.
    pub population: UserPopulation,
    /// The config that produced the data.
    pub config: StudyConfig,
}

impl StudyData {
    /// Records for one task.
    pub fn of_task(&self, task: Task) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.task == task.name())
            .collect()
    }

    /// Records whose testcase id contains a marker (e.g. `"ramp"`).
    pub fn with_id_containing<'a>(&'a self, marker: &str) -> Vec<&'a RunRecord> {
        self.records
            .iter()
            .filter(|r| r.testcase.contains(marker))
            .collect()
    }
}

/// The controlled study.
pub struct ControlledStudy {
    config: StudyConfig,
}

impl ControlledStudy {
    /// Creates a study with the given configuration.
    pub fn new(config: StudyConfig) -> Self {
        ControlledStudy { config }
    }

    /// The full testcase library: 8 testcases per task (Figure 8).
    pub fn library() -> Vec<Testcase> {
        Task::ALL
            .iter()
            .flat_map(|&t| calibration::controlled_testcases(t))
            .collect()
    }

    /// Builds one subject's deterministic command file: for each task, the
    /// task's 8 testcases in random order, with a final sync.
    fn session_script(library: &[Testcase], rng: &mut Pcg64) -> Script {
        // `library` lists each task's testcases together, in task order.
        let per_task = library.len() / Task::ALL.len();
        let mut commands = Vec::new();
        for (&task, testcases) in Task::ALL.iter().zip(library.chunks(per_task)) {
            let mut ids: Vec<String> = testcases.iter().map(|tc| tc.id.to_string()).collect();
            rng.shuffle(&mut ids);
            for id in ids {
                commands.push(uucs_client::Command::Run {
                    testcase: id,
                    task,
                });
            }
        }
        commands.push(uucs_client::Command::Sync);
        Script { commands }
    }

    /// Runs the study end to end and returns the collected data.
    ///
    /// The subjects' sessions run on every available CPU; the data does
    /// not depend on how many there are (see [`run_on`](Self::run_on)).
    pub fn run(&self) -> StudyData {
        self.run_on(parallel::available_workers())
    }

    /// [`run`](Self::run) on a given number of worker threads, in three
    /// phases. Everything that touches the shared server stays serial
    /// and in subject order — registration first (client ids are a
    /// server-side counter), the final hot syncs last (upload order is
    /// the order of `server.results()`) — and only the runs in between,
    /// each a pure function of its seed on its own simulated machine,
    /// are spread over the workers. Ids, seeds, batch sequence numbers
    /// and record order are therefore the same for any `workers`.
    pub(crate) fn run_on(&self, workers: usize) -> StudyData {
        let t0 = std::time::Instant::now();
        let library = Arc::new(Self::library());
        let server = Arc::new(UucsServer::new(
            TestcaseStore::from_testcases(library.to_vec()).expect("unique ids"),
            self.config.seed,
        ));
        let population = UserPopulation::generate(self.config.users, self.config.seed);
        let root = Pcg64::new(self.config.seed).split_str("controlled-study");
        let mut transport = LocalTransport::new(server.clone());

        struct Session<'a> {
            client: UucsClient,
            user: &'a UserProfile,
            script: Script,
            seed: u64,
        }
        let mut sessions: Vec<Session<'_>> = population
            .users()
            .iter()
            .enumerate()
            .map(|(i, user)| {
                let mut rng = root.split(i as u64);
                let mut client = UucsClient::new(
                    MachineSnapshot::study_machine(format!("optiplex-{}", i % 2 + 1)),
                    rng.next_u64(),
                );
                client
                    .register(&mut transport)
                    .expect("local transport cannot fail");
                // Deterministic mode: the testcases come from a local file.
                client.install_testcases(Arc::clone(&library));
                let script = Self::session_script(&library, &mut rng);
                Session {
                    client,
                    user,
                    script,
                    seed: rng.next_u64(),
                }
            })
            .collect();

        let fidelity = self.config.fidelity;
        parallel::ordered_map(workers, sessions.iter_mut(), |s| {
            s.client
                .execute_runs(&s.script, s.user, fidelity, s.seed)
                .expect("scripted session");
        });

        for mut session in sessions {
            session
                .client
                .hot_sync(&mut transport)
                .expect("local transport cannot fail");
        }

        let records = server
            .results()
            .expect("records this server rendered itself decode");
        // Fleet telemetry: total runs driven and this study's throughput
        // (visible in a STATS snapshot alongside server/WAL timings).
        metrics::counter("study.runs").add(records.len() as u64);
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            metrics::gauge("study.runs_per_sec").set((records.len() as f64 / secs) as i64);
        }

        StudyData {
            records,
            population,
            config: self.config.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_protocol::RunOutcome;

    fn small_study() -> StudyData {
        ControlledStudy::new(StudyConfig {
            seed: 7,
            users: 12,
            fidelity: Fidelity::Fast,
        })
        .run()
    }

    fn paper_study(fidelity: Fidelity, users: usize) -> ControlledStudy {
        ControlledStudy::new(StudyConfig {
            seed: 2004,
            users,
            fidelity,
        })
    }

    /// CRC32 of the emitted records, the form they are stored in.
    fn records_crc(data: &StudyData) -> u32 {
        uucs_wal::crc::crc32(RunRecord::emit_many(&data.records).as_bytes())
    }

    /// The records do not depend on how many threads ran the sessions:
    /// one (inline on the caller), fewer than users, more than users.
    #[test]
    fn records_are_independent_of_the_worker_count() {
        for (fidelity, users) in [(Fidelity::Fast, 33), (Fidelity::Full, 6)] {
            let study = paper_study(fidelity, users);
            let inline = study.run_on(1);
            assert_eq!(inline.records.len(), users * 32);
            for workers in [2, 3, 8] {
                assert!(
                    study.run_on(workers).records == inline.records,
                    "seed 2004, {fidelity:?}, {users} users: {workers} workers differ from 1"
                );
            }
        }
    }

    /// The paper-sized study's records — client ids and order included —
    /// are the ones the serial per-user loop produced before the runs
    /// were spread over threads: these CRCs were captured from that
    /// implementation (commit 4363281) for seed 2004, 33 users.
    #[test]
    fn paper_study_records_are_pinned() {
        for (fidelity, pinned) in [(Fidelity::Fast, 0x5cff_24d8), (Fidelity::Full, 0x0977_da09)] {
            let data = paper_study(fidelity, 33).run();
            assert_eq!(data.records.len(), 1056);
            assert_eq!(
                records_crc(&data),
                pinned,
                "seed 2004, {fidelity:?}, 33 users, {} workers",
                parallel::available_workers()
            );
        }
    }

    #[test]
    fn every_user_runs_every_testcase() {
        let data = small_study();
        // 12 users x 4 tasks x 8 testcases.
        assert_eq!(data.records.len(), 12 * 32);
        for task in Task::ALL {
            assert_eq!(data.of_task(task).len(), 12 * 8);
        }
        // Each (user, testcase) appears exactly once.
        let mut keys: Vec<(String, String)> = data
            .records
            .iter()
            .map(|r| (r.user.clone(), r.testcase.clone()))
            .collect();
        keys.sort();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn study_is_deterministic() {
        let a = small_study();
        let b = small_study();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn seed_changes_results() {
        let a = small_study();
        let b = ControlledStudy::new(StudyConfig {
            seed: 8,
            users: 12,
            fidelity: Fidelity::Fast,
        })
        .run();
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn blank_runs_only_discomfort_in_sensitive_tasks() {
        let data = ControlledStudy::new(StudyConfig {
            seed: 9,
            users: 25,
            fidelity: Fidelity::Fast,
        })
        .run();
        let blank_df = |task: Task| {
            data.of_task(task)
                .iter()
                .filter(|r| r.testcase.contains("blank") && r.outcome == RunOutcome::Discomfort)
                .count()
        };
        assert_eq!(blank_df(Task::Word), 0);
        assert_eq!(blank_df(Task::Powerpoint), 0);
        assert!(blank_df(Task::Quake) > 0, "Quake noise floor must show");
    }

    #[test]
    fn quake_cpu_mostly_discomforts() {
        // Quake/CPU has f_d = 0.95: nearly every ramp run ends in
        // discomfort.
        let data = small_study();
        let runs: Vec<_> = data
            .records
            .iter()
            .filter(|r| r.testcase == "quake-cpu-ramp")
            .collect();
        assert_eq!(runs.len(), 12);
        let df = runs
            .iter()
            .filter(|r| r.outcome == RunOutcome::Discomfort)
            .count();
        assert!(df >= 10, "{df}/12 discomforted");
    }

    #[test]
    fn word_memory_never_discomforts() {
        let data = small_study();
        let df = data
            .records
            .iter()
            .filter(|r| r.testcase.starts_with("word-memory"))
            .filter(|r| r.outcome == RunOutcome::Discomfort)
            .count();
        assert_eq!(df, 0);
    }
}
