//! The client state machine: registration, hot sync, run scheduling, and
//! run execution.

use crate::script::{Command, Script};
use crate::transport::ClientTransport;
use std::collections::HashSet;
use std::io;
use std::sync::{Arc, OnceLock};
use uucs_comfort::{execute_run, Fidelity, RunSetup, RunStyle, UserProfile};
use uucs_protocol::{ClientMsg, MachineSnapshot, RunRecord, ServerMsg};
use uucs_stats::Pcg64;
use uucs_telemetry::{metrics, Counter, Gauge};
use uucs_testcase::{Testcase, TestcaseId};
use uucs_workloads::Task;

/// Pre-registered session telemetry (`client.register.*`,
/// `client.upload.*`, `client.spool.depth`). The spool gauge tracks
/// [`UucsClient::unsynced`] — how many records would be lost if the
/// disk store also vanished — updated wherever that count changes.
struct ClientMetrics {
    register_ok: Counter,
    register_err: Counter,
    upload_ok: Counter,
    upload_err: Counter,
    spool_depth: Gauge,
}

fn client_metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ClientMetrics {
        register_ok: metrics::counter("client.register.ok"),
        register_err: metrics::counter("client.register.err"),
        upload_ok: metrics::counter("client.upload.ok"),
        upload_err: metrics::counter("client.upload.err"),
        spool_depth: metrics::gauge("client.spool.depth"),
    })
}

/// The client-id stamp on records measured before registration ever
/// succeeded; [`UucsClient::register`] re-stamps such records with the
/// real id so they do not enter the study misattributed.
const UNREGISTERED: &str = "unregistered";

/// What a hot sync accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Testcases downloaded.
    pub downloaded: usize,
    /// Result records uploaded.
    pub uploaded: usize,
}

/// The UUCS client.
pub struct UucsClient {
    snapshot: MachineSnapshot,
    id: Option<String>,
    /// Shared, copy-on-write: a study installs one library into every
    /// subject's client without copying it; a sync that downloads into a
    /// shared set copies it first.
    testcases: Arc<Vec<Testcase>>,
    pending: Vec<RunRecord>,
    /// The frozen batch: records assigned a sequence number and sent at
    /// least once, but not yet acknowledged. Retries resend exactly this
    /// set — new records queue in `pending` for the *next* sequence
    /// number, so a retried batch never grows (the server would discard
    /// the growth as a replay).
    inflight: Option<(u64, Vec<RunRecord>)>,
    /// The last batch sequence number assigned; the next freeze uses
    /// `seq + 1`.
    seq: u64,
    /// Optional on-disk store; when attached, fresh records are spooled
    /// and the seq/in-flight state journaled as it changes, so a crash
    /// mid-upload resumes safely.
    store: Option<crate::store::ClientStore>,
    rng: Pcg64,
    /// Size of the next sync's download request; grows per sync ("a
    /// growing random sample of testcases").
    next_batch: usize,
    /// Registration idempotency token: a registration retried after a
    /// lost `ID` reply (or after a client restart against the same
    /// store) resolves to the same server-side identity instead of
    /// minting a duplicate client. A store-less client derives it from
    /// the seed and hostname; attaching a store replaces it with the
    /// store's persisted machine-unique token
    /// ([`ClientStore::reg_token`](crate::store::ClientStore::reg_token)),
    /// so two machines that happen to share a seed never collapse into
    /// one identity.
    reg_token: String,
}

impl UucsClient {
    /// Creates a client for a machine, seeded for reproducible local
    /// random choices.
    pub fn new(snapshot: MachineSnapshot, seed: u64) -> Self {
        // Seed AND hostname: a seed alone is a footgun (the daemon's
        // --seed defaults to a constant), and two machines presenting
        // the same token would share one server identity — and one
        // upload dedup horizon, silently discarding each other's
        // batches. Store-backed clients get a stronger, persisted
        // machine-unique token in `attach_store`/`restore`.
        let reg_token = format!(
            "tok-{:016x}",
            Pcg64::new(seed)
                .split_str("reg-token")
                .split_str(&snapshot.hostname)
                .next_u64()
        );
        UucsClient {
            snapshot,
            id: None,
            testcases: Arc::default(),
            pending: Vec::new(),
            inflight: None,
            seq: 0,
            store: None,
            rng: Pcg64::new(seed).split_str("client"),
            next_batch: 8,
            reg_token,
        }
    }

    /// Attaches an on-disk store: from now on every fresh record is
    /// spooled the moment it exists, and batch state is journaled across
    /// freeze/ack transitions. The store's persisted machine-unique
    /// registration token replaces the seed-derived default, so seed
    /// collisions across machines cannot merge identities.
    pub fn attach_store(&mut self, store: crate::store::ClientStore) {
        match store.reg_token() {
            Ok(token) => self.reg_token = token,
            // Keep the seed-derived token: weaker against collision,
            // but the session must not die because one file write
            // failed.
            Err(e) => eprintln!("uucs-client: cannot persist registration token: {e}"),
        }
        self.store = Some(store);
    }

    /// The assigned GUID, once registered.
    pub fn id(&self) -> Option<&str> {
        self.id.as_deref()
    }

    /// The locally held testcases.
    pub fn testcases(&self) -> &[Testcase] {
        &self.testcases
    }

    /// Results awaiting upload (not yet frozen into a batch).
    pub fn pending(&self) -> &[RunRecord] {
        &self.pending
    }

    /// The frozen, unacknowledged batch, if an upload is in flight.
    pub fn inflight(&self) -> Option<(u64, &[RunRecord])> {
        self.inflight.as_ref().map(|(s, r)| (*s, r.as_slice()))
    }

    /// Every record not yet acknowledged by the server: the in-flight
    /// batch plus the pending queue.
    pub fn unsynced(&self) -> usize {
        self.pending.len() + self.inflight.as_ref().map_or(0, |(_, r)| r.len())
    }

    /// Injects testcases directly (deterministic mode gets its set from a
    /// local file rather than a sync). Takes a `Vec<Testcase>`, or an
    /// `Arc<Vec<Testcase>>` to share one set among many clients.
    pub fn install_testcases(&mut self, tcs: impl Into<Arc<Vec<Testcase>>>) {
        self.testcases = tcs.into();
    }

    /// Restores persisted state (id, testcases, pending results, batch
    /// sequence, and any batch that was in flight when the last session
    /// died). Records present in both the pending spool and the
    /// in-flight batch (a crash can land between the spool append and
    /// the freeze) are kept only in the batch, so nothing uploads twice.
    pub fn restore(&mut self, store: &crate::store::ClientStore) -> io::Result<()> {
        self.reg_token = store.reg_token()?;
        self.id = store.load_id();
        self.testcases = Arc::new(store.load_testcases()?);
        self.pending = store.load_pending()?;
        let seq = store.try_load_seq();
        self.seq = seq.unwrap_or(0);
        self.inflight = store.load_inflight()?;
        if let Some((seq, records)) = &self.inflight {
            self.seq = self.seq.max(*seq);
            self.pending.retain(|r| !records.contains(r));
        }
        // An id without a counter file means the store lost its sequence
        // state (registration journals them together). Keeping the
        // cached id would skip the registration exchange — the only
        // place the server's applied horizon is learned — so the first
        // batch would reuse a burned seq and be acknowledged as a
        // replay, never stored. Drop the id (the persisted token brings
        // the same identity back) to force that exchange. A surviving
        // in-flight batch carries the exact last-assigned seq, so it
        // heals the counter on its own.
        if self.id.is_some() && seq.is_none() && self.inflight.is_none() {
            self.id = None;
        }
        Ok(())
    }

    /// Persists state.
    pub fn persist(&self, store: &crate::store::ClientStore) -> io::Result<()> {
        if let Some(id) = &self.id {
            store.save_id(id)?;
        }
        store.save_testcases(&self.testcases)?;
        store.save_pending(&self.pending)?;
        store.save_seq(self.seq)?;
        match &self.inflight {
            Some((seq, records)) => store.save_inflight(*seq, records),
            None => store.clear_inflight(),
        }
    }

    /// Registers with the server, obtaining a GUID. Idempotent: an
    /// already-registered client keeps its id.
    ///
    /// Registration is also where a client resynchronizes with its
    /// server-side past: the `ID` reply carries the server's applied
    /// upload horizon for the identity, and the batch counter
    /// fast-forwards to it — a client whose local store was wiped would
    /// otherwise restart at seq 1 and have every new batch ACKed as a
    /// replay of one the server already holds, acknowledged but never
    /// stored. Records measured before registration succeeded (stamped
    /// "unregistered") are re-stamped with the real id here.
    pub fn register(&mut self, transport: &mut dyn ClientTransport) -> io::Result<String> {
        if let Some(id) = &self.id {
            return Ok(id.clone());
        }
        let msg = ClientMsg::Register {
            snapshot: self.snapshot.clone(),
            token: self.reg_token.clone(),
        };
        let reply = transport.exchange(&msg);
        if reply.is_err() {
            client_metrics().register_err.inc();
        }
        match reply? {
            ServerMsg::Id { id, applied_seq } => {
                client_metrics().register_ok.inc();
                self.id = Some(id.clone());
                self.seq = self.seq.max(applied_seq);
                let mut restamped = false;
                for rec in self
                    .pending
                    .iter_mut()
                    .chain(self.inflight.iter_mut().flat_map(|(_, r)| r.iter_mut()))
                {
                    if rec.client == UNREGISTERED {
                        rec.client = id.clone();
                        restamped = true;
                    }
                }
                // Journal the identity now rather than waiting for the
                // session's final persist(): best-effort, like the
                // spool — a failed write must not undo a successful
                // registration.
                if let Some(store) = &self.store {
                    let journal = || -> io::Result<()> {
                        store.save_id(&id)?;
                        store.save_seq(self.seq)?;
                        if restamped {
                            store.save_pending(&self.pending)?;
                            if let Some((seq, records)) = &self.inflight {
                                store.save_inflight(*seq, records)?;
                            }
                        }
                        Ok(())
                    };
                    if let Err(e) = journal() {
                        eprintln!("uucs-client: cannot journal registration: {e}");
                    }
                }
                Ok(id)
            }
            other => {
                client_metrics().register_err.inc();
                Err(protocol_err(other))
            }
        }
    }

    /// Hot sync: download new testcases (growing random sample), upload
    /// pending results.
    pub fn hot_sync(&mut self, transport: &mut dyn ClientTransport) -> io::Result<SyncReport> {
        let id = self
            .id
            .clone()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "not registered"))?;
        let want = self.next_batch;
        // The sample grows sync over sync.
        self.next_batch = self.next_batch + self.next_batch / 2 + 1;
        let downloaded = match transport.exchange(&ClientMsg::Sync {
            client: id.clone(),
            have: self.testcases.len(),
            want,
        })? {
            ServerMsg::Testcases(tcs) => {
                // The server samples by position in its library, so a
                // library that grew between two syncs can offer again a
                // testcase this client already holds: keep one copy.
                let mut held: HashSet<TestcaseId> =
                    self.testcases.iter().map(|t| t.id.clone()).collect();
                let fresh: Vec<Testcase> = tcs
                    .into_iter()
                    .filter(|t| held.insert(t.id.clone()))
                    .collect();
                let n = fresh.len();
                if n > 0 {
                    Arc::make_mut(&mut self.testcases).extend(fresh);
                }
                n
            }
            other => return Err(protocol_err(other)),
        };
        // Upload loop: first re-send any frozen batch from an earlier,
        // unacknowledged attempt (same seq, same records — the server
        // dedups), then freeze and send the pending queue as the next
        // batch. An error leaves the current batch frozen in-flight for
        // the next sync.
        let mut uploaded = 0;
        loop {
            if self.inflight.is_none() {
                if self.pending.is_empty() {
                    break;
                }
                self.seq += 1;
                let records = std::mem::take(&mut self.pending);
                self.inflight = Some((self.seq, records));
                if let Some(store) = &self.store {
                    let (seq, records) = self.inflight.as_ref().expect("just frozen");
                    store.save_seq(*seq)?;
                    store.save_inflight(*seq, records)?;
                    store.save_pending(&self.pending)?;
                }
            }
            let (seq, records) = self.inflight.clone().expect("checked above");
            let n = records.len();
            let reply = transport.exchange(&ClientMsg::Upload {
                client: id.clone(),
                seq,
                records,
            });
            if reply.is_err() {
                client_metrics().upload_err.inc();
            }
            match reply? {
                ServerMsg::Ack(k) if k == n => {
                    client_metrics().upload_ok.add(n as u64);
                    uploaded += n;
                    if let Some((_, records)) = self.inflight.take() {
                        if let Some(store) = &self.store {
                            store.archive(&records)?;
                            store.clear_inflight()?;
                        }
                    }
                    client_metrics().spool_depth.set(self.unsynced() as i64);
                }
                other => {
                    client_metrics().upload_err.inc();
                    return Err(protocol_err(other));
                }
            }
        }
        Ok(SyncReport {
            downloaded,
            uploaded,
        })
    }

    /// Locally random testcase choice (§2: "local random choice of
    /// testcases").
    pub fn choose_testcase(&mut self) -> Option<Testcase> {
        if self.testcases.is_empty() {
            return None;
        }
        let i = self.rng.below(self.testcases.len() as u64) as usize;
        Some(self.testcases[i].clone())
    }

    /// Seconds until the next testcase execution: Poisson arrivals (§2)
    /// with the given mean gap.
    pub fn next_arrival_gap(&mut self, mean_secs: f64) -> f64 {
        assert!(mean_secs > 0.0);
        self.rng.exponential(1.0 / mean_secs)
    }

    /// Executes one testcase for `user` under `task` and queues the
    /// result for upload. `run_seed` should identify the run uniquely.
    pub fn perform_run(
        &mut self,
        user: &UserProfile,
        task: Task,
        testcase: &Testcase,
        fidelity: Fidelity,
        run_seed: u64,
    ) -> &RunRecord {
        let setup = RunSetup {
            user,
            task,
            testcase,
            style: RunStyle::infer(testcase),
            seed: run_seed,
            fidelity,
            client_id: self.id.clone().unwrap_or_else(|| "unregistered".into()),
        };
        let record = execute_run(&setup);
        if let Some(store) = &self.store {
            // Journal the record the moment it exists; losing a run
            // because the process died before the next persist() would
            // waste a user's discomfort.
            if let Err(e) = store.spool_append(&record) {
                eprintln!("uucs-client: cannot spool record: {e}");
            }
        }
        self.pending.push(record);
        client_metrics().spool_depth.set(self.unsynced() as i64);
        self.pending.last().unwrap()
    }

    /// Deterministic mode: executes a command script for one subject.
    /// `RUN` commands look testcases up in the local store; `SYNC`
    /// commands hot-sync through the transport; `WAIT` is a no-op offline
    /// pause. Returns the number of runs executed.
    pub fn execute_script(
        &mut self,
        script: &Script,
        user: &UserProfile,
        fidelity: Fidelity,
        transport: &mut dyn ClientTransport,
        seed: u64,
    ) -> io::Result<usize> {
        self.run_script(script, user, fidelity, Some(transport), seed)
    }

    /// The offline part of [`execute_script`](Self::execute_script): the
    /// script's `RUN` commands, in order and with the seeds
    /// `execute_script` gives them; `SYNC` is left to the caller. Needs
    /// no transport, so a study can run its subjects' sessions side by
    /// side and sync them afterwards in subject order. Returns the
    /// number of runs executed.
    pub fn execute_runs(
        &mut self,
        script: &Script,
        user: &UserProfile,
        fidelity: Fidelity,
        seed: u64,
    ) -> io::Result<usize> {
        self.run_script(script, user, fidelity, None, seed)
    }

    fn run_script(
        &mut self,
        script: &Script,
        user: &UserProfile,
        fidelity: Fidelity,
        mut transport: Option<&mut dyn ClientTransport>,
        seed: u64,
    ) -> io::Result<usize> {
        let mut runs = 0usize;
        for (i, cmd) in script.commands.iter().enumerate() {
            match cmd {
                Command::Run { testcase, task } => {
                    let local = Arc::clone(&self.testcases);
                    let tc = local
                        .iter()
                        .find(|t| t.id.as_str() == testcase)
                        .ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::NotFound,
                                format!("testcase {testcase} not in local store"),
                            )
                        })?;
                    let run_seed = Pcg64::new(seed).split(i as u64).next_u64();
                    self.perform_run(user, *task, tc, fidelity, run_seed);
                    runs += 1;
                }
                Command::Sync => {
                    // A failed sync is not fatal: the records stay
                    // queued (or frozen in flight) and the next SYNC —
                    // or the next session — retries them.
                    if let Some(transport) = &mut transport {
                        if let Err(e) = self.hot_sync(&mut **transport) {
                            eprintln!("uucs-client: sync failed, results kept locally: {e}");
                        }
                    }
                }
                Command::Wait(_) => {}
            }
        }
        Ok(runs)
    }
}

fn protocol_err(msg: ServerMsg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected server reply: {msg:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalTransport;
    use std::sync::Arc;
    use uucs_comfort::UserPopulation;
    use uucs_server::{TestcaseStore, UucsServer};
    use uucs_testcase::generate::Library;

    fn server(n_testcases: usize) -> Arc<UucsServer> {
        let mut lib = Library::new();
        for i in 0..n_testcases {
            lib.add_ramp(
                uucs_testcase::Resource::Cpu,
                1.0 + (i as f64) * 0.1,
                120.0,
            );
        }
        Arc::new(UucsServer::new(
            TestcaseStore::from_testcases(lib.testcases().to_vec()).expect("unique ids"),
            77,
        ))
    }

    #[test]
    fn register_is_idempotent() {
        let srv = server(3);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 1);
        let id1 = c.register(&mut t).unwrap();
        let id2 = c.register(&mut t).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(srv.client_count(), 1);
    }

    #[test]
    fn hot_sync_grows_the_sample_and_uploads() {
        let srv = server(40);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 2);
        c.register(&mut t).unwrap();
        let r1 = c.hot_sync(&mut t).unwrap();
        assert_eq!(r1.downloaded, 8);
        let r2 = c.hot_sync(&mut t).unwrap();
        assert!(r2.downloaded > 8, "growing sample: {}", r2.downloaded);
        assert_eq!(c.testcases().len(), r1.downloaded + r2.downloaded);
        // No duplicates across syncs.
        let mut ids: Vec<_> = c.testcases().iter().map(|t| t.id.as_str()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    /// A library that grows between two syncs reshuffles the server's
    /// order for this client, so the second reply re-offers testcases
    /// the client already holds. The client keeps one copy of each.
    #[test]
    fn sync_across_a_library_addition_keeps_one_copy_of_each_testcase() {
        let srv = server(10);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 5);
        let id = c.register(&mut t).unwrap();
        c.next_batch = 4;
        assert_eq!(c.hot_sync(&mut t).unwrap().downloaded, 4);
        let held: Vec<String> = c.testcases().iter().map(|t| t.id.to_string()).collect();
        let late: Vec<_> = (0..5)
            .map(|i| uucs_testcase::Testcase::blank(format!("late-{i}"), 1.0, 60.0))
            .collect();
        srv.add_testcases(&late).unwrap();
        // The scenario: the next reply does re-send held testcases.
        let ServerMsg::Testcases(offered) = t
            .exchange(&ClientMsg::Sync {
                client: id,
                have: 4,
                want: 11,
            })
            .unwrap()
        else {
            panic!("expected testcases");
        };
        let again = offered
            .iter()
            .filter(|t| held.contains(&t.id.to_string()))
            .count();
        assert!(again > 0, "the reshuffle re-offered nothing held");
        c.next_batch = 11;
        let report = c.hot_sync(&mut t).unwrap();
        assert_eq!(report.downloaded, offered.len() - again);
        let mut ids: Vec<&str> = c.testcases().iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids.len(), 4 + offered.len() - again);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.testcases().len(), "a testcase is held twice");
    }

    #[test]
    fn sync_before_register_fails() {
        let srv = server(3);
        let mut t = LocalTransport::new(srv);
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 3);
        assert!(c.hot_sync(&mut t).is_err());
    }

    #[test]
    fn perform_run_queues_result_and_sync_uploads_it() {
        let srv = server(5);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 4);
        c.register(&mut t).unwrap();
        c.hot_sync(&mut t).unwrap();
        let pop = UserPopulation::generate(1, 9);
        let tc = c.choose_testcase().unwrap();
        c.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 42);
        assert_eq!(c.pending().len(), 1);
        let report = c.hot_sync(&mut t).unwrap();
        assert_eq!(report.uploaded, 1);
        assert!(c.pending().is_empty());
        assert_eq!(srv.result_count(), 1);
        assert_eq!(srv.results().unwrap()[0].task, "IE");
    }

    #[test]
    fn poisson_arrival_gaps_have_right_mean() {
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| c.next_arrival_gap(300.0)).sum::<f64>() / n as f64;
        assert!((mean - 300.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn deterministic_script_executes_runs() {
        let srv = server(2);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 6);
        c.register(&mut t).unwrap();
        // Deterministic mode: testcases from the local file, not a sync.
        let tcs = uucs_comfort::calibration::controlled_testcases(Task::Word);
        let script_text = "RUN word-cpu-ramp Word\nWAIT 2\nRUN word-blank-1 Word\nSYNC\n";
        c.install_testcases(tcs);
        let script = Script::parse(script_text).unwrap();
        let pop = UserPopulation::generate(1, 10);
        let runs = c
            .execute_script(&script, &pop.users()[0], Fidelity::Fast, &mut t, 99)
            .unwrap();
        assert_eq!(runs, 2);
        // The SYNC uploaded both results.
        assert_eq!(srv.result_count(), 2);
    }

    /// `execute_runs` then one `hot_sync` is `execute_script` over a
    /// script that ends in `SYNC`: same records, in the same order, from
    /// the same per-command seeds — and a library installed by `Arc` is
    /// shared, not copied, until a sync downloads into it.
    #[test]
    fn execute_runs_then_sync_equals_execute_script() {
        let script =
            Script::parse("RUN word-cpu-ramp Word\nWAIT 2\nRUN word-blank-1 Word\nSYNC\n").unwrap();
        let library = Arc::new(uucs_comfort::calibration::controlled_testcases(Task::Word));
        let pop = UserPopulation::generate(1, 10);
        let user = &pop.users()[0];

        let whole = server(2);
        let mut t = LocalTransport::new(whole.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 6);
        c.register(&mut t).unwrap();
        c.install_testcases(Arc::clone(&library));
        c.execute_script(&script, user, Fidelity::Full, &mut t, 99)
            .unwrap();

        let split = server(2);
        let mut t = LocalTransport::new(split.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 6);
        c.register(&mut t).unwrap();
        c.install_testcases(Arc::clone(&library));
        assert!(std::ptr::eq(c.testcases(), library.as_slice()));
        let runs = c.execute_runs(&script, user, Fidelity::Full, 99).unwrap();
        assert_eq!(runs, 2);
        assert_eq!(split.result_count(), 0, "execute_runs must not sync");
        c.hot_sync(&mut t).unwrap();
        assert_eq!(split.results().unwrap(), whole.results().unwrap());

        // A sync that downloads copies the shared set before growing it.
        let bigger = server(12);
        let mut t = LocalTransport::new(bigger);
        let mut d = UucsClient::new(MachineSnapshot::study_machine("h"), 7);
        d.register(&mut t).unwrap();
        d.install_testcases(Arc::clone(&library));
        assert_eq!(d.hot_sync(&mut t).unwrap().downloaded, 4);
        assert_eq!(d.testcases().len(), 12);
        assert_eq!(library.len(), 8, "a download must not grow the shared set");
    }

    #[test]
    fn script_with_unknown_testcase_errors() {
        let srv = server(1);
        let mut t = LocalTransport::new(srv);
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 7);
        c.register(&mut t).unwrap();
        let script = Script::parse("RUN ghost Word\n").unwrap();
        let pop = UserPopulation::generate(1, 11);
        assert!(c
            .execute_script(&script, &pop.users()[0], Fidelity::Fast, &mut t, 1)
            .is_err());
    }

    #[test]
    fn failed_upload_keeps_results_pending() {
        use uucs_protocol::wire::Endpoint;
        use uucs_protocol::ServerMsg;
        /// A server that registers and syncs but rejects uploads.
        struct Flaky;
        impl Endpoint for Flaky {
            fn handle(&self, msg: &ClientMsg) -> ServerMsg {
                match msg {
                    ClientMsg::Register { .. } => ServerMsg::id("c-flaky"),
                    ClientMsg::Sync { .. } => ServerMsg::Testcases(vec![]),
                    ClientMsg::Upload { .. } => ServerMsg::Error("storage full".into()),
                    ClientMsg::Stats { .. } => ServerMsg::Stats("{}".into()),
                    ClientMsg::Model { .. }
                    | ClientMsg::ModelDelta { .. }
                    | ClientMsg::Advice { .. } => ServerMsg::Error("no model".into()),
                    ClientMsg::Hello { .. } => ServerMsg::Error("unknown client message".into()),
                    ClientMsg::Bye => ServerMsg::Ack(0),
                }
            }
        }
        let mut t = LocalTransport::new(Arc::new(Flaky));
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 20);
        c.register(&mut t).unwrap();
        c.install_testcases(uucs_comfort::calibration::controlled_testcases(Task::Ie));
        let pop = UserPopulation::generate(1, 21);
        let tc = c.choose_testcase().unwrap();
        c.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 1);
        assert_eq!(c.pending().len(), 1);
        // The upload fails; the result stays held locally — frozen in
        // the in-flight batch — so the client "can operate disconnected
        // from the server" and retry later.
        assert!(c.hot_sync(&mut t).is_err());
        assert_eq!(c.unsynced(), 1);
        let (seq, frozen) = c.inflight().expect("batch stays frozen");
        assert_eq!(seq, 1);
        assert_eq!(frozen.len(), 1);
    }

    /// Once a batch is frozen under a sequence number, retries resend
    /// exactly that batch; records produced in the meantime queue for the
    /// next sequence number. (If a retried batch grew, the server would
    /// drop the growth as a replay.)
    #[test]
    fn retried_batch_is_frozen_and_new_records_form_the_next_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        use uucs_protocol::wire::Endpoint;
        /// Fails the first upload attempt, then behaves, recording every
        /// upload it sees.
        struct FlakyOnce {
            failures_left: AtomicUsize,
            seen: Mutex<Vec<(u64, usize)>>,
        }
        impl Endpoint for FlakyOnce {
            fn handle(&self, msg: &ClientMsg) -> ServerMsg {
                match msg {
                    ClientMsg::Register { .. } => ServerMsg::id("c-flaky"),
                    ClientMsg::Sync { .. } => ServerMsg::Testcases(vec![]),
                    ClientMsg::Upload { seq, records, .. } => {
                        if self
                            .failures_left
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                                n.checked_sub(1)
                            })
                            .is_ok()
                        {
                            return ServerMsg::Error("injected".into());
                        }
                        self.seen.lock().unwrap().push((*seq, records.len()));
                        ServerMsg::Ack(records.len())
                    }
                    ClientMsg::Stats { .. } => ServerMsg::Stats("{}".into()),
                    ClientMsg::Model { .. }
                    | ClientMsg::ModelDelta { .. }
                    | ClientMsg::Advice { .. } => ServerMsg::Error("no model".into()),
                    ClientMsg::Hello { .. } => ServerMsg::Error("unknown client message".into()),
                    ClientMsg::Bye => ServerMsg::Ack(0),
                }
            }
        }
        let srv = Arc::new(FlakyOnce {
            failures_left: AtomicUsize::new(1),
            seen: Mutex::new(Vec::new()),
        });
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 30);
        c.register(&mut t).unwrap();
        c.install_testcases(uucs_comfort::calibration::controlled_testcases(Task::Ie));
        let pop = UserPopulation::generate(1, 31);
        let tc = c.choose_testcase().unwrap();
        c.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 1);
        assert!(c.hot_sync(&mut t).is_err(), "first attempt must fail");
        assert_eq!(c.inflight().unwrap().0, 1);
        // A second record arrives while batch 1 is stuck in flight.
        c.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 2);
        assert_eq!(c.pending().len(), 1, "new record queues outside the batch");
        let report = c.hot_sync(&mut t).unwrap();
        assert_eq!(report.uploaded, 2);
        assert_eq!(c.unsynced(), 0);
        // The server saw batch 1 with one record, then batch 2 with one:
        // the retry did not absorb the new record.
        assert_eq!(*srv.seen.lock().unwrap(), vec![(1, 1), (2, 1)]);
    }

    /// Two machines launched with the same seed (the daemon's `--seed`
    /// defaults to a constant) but their own stores must register as two
    /// identities. Seed-derived tokens used to collide here, fusing the
    /// fleet into one server-side client whose shared dedup horizon
    /// silently discarded the second machine's uploads as replays.
    #[test]
    fn same_seed_different_stores_are_distinct_identities() {
        let base = std::env::temp_dir().join(format!("uucs-client-twins-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let srv = server(3);
        let mut t = LocalTransport::new(srv.clone());
        let mut a = UucsClient::new(MachineSnapshot::study_machine("h"), 1);
        a.attach_store(crate::store::ClientStore::open(base.join("a")).unwrap());
        let mut b = UucsClient::new(MachineSnapshot::study_machine("h"), 1);
        b.attach_store(crate::store::ClientStore::open(base.join("b")).unwrap());
        assert_ne!(a.register(&mut t).unwrap(), b.register(&mut t).unwrap());
        assert_eq!(srv.client_count(), 2);
        // Store-less clients at least distinguish by hostname.
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h-other"), 1);
        assert_ne!(c.register(&mut t).unwrap(), a.id().unwrap());
        assert_eq!(srv.client_count(), 3);
        std::fs::remove_dir_all(&base).ok();
    }

    /// A client that lost its local batch counter but kept its identity
    /// (wiped or damaged store, surviving registration token) must
    /// resume *above* the server's applied horizon. Without the
    /// fast-forward in the `ID` reply, its new batches would restart at
    /// seq 1 — at or below the horizon — and be ACKed as replays
    /// without being stored: silent, acknowledged data loss.
    #[test]
    fn registration_fast_forwards_seq_past_server_horizon() {
        let srv = server(5);
        let mut t = LocalTransport::new(srv.clone());
        let pop = UserPopulation::generate(1, 50);
        let mut c1 = UucsClient::new(MachineSnapshot::study_machine("h"), 50);
        c1.register(&mut t).unwrap();
        c1.hot_sync(&mut t).unwrap();
        let tc = c1.choose_testcase().unwrap();
        for run in 0..2 {
            c1.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, run);
            c1.hot_sync(&mut t).unwrap();
        }
        assert_eq!(srv.result_count(), 2);
        assert_eq!(srv.applied_seq(c1.id().unwrap()), 2);

        // The "wipe": a fresh client presenting the same token (same
        // seed and hostname, no restored state) — all counters lost.
        let mut c2 = UucsClient::new(MachineSnapshot::study_machine("h"), 50);
        assert_eq!(c2.register(&mut t).unwrap(), c1.id().unwrap());
        c2.hot_sync(&mut t).unwrap();
        let tc = c2.choose_testcase().unwrap();
        c2.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 9);
        let report = c2.hot_sync(&mut t).unwrap();
        assert_eq!(report.uploaded, 1);
        assert_eq!(
            srv.result_count(),
            3,
            "post-wipe upload was discarded as a replay"
        );
        assert_eq!(srv.applied_seq(c1.id().unwrap()), 3);
    }

    /// Partial store damage: the seq counter file is lost but `id.txt`
    /// survives. A cached id short-circuits registration — the only
    /// exchange that carries the server's applied horizon — so restore
    /// must refuse the orphaned id and force a re-registration (the
    /// persisted token brings the same identity back). Otherwise the
    /// next batch reuses a burned seq and is ACKed as a replay: the
    /// client archives records the server never stored.
    #[test]
    fn lost_seq_counter_forces_reregistration() {
        let dir = std::env::temp_dir().join(format!("uucs-client-lostseq-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::store::ClientStore::open(&dir).unwrap();
        let srv = server(7);
        let mut t = LocalTransport::new(srv.clone());
        let pop = UserPopulation::generate(1, 70);
        let mut c1 = UucsClient::new(MachineSnapshot::study_machine("h"), 70);
        c1.attach_store(store.clone());
        c1.register(&mut t).unwrap();
        c1.hot_sync(&mut t).unwrap();
        let tc = c1.choose_testcase().unwrap();
        for run in 0..2 {
            c1.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, run);
            c1.hot_sync(&mut t).unwrap();
        }
        let id = c1.id().unwrap().to_string();
        assert_eq!(srv.applied_seq(&id), 2);

        // The damage: the counter file vanishes, the id survives.
        std::fs::remove_file(dir.join("seq.txt")).unwrap();
        let mut c2 = UucsClient::new(MachineSnapshot::study_machine("h"), 70);
        c2.restore(&store).unwrap();
        assert_eq!(c2.id(), None, "orphaned id must not be trusted");
        c2.attach_store(store.clone());
        assert_eq!(c2.register(&mut t).unwrap(), id, "token restores identity");

        c2.install_testcases(uucs_comfort::calibration::controlled_testcases(Task::Ie));
        let tc = c2.choose_testcase().unwrap();
        c2.perform_run(&pop.users()[0], Task::Ie, &tc, Fidelity::Fast, 9);
        let report = c2.hot_sync(&mut t).unwrap();
        assert_eq!(report.uploaded, 1);
        assert_eq!(
            srv.result_count(),
            3,
            "post-damage upload was discarded as a replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Records measured before registration ever succeeded (offline
    /// start) are stamped "unregistered" at creation; registration must
    /// re-stamp them — in memory and in the spool — so they enter the
    /// study attributed to the client that measured them.
    #[test]
    fn offline_records_are_restamped_at_registration() {
        let dir = std::env::temp_dir().join(format!("uucs-client-restamp-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::store::ClientStore::open(&dir).unwrap();
        let srv = server(2);
        let mut t = LocalTransport::new(srv.clone());
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 60);
        c.attach_store(store.clone());
        c.install_testcases(uucs_comfort::calibration::controlled_testcases(Task::Word));
        let pop = UserPopulation::generate(1, 61);
        let tc = c.choose_testcase().unwrap();
        c.perform_run(&pop.users()[0], Task::Word, &tc, Fidelity::Fast, 1);
        assert_eq!(c.pending()[0].client, "unregistered");

        let id = c.register(&mut t).unwrap();
        assert!(c.pending().iter().all(|r| r.client == id));
        let spooled = store.load_pending().unwrap();
        assert!(
            spooled.iter().all(|r| r.client == id),
            "spool still holds the placeholder stamp"
        );
        assert_eq!(store.load_id().as_deref(), Some(id.as_str()));

        let report = c.hot_sync(&mut t).unwrap();
        assert_eq!(report.uploaded, 1);
        assert!(srv.results().unwrap().iter().all(|r| r.client == id));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("uucs-client-{}", std::process::id()));
        let store = crate::store::ClientStore::open(&dir).unwrap();
        let srv = server(6);
        let mut t = LocalTransport::new(srv);
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 8);
        c.register(&mut t).unwrap();
        c.hot_sync(&mut t).unwrap();
        let pop = UserPopulation::generate(1, 12);
        let tc = c.choose_testcase().unwrap();
        c.perform_run(&pop.users()[0], Task::Quake, &tc, Fidelity::Fast, 5);
        c.persist(&store).unwrap();

        let mut c2 = UucsClient::new(MachineSnapshot::study_machine("h"), 8);
        c2.restore(&store).unwrap();
        assert_eq!(c2.id(), c.id());
        assert_eq!(c2.testcases(), c.testcases());
        assert_eq!(c2.pending(), c.pending());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session that dies with a batch in flight resumes it on restore:
    /// the frozen batch (and its sequence number) survive, and any spool
    /// entries duplicated into the batch collapse back to one copy.
    #[test]
    fn restore_resumes_inflight_batch_without_duplicates() {
        use uucs_protocol::wire::Endpoint;
        struct Reject;
        impl Endpoint for Reject {
            fn handle(&self, msg: &ClientMsg) -> ServerMsg {
                match msg {
                    ClientMsg::Register { .. } => ServerMsg::id("c-r"),
                    ClientMsg::Sync { .. } => ServerMsg::Testcases(vec![]),
                    _ => ServerMsg::Error("down".into()),
                }
            }
        }
        let dir = std::env::temp_dir().join(format!("uucs-client-ifl-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::store::ClientStore::open(&dir).unwrap();
        let mut t = LocalTransport::new(Arc::new(Reject));
        let mut c = UucsClient::new(MachineSnapshot::study_machine("h"), 40);
        c.attach_store(store.clone());
        c.register(&mut t).unwrap();
        c.install_testcases(uucs_comfort::calibration::controlled_testcases(Task::Word));
        let pop = UserPopulation::generate(1, 41);
        let tc = c.choose_testcase().unwrap();
        // perform_run spools to disk; the failed sync freezes batch 1 and
        // journals it. The spool file still holds the same record — the
        // session "dies" here without a tidy persist().
        c.perform_run(&pop.users()[0], Task::Word, &tc, Fidelity::Fast, 1);
        assert!(c.hot_sync(&mut t).is_err());
        assert_eq!(c.inflight().unwrap().0, 1);
        // Simulate a crash that landed between the in-flight journal
        // write and the spool rewrite: the record sits in both files.
        let frozen_copy = c.inflight().unwrap().1[0].clone();
        store.spool_append(&frozen_copy).unwrap();

        let mut c2 = UucsClient::new(MachineSnapshot::study_machine("h"), 40);
        c2.restore(&store).unwrap();
        assert_eq!(c2.unsynced(), 1, "spool + inflight must dedupe to one");
        let (seq, frozen) = c2.inflight().expect("batch resumes");
        assert_eq!(seq, 1);
        assert_eq!(frozen.len(), 1);
        assert!(c2.pending().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
