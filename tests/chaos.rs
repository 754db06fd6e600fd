//! Chaos suite: the client/server sync path under injected network
//! faults, proving exactly-once delivery and eventual convergence.
//!
//! Every session here runs through [`uucs_chaos::ChaosProxy`] with a
//! seeded fault schedule and a fault *budget*: once the budget is
//! spent the network heals, so a converging protocol must converge.
//! "Exactly once" is checked byte-for-byte: the server's result store
//! must equal the client's acknowledged-record archive, in order.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use uucs::client::{ClientStore, ClientTransport, ResilientTransport, RetryPolicy, UucsClient};
use uucs::comfort::{calibration, Fidelity, UserPopulation, UserProfile};
use uucs::protocol::{ClientMsg, MachineSnapshot};
use uucs::server::{tcp, RegistryStore, ResultStore, TestcaseStore, UucsServer};
use uucs::telemetry::{flight, metrics};
use uucs::workloads::Task;
use uucs_chaos::{ChaosPolicy, ChaosProxy, FaultKind};
use uucs_harness::invariants::{epochs_rise, exactly_once, Violation};
use uucs_harness::{eventually, TempDir};
use uucs_wal::{SyncPolicy, WalConfig};

const WAL_CFG: WalConfig = WalConfig {
    segment_bytes: 4096,
    sync: SyncPolicy::Always,
};

/// An impatient retry policy: the chaos tests should fail fast and
/// retry fast, not wait out production backoffs.
fn snappy_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        seed,
    }
}

fn snappy_transport(addr: std::net::SocketAddr, seed: u64) -> ResilientTransport {
    // The deadline must beat a black-holed connection quickly, but not
    // so quickly that a *healthy* exchange times out when the whole
    // workspace test suite is saturating the machine.
    ResilientTransport::new(addr.to_string())
        .with_timeout(Duration::from_secs(1))
        .with_policy(snappy_policy(seed))
}

fn plain_server() -> Arc<UucsServer> {
    let library: Vec<_> = calibration::controlled_testcases(Task::Word);
    Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(library).expect("unique ids"),
        7,
    ))
}

/// Boots a WAL-backed server from `dir`, seeding the library on first
/// boot only (the kill/recover tests reuse this across generations).
fn wal_server(dir: &Path) -> Arc<UucsServer> {
    let (mut testcases, _) = TestcaseStore::open_wal(&dir.join("testcases"), WAL_CFG).unwrap();
    let (results, _) = ResultStore::open_wal(&dir.join("results"), WAL_CFG).unwrap();
    let (registry, _) = RegistryStore::open_wal(&dir.join("registry"), WAL_CFG).unwrap();
    if testcases.is_empty() {
        for tc in calibration::controlled_testcases(Task::Word) {
            testcases.add(&tc).unwrap();
        }
    }
    Arc::new(UucsServer::with_all_stores(testcases, results, registry, 7))
}

/// Executes `n` runs on the client (each spooled to the store).
fn run_n(client: &mut UucsClient, user: &UserProfile, n: usize, seed: u64) {
    for k in 0..n {
        let tc = client.choose_testcase().expect("has testcases");
        client.perform_run(user, Task::Word, &tc, Fidelity::Fast, seed * 1000 + k as u64);
    }
}

/// How long a convergence loop may keep retrying. Generous on purpose:
/// the whole workspace test suite saturates every core for a minute or
/// more, and a chaos session sharing the machine with it is *exactly*
/// the hostile environment these tests claim to survive. The budgeted
/// fault schedule guarantees the network heals; the deadline only
/// bounds a genuinely broken protocol.
const CONVERGE_WITHIN: Duration = Duration::from_secs(120);

/// Registers, retrying until the deadline.
fn register_within(client: &mut UucsClient, transport: &mut ResilientTransport) {
    eventually("registration", CONVERGE_WITHIN, || client.register(transport).is_ok());
}

/// Hot-syncs until the client holds testcases, retrying until the
/// deadline.
fn sync_library_within(client: &mut UucsClient, transport: &mut ResilientTransport) {
    eventually("a testcase download", CONVERGE_WITHIN, || {
        client.hot_sync(transport).is_ok() && !client.testcases().is_empty()
    });
}

/// Syncs until everything unsynced is acknowledged. Returns the number
/// of rounds it took.
fn sync_until_drained(client: &mut UucsClient, transport: &mut ResilientTransport) -> usize {
    let mut rounds = 0;
    eventually("every record to be acknowledged", CONVERGE_WITHIN, || {
        rounds += 1;
        client.hot_sync(transport).is_ok() && client.unsynced() == 0
    });
    rounds
}

/// One full client session against `server_addr` through a chaos proxy
/// with the given policy. Asserts convergence and returns
/// (server-visible results, client archive) for the caller's
/// exactly-once check.
fn chaotic_session(
    name: &str,
    server: &Arc<UucsServer>,
    server_addr: std::net::SocketAddr,
    policy: ChaosPolicy,
    runs: usize,
    seed: u64,
) -> (Vec<uucs::protocol::RunRecord>, Vec<uucs::protocol::RunRecord>) {
    let tmp = TempDir::new(&format!("uucs-chaos-{name}"));
    let store = ClientStore::open(tmp.path()).unwrap();
    // Namespace this session's fault counters by its (unique) name so
    // the cross-validation below is immune to concurrently running
    // chaos tests in this binary.
    let policy = policy.with_label(format!("session_{name}"));
    let kinds = policy.faults.clone();
    let proxy = ChaosProxy::start(server_addr, policy).unwrap();

    let mut client = UucsClient::new(MachineSnapshot::study_machine(name), seed);
    client.attach_store(store.clone());
    let mut transport = snappy_transport(proxy.addr(), seed);
    // Registration and the library download must survive the chaos too.
    register_within(&mut client, &mut transport);
    sync_library_within(&mut client, &mut transport);

    let pop = UserPopulation::generate(1, seed);
    run_n(&mut client, &pop.users()[0], runs, seed);
    let rounds = sync_until_drained(&mut client, &mut transport);
    eprintln!("[{name}] converged in {rounds} sync rounds");
    transport.bye();
    let stats = proxy.shutdown();
    // The telemetry counters must mirror the proxy's own tally: every
    // injected fault was counted under exactly one class.
    let counted: u64 = kinds
        .iter()
        .map(|k| metrics::counter(&format!("chaos.session_{name}.fault.{}", k.name())).get())
        .sum();
    assert_eq!(
        counted, stats.faults,
        "[{name}] per-class telemetry disagrees with the proxy's fault tally"
    );

    (server.results().unwrap(), store.load_archive().unwrap())
}

/// Every fault class, one at a time: the session converges and the
/// server's store equals the client's acknowledged archive
/// byte-for-byte. (Corruption is the exception — see the dedicated
/// test below.)
#[test]
fn exactly_once_under_each_fault_class() {
    for (i, kind) in [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Truncate,
        FaultKind::BlackHole,
        FaultKind::Reset,
    ]
    .into_iter()
    .enumerate()
    {
        let server = plain_server();
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let policy = ChaosPolicy::only(kind, 0.4, 100 + i as u64).with_budget(6);
        let (on_server, archived) =
            chaotic_session(&format!("{kind:?}"), &server, handle.addr(), policy, 4, i as u64);
        assert_eq!(
            on_server.len(),
            4,
            "[{kind:?}] server holds {} records, wanted 4",
            on_server.len()
        );
        assert_eq!(
            on_server, archived,
            "[{kind:?}] server store and client archive diverged"
        );
        handle.shutdown();
    }
}

/// The whole menu at once, at a higher rate.
#[test]
fn exactly_once_under_mixed_faults() {
    let server = plain_server();
    let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
    let policy = ChaosPolicy {
        rate: 0.5,
        faults: vec![
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Truncate,
            FaultKind::BlackHole,
            FaultKind::Reset,
        ],
        seed: 0xbad,
        delay: Duration::from_millis(10),
        ..ChaosPolicy::transparent()
    }
    .with_budget(10);
    let (on_server, archived) = chaotic_session("mixed", &server, handle.addr(), policy, 6, 9);
    assert_eq!(on_server.len(), 6);
    assert_eq!(on_server, archived);
    handle.shutdown();
}

/// Byte corruption: the text protocol carries no checksum (faithful to
/// the paper), so a mangled-but-parseable payload can change content —
/// but it can never change *count*: the batch sequence number still
/// dedupes, so each batch lands exactly once or not at all. Content being
/// fair game, a record's only identity here is its place in the stream.
#[test]
fn corruption_never_duplicates_or_loses_batches() -> Result<(), Violation> {
    let server = plain_server();
    let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
    let policy = ChaosPolicy::only(FaultKind::Corrupt, 0.4, 0xc0).with_budget(6);
    let (on_server, archived) =
        chaotic_session("corrupt", &server, handle.addr(), policy, 4, 11);
    assert_eq!(archived.len(), 4);
    exactly_once(0..archived.len(), 0..on_server.len(), [])?;
    handle.shutdown();
    Ok(())
}

/// A budgeted single-class run: the per-class telemetry counter lands
/// exactly on the budget, every other class stays at zero, and the
/// flight recorder's JSONL dump replays the fault sequence — one
/// `chaos.fault` event per injection, in order, under this run's label.
#[test]
fn telemetry_counts_faults_per_class_and_flight_dump_replays_them() {
    let server = plain_server();
    let handle = tcp::serve(server, "127.0.0.1:0").unwrap();
    let policy = ChaosPolicy::only(FaultKind::Drop, 1.0, 77)
        .with_budget(3)
        .with_label("budget_drop");
    let proxy = ChaosProxy::start(handle.addr(), policy).unwrap();

    // Rate 1.0 drops every chunk until the budget of 3 is spent, then
    // the network heals; a resilient exchange with more attempts than
    // budget must therefore spend it all and then succeed.
    let mut transport = snappy_transport(proxy.addr(), 77);
    transport
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("the proxy heals once the fault budget is spent");
    let stats = proxy.shutdown();
    assert_eq!(stats.faults, 3, "the whole budget should be spent");
    assert_eq!(
        metrics::counter("chaos.budget_drop.fault.drop").get(),
        3,
        "drop faults must be counted under their class"
    );
    for kind in FaultKind::ALL {
        if kind != FaultKind::Drop {
            assert_eq!(
                metrics::counter(&format!("chaos.budget_drop.fault.{}", kind.name())).get(),
                0,
                "{} was never injected",
                kind.name()
            );
        }
    }

    // The flight recorder holds one event per injection; its dump to
    // disk replays the sequence. Other tests in this binary share the
    // global ring, so filter by this run's label.
    let tmp = TempDir::new("uucs-chaos-flight");
    let path = flight::dump_global_to_dir(tmp.path()).expect("dump flight recorder");
    assert!(path.exists(), "dump file should exist");
    let text = std::fs::read_to_string(&path).unwrap();
    let ours: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"label\":\"budget_drop\""))
        .collect();
    assert_eq!(ours.len(), 3, "one flight event per injected fault:\n{text}");
    for line in ours {
        assert!(line.contains("\"event\":\"chaos.fault\""), "{line}");
        assert!(line.contains("\"kind\":\"drop\""), "{line}");
    }
    handle.shutdown();
}

/// Convergence across a server kill: the session starts under chaos,
/// the server dies mid-study, a new generation recovers from the WAL,
/// and the client — same store, same sequence state — drains into it.
/// Nothing is lost, nothing lands twice.
#[test]
fn convergence_across_server_kill_and_wal_recovery() {
    let tmp = TempDir::new("uucs-chaos-kill");
    let server_dir = tmp.path().join("server");
    let client_dir = tmp.path().join("client");
    let store = ClientStore::open(&client_dir).unwrap();
    let pop = UserPopulation::generate(1, 17);

    let mut client = UucsClient::new(MachineSnapshot::study_machine("kill"), 17);
    client.attach_store(store.clone());

    // Generation 1, through a chaotic proxy.
    {
        let server = wal_server(&server_dir);
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(
            handle.addr(),
            ChaosPolicy::only(FaultKind::Drop, 0.3, 21).with_budget(3),
        )
        .unwrap();
        let mut transport = snappy_transport(proxy.addr(), 17);
        register_within(&mut client, &mut transport);
        sync_library_within(&mut client, &mut transport);
        run_n(&mut client, &pop.users()[0], 3, 17);
        sync_until_drained(&mut client, &mut transport);
        assert_eq!(server.result_count(), 3);

        // More results arrive — and the server is killed before they
        // sync. The ResilientTransport gives up after bounded retries;
        // the records stay frozen/spooled.
        run_n(&mut client, &pop.users()[0], 2, 18);
        proxy.shutdown();
        handle.shutdown();
        assert!(client.hot_sync(&mut transport).is_err(), "server is dead");
        assert_eq!(client.unsynced(), 2);
        client.persist(&store).unwrap();
    }

    // Generation 2: recovered from the journal; a *fresh* client
    // process restores the same store and drains into it.
    {
        let server = wal_server(&server_dir);
        assert_eq!(server.result_count(), 3, "gen-1 results lost in recovery");
        assert_eq!(server.client_count(), 1, "registration lost in recovery");
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(
            handle.addr(),
            ChaosPolicy::only(FaultKind::Reset, 0.3, 22).with_budget(3),
        )
        .unwrap();
        let mut client2 = UucsClient::new(MachineSnapshot::study_machine("kill"), 17);
        client2.restore(&store).unwrap();
        client2.attach_store(store.clone());
        assert_eq!(client2.id(), client.id(), "client id must survive restart");
        assert_eq!(client2.unsynced(), 2);
        let mut transport = snappy_transport(proxy.addr(), 18);
        sync_until_drained(&mut client2, &mut transport);

        // Exactly once, across the kill: all 5 records, no duplicates,
        // byte-for-byte what the client archived.
        assert_eq!(server.result_count(), 5);
        assert_eq!(server.results().unwrap(), store.load_archive().unwrap());
        transport.bye();
        proxy.shutdown();
        handle.shutdown();
    }
}

/// A dead server: the session must fail fast (bounded deterministic
/// retries, no hang) and leave every record spooled for later.
#[test]
fn dead_server_session_spools_offline() {
    use std::sync::Mutex;

    // Bind-then-drop: an address that refuses connections.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let tmp = TempDir::new("uucs-chaos-dead");
    let store = ClientStore::open(tmp.path()).unwrap();
    let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let rec = slept.clone();
    let policy = snappy_policy(33);
    let expected_schedule = policy.delays();

    let mut client = UucsClient::new(MachineSnapshot::study_machine("offline"), 33);
    client.attach_store(store.clone());
    client.install_testcases(calibration::controlled_testcases(Task::Word));
    let mut transport = ResilientTransport::new(dead_addr.to_string())
        .with_timeout(Duration::from_millis(200))
        .with_policy(policy)
        .with_sleeper(Box::new(move |d| rec.lock().unwrap().push(d)));

    assert!(client.register(&mut transport).is_err(), "nothing listens");
    // The retry schedule is exactly the policy's deterministic delays.
    assert_eq!(*slept.lock().unwrap(), expected_schedule);

    // The session continues offline: runs execute, records spool.
    let pop = UserPopulation::generate(1, 34);
    run_n(&mut client, &pop.users()[0], 3, 35);
    assert_eq!(client.unsynced(), 3);
    client.persist(&store).unwrap();
    assert_eq!(store.load_pending().unwrap().len(), 3, "records not spooled");
}

/// The borrowing governor under chaos: `ADVICE`/`MODEL` refreshes
/// through a 10% mixed-fault proxy never panic and never regress to a
/// stale epoch — even when the model advances mid-session — and once
/// the server is fully black-holed the governor degrades to its cached
/// model snapshot instead of hanging or erroring.
#[test]
fn governor_survives_chaos_and_degrades_to_cached_model() -> Result<(), Violation> {
    use uucs::client::{BorrowingGovernor, RefreshOutcome};
    use uucs::testcase::Resource;

    let server = plain_server();
    let handle = tcp::serve(server.clone(), "127.0.0.1:0").unwrap();

    // Trains the model over a healthy link: each subject runs every
    // Word calibration testcase and uploads.
    let train = |subjects: std::ops::Range<usize>, seed: u64| {
        let mut transport = snappy_transport(handle.addr(), seed);
        let pop = UserPopulation::generate(8, 0xfeed);
        for i in subjects {
            let mut client =
                UucsClient::new(MachineSnapshot::study_machine(format!("gov-{i}")), seed + i as u64);
            client.register(&mut transport).expect("healthy link");
            for tc in calibration::controlled_testcases(Task::Word) {
                client.perform_run(&pop.users()[i], Task::Word, &tc, Fidelity::Fast, seed ^ i as u64);
            }
            client.hot_sync(&mut transport).expect("upload");
        }
        transport.bye();
    };
    train(0..3, 1000);
    let first_epoch = server.model_epoch();
    assert!(first_epoch > 0, "training must build a model");

    // Phase 1: a 10% mixed-fault proxy between governor and server.
    let policy = ChaosPolicy {
        rate: 0.1,
        faults: vec![
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Truncate,
            FaultKind::BlackHole,
            FaultKind::Reset,
        ],
        seed: 0x907,
        delay: Duration::from_millis(10),
        ..ChaosPolicy::transparent()
    }
    .with_budget(8)
    .with_label("governor");
    let proxy = ChaosProxy::start(handle.addr(), policy).unwrap();
    let mut transport = snappy_transport(proxy.addr(), 0x907);

    let mut governor = BorrowingGovernor::new(Resource::Cpu, "Word", 0.1, 0.0);
    let mut adopted = Vec::new();
    for round in 0..10 {
        // The model advances mid-session; a chaos-delayed duplicate of
        // an older reply must never roll the governor back.
        if round == 5 {
            train(3..6, 2000);
            assert!(server.model_epoch() > first_epoch);
        }
        let _ = governor.refresh(&mut transport); // must never panic
        adopted.extend(governor.epoch());
    }
    epochs_rise(&adopted)?;
    let newest = adopted.last().copied().unwrap_or(0);
    assert!(
        newest > first_epoch,
        "refreshes after the mid-session training must adopt the newer epoch"
    );
    let cached = governor
        .cached_model()
        .expect("an adopted refresh caches the sketch")
        .clone();
    proxy.shutdown();

    // Phase 2: the server black-holed — every refresh times out fast,
    // reports Offline, and pins the cap to the cached model's advice.
    let blackhole = ChaosProxy::start(
        handle.addr(),
        ChaosPolicy::only(FaultKind::BlackHole, 1.0, 7).with_label("governor_bh"),
    )
    .unwrap();
    let mut dead = ResilientTransport::new(blackhole.addr().to_string())
        .with_timeout(Duration::from_millis(200))
        .with_policy(snappy_policy(7));
    let expected = cached.advice_level(0.1).expect("trained sketch advises");
    assert_eq!(governor.refresh(&mut dead), RefreshOutcome::Offline);
    assert_eq!(governor.level(), expected, "offline cap comes from the cache");
    assert_eq!(governor.epoch(), Some(newest), "offline keeps the adopted epoch");
    blackhole.shutdown();
    handle.shutdown();
    Ok(())
}
