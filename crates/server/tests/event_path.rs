//! The event-driven ack path, observed through the process-global
//! metrics registry — hence an integration test of its own (one
//! process) whose tests serialize on [`SERIAL`]: an idle pool costs
//! only tick wake-ups, group commit still amortizes under contention,
//! and the shard occupancy gauge cannot be published out of order.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use uucs_harness::TempDir;
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, MachineSnapshot, MonitorSummary, RunOutcome, RunRecord, ServerMsg};
use uucs_server::tcp::{self, ServeConfig, TICK};
use uucs_server::{GroupCommitter, StoreFlavor, StoreSet, TestcaseStore, UucsServer};
use uucs_telemetry::metrics;
use uucs_testcase::Resource;
use uucs_wal::{SyncPolicy, WalConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rec(client: &str) -> RunRecord {
    RunRecord {
        client: client.into(),
        user: "u".into(),
        testcase: "t".into(),
        task: "IE".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 1.0,
        last_levels: vec![(Resource::Cpu, vec![2.0])],
        monitor: MonitorSummary::default(),
    }
}

/// A connection that registered — proof a worker is serving it.
fn registered(addr: std::net::SocketAddr, host: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write_client_msg(
        &mut writer,
        &ClientMsg::register(MachineSnapshot::study_machine(host)),
    )
    .unwrap();
    assert!(matches!(
        read_server_msg(&mut reader).unwrap(),
        ServerMsg::Id { .. }
    ));
    stream
}

#[test]
fn idle_connections_cost_no_wakeups() {
    let _serial = serialize();
    let workers = 2;
    let server = Arc::new(UucsServer::new(TestcaseStore::new(), 9));
    let handle = tcp::serve_with(
        server,
        "127.0.0.1:0",
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Each connection proves it is being served, then goes quiet.
    let idle: Vec<TcpStream> = (0..64)
        .map(|i| registered(handle.addr(), &format!("idle{i}")))
        .collect();
    assert_eq!(handle.live_connections(), 64);

    let wakeups = metrics::counter("server.tcp.wakeups");
    let before = wakeups.get();
    let window = Duration::from_secs(1);
    std::thread::sleep(window);
    let delta = wakeups.get() - before;
    // Per worker: one return from `poll` per tick, nothing else.
    let ticks = workers as u64 * (window.as_millis() / TICK.as_millis()) as u64;
    assert!(
        delta <= 2 * ticks,
        "{delta} wake-ups in {window:?} over 64 idle connections (tick budget {ticks})"
    );
    drop(idle);
    handle.shutdown();
}

/// Four threads append to one shard in lock-step rounds: the committer
/// syncs a lone append at once, but appends that land while a pass is
/// in flight still share the next one.
#[test]
fn contended_appends_still_share_fsyncs() {
    let _serial = serialize();
    const THREADS: usize = 4;
    const ROUNDS: u64 = 100;
    let dir = TempDir::new("uucs-event-path-amortize");
    let cfg = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (stores, _) = StoreSet::open(dir.path(), cfg, 1).unwrap();
    let stores = Arc::new(stores);
    let commits = metrics::counter("server.commit.count");
    let batch = metrics::histogram("server.commit.batch");
    let (commits_before, batches_before) = (commits.get(), batch.count());
    let (committer, commit_thread) =
        GroupCommitter::start(stores.clone(), Duration::from_millis(2));
    let barrier = Arc::new(Barrier::new(THREADS));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let (stores, committer, barrier) = (stores.clone(), committer.clone(), barrier.clone());
            std::thread::spawn(move || {
                let client = format!("c{t}");
                for seq in 1..=ROUNDS {
                    barrier.wait();
                    let mut g = stores.results.write_recovered(0);
                    g.append_batch(&client, seq, &[rec(&client)]).unwrap();
                    let upto = g.wal_next_lsn().unwrap();
                    drop(g);
                    committer
                        .wait(committer.submit(StoreFlavor::Results, 0, upto))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    committer.stop();
    commit_thread.join().unwrap();

    let appends = THREADS as u64 * ROUNDS;
    let passes = commits.get() - commits_before;
    assert_eq!(batch.count() - batches_before, passes);
    // Every append is covered by exactly one pass, so fewer passes
    // than appends is a mean batch above one.
    assert!(
        passes < appends,
        "{passes} fsyncs for {appends} appends: nothing was batched"
    );
}

/// Concurrent uploads landing on one shard publish the occupancy gauge
/// under the shard lock, so at quiescence it equals the store length —
/// with no extra sequential upload to paper over a stale write.
#[test]
fn shard_gauge_matches_store_length_after_racing_uploads() {
    let _serial = serialize();
    const THREADS: usize = 4;
    const UPLOADS: u64 = 500;
    let server = Arc::new(UucsServer::new(TestcaseStore::new(), 9));
    let ids: Vec<String> = (0..THREADS)
        .map(|i| {
            let msg = ClientMsg::register(MachineSnapshot::study_machine(format!("racer{i}")));
            match server.handle_deferred(&msg).0 {
                ServerMsg::Id { id, .. } => id,
                other => panic!("{other:?}"),
            }
        })
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS));
    let threads: Vec<_> = ids
        .into_iter()
        .map(|id| {
            let (server, barrier) = (server.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                for seq in 1..=UPLOADS {
                    let (reply, _) = server.handle_deferred(&ClientMsg::Upload {
                        client: id.clone(),
                        seq,
                        records: vec![rec(&id)],
                    });
                    assert!(matches!(reply, ServerMsg::Ack(1)), "{reply:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let expected = THREADS as u64 * UPLOADS;
    assert_eq!(server.result_count() as u64, expected);
    assert_eq!(
        metrics::gauge("server.shard.results.0.records").get(),
        expected as i64,
        "gauge published out of order"
    );
}
