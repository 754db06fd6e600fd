//! End-to-end telemetry: the `STATS` verb over both transports, WAL
//! timings surfaced from a live server, the connection-cap gauge, and
//! byte-identical traces under the virtual clock.
//!
//! The metrics registry and flight recorder are process-global, so the
//! tests in this file serialize on [`GUARD`] and reset the registry's
//! counters and histograms at entry (gauges are levels: every test
//! leaves them where it found them); assertions stay within one test's
//! critical section.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use uucs::client::{ClientTransport, LocalTransport, TcpTransport, UucsClient};
use uucs::comfort::{calibration, Fidelity, UserPopulation};
use uucs::protocol::{ClientMsg, MachineSnapshot, ServerMsg};
use uucs::server::{tcp, StoreSet, TestcaseStore, UucsServer};
use uucs::sim::workload::FnWorkload;
use uucs::sim::{Action, Machine, MS, SEC};
use uucs::telemetry::{clock, flight, metrics, trace};
use uucs::workloads::Task;
use uucs_harness::{eventually, TempDir};
use uucs_wal::{SyncPolicy, WalConfig};

static GUARD: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    let guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    metrics::reset();
    guard
}

const WAL_CFG: WalConfig = WalConfig {
    segment_bytes: 4096,
    sync: SyncPolicy::Always,
};

/// A WAL-backed server (so `server.wal.*` metrics move) seeded with the
/// controlled library.
fn wal_server(dir: &std::path::Path) -> Arc<UucsServer> {
    let (stores, _) = StoreSet::open(dir, WAL_CFG, 1).unwrap();
    let server = UucsServer::with_store_set(stores, 7);
    if server.testcase_count() == 0 {
        server
            .add_testcases(&calibration::controlled_testcases(Task::Word))
            .unwrap();
    }
    Arc::new(server)
}

/// Registers, runs a few testcases, and hot-syncs the results up.
fn drive_session(transport: &mut dyn ClientTransport, seed: u64) {
    let mut client = UucsClient::new(MachineSnapshot::study_machine("telemetry-e2e"), seed);
    client.register(transport).expect("register");
    client.hot_sync(transport).expect("sync");
    let population = UserPopulation::generate(1, seed);
    let user = &population.users()[0];
    for k in 0..3 {
        let tc = client.choose_testcase().expect("has testcases");
        client.perform_run(user, Task::Word, &tc, Fidelity::Fast, seed + k);
    }
    client.hot_sync(transport).expect("upload");
}

/// The acceptance criterion for the STATS verb: one line of JSON whose
/// keys cover verb latencies, WAL fsync timings and connection gauges.
fn assert_stats_payload(json: &str, expect_connections: bool) {
    assert!(!json.contains('\n'), "STATS payload must be one line");
    assert!(json.starts_with('{') && json.ends_with('}'), "not JSON: {json}");
    for key in [
        "\"server.verb.register.count\"",
        "\"server.verb.sync.count\"",
        "\"server.verb.upload.count\"",
        "\"server.verb.sync.ns\"",
        "\"server.wal.registry.fsync.ns\"",
        "\"server.wal.results.fsync.ns\"",
        "\"server.wal.results.append.ns\"",
    ] {
        assert!(json.contains(key), "STATS JSON missing {key}: {json}");
    }
    if expect_connections {
        assert!(
            json.contains("\"server.connections.live\""),
            "STATS JSON missing connection gauge: {json}"
        );
    }
}

#[test]
fn stats_over_tcp_reports_verb_wal_and_connection_telemetry() {
    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-tcp");
    let handle = tcp::serve(wal_server(dir.path()), "127.0.0.1:0").expect("bind");
    let mut transport = TcpTransport::connect(handle.addr()).expect("connect");
    drive_session(&mut transport, 41);
    let reply = transport
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("stats exchange");
    let ServerMsg::Stats(json) = reply else {
        panic!("expected STATS reply, got {reply:?}");
    };
    assert_stats_payload(&json, true);
    drop(transport);
    handle.shutdown();
}

#[test]
fn stats_over_local_transport_matches_and_reset_zeroes() {
    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-local");
    let server = wal_server(dir.path());
    let mut transport = LocalTransport::new(server);
    drive_session(&mut transport, 42);
    let ServerMsg::Stats(json) = transport
        .exchange(&ClientMsg::Stats { reset: true })
        .expect("local stats")
    else {
        panic!("expected STATS reply");
    };
    // Same handler as TCP, so the same keys must appear (no TCP front
    // end here, so no connection gauge).
    assert_stats_payload(&json, false);
    // RESET snapshots *then* zeroes: the returned JSON saw the traffic,
    // the registry did not keep it.
    assert!(!json.contains("\"server.verb.sync.count\":0"));
    assert_eq!(metrics::counter("server.verb.sync.count").get(), 0);
    let ServerMsg::Stats(after) = transport
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("second stats")
    else {
        panic!("expected STATS reply");
    };
    // Registrations survive a reset with zeroed values (the stats verb
    // above already re-counted itself once).
    assert!(after.contains("\"server.verb.sync.count\":0"), "{after}");
}

#[test]
fn connection_cap_rejects_politely_and_gauge_drains_to_zero() {
    let _guard = serialize();
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(calibration::controlled_testcases(Task::Word))
            .expect("unique ids"),
        7,
    ));
    // The default cap is 4096 (pinned by a uucs-server unit test); a
    // small explicit cap keeps this test from juggling thousands of
    // sockets.
    let cap = 8;
    let handle = tcp::serve_with(
        server,
        "127.0.0.1:0",
        tcp::ServeConfig {
            max_connections: cap,
            read_timeout: Some(Duration::from_secs(5)),
            ..tcp::ServeConfig::default()
        },
    )
    .expect("bind");

    // Occupy the cap, proving each connection is live by completing an
    // exchange on it.
    let mut held: Vec<TcpTransport> = Vec::new();
    for _ in 0..cap {
        let mut t = TcpTransport::connect(handle.addr()).expect("connect");
        let reply = t.exchange(&ClientMsg::Stats { reset: false }).expect("probe");
        assert!(matches!(reply, ServerMsg::Stats(_)));
        held.push(t);
    }
    assert_eq!(handle.live_connections(), cap);
    assert_eq!(metrics::gauge("server.connections.live").get(), cap as i64);

    // One over the cap: a polite ERROR, not a slammed door.
    let mut extra = TcpTransport::connect(handle.addr()).expect("connect");
    match extra.exchange(&ClientMsg::Stats { reset: false }) {
        Ok(ServerMsg::Error(e)) => {
            assert!(e.contains("capacity"), "unexpected rejection text: {e}")
        }
        other => panic!("expected polite capacity ERROR, got {other:?}"),
    }
    assert_eq!(metrics::counter("server.connections.rejected").get(), 1);

    // Release everything; the live gauge must drain to zero.
    drop(extra);
    drop(held);
    eventually("the connections to drain", Duration::from_secs(10), || {
        handle.live_connections() == 0 && metrics::gauge("server.connections.live").get() <= 0
    });
    assert_eq!(handle.live_connections(), 0, "tracker should drain");
    assert_eq!(
        metrics::gauge("server.connections.live").get(),
        0,
        "gauge should drain with the tracker"
    );
    handle.shutdown();
}

/// `STATS RESET` zeroes accumulations, not levels: configuration gauges
/// keep their values, and the live-connection gauge still balances when
/// connections opened before the reset close after it.
#[test]
fn stats_reset_keeps_gauges_and_live_connections_never_go_negative() {
    let _guard = serialize();
    metrics::gauge("server.config.shards").set(8);
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(calibration::controlled_testcases(Task::Word))
            .expect("unique ids"),
        7,
    ));
    let handle = tcp::serve(server, "127.0.0.1:0").expect("bind");
    let mut held: Vec<TcpTransport> = (0..2)
        .map(|_| {
            let mut t = TcpTransport::connect(handle.addr()).expect("connect");
            let reply = t.exchange(&ClientMsg::Stats { reset: false }).expect("probe");
            assert!(matches!(reply, ServerMsg::Stats(_)));
            t
        })
        .collect();
    let live = metrics::gauge("server.connections.live");
    assert_eq!(live.get(), 2);

    let ServerMsg::Stats(json) = held[0]
        .exchange(&ClientMsg::Stats { reset: true })
        .expect("stats reset")
    else {
        panic!("expected STATS reply");
    };
    assert!(json.contains("\"server.connections.live\":2"), "{json}");
    assert_eq!(metrics::counter("server.connections.accepted").get(), 0);
    assert_eq!(metrics::gauge("server.config.shards").get(), 8);
    assert_eq!(live.get(), 2, "a reset must not forget open connections");

    // Close after the reset: the gauge drains to zero, not to -2.
    held.clear();
    eventually("the connections to drain", Duration::from_secs(10), || {
        handle.live_connections() == 0 && live.get() <= 0
    });
    assert_eq!(handle.live_connections(), 0, "tracker should drain");
    assert_eq!(live.get(), 0);
    handle.shutdown();
}

/// Model-service telemetry: uploads drive the `modelsvc.*` gauge and
/// histogram, and the `MODEL`/`ADVICE` verbs are counted and timed like
/// every other verb — all visible through the STATS payload.
#[test]
fn model_service_metrics_cover_verbs_epoch_and_update_latency() {
    use uucs::server::ModelStore;
    use uucs::testcase::Resource;

    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-model");
    let server = wal_server(dir.path());
    let mut transport = LocalTransport::new(server.clone());
    drive_session(&mut transport, 43);

    // The upload path updated the model: the epoch gauge tracks the
    // store and the update histogram recorded one timing per batch.
    let epoch = server.model_epoch();
    assert!(epoch > 0, "uploads must advance the model");
    assert_eq!(metrics::gauge("modelsvc.epoch").get(), epoch as i64);
    assert!(metrics::histogram("modelsvc.update.ns").count() > 0);
    assert!(metrics::counter("modelsvc.observations").get() > 0);

    // MODEL and ADVICE are first-class verbs in the telemetry.
    for resource in [Resource::Cpu, Resource::Memory] {
        transport
            .exchange(&ClientMsg::Model {
                resource,
                task: None,
            })
            .expect("model query");
    }
    transport
        .exchange(&ClientMsg::Advice {
            resource: Resource::Cpu,
            task: "Word".into(),
            epsilon: 0.05,
        })
        .expect("advice query");
    assert_eq!(metrics::counter("server.verb.model.count").get(), 2);
    assert_eq!(metrics::counter("server.verb.advice.count").get(), 1);
    assert!(metrics::histogram("server.verb.model.ns").count() >= 2);

    // All of it shows up in the STATS payload.
    let ServerMsg::Stats(json) = transport
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("stats")
    else {
        panic!("expected STATS reply");
    };
    for key in [
        "\"server.verb.model.count\"",
        "\"server.verb.advice.count\"",
        "\"modelsvc.epoch\"",
        "\"modelsvc.update.ns\"",
    ] {
        assert!(json.contains(key), "STATS JSON missing {key}: {json}");
    }
    // A recovered boot from the same WAL re-arms the gauge without
    // replaying the uploads.
    metrics::reset();
    let (recovered, _) = ModelStore::open_wal(&dir.path().join("models"), WAL_CFG).unwrap();
    assert_eq!(recovered.epoch(), epoch);
    assert_eq!(metrics::gauge("modelsvc.epoch").get(), epoch as i64);
}

/// Wire telemetry: the per-framing connection gauges, the per-version
/// verb counters, and the client's negotiated-version gauge — all
/// surfaced through STATS and drained back to zero on disconnect.
#[test]
fn wire_gauges_and_version_counters_track_negotiation() {
    use uucs::client::{ResilientTransport, WireMode};

    let _guard = serialize();
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(calibration::controlled_testcases(Task::Word))
            .expect("unique ids"),
        7,
    ));
    let handle = tcp::serve(server, "127.0.0.1:0").expect("bind");

    // A legacy text client occupies the text gauge and counts v1 verbs.
    let mut text = TcpTransport::connect(handle.addr()).expect("connect");
    let reply = text.exchange(&ClientMsg::Stats { reset: false }).expect("text stats");
    assert!(matches!(reply, ServerMsg::Stats(_)));
    assert_eq!(metrics::gauge("server.wire.text_conns").get(), 1);
    assert_eq!(metrics::gauge("server.wire.binary_conns").get(), 0);
    assert!(metrics::counter("server.wire.v1.verbs").get() >= 1);

    // A negotiated binary client moves to the binary gauge; the HELLO
    // itself is the last v1 verb on that connection, everything after
    // counts as v2.
    let mut binary = ResilientTransport::multi(vec![handle.addr().to_string()])
        .with_wire_mode(WireMode::Binary);
    let v2_before = metrics::counter("server.wire.v2.verbs").get();
    let ServerMsg::Stats(json) = binary
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("binary stats")
    else {
        panic!("expected STATS reply");
    };
    assert_eq!(binary.negotiated_wire(), Some(2));
    assert_eq!(metrics::gauge("client.wire.negotiated").get(), 2);
    assert_eq!(metrics::gauge("server.wire.binary_conns").get(), 1);
    assert_eq!(metrics::gauge("server.wire.text_conns").get(), 1);
    assert!(metrics::counter("server.wire.v2.verbs").get() > v2_before);
    for key in [
        "\"server.wire.text_conns\"",
        "\"server.wire.binary_conns\"",
        "\"server.wire.v1.verbs\"",
        "\"server.wire.v2.verbs\"",
    ] {
        assert!(json.contains(key), "STATS JSON missing {key}: {json}");
    }

    // Disconnects drain both gauges; saying goodbye clears the client's
    // negotiated gauge too.
    binary.bye();
    assert_eq!(metrics::gauge("client.wire.negotiated").get(), 0);
    drop(text);
    eventually("the wire gauges to drain", Duration::from_secs(10), || {
        metrics::gauge("server.wire.text_conns").get() <= 0
            && metrics::gauge("server.wire.binary_conns").get() <= 0
    });
    assert_eq!(metrics::gauge("server.wire.text_conns").get(), 0);
    assert_eq!(metrics::gauge("server.wire.binary_conns").get(), 0);
    handle.shutdown();
}

/// Storage-engine telemetry: with the disk scheduler installed, segment
/// rotation leaves the append path. The `rotation_stall.ns` histogram
/// must record only the create+header cost (microseconds, not an
/// fsync), the deferred syncs ride the committer through the scheduler
/// (`server.disk.ops` moves), and every one of those series is visible
/// through STATS.
#[test]
fn rotation_stall_is_negligible_under_the_io_scheduler() {
    use uucs::protocol::wire::Endpoint;
    use uucs::protocol::{MonitorSummary, RunOutcome, RunRecord};
    use uucs::server::{StorageProfile, StoreSet};

    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-rotation");
    let profile = StorageProfile {
        io_threads: 2,
        ..StorageProfile::default()
    };
    // Tiny segments force rotations constantly; Never leaves every
    // fsync to the group committer (and the deferred-rotation drain).
    let cfg = WalConfig {
        segment_bytes: 4096,
        sync: SyncPolicy::Never,
    };
    let (stores, _) = StoreSet::open_with(dir.path(), cfg, 2, &profile).unwrap();
    let server = UucsServer::with_store_set(stores, 7)
        .without_model_updates()
        .with_io_scheduler(profile.scheduler().expect("io_threads > 0"))
        .with_group_commit(Duration::from_micros(200));

    let ServerMsg::Id { id, .. } =
        server.handle(&ClientMsg::register(MachineSnapshot::study_machine("rot-e2e")))
    else {
        panic!("registration refused");
    };
    // Enough upload bytes to roll the 4 KiB results segments many
    // times over; every Ack is post-commit, so by the time the last
    // one returns the rotations (and their deferred syncs) happened.
    for seq in 1..=40u64 {
        let records = (0..5)
            .map(|i| RunRecord {
                client: id.clone(),
                user: String::new(),
                testcase: format!("rot-{seq}-{i}"),
                task: "IE".into(),
                skill: "Typical".into(),
                outcome: RunOutcome::Discomfort,
                offset_secs: 10.0,
                last_levels: vec![(uucs::testcase::Resource::Cpu, vec![2.0])],
                monitor: MonitorSummary::default(),
            })
            .collect();
        let reply = server.handle(&ClientMsg::Upload {
            client: id.clone(),
            seq,
            records,
        });
        assert!(matches!(reply, ServerMsg::Ack(_)), "{reply:?}");
    }

    let rotations = metrics::counter("server.wal.results.rotations").get();
    assert!(rotations > 0, "the workload never rotated a segment");
    let stall = metrics::histogram("server.wal.results.rotation_stall.ns");
    assert!(stall.count() >= rotations, "every rotation records its stall");
    // The appending thread paid create+header only — never the closing
    // segment's fsync. 5ms is orders of magnitude above that cost and
    // below a slow fsync, so the bound survives CI jitter while still
    // failing if rotation ever syncs inline again.
    assert!(
        stall.max() < 5_000_000,
        "rotation stalled the append path for {}ns",
        stall.max()
    );
    // The deferred syncs actually ran, on the scheduler's threads.
    assert!(metrics::counter("server.disk.ops").get() > 0);

    let ServerMsg::Stats(json) = server.handle(&ClientMsg::Stats { reset: false }) else {
        panic!("expected STATS reply");
    };
    for key in [
        "\"server.wal.results.rotation_stall.ns\"",
        "\"server.disk.ops\"",
        "\"server.disk.queue_depth\"",
    ] {
        assert!(json.contains(key), "STATS JSON missing {key}: {json}");
    }

    // Clean shutdown (the committer drains), then a recovery boot under
    // the same profile: every acked upload is present.
    drop(server);
    let (stores, _) = StoreSet::open_with(dir.path(), cfg, 2, &profile).unwrap();
    let recovered = UucsServer::with_store_set(stores, 7);
    assert_eq!(recovered.applied_seq(&id), 40, "acked uploads must survive");
}

/// Runs a simulated machine that emits one flight event per nap, with
/// the telemetry clock slaved to simulated time, and returns the flight
/// recorder's JSONL dump.
fn trace_once(seed: u64) -> String {
    flight::global().clear();
    clock::install_virtual(0);
    let mut m = Machine::study_machine(seed);
    m.drive_telemetry_clock(true);
    m.spawn(
        "emitter",
        Box::new(FnWorkload::new("emitter", |ctx| {
            trace::event("sim.tick", &[("now_us", &ctx.now.to_string())]);
            Action::SleepUntil {
                until: ctx.now + 10 * MS,
            }
        })),
    );
    m.run_until(SEC);
    clock::uninstall_virtual();
    drop(m);
    flight::global().to_jsonl()
}

#[test]
fn deterministic_mode_traces_are_byte_identical_across_same_seed_runs() {
    let _guard = serialize();
    let first = trace_once(5);
    let second = trace_once(5);
    assert!(!first.is_empty(), "the run should record events");
    assert!(
        first.contains("\"event\":\"sim.tick\""),
        "trace should hold sim.tick events: {first}"
    );
    assert_eq!(first, second, "same seed must replay the same trace bytes");
}

/// A durable open times every shard's journal under its family's
/// `server.wal.<flavor>.open.ns`, so `STATS` after a restart shows which
/// family the open time went to.
#[test]
fn a_durable_open_times_every_shard_of_every_family() {
    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-open");
    let open = || UucsServer::with_store_set(StoreSet::open(dir.path(), WAL_CFG, 4).unwrap().0, 7);
    let server = open();
    server
        .add_testcases(&calibration::controlled_testcases(Task::Word))
        .unwrap();
    let mut transport = LocalTransport::new(Arc::new(server));
    drive_session(&mut transport, 43);
    drop(transport);
    metrics::reset();
    let mut transport = LocalTransport::new(Arc::new(open()));
    let ServerMsg::Stats(json) = transport
        .exchange(&ClientMsg::Stats { reset: false })
        .expect("local stats")
    else {
        panic!("expected STATS reply");
    };
    for flavor in ["testcases", "results", "registry", "model"] {
        let name = format!("server.wal.{flavor}.open.ns");
        assert!(json.contains(&format!("\"{name}\"")), "STATS JSON missing {name}: {json}");
        assert_eq!(metrics::histogram(&name).count(), 4, "{name}: one per shard");
    }
}

/// A model shard checkpoints once its journal tail outgrows its last
/// checkpoint, so a restart after uploads that crossed that bound several
/// times replays at most the bound's worth of deltas — and
/// `server.wal.model.replayed_records` says how many it did.
#[test]
fn a_restart_replays_at_most_the_bound_of_model_deltas() {
    use uucs::protocol::{MonitorSummary, RunOutcome, RunRecord, WalEntry};
    use uucs::server::models::{checkpoint_bound, observations_of};
    use uucs::server::ModelStore;
    use uucs::testcase::Resource;

    let _guard = serialize();
    let dir = TempDir::new("uucs-telemetry-bounded-replay");
    // The journals are what the test reads, not their durability.
    let cfg = WalConfig { segment_bytes: 16 << 10, sync: SyncPolicy::Never };
    let open = || Arc::new(UucsServer::with_store_set(StoreSet::open(dir.path(), cfg, 1).unwrap().0, 7));
    let mut transport = LocalTransport::new(open());
    let snapshot = MachineSnapshot::study_machine("bounded");
    let ServerMsg::Id { id, .. } = transport
        .exchange(&ClientMsg::Register { snapshot, token: String::new() })
        .expect("register")
    else {
        panic!("expected ID");
    };
    // Every delta holds the same observations at a rising epoch, so the
    // first is the smallest frame the journal holds.
    let records: Vec<RunRecord> = (0..16)
        .map(|i| RunRecord {
            client: id.clone(),
            user: format!("u{i}"),
            testcase: "t".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 1.0,
            last_levels: vec![(Resource::Cpu, vec![f64::from(i) * 0.25])],
            monitor: MonitorSummary::default(),
        })
        .collect();
    let probe = uucs::modelsvc::ComfortModel::new();
    let frame = WalEntry::Model(probe.next_delta(observations_of(&records))).encode().len() as u64 + 8;
    let uploads = 4 * checkpoint_bound(0) / frame;
    for seq in 1..=uploads {
        let upload = ClientMsg::Upload { client: id.clone(), seq, records: records.clone() };
        assert_eq!(transport.exchange(&upload).expect("upload"), ServerMsg::Ack(records.len()));
    }
    drop(transport);

    let server = open();
    assert_eq!(server.model_epoch(), uploads, "every delta is kept");
    let replayed = metrics::gauge("server.wal.model.replayed_records").get() as u64;
    drop(server);
    let (store, _) = ModelStore::open_wal(&dir.path().join("models"), cfg).unwrap();
    let (tail, checkpoint) = store.journal_tail();
    assert!(checkpoint > 0, "the model journal checkpointed itself");
    assert!(tail < checkpoint_bound(checkpoint), "{tail} bytes past a {checkpoint}-byte checkpoint");
    assert!(
        replayed * frame <= checkpoint_bound(checkpoint),
        "{replayed} of {uploads} deltas replayed onto a {checkpoint}-byte checkpoint"
    );
}
