//! Model-service end-to-end: two clients upload records over real TCP,
//! a third asks `MODEL`/`ADVICE`, the answers match an offline
//! [`Ecdf`](uucs::stats::Ecdf) computation within the sketch's
//! documented rank-error bound, and the model survives a server kill
//! and WAL recovery bit-for-bit.

use std::sync::Arc;
use uucs::client::{ClientTransport, TcpTransport, UucsClient};
use uucs::comfort::{calibration, Fidelity, UserPopulation};
use uucs::modelsvc::QuantileSketch;
use uucs::protocol::{ClientMsg, MachineSnapshot, RunOutcome, ServerMsg};
use uucs::server::{tcp, ModelStore, RegistryStore, ResultStore, TestcaseStore, UucsServer};
use uucs::stats::Ecdf;
use uucs::testcase::Resource;
use uucs::workloads::Task;
use uucs_harness::TempDir;
use uucs_wal::{SyncPolicy, WalConfig};

const WAL_CFG: WalConfig = WalConfig {
    segment_bytes: 4096,
    sync: SyncPolicy::Always,
};

/// Boots a fully WAL-backed server (all four stores) from `dir`,
/// seeding the testcase library on first boot only.
fn wal_server(dir: &std::path::Path) -> Arc<UucsServer> {
    let (mut testcases, _) = TestcaseStore::open_wal(&dir.join("testcases"), WAL_CFG).unwrap();
    let (results, _) = ResultStore::open_wal(&dir.join("results"), WAL_CFG).unwrap();
    let (registry, _) = RegistryStore::open_wal(&dir.join("registry"), WAL_CFG).unwrap();
    let (models, _) = ModelStore::open_wal(&dir.join("models"), WAL_CFG).unwrap();
    if testcases.is_empty() {
        for tc in calibration::controlled_testcases(Task::Word) {
            testcases.add(&tc).unwrap();
        }
    }
    Arc::new(
        UucsServer::with_all_stores(testcases, results, registry, 7).with_model_store(models),
    )
}

/// Runs one uploader: register, run every Word testcase, hot-sync.
fn upload_session(addr: std::net::SocketAddr, subject: usize, seed: u64) {
    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut client = UucsClient::new(
        MachineSnapshot::study_machine(format!("e2e-host-{subject}")),
        seed,
    );
    client.register(&mut transport).expect("register");
    let pop = UserPopulation::generate(8, 44);
    let user = &pop.users()[subject];
    for tc in calibration::controlled_testcases(Task::Word) {
        client.perform_run(user, Task::Word, &tc, Fidelity::Fast, seed ^ 0x5eed);
    }
    client.hot_sync(&mut transport).expect("upload");
    transport.bye().ok();
}

/// The offline reference: the discomfort-level ECDF computed directly
/// from the server's result store, the way the analysis crates do it.
fn offline_ecdf(server: &UucsServer, resource: Resource) -> Ecdf {
    let mut observed = Vec::new();
    let mut censored = 0usize;
    for rec in server.results().unwrap() {
        let Some(level) = rec.level_at_feedback(resource) else {
            continue;
        };
        if !level.is_finite() {
            continue;
        }
        if rec.outcome == RunOutcome::Exhausted {
            censored += 1;
        } else {
            observed.push(level);
        }
    }
    Ecdf::new(observed, censored)
}

#[test]
fn model_and_advice_match_offline_analysis_and_survive_recovery() {
    let tmp = TempDir::new("uucs-modelsvc-e2e");

    // Generation 1: two uploaders feed the model over real TCP.
    let (epoch, sketch_token, advised) = {
        let server = wal_server(tmp.path());
        let handle = tcp::serve(server.clone(), "127.0.0.1:0").expect("bind");
        upload_session(handle.addr(), 0, 100);
        upload_session(handle.addr(), 1, 200);

        // A third party queries the model.
        let mut analyst = TcpTransport::connect(handle.addr()).expect("connect");
        let reply = analyst
            .exchange(&ClientMsg::Model {
                resource: Resource::Cpu,
                task: None,
            })
            .expect("MODEL");
        let ServerMsg::Model {
            epoch,
            observed,
            censored,
            sketch,
        } = reply
        else {
            panic!("unexpected MODEL reply: {reply:?}");
        };
        assert!(epoch > 0, "uploads must have advanced the model epoch");

        // The sketch agrees with the offline ECDF within its documented
        // error bound: quantiles within one bin width, counts exactly.
        let decoded = QuantileSketch::decode(&sketch).expect("well-formed sketch");
        let ecdf = offline_ecdf(&handle.server, Resource::Cpu);
        assert_eq!(observed as usize, ecdf.discomfort_count());
        assert_eq!(censored as usize, ecdf.exhausted_count());
        for p in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
            match (decoded.quantile(p), ecdf.quantile(p)) {
                (Some(approx), Some(exact)) => {
                    assert!(
                        approx >= exact && approx - exact <= decoded.value_error() + 1e-9,
                        "p={p}: sketch {approx} vs exact {exact} (bound {})",
                        decoded.value_error()
                    );
                }
                (a, e) => assert_eq!(
                    a.is_some(),
                    e.is_some(),
                    "p={p}: censoring saturation must agree (sketch {a:?}, ecdf {e:?})"
                ),
            }
        }

        // Advice is the epsilon-quantile of the task cohort.
        let reply = analyst
            .exchange(&ClientMsg::Advice {
                resource: Resource::Cpu,
                task: "Word".into(),
                epsilon: 0.25,
            })
            .expect("ADVICE");
        let ServerMsg::Advice {
            epoch: advice_epoch,
            level,
        } = reply
        else {
            panic!("unexpected ADVICE reply: {reply:?}");
        };
        assert_eq!(advice_epoch, epoch);
        assert!(level.is_finite() && level >= 0.0);

        analyst.bye().ok();
        handle.shutdown();
        (epoch, sketch, level)
    };
    // Generation 1's server is dropped here — the "kill".

    // Generation 2: recovery from the WAL serves the same model.
    let server = wal_server(tmp.path());
    assert_eq!(server.model_epoch(), epoch, "epoch survives recovery");
    let handle = tcp::serve(server, "127.0.0.1:0").expect("bind");
    let mut analyst = TcpTransport::connect(handle.addr()).expect("connect");
    let reply = analyst
        .exchange(&ClientMsg::Model {
            resource: Resource::Cpu,
            task: None,
        })
        .expect("MODEL after recovery");
    match reply {
        ServerMsg::Model {
            epoch: e, sketch, ..
        } => {
            assert_eq!(e, epoch);
            assert_eq!(
                sketch, sketch_token,
                "recovered sketch must be byte-identical"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    let reply = analyst
        .exchange(&ClientMsg::Advice {
            resource: Resource::Cpu,
            task: "Word".into(),
            epsilon: 0.25,
        })
        .expect("ADVICE after recovery");
    match reply {
        ServerMsg::Advice { epoch: e, level } => {
            assert_eq!(e, epoch);
            assert_eq!(level, advised, "recovered advice must be identical");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    analyst.bye().ok();
    handle.shutdown();
}

/// `ADVICE` before any uploads is a protocol error, not a panic; `MODEL`
/// answers with the empty sketch.
#[test]
fn empty_model_answers_gracefully() {
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(calibration::controlled_testcases(Task::Ie))
            .expect("unique ids"),
        7,
    ));
    let handle = tcp::serve(server, "127.0.0.1:0").expect("bind");
    let mut t = TcpTransport::connect(handle.addr()).expect("connect");
    match t
        .exchange(&ClientMsg::Model {
            resource: Resource::Disk,
            task: None,
        })
        .expect("MODEL")
    {
        ServerMsg::Model {
            epoch, observed, ..
        } => {
            assert_eq!(epoch, 0);
            assert_eq!(observed, 0);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    match t
        .exchange(&ClientMsg::Advice {
            resource: Resource::Disk,
            task: "Ie".into(),
            epsilon: 0.05,
        })
        .expect("exchange itself succeeds")
    {
        ServerMsg::Error(e) => assert!(e.contains("no comfort model"), "got {e}"),
        other => panic!("unexpected reply {other:?}"),
    }
    t.bye().ok();
    handle.shutdown();
}
