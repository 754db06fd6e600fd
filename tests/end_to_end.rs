//! Cross-crate integration: the full measurement pipeline over real TCP,
//! the full-fidelity run engine, and the analysis on top.

use std::sync::Arc;
use uucs::client::{Script, TcpTransport, UucsClient};
use uucs::comfort::{calibration, Fidelity, UserPopulation};
use uucs::protocol::{MachineSnapshot, RunOutcome};
use uucs::server::{tcp, TestcaseStore, UucsServer};
use uucs::workloads::Task;

/// The paper's Figure 1 pipeline over a real socket: register, download
/// testcases, execute runs in deterministic mode, upload results.
#[test]
fn full_pipeline_over_tcp() {
    let library: Vec<_> = Task::ALL
        .iter()
        .flat_map(|&t| calibration::controlled_testcases(t))
        .collect();
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(library.clone()).expect("unique ids"),
        7,
    ));
    let handle = tcp::serve(server, "127.0.0.1:0").expect("bind");

    let mut transport = TcpTransport::connect(handle.addr()).expect("connect");
    let mut client = UucsClient::new(MachineSnapshot::study_machine("itest"), 1);
    let id = client.register(&mut transport).expect("register");
    assert!(id.starts_with("client-"));

    // Hot sync pulls a growing random sample.
    let r1 = client.hot_sync(&mut transport).expect("sync 1");
    assert!(r1.downloaded > 0);

    // Deterministic mode: run the Quake session from a command file.
    client.install_testcases(library);
    let script = Script::parse(
        "RUN quake-cpu-ramp Quake\n\
         RUN quake-blank-1 Quake\n\
         RUN quake-memory-step Quake\n\
         SYNC\n",
    )
    .expect("script");
    let pop = UserPopulation::generate(1, 5);
    let runs = client
        .execute_script(&script, &pop.users()[0], Fidelity::Fast, &mut transport, 99)
        .expect("session");
    assert_eq!(runs, 3);

    // The server holds the uploaded results.
    assert_eq!(handle.server.result_count(), 3);
    let results = handle.server.results().unwrap();
    assert!(results.iter().all(|r| r.client == id));
    assert!(results.iter().any(|r| r.testcase == "quake-cpu-ramp"));

    transport.bye().ok();
    handle.shutdown();
}

/// Full-fidelity runs genuinely stress the simulated machine: the record
/// of a memory testcase under Quake shows paging; the CPU testcase shows
/// stretched frames.
#[test]
fn full_fidelity_monitoring_reflects_the_resource() {
    use uucs::comfort::{execute_run, RunSetup, RunStyle};
    let pop = UserPopulation::generate(4, 17);
    // Pick a tolerant user so the run lasts long enough to observe.
    let user = pop
        .users()
        .iter()
        .max_by(|a, b| {
            a.threshold(Task::Quake, uucs::testcase::Resource::Memory)
                .partial_cmp(&b.threshold(Task::Quake, uucs::testcase::Resource::Memory))
                .unwrap()
        })
        .unwrap();
    let tcs = calibration::controlled_testcases(Task::Quake);
    let mem_ramp = tcs.iter().find(|t| t.id.as_str() == "quake-memory-ramp").unwrap();
    let cpu_ramp = tcs.iter().find(|t| t.id.as_str() == "quake-cpu-ramp").unwrap();

    let mem_rec = execute_run(&RunSetup {
        user,
        task: Task::Quake,
        testcase: mem_ramp,
        style: RunStyle::Ramp,
        seed: 3,
        fidelity: Fidelity::Full,
        client_id: "itest".into(),
    });
    let cpu_rec = execute_run(&RunSetup {
        user,
        task: Task::Quake,
        testcase: cpu_ramp,
        style: RunStyle::Ramp,
        seed: 3,
        fidelity: Fidelity::Full,
        client_id: "itest".into(),
    });

    // Memory borrowing shows up as faults and resident pressure, not CPU.
    if mem_rec.offset_secs > 90.0 {
        assert!(mem_rec.monitor.faults > 0, "faults {}", mem_rec.monitor.faults);
        assert!(mem_rec.monitor.peak_mem_fraction > 0.9);
    }
    // CPU borrowing saturates the CPU.
    assert!(cpu_rec.monitor.cpu_util > 0.9, "cpu {}", cpu_rec.monitor.cpu_util);
    // Quake records frame latencies either way.
    assert!(cpu_rec.monitor.mean_latency_us.is_some());
}

/// The blank-testcase noise floor only exists in jitter-sensitive
/// contexts, like Figure 9.
#[test]
fn noise_floor_context_dependence() {
    use uucs::comfort::{execute_run, RunSetup, RunStyle};
    let pop = UserPopulation::generate(60, 23);
    let blank = uucs::testcase::Testcase::blank("itest-blank", 1.0, 120.0);
    let mut df = std::collections::HashMap::new();
    for task in Task::ALL {
        let mut count = 0;
        for (i, user) in pop.users().iter().enumerate() {
            let rec = execute_run(&RunSetup {
                user,
                task,
                testcase: &blank,
                style: RunStyle::Other,
                seed: 1000 + i as u64,
                fidelity: Fidelity::Fast,
                client_id: "itest".into(),
            });
            if rec.outcome == RunOutcome::Discomfort {
                count += 1;
            }
        }
        df.insert(task, count);
    }
    assert_eq!(df[&Task::Word], 0);
    assert_eq!(df[&Task::Powerpoint], 0);
    assert!(df[&Task::Quake] > df[&Task::Word]);
    assert!(df[&Task::Quake] >= 8, "quake {}", df[&Task::Quake]);
}

/// Server persistence: a study's results survive a round trip through
/// the text stores.
#[test]
fn server_stores_roundtrip_through_disk() {
    use uucs::study::controlled::{ControlledStudy, StudyConfig};
    let data = ControlledStudy::new(StudyConfig {
        seed: 3,
        users: 4,
        fidelity: Fidelity::Fast,
    })
    .run();
    let dir = std::env::temp_dir().join(format!("uucs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("results.txt");
    std::fs::write(
        &path,
        uucs::protocol::RunRecord::emit_many(&data.records),
    )
    .unwrap();
    let loaded =
        uucs::protocol::RunRecord::parse_many(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, data.records);
    std::fs::remove_dir_all(&dir).ok();
}
