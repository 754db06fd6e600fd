//! A one-subject Quake session at Full fidelity: every run actually
//! plays on the simulated machine through the deterministic-mode client,
//! and the stored monitoring reflects the resource each testcase
//! borrowed.

use std::sync::Arc;
use uucs::client::{LocalTransport, Script, UucsClient};
use uucs::comfort::{calibration, Fidelity, UserPopulation};
use uucs::protocol::MachineSnapshot;
use uucs::server::{TestcaseStore, UucsServer};
use uucs::workloads::Task;

#[test]
fn quake_session_full_fidelity() {
    let library = calibration::controlled_testcases(Task::Quake);
    let server = Arc::new(UucsServer::new(
        TestcaseStore::from_testcases(library.clone()).expect("unique ids"),
        1,
    ));
    let mut transport = LocalTransport::new(server.clone());
    let mut client = UucsClient::new(MachineSnapshot::study_machine("ff"), 2);
    client.register(&mut transport).unwrap();
    client.install_testcases(library);

    let script_text = "\
RUN quake-cpu-ramp Quake\n\
RUN quake-blank-1 Quake\n\
RUN quake-disk-ramp Quake\n\
RUN quake-memory-ramp Quake\n\
RUN quake-cpu-step Quake\n\
RUN quake-disk-step Quake\n\
RUN quake-blank-2 Quake\n\
RUN quake-memory-step Quake\n\
SYNC\n";
    let script = Script::parse(script_text).unwrap();
    let pop = UserPopulation::generate(1, 3);
    let runs = client
        .execute_script(&script, &pop.users()[0], Fidelity::Full, &mut transport, 4)
        .unwrap();
    assert_eq!(runs, 8);
    let results = server.results().unwrap();
    assert_eq!(results.len(), 8);

    let by_id = |id: &str| results.iter().find(|r| r.testcase == id).unwrap();

    // The CPU testcases saturate the CPU; the blanks do not (Quake's own
    // frame loop runs the machine near 100% but exercisers add none).
    let cpu_ramp = by_id("quake-cpu-ramp");
    assert!(cpu_ramp.monitor.cpu_util > 0.95, "{}", cpu_ramp.monitor.cpu_util);

    // The disk testcases keep the disk busy; the CPU ones barely touch it.
    let disk_ramp = by_id("quake-disk-ramp");
    assert!(
        disk_ramp.monitor.disk_busy > 3.0 * cpu_ramp.monitor.disk_busy.max(0.01),
        "disk run {} vs cpu run {}",
        disk_ramp.monitor.disk_busy,
        cpu_ramp.monitor.disk_busy
    );

    // The memory testcases drive residency up and fault; the others don't
    // fault at all after warmup.
    let mem_ramp = by_id("quake-memory-ramp");
    if mem_ramp.offset_secs > 80.0 {
        assert!(
            mem_ramp.monitor.peak_mem_fraction > 0.9,
            "{}",
            mem_ramp.monitor.peak_mem_fraction
        );
        assert!(mem_ramp.monitor.faults > 0);
    }
    assert_eq!(cpu_ramp.monitor.faults, 0, "CPU run must not page");

    // Every run recorded frame latencies.
    for r in &results {
        assert!(
            r.monitor.mean_latency_us.is_some(),
            "{} lost its frames",
            r.testcase
        );
    }
}
