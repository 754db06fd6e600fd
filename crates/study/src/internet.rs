//! The Internet-wide study (§4).
//!
//! "Any individual with a Windows computer is welcome to ... download and
//! run a copy of the UUCS client. ... We currently have about 100 users."
//! Clients are heterogeneous (different CPU speeds — the paper's question
//! 6), hot-sync growing random samples from a >2000-testcase library,
//! execute testcases at Poisson arrivals under whatever task the user
//! happens to be doing, and upload results.

use std::sync::Arc;
use uucs_client::{LocalTransport, UucsClient};
use uucs_comfort::{Fidelity, UserPopulation};
use uucs_protocol::{MachineSnapshot, RunRecord};
use uucs_server::{TestcaseStore, UucsServer};
use uucs_stats::Pcg64;
use uucs_testcase::generate::Library;
use uucs_workloads::Task;

/// Internet study parameters.
#[derive(Debug, Clone)]
pub struct InternetStudyConfig {
    /// Root seed.
    pub seed: u64,
    /// Number of participating clients (the paper had ~100).
    pub clients: usize,
    /// Testcase executions per client over the study window.
    pub runs_per_client: usize,
    /// Mean gap between runs, seconds (Poisson arrivals).
    pub mean_gap_secs: f64,
}

impl Default for InternetStudyConfig {
    fn default() -> Self {
        InternetStudyConfig {
            seed: 42,
            clients: 100,
            runs_per_client: 20,
            mean_gap_secs: 1800.0,
        }
    }
}

/// Internet study outputs.
#[derive(Debug, Clone)]
pub struct InternetStudyData {
    /// All uploaded run records.
    pub records: Vec<RunRecord>,
    /// The simulated participants (one user per client).
    pub population: UserPopulation,
    /// Total simulated study time across clients, seconds.
    pub simulated_secs: f64,
}

/// The Internet-wide study driver.
pub struct InternetStudy {
    config: InternetStudyConfig,
}

impl InternetStudy {
    /// Creates the study.
    pub fn new(config: InternetStudyConfig) -> Self {
        InternetStudy { config }
    }

    /// Runs the study: registration, hot-sync loops, Poisson-scheduled
    /// runs under random tasks, uploads.
    pub fn run(&self) -> InternetStudyData {
        let library = Library::internet_sweep(self.config.seed);
        let server = Arc::new(UucsServer::new(
            TestcaseStore::from_testcases(library.testcases().to_vec()).expect("unique ids"),
            self.config.seed,
        ));
        let population = UserPopulation::generate(self.config.clients, self.config.seed ^ 0xdead);
        let root = Pcg64::new(self.config.seed).split_str("internet-study");
        let mut simulated_secs = 0.0;

        for (i, user) in population.users().iter().enumerate() {
            let mut rng = root.split(i as u64);
            let mut transport = LocalTransport::new(server.clone());
            // Heterogeneous hardware: CPU speeds from 700 MHz to 3.2 GHz.
            let mut snapshot =
                MachineSnapshot::study_machine(format!("internet-host-{i:03}"));
            snapshot.cpu_mhz = rng.range_inclusive(700, 3200) as u32;
            snapshot.mem_mb = *rng.choose(&[256, 512, 1024]) as u32;
            let mut client = UucsClient::new(snapshot, rng.next_u64());
            client.register(&mut transport).expect("local transport");
            client.hot_sync(&mut transport).expect("first sync");

            for run_idx in 0..self.config.runs_per_client {
                // Poisson arrivals of testcase execution.
                simulated_secs += client.next_arrival_gap(self.config.mean_gap_secs);
                // Periodically hot-sync to grow the local sample.
                if run_idx % 5 == 4 {
                    client.hot_sync(&mut transport).expect("sync");
                }
                let Some(tc) = client.choose_testcase() else {
                    continue;
                };
                // The user is doing whatever they happen to be doing.
                let task = *rng.choose(&Task::ALL);
                let run_seed = rng.next_u64();
                client.perform_run(user, task, &tc, Fidelity::Fast, run_seed);
            }
            client.hot_sync(&mut transport).expect("final sync");
        }

        InternetStudyData {
            records: server
                .results()
                .expect("records this server rendered itself decode"),
            population,
            simulated_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uucs_comfort::metrics::discomfort_ecdf;
    use uucs_protocol::RunOutcome;
    use uucs_testcase::Resource;

    fn small() -> InternetStudyData {
        InternetStudy::new(InternetStudyConfig {
            seed: 5,
            clients: 12,
            runs_per_client: 10,
            mean_gap_secs: 600.0,
        })
        .run()
    }

    #[test]
    fn produces_expected_volume() {
        let d = small();
        assert_eq!(d.records.len(), 12 * 10);
        assert!(d.simulated_secs > 0.0);
        // Clients are distinct.
        let mut clients: Vec<&str> = d.records.iter().map(|r| r.client.as_str()).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), 12);
    }

    #[test]
    fn is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn covers_diverse_testcases_and_tasks() {
        let d = small();
        let mut testcases: Vec<&str> = d.records.iter().map(|r| r.testcase.as_str()).collect();
        testcases.sort_unstable();
        testcases.dedup();
        assert!(testcases.len() > 40, "diversity: {}", testcases.len());
        for task in Task::ALL {
            assert!(
                d.records.iter().any(|r| r.task == task.name()),
                "missing task {task}"
            );
        }
    }

    #[test]
    fn produces_both_outcomes_and_usable_cdfs() {
        let d = InternetStudy::new(InternetStudyConfig {
            seed: 6,
            clients: 30,
            runs_per_client: 15,
            mean_gap_secs: 600.0,
        })
        .run();
        let df = d
            .records
            .iter()
            .filter(|r| r.outcome == RunOutcome::Discomfort)
            .count();
        assert!(df > 0 && df < d.records.len());
        // CDF estimation over the internet data works for CPU.
        let cpu_runs: Vec<_> = d
            .records
            .iter()
            .filter(|r| r.testcase.starts_with("cpu-"))
            .collect();
        let cdf = discomfort_ecdf(cpu_runs.iter().copied(), Resource::Cpu);
        assert!(cdf.total() > 30);
    }
}
