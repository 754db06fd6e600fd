//! Seeded inputs: client identities and result records. The servers
//! receive only the generated messages; the same `--seed` gives the
//! same names, tokens and record contents.

use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
use uucs_stats::Pcg64;
use uucs_testcase::Resource;
use uucs_workloads::Task;

/// Client identities multiplexed over the load connections. 64 GUIDs
/// hash onto all 8 result shards; two would touch at most two.
pub const IDENTITIES: usize = 64;

const SKILLS: [&str; 3] = ["Beginner", "Typical", "Power"];

/// One client identity: what it registers with and what the server
/// answered.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Host name in the registration snapshot.
    pub name: String,
    /// Registration idempotency token (seeded).
    pub token: String,
    /// The GUID the server assigned.
    pub guid: String,
    /// Highest upload sequence number the server acknowledged.
    pub acked_seq: u64,
    /// Uploads acknowledged for this identity since registration.
    pub acked_uploads: u64,
}

/// The `IDENTITIES` identities of a run, unregistered.
pub fn identities(seed: u64) -> Vec<Identity> {
    let mut rng = Pcg64::new(seed).split_str("identities");
    (0..IDENTITIES)
        .map(|i| Identity {
            name: format!("bench-{seed}-{i:02}"),
            token: format!("bench-{seed}-{i:02}-{:016x}", rng.next_u64()),
            guid: String::new(),
            acked_seq: 0,
            acked_uploads: 0,
        })
        .collect()
}

/// A seeded stream of result records.
#[derive(Debug, Clone)]
pub struct RecordGen {
    rng: Pcg64,
    serial: u64,
}

impl RecordGen {
    /// A generator for one load thread (`stream` keeps threads apart).
    pub fn new(seed: u64, stream: u64) -> RecordGen {
        RecordGen {
            rng: Pcg64::new(seed).split_str("records").split(stream),
            serial: 0,
        }
    }

    /// One record uploaded by `client`: a random task, skill class,
    /// resource, outcome and last-five contention levels.
    pub fn record(&mut self, client: &str) -> RunRecord {
        let rng = &mut self.rng;
        let task = *rng.choose(&Task::ALL);
        let resource = *rng.choose(&Resource::STUDIED);
        let outcome = if rng.bernoulli(0.7) {
            RunOutcome::Discomfort
        } else {
            RunOutcome::Exhausted
        };
        let top = rng.uniform(0.05, 1.0) * resource.max_contention();
        let round = |v: f64| (v * 100.0).round() / 100.0;
        let levels = (1..=5).map(|i| round(top * i as f64 / 5.0)).collect();
        self.serial += 1;
        RunRecord {
            client: client.to_string(),
            user: String::new(),
            testcase: format!("{}-{}-{:06}", resource.name(), task.name(), self.serial),
            task: task.name().to_string(),
            skill: rng.choose(&SKILLS).to_string(),
            outcome,
            offset_secs: round(rng.uniform(1.0, 120.0)),
            last_levels: vec![(resource, levels)],
            monitor: MonitorSummary {
                cpu_util: round(rng.f64()),
                peak_mem_fraction: round(rng.f64()),
                disk_busy: round(rng.f64()),
                faults: rng.below(10_000),
                mean_latency_us: Some(round(rng.uniform(100.0, 50_000.0))),
            },
        }
    }

    /// `n` records for one upload.
    pub fn batch(&mut self, client: &str, n: usize) -> Vec<RunRecord> {
        (0..n).map(|_| self.record(client)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = RecordGen::new(7, 0).batch("client-0001", 4);
        let b = RecordGen::new(7, 0).batch("client-0001", 4);
        let c = RecordGen::new(8, 0).batch("client-0001", 4);
        let d = RecordGen::new(7, 1).batch("client-0001", 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(identities(7)[5].token, identities(7)[5].token);
        assert_ne!(identities(7)[5].token, identities(8)[5].token);
    }

    #[test]
    fn records_survive_the_text_format() {
        let recs = RecordGen::new(3, 0).batch("client-0042", 16);
        let text = RunRecord::emit_many(&recs);
        assert_eq!(RunRecord::parse_many(&text).unwrap(), recs);
    }
}
