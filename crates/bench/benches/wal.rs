//! Write-ahead-log benchmarks: append throughput under each sync
//! policy, and recovery (open + full replay) speed. These quantify the
//! durability tax the `--wal` server mode pays per acknowledged upload,
//! and how fast a crashed server comes back.

use std::hint::black_box;
use uucs_harness::{bench_group, bench_main, Criterion, TempDir, Throughput};
use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord, WalEntry};
use uucs_wal::{StdIo, SyncPolicy, Wal, WalConfig, WalReader};

/// A realistic journal payload: one encoded result record, ~200 bytes.
fn payload(i: usize) -> Vec<u8> {
    WalEntry::Result(RunRecord {
        client: "client-0001".into(),
        user: format!("u{i:03}"),
        testcase: "cpu-ramp-7-120".into(),
        task: "Word".into(),
        skill: "Typical".into(),
        outcome: RunOutcome::Discomfort,
        offset_secs: 60.0 + i as f64,
        last_levels: vec![(uucs_testcase::Resource::Cpu, vec![1.0, 1.25, 1.5])],
        monitor: MonitorSummary::default(),
    })
    .encode()
}

fn config(sync: SyncPolicy) -> WalConfig {
    WalConfig {
        segment_bytes: 256 * 1024,
        sync,
    }
}

/// Appends per second under each sync policy. `Always` pays one fsync
/// per record (what an acknowledged upload costs the `--wal` server);
/// `Never` is the framing + buffered-write floor (the group committer
/// supplies the fsync).
fn append(c: &mut Criterion) {
    let batch: Vec<Vec<u8>> = (0..64).map(payload).collect();
    let mut group = c.benchmark_group("wal/append");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    for (name, sync) in [("always", SyncPolicy::Always), ("never", SyncPolicy::Never)] {
        group.bench_function(format!("64_records_{name}"), |b| {
            let tmp = TempDir::new("uucs-bench-wal-append");
            let (mut wal, _) = Wal::open(StdIo::new(), tmp.path(), config(sync)).unwrap();
            b.iter(|| {
                let mut last = 0;
                for p in &batch {
                    last = wal.append(p).unwrap();
                }
                black_box(last)
            })
        });
    }
    group.finish();
}

/// Recovery speed: open a journal of 1000 records (a checkpoint under
/// half of them) and replay everything past the checkpoint, the way the
/// server does on startup — plus the read-only analysis-side scan.
fn replay(c: &mut Criterion) {
    let tmp = TempDir::new("uucs-bench-wal-replay");
    let cfg = config(SyncPolicy::Never);
    {
        let (mut wal, _) = Wal::open(StdIo::new(), tmp.path(), cfg).unwrap();
        for i in 0..500 {
            wal.append(&payload(i)).unwrap();
        }
        wal.snapshot(b"checkpoint-state").unwrap();
        for i in 500..1000 {
            wal.append(&payload(i)).unwrap();
        }
        wal.sync().unwrap();
    }
    let mut group = c.benchmark_group("wal/recover");
    group.sample_size(10);
    group.throughput(Throughput::Elements(500));
    group.bench_function("open_and_replay_500_of_1000", |b| {
        b.iter(|| {
            let (wal, recovery) = Wal::open(StdIo::new(), tmp.path(), cfg).unwrap();
            let mut bytes = 0usize;
            for item in wal.replay() {
                bytes += item.unwrap().1.len();
            }
            black_box((recovery.records, bytes))
        })
    });
    group.bench_function("readonly_scan_500_of_1000", |b| {
        b.iter(|| {
            let reader = WalReader::open(StdIo::new(), tmp.path()).unwrap();
            let mut bytes = 0usize;
            for item in reader.records() {
                bytes += item.unwrap().1.len();
            }
            black_box((reader.record_count(), bytes))
        })
    });
    group.finish();
}

bench_group!(benches, append, replay);
bench_main!(benches);
