//! The shape of a group-commit pass, read off the process-wide
//! counters: a pass over one dirty slot fsyncs it on the commit thread
//! (`server.disk.ops` does not move), a pass over k ≥ 2 submits each
//! slot to the committer's own pool (`server.disk.ops` moves by k), and
//! the committer defers every ticketed journal's rotation sync to its
//! passes. One test in its own binary, so no other committer moves the
//! counters it reads.

use std::sync::Arc;
use std::time::{Duration, Instant};
use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
use uucs_server::{shard_of, CommitTicket, GroupCommitter, StoreFlavor, StoreSet};
use uucs_telemetry::metrics;
use uucs_testcase::Resource;
use uucs_wal::{SyncPolicy, WalConfig};

const SHARDS: usize = 4;

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

fn disk_ops() -> u64 {
    metrics::counter("server.disk.ops").get()
}

fn results_fsyncs() -> u64 {
    metrics::histogram("server.wal.results.fsync.ns").count()
}

#[test]
fn a_lone_slot_syncs_inline_and_k_slots_go_to_the_pool() {
    let dir = uucs_harness::TempDir::new("uucs-commit-passes");
    // 4 KiB segments rotate every few uploads; no append syncs.
    let cfg = WalConfig {
        segment_bytes: 4096,
        sync: SyncPolicy::Never,
    };
    let stores = Arc::new(StoreSet::open(dir.path(), cfg, SHARDS).unwrap().0);
    // What every server starts at construction, with no gather window:
    // a pass takes whatever is dirty as soon as it wakes.
    let (committer, handle) = GroupCommitter::start(stores.clone(), Duration::ZERO);
    // One client per results shard.
    let clients: Vec<String> = (0..SHARDS)
        .map(|want| {
            (0..)
                .map(|i| format!("client-{i:04}"))
                .find(|c| shard_of(c, SHARDS) == want)
                .unwrap()
        })
        .collect();
    let mut seqs = [0u64; SHARDS];
    // Appends one upload for client `i` and returns the LSN after it.
    let mut append = |i: usize| {
        let shard = stores.results.shard_for(&clients[i]);
        assert_eq!(shard, i);
        seqs[i] += 1;
        let mut g = stores.results.write_recovered(shard);
        g.append_batch(&clients[i], seqs[i], &[rec(&clients[i])]).unwrap();
        g.wal_next_lsn()
    };
    let submit = |shard: usize, upto| committer.submit(StoreFlavor::Results, shard, upto);

    // Deferred rotation: appending across many 4 KiB segments fsyncs
    // nothing until a pass drains the closed segments.
    let (rotations, fsyncs) = (metrics::counter("server.wal.results.rotations"), results_fsyncs());
    let rotated = rotations.get();
    let mut upto = 0;
    for _ in 0..200 {
        upto = append(0);
    }
    let rotated = rotations.get() - rotated;
    assert!(rotated >= 3, "200 uploads rotated {rotated} segments");
    assert_eq!(results_fsyncs(), fsyncs, "a ticketed rotation synced inline");

    // A pass over one dirty slot: synced on the commit thread, and the
    // deferred closed segments with it.
    let ops = disk_ops();
    committer.wait(submit(0, upto)).unwrap();
    for _ in 0..3 {
        let upto = append(1);
        committer.wait(submit(1, upto)).unwrap();
    }
    assert_eq!(disk_ops(), ops, "a lone slot went to the pool");
    assert!(
        results_fsyncs() >= fsyncs + rotated + 4,
        "the deferred rotation syncs were not drained"
    );

    // A pass over k = 3 dirty slots. The gate holds shard 0's lock, so
    // the pass that takes shard 0 alone is stuck on it; the other three
    // slots are dirtied meanwhile, and the next pass takes all of them.
    let passes = metrics::histogram("server.commit.gather.ns");
    let mut gate = stores.results.write_recovered(0);
    seqs[0] += 1;
    gate.append_batch(&clients[0], seqs[0], &[rec(&clients[0])]).unwrap();
    let taken = passes.count();
    let gated = submit(0, gate.wal_next_lsn());
    let deadline = Instant::now() + Duration::from_secs(10);
    while passes.count() == taken {
        assert!(Instant::now() < deadline, "the commit thread never took the gated slot");
        std::thread::sleep(Duration::from_micros(100));
    }
    // `append` takes each shard's own lock; shard 0's is not among them.
    let mut append = |i: usize| {
        seqs[i] += 1;
        let mut g = stores.results.write_recovered(i);
        g.append_batch(&clients[i], seqs[i], &[rec(&clients[i])]).unwrap();
        submit(i, g.wal_next_lsn())
    };
    let tickets: Vec<CommitTicket> = (1..SHARDS).map(&mut append).collect();
    let ops = disk_ops();
    drop(gate);
    committer.wait(gated).unwrap();
    for t in tickets {
        committer.wait(t).unwrap();
    }
    assert_eq!(disk_ops() - ops, (SHARDS - 1) as u64, "k = 3 slots, k pool fsyncs");

    committer.stop();
    handle.join().unwrap();
}
