//! Micro-benchmarks of the substrates: the machine simulator's scheduler
//! and memory manager, the statistics kernels, and the wire protocol.

use uucs_harness::{bench_group, bench_main, Criterion, Throughput};
use std::hint::black_box;
use uucs_sim::workload::FnWorkload;
use uucs_sim::{Action, Machine, TouchPattern, SEC};
use uucs_stats::{Ecdf, Pcg64};

/// Scheduler throughput: simulated seconds per wall second with 8
/// competing busy threads.
fn scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/scheduler");
    group.throughput(Throughput::Elements(10));
    group.bench_function("10_simsec_8_busy_threads", |b| {
        b.iter(|| {
            let mut m = Machine::study_machine(1);
            for i in 0..8 {
                m.spawn(
                    format!("busy{i}"),
                    Box::new(FnWorkload::new("busy", |_| Action::Compute { us: 1000 })),
                );
            }
            m.run_until(10 * SEC);
            black_box(m.metrics().context_switches)
        })
    });
    group.finish();
}

/// Memory-manager throughput: the exerciser's hot path (full-pool prefix
/// touches).
fn memory_touch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/memory");
    group.throughput(Throughput::Elements(131_072));
    group.bench_function("prefix_touch_131072_pages_hit", |b| {
        let mut mm = uucs_sim::mem::MemoryManager::new(131_072);
        let r = mm.alloc(0, 131_072, false);
        let mut rng = Pcg64::new(2);
        mm.touch(r, 131_072, TouchPattern::Prefix, 0, &mut rng);
        let mut t = 1;
        b.iter(|| {
            t += 1;
            black_box(mm.touch(r, 131_072, TouchPattern::Prefix, t, &mut rng).hits)
        })
    });
    group.bench_function("eviction_churn", |b| {
        b.iter(|| {
            let mut mm = uucs_sim::mem::MemoryManager::new(10_000);
            let mut rng = Pcg64::new(3);
            let a = mm.alloc(0, 8_000, false);
            let bb = mm.alloc(1, 8_000, false);
            mm.touch(a, 8_000, TouchPattern::Prefix, 0, &mut rng);
            mm.touch(bb, 8_000, TouchPattern::Prefix, 1, &mut rng);
            black_box(mm.stats().evictions)
        })
    });
    // Quake's per-frame touch: 24 samples of a fully resident 38 000-page
    // region — 24 draws from the thread's generator and no bit tested.
    group.throughput(Throughput::Elements(24));
    group.bench_function("random_sample_24_of_38000_resident", |b| {
        let mut mm = uucs_sim::mem::MemoryManager::new(131_072);
        let r = mm.alloc(0, 38_000, false);
        let mut rng = Pcg64::new(5);
        mm.touch(r, 38_000, TouchPattern::Prefix, 0, &mut rng);
        let mut t = 1;
        b.iter(|| {
            t += 1;
            let outcome = mm.touch(r, 24, TouchPattern::RandomSample, t, &mut rng);
            black_box(outcome.hits)
        })
    });
    // The memory exerciser's ramp: a 131 072-page pool grows into a full
    // memory that holds two older regions, so every claim past the free
    // frames is paid by an eviction from the colder, then the other.
    group.throughput(Throughput::Elements(131_072));
    group.bench_function("prefix_claim_128k_under_pressure", |b| {
        let mut rng = Pcg64::new(6);
        b.iter(|| {
            let mut mm = uucs_sim::mem::MemoryManager::new(131_072);
            let os = mm.alloc(0, 25_000, false);
            let fg = mm.alloc(1, 61_000, false);
            let pool = mm.alloc(2, 131_072, false);
            mm.touch(os, 25_000, TouchPattern::Prefix, 0, &mut rng);
            mm.touch(fg, 61_000, TouchPattern::Prefix, 1, &mut rng);
            for (step, pages) in (16_384..=131_072).step_by(16_384).enumerate() {
                mm.touch(pool, pages, TouchPattern::Prefix, 2 + step as u64, &mut rng);
            }
            black_box(mm.stats().evictions)
        })
    });
    group.finish();
    // The miss path: a fresh exerciser pool's first prefix touch counts
    // and claims every page (the allocation-heavy case before PR 15).
    c.bench_function("sim/mem/touch_prefix_128k_pages", |b| {
        let mut rng = Pcg64::new(4);
        b.iter(|| {
            let mut mm = uucs_sim::mem::MemoryManager::new(131_072);
            let r = mm.alloc(0, 131_072, false);
            let outcome = mm.touch(r, 131_072, TouchPattern::Prefix, 0, &mut rng);
            black_box(outcome.zero_fills)
        })
    });
}

/// Disk queue behavior under contention.
fn disk_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/disk");
    group.sample_size(20);
    group.bench_function("4_io_threads_30_simsec", |b| {
        b.iter(|| {
            let mut m = Machine::study_machine(4);
            for i in 0..4 {
                m.spawn(
                    format!("io{i}"),
                    Box::new(FnWorkload::new("io", |_| Action::DiskIo {
                        ops: 1,
                        bytes_per_op: 65_536,
                    })),
                );
            }
            m.run_until(30 * SEC);
            black_box(m.disk_stats().ops)
        })
    });
    group.finish();
}

/// A full-fidelity single run (machine + task model + exercisers).
fn full_fidelity_run(c: &mut Criterion) {
    use uucs_comfort::{execute_run, Fidelity, RunSetup, RunStyle, UserPopulation};
    use uucs_testcase::{ExerciseSpec, Resource, Testcase};
    let pop = UserPopulation::generate(1, 5);
    let tc = Testcase::single(
        "bench-cpu-ramp",
        1.0,
        Resource::Cpu,
        ExerciseSpec::Ramp {
            level: 2.0,
            duration: 120.0,
        },
    );
    let mut group = c.benchmark_group("run_engine");
    group.sample_size(10);
    group.bench_function("full_fidelity_ppt_cpu_ramp", |b| {
        b.iter(|| {
            let rec = execute_run(&RunSetup {
                user: &pop.users()[0],
                task: uucs_workloads::Task::Powerpoint,
                testcase: &tc,
                style: RunStyle::Ramp,
                seed: 6,
                fidelity: Fidelity::Full,
                client_id: "bench".into(),
            });
            black_box(rec.monitor.cpu_util)
        })
    });
    group.bench_function("fast_fidelity_ppt_cpu_ramp", |b| {
        b.iter(|| {
            let rec = execute_run(&RunSetup {
                user: &pop.users()[0],
                task: uucs_workloads::Task::Powerpoint,
                testcase: &tc,
                style: RunStyle::Ramp,
                seed: 6,
                fidelity: Fidelity::Fast,
                client_id: "bench".into(),
            });
            black_box(rec.offset_secs)
        })
    });
    group.finish();
}

/// Statistics kernels.
fn stats_kernels(c: &mut Criterion) {
    let mut rng = Pcg64::new(7);
    let sample: Vec<f64> = (0..10_000).map(|_| rng.lognormal(0.3, 0.8)).collect();
    let mut group = c.benchmark_group("stats");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("ecdf_build_10k", |b| {
        b.iter(|| black_box(Ecdf::new(sample.clone(), 100).total()))
    });
    group.bench_function("pcg64_10k_draws", |b| {
        let mut r = Pcg64::new(8);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc ^= r.next_u64();
            }
            black_box(acc)
        })
    });
    let a: Vec<f64> = (0..200).map(|_| rng.normal(0.0, 1.0)).collect();
    let bb: Vec<f64> = (0..200).map(|_| rng.normal(0.2, 1.1)).collect();
    group.bench_function("welch_t_test_200v200", |b| {
        b.iter(|| black_box(uucs_stats::welch_t_test(&a, &bb).unwrap().p))
    });
    group.finish();
}

/// Wire-protocol encode/decode throughput.
fn protocol(c: &mut Criterion) {
    use uucs_protocol::{MonitorSummary, RunOutcome, RunRecord};
    let records: Vec<RunRecord> = (0..100)
        .map(|i| RunRecord {
            client: "client-0001".into(),
            user: format!("u{i:02}"),
            testcase: "quake-cpu-ramp".into(),
            task: "Quake".into(),
            skill: "Power".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 63.0 + i as f64,
            last_levels: vec![(uucs_testcase::Resource::Cpu, vec![0.6, 0.62, 0.64, 0.66, 0.68])],
            monitor: MonitorSummary {
                cpu_util: 0.95,
                peak_mem_fraction: 0.7,
                disk_busy: 0.1,
                faults: 12,
                mean_latency_us: Some(22_222.0),
            },
        })
        .collect();
    let mut group = c.benchmark_group("protocol");
    group.throughput(Throughput::Elements(100));
    group.bench_function("emit_100_records", |b| {
        b.iter(|| black_box(RunRecord::emit_many(&records).len()))
    });
    let text = RunRecord::emit_many(&records);
    group.bench_function("parse_100_records", |b| {
        b.iter(|| black_box(RunRecord::parse_many(&text).unwrap().len()))
    });
    group.finish();
}

bench_group!(
    benches,
    scheduler,
    memory_touch,
    disk_queue,
    full_fidelity_run,
    stats_kernels,
    protocol
);
bench_main!(benches);
