//! Property-based tests over the core data structures and invariants.

use uucs_harness::prelude::*;
use uucs::stats::{Ecdf, Pcg64};
use uucs::testcase::{format as tcformat, ExerciseFunction, Resource, Testcase};

/// The testcase emitter as it was before `tcformat::emit_into` wrote
/// values straight into its output: one `String` per value, a
/// `Vec<String>` per line and a join. Kept as the reference the
/// allocation-free emitter must match byte for byte, because those
/// bytes are journals, checkpoints and `SYNC` replies.
fn reference_emit(tc: &Testcase) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "TESTCASE {}", tc.id).unwrap();
    writeln!(out, "RATE {}", fmt_f64(tc.sample_rate_hz)).unwrap();
    for f in &tc.functions {
        writeln!(out, "FUNCTION {} {}", f.resource, f.values.len()).unwrap();
        for chunk in f.values.chunks(8) {
            let line: Vec<String> = chunk.iter().map(|v| fmt_f64(*v)).collect();
            writeln!(out, "{}", line.join(" ")).unwrap();
        }
    }
    writeln!(out, "END").unwrap();
    out
}

fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// `emit`, and `emit_many` over all of them, against the reference.
fn assert_emits_like_the_reference(tcs: &[Testcase], what: &str) {
    for tc in tcs {
        assert_eq!(tcformat::emit(tc), reference_emit(tc), "{what}: {}", tc.id);
    }
    let all: String = tcs.iter().map(reference_emit).collect();
    assert_eq!(tcformat::emit_many(tcs), all, "{what}");
}

/// The Internet study's library and the controlled study's, byte for
/// byte as the reference emitter writes them.
#[test]
fn emitted_libraries_match_the_reference_emitter() {
    let sweep = uucs::testcase::generate::Library::internet_sweep(42);
    assert_emits_like_the_reference(sweep.testcases(), "internet_sweep(42)");
    for task in uucs::workloads::Task::ALL {
        let controlled = uucs::comfort::calibration::controlled_testcases(task);
        assert_emits_like_the_reference(&controlled, task.name());
    }
}

/// Strategy: a valid contention value vector for a resource.
fn values_for(resource: Resource) -> impl Strategy<Value = Vec<f64>> {
    let max = resource.max_contention();
    prop::collection::vec(0.0..max, 1..200)
}

proptest! {
    /// The text format round-trips any testcase exactly.
    #[test]
    fn testcase_format_roundtrip(
        cpu in values_for(Resource::Cpu),
        mem in values_for(Resource::Memory),
        disk in values_for(Resource::Disk),
        rate in 1u32..10,
    ) {
        let rate = rate as f64;
        let tc = Testcase::new(
            "prop-tc",
            rate,
            vec![
                ExerciseFunction::from_values(Resource::Cpu, rate, cpu),
                ExerciseFunction::from_values(Resource::Memory, rate, mem),
                ExerciseFunction::from_values(Resource::Disk, rate, disk),
            ],
        );
        let parsed = tcformat::parse(&tcformat::emit(&tc)).unwrap();
        prop_assert_eq!(parsed, tc);
    }

    /// The allocation-free emitter writes what the reference does, for
    /// any finite values (subnormal, huge and negative ones included,
    /// clamped to the resource's range as a testcase holds them) at any
    /// quarter-hertz rate.
    #[test]
    fn emit_matches_the_reference_emitter(
        cpu in values_for(Resource::Cpu),
        bits in prop::collection::vec(any::<u64>(), 0..40),
        rate in 1u32..40,
    ) {
        let rate = rate as f64 / 4.0;
        let raw: Vec<f64> = bits.into_iter().map(f64::from_bits).filter(|v| v.is_finite()).collect();
        let tc = Testcase::new(
            "prop-tc",
            rate,
            vec![
                ExerciseFunction::from_values(Resource::Cpu, rate, cpu),
                ExerciseFunction::from_values(Resource::Disk, rate, raw),
            ],
        );
        prop_assert_eq!(tcformat::emit(&tc), reference_emit(&tc));
    }

    /// ECDF invariants: eval is monotone, bounded by f_d, and quantile
    /// inverts eval.
    #[test]
    fn ecdf_invariants(
        mut observed in prop::collection::vec(0.0f64..10.0, 0..100),
        censored in 0usize..100,
        probe in prop::collection::vec(0.0f64..12.0, 1..20),
    ) {
        prop_assume!(!observed.is_empty() || censored > 0);
        observed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let e = Ecdf::new(observed.clone(), censored);
        let f_d = e.f_d().unwrap();
        let mut sorted = probe.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &sorted {
            let y = e.eval(x);
            prop_assert!(y >= prev - 1e-12);
            prop_assert!(y <= f_d + 1e-12);
            prev = y;
        }
        // quantile(p) is the smallest observed level with eval >= p.
        for &p in &[0.05, 0.25, 0.5, 0.9] {
            if let Some(q) = e.quantile(p) {
                prop_assert!(e.eval(q) >= p - 1e-12);
                // Strictly below q, the CDF is under p.
                prop_assert!(e.eval(q - 1e-9) < p + 1e-12);
            }
        }
    }

    /// The exercise-function contract: value_at agrees with the vector,
    /// and last_values_at never exceeds its window.
    #[test]
    fn exercise_function_indexing(
        values in prop::collection::vec(0.0f64..5.0, 1..100),
        rate in 1u32..5,
        t in 0.0f64..150.0,
        k in 1usize..8,
    ) {
        let rate = rate as f64;
        let f = ExerciseFunction::from_values(Resource::Disk, rate, values.clone());
        match f.value_at(t) {
            Some(v) => {
                let idx = (t * rate).floor() as usize;
                prop_assert!(idx < values.len());
                prop_assert_eq!(v, values[idx].min(Resource::Disk.max_contention()));
            }
            None => prop_assert!(t >= f.duration() || t < 0.0),
        }
        let tail = f.last_values_at(t, k);
        prop_assert!(tail.len() <= k);
        if t >= 0.0 {
            prop_assert!(!tail.is_empty());
        }
    }

    /// Run-engine invariants: offsets within [0, duration], discomfort
    /// implies the recorded level reached the effective threshold
    /// envelope, exhausted implies offset == duration.
    #[test]
    fn run_engine_invariants(thr in 0.05f64..3.0, seed in 0u64..500) {
        use uucs::comfort::{execute_run, Fidelity, RunSetup, RunStyle};
        use uucs::comfort::{SelfRatings, SkillLevel, UserProfile};
        use uucs::protocol::RunOutcome;
        use uucs::testcase::ExerciseSpec;
        let mut thresholds = std::collections::HashMap::new();
        for c in &uucs::comfort::calibration::CELLS {
            thresholds.insert((c.task, c.resource), thr);
        }
        let user = UserProfile {
            id: "prop".into(),
            ratings: SelfRatings::uniform(SkillLevel::Typical),
            thresholds,
            noise_propensity: 1.0,
            ramp_bonus_frac: 0.1,
            reaction_secs: 1.0,
        };
        let tc = Testcase::single(
            "prop-cpu-ramp",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp { level: 2.0, duration: 120.0 },
        );
        let rec = execute_run(&RunSetup {
            user: &user,
            task: uucs::workloads::Task::Powerpoint,
            testcase: &tc,
            style: RunStyle::Ramp,
            seed,
            fidelity: Fidelity::Fast,
            client_id: "prop".into(),
        });
        prop_assert!(rec.offset_secs >= 0.0);
        prop_assert!(rec.offset_secs <= 120.0);
        match rec.outcome {
            RunOutcome::Exhausted => prop_assert_eq!(rec.offset_secs, 120.0),
            RunOutcome::Discomfort => {
                // The ramp crossed the threshold before feedback.
                let level = rec.level_at_feedback(Resource::Cpu).unwrap();
                prop_assert!(level >= thr - 1e-9,
                    "level {} below threshold {}", level, thr);
            }
        }
    }

    /// No parser in the system panics on arbitrary input — malformed
    /// files and wire garbage produce errors, not crashes.
    #[test]
    fn parsers_never_panic(input in "\\PC*") {
        let _ = uucs::testcase::format::parse_many(&input);
        let _ = uucs::protocol::RunRecord::parse_many(&input);
        let _ = uucs::protocol::MachineSnapshot::parse(&input);
        let _ = uucs::client::Script::parse(&input);
        let _ = uucs::testcase::HostLoadTrace::parse(&input);
    }

    /// Structured-looking but corrupted testcase bodies also never panic.
    #[test]
    fn structured_garbage_never_panics(
        id in "[a-z]{1,8}",
        n in 0usize..10,
        body in "[0-9a-z. \n]{0,100}",
    ) {
        let text = format!("TESTCASE {id}\nRATE 1\nFUNCTION cpu {n}\n{body}\nEND\n");
        let _ = uucs::testcase::format::parse_many(&text);
        let text2 = format!("RESULT\nCLIENT {id}\nOUTCOME discomfort\nOFFSET {n}\nLEVELS cpu {body}\nEND\n");
        let _ = uucs::protocol::RunRecord::parse_many(&text2);
    }

    /// Pcg64 splitting: children are pure functions of (seed, label) and
    /// never alias their parent stream.
    #[test]
    fn rng_split_purity(seed in any::<u64>(), label in any::<u64>()) {
        let root = Pcg64::new(seed);
        let mut a = root.split(label);
        let mut b = root.split(label);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut parent = root.clone();
        let mut child = root.split(label);
        let parent_seq: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let child_seq: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        prop_assert_ne!(parent_seq, child_seq);
    }

    /// Scheduler share conservation: with k pure-CPU threads, total CPU
    /// time equals elapsed time and splits evenly.
    #[test]
    fn scheduler_share_conservation(k in 1usize..6, seed in 0u64..100) {
        use uucs::sim::workload::FnWorkload;
        use uucs::sim::{Action, Machine, SEC};
        let mut m = Machine::study_machine(seed);
        let tids: Vec<_> = (0..k)
            .map(|i| {
                m.spawn(
                    format!("busy{i}"),
                    Box::new(FnWorkload::new("busy", |_| Action::Compute { us: 1000 })),
                )
            })
            .collect();
        m.run_until(5 * SEC);
        let total: u64 = tids.iter().map(|&t| m.thread_stats(t).cpu_us).sum();
        prop_assert_eq!(total, 5 * SEC);
        for &t in &tids {
            let share = m.thread_stats(t).cpu_us as f64 / (5 * SEC) as f64;
            prop_assert!((share - 1.0 / k as f64).abs() < 0.05,
                "share {} for k {}", share, k);
        }
    }

    /// Run-record text format round-trips arbitrary records.
    #[test]
    fn run_record_roundtrip(
        offset in 0.0f64..120.0,
        discomfort in any::<bool>(),
        levels in prop::collection::vec(0.0f64..10.0, 0..5),
        faults in 0u64..100_000,
    ) {
        use uucs::protocol::{MonitorSummary, RunOutcome, RunRecord};
        let rec = RunRecord {
            client: "c-1".into(),
            user: "u-1".into(),
            testcase: "tc-1".into(),
            task: "IE".into(),
            skill: "Typical".into(),
            outcome: if discomfort { RunOutcome::Discomfort } else { RunOutcome::Exhausted },
            offset_secs: offset,
            last_levels: vec![(Resource::Cpu, levels)],
            monitor: MonitorSummary {
                cpu_util: 0.5,
                peak_mem_fraction: 0.25,
                disk_busy: 0.125,
                faults,
                mean_latency_us: if discomfort { Some(12345.0) } else { None },
            },
        };
        let parsed = RunRecord::parse_many(&rec.emit()).unwrap();
        prop_assert_eq!(parsed, vec![rec]);
    }
}
