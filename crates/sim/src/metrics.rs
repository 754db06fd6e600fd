//! Measurement probes — the data the UUCS client's monitors record during
//! a testcase run (§2.3: "CPU, memory and Disk load measurements for the
//! entire duration of the testcase").

use crate::SimTime;

/// One interactive latency observation recorded by a workload (keystroke
/// echo, page load, frame time, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// When the sample completed (µs).
    pub at: SimTime,
    /// Workload-defined class, e.g. `"keystroke"` or `"frame"`.
    pub class: &'static str,
    /// Observed latency, µs.
    pub latency_us: SimTime,
}

/// Samples per [`LatencyLog`] segment (4 KiB of packed samples): small
/// enough that a task with a few hundred keystrokes per run holds no
/// more than it uses.
const SEGMENT_SAMPLES: usize = 256;

/// Bits of a packed word holding the latency; the class index sits above.
const LATENCY_BITS: u32 = 56;

/// A [`LatencySample`] in 16 bytes: `at`, then the latency in the low
/// [`LATENCY_BITS`] bits of a word with the class index in the high byte.
#[derive(Debug, Clone, Copy)]
struct PackedSample {
    at: SimTime,
    class_and_latency: u64,
}

/// An append-only log of [`LatencySample`]s.
///
/// A frame loop records ~10^4 samples per run, so the log is the largest
/// allocation a full-fidelity run makes. Samples are packed to half the
/// size of a [`LatencySample`] (classes interned into a per-log table)
/// and kept in fixed-size segments that are never reallocated: the heap
/// high-water mark of a run is the log's final size, not the old-plus-new
/// copy of a doubling `Vec`.
#[derive(Debug, Clone, Default)]
pub struct LatencyLog {
    classes: Vec<&'static str>,
    /// Every segment but the last is full.
    segments: Vec<Vec<PackedSample>>,
}

impl LatencyLog {
    /// Appends a sample.
    ///
    /// # Panics
    /// If the latency needs more than 56 bits (over two thousand
    /// simulated years) or the log has seen more than 256 classes.
    pub fn push(&mut self, sample: LatencySample) {
        assert!(
            sample.latency_us >> LATENCY_BITS == 0,
            "latency {} us does not fit the log",
            sample.latency_us
        );
        let class = match self.classes.iter().position(|&c| c == sample.class) {
            Some(i) => i,
            None => {
                assert!(self.classes.len() < 256, "more than 256 latency classes");
                self.classes.push(sample.class);
                self.classes.len() - 1
            }
        };
        let full = |segment: &Vec<PackedSample>| segment.len() == SEGMENT_SAMPLES;
        if self.segments.last().is_none_or(full) {
            self.segments.push(Vec::with_capacity(SEGMENT_SAMPLES));
        }
        self.segments
            .last_mut()
            .expect("a segment was just ensured")
            .push(PackedSample {
                at: sample.at,
                class_and_latency: (class as u64) << LATENCY_BITS | sample.latency_us,
            });
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.segments.last().map_or(0, |last| {
            (self.segments.len() - 1) * SEGMENT_SAMPLES + last.len()
        })
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The `i`-th sample in recording order.
    pub fn get(&self, i: usize) -> Option<LatencySample> {
        self.segments
            .get(i / SEGMENT_SAMPLES)?
            .get(i % SEGMENT_SAMPLES)
            .map(|p| self.unpack(p))
    }

    /// All samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = LatencySample> + '_ {
        self.iter_from(0)
    }

    /// The samples from index `start` on — what `&log[start..]` is for a
    /// slice: remember [`len`](Self::len) before a phase, read the
    /// phase's samples after it.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = LatencySample> + '_ {
        let first = (start / SEGMENT_SAMPLES).min(self.segments.len());
        self.segments[first..]
            .iter()
            .flatten()
            .skip(start - first * SEGMENT_SAMPLES)
            .map(|p| self.unpack(p))
    }

    fn unpack(&self, p: &PackedSample) -> LatencySample {
        LatencySample {
            at: p.at,
            class: self.classes[(p.class_and_latency >> LATENCY_BITS) as usize],
            latency_us: p.class_and_latency & ((1 << LATENCY_BITS) - 1),
        }
    }
}

/// Per-thread accounting.
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    /// CPU service consumed, µs.
    pub cpu_us: SimTime,
    /// Completed disk operations.
    pub disk_ops: u64,
    /// Bytes moved by this thread's disk requests.
    pub disk_bytes: u64,
    /// Page faults (disk-serviced) triggered by this thread's touches.
    pub faults: u64,
    /// Zero-fill first touches.
    pub zero_fills: u64,
    /// Number of times the thread was dispatched onto the CPU.
    pub dispatches: u64,
    /// Latency samples recorded via [`crate::workload::Ctx::record_latency`].
    pub latencies: LatencyLog,
}

impl ThreadStats {
    /// Mean latency (µs) over samples of a class; `None` if none.
    pub fn mean_latency(&self, class: &str) -> Option<f64> {
        mean_latency_us(self.latencies.iter().filter(|s| s.class == class))
    }

    /// Count of samples of a class.
    pub fn latency_count(&self, class: &str) -> usize {
        self.latencies.iter().filter(|s| s.class == class).count()
    }

    /// Latencies (µs) of a class in chronological order.
    pub fn latencies_of(&self, class: &str) -> Vec<SimTime> {
        self.latencies
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_us)
            .collect()
    }
}

/// Mean latency (µs) of the samples; `None` if there are none. The sum
/// is an exact integer, so the result does not depend on how the samples
/// were buffered.
pub fn mean_latency_us(samples: impl Iterator<Item = LatencySample>) -> Option<f64> {
    let (sum, n) = samples.fold((0 as SimTime, 0usize), |(sum, n), s| {
        (sum + s.latency_us, n + 1)
    });
    (n > 0).then(|| sum as f64 / n as f64)
}

/// Whole-machine accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineMetrics {
    /// Total CPU busy time across all threads, µs.
    pub cpu_busy_us: SimTime,
    /// Number of context switches (dispatches after the first).
    pub context_switches: u64,
    /// Samples of run-queue length taken at each dispatch.
    pub runq_samples: u64,
    /// Sum of run-queue lengths over those samples.
    pub runq_sum: u64,
}

impl MachineMetrics {
    /// CPU utilization over `elapsed` µs of simulated time.
    pub fn cpu_utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.cpu_busy_us as f64 / elapsed as f64
        }
    }

    /// Mean run-queue length observed at dispatch points.
    pub fn mean_runq(&self) -> f64 {
        if self.runq_samples == 0 {
            0.0
        } else {
            self.runq_sum as f64 / self.runq_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_filters_by_class() {
        let mut s = ThreadStats::default();
        s.latencies.push(LatencySample {
            at: 0,
            class: "key",
            latency_us: 100,
        });
        s.latencies.push(LatencySample {
            at: 1,
            class: "key",
            latency_us: 300,
        });
        s.latencies.push(LatencySample {
            at: 2,
            class: "frame",
            latency_us: 999,
        });
        assert_eq!(s.mean_latency("key"), Some(200.0));
        assert_eq!(s.latency_count("frame"), 1);
        assert_eq!(s.mean_latency("missing"), None);
        assert_eq!(s.latencies_of("key"), vec![100, 300]);
    }

    /// The log must read back exactly what a `Vec<LatencySample>` would,
    /// across segment boundaries and from any start index.
    #[test]
    fn latency_log_reads_back_like_a_vec() {
        let n = 2 * SEGMENT_SAMPLES + 17;
        let samples: Vec<LatencySample> = (0..n as u64)
            .map(|i| LatencySample {
                at: 10 * i,
                class: ["key", "frame", "page"][(i % 3) as usize],
                latency_us: i * i,
            })
            .collect();
        let mut log = LatencyLog::default();
        assert!(log.is_empty());
        assert_eq!(log.iter_from(0).count(), 0);
        for &s in &samples {
            log.push(s);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.iter().collect::<Vec<_>>(), samples);
        let seg = SEGMENT_SAMPLES;
        for start in [0, 1, seg - 1, seg, seg + 1, n - 1, n] {
            assert_eq!(
                log.iter_from(start).collect::<Vec<_>>(),
                samples[start..],
                "from {start}"
            );
        }
        assert_eq!(log.get(SEGMENT_SAMPLES), Some(samples[SEGMENT_SAMPLES]));
        assert_eq!(log.get(n), None);
        assert_eq!(
            mean_latency_us(log.iter_from(n - 2)),
            Some((samples[n - 2].latency_us + samples[n - 1].latency_us) as f64 / 2.0)
        );
        assert_eq!(mean_latency_us(log.iter_from(n)), None);
    }

    #[test]
    #[should_panic(expected = "does not fit the log")]
    fn latency_log_rejects_a_latency_it_cannot_hold() {
        LatencyLog::default().push(LatencySample {
            at: 0,
            class: "key",
            latency_us: 1 << LATENCY_BITS,
        });
    }

    #[test]
    fn utilization_bounds() {
        let m = MachineMetrics {
            cpu_busy_us: 500_000,
            ..Default::default()
        };
        assert!((m.cpu_utilization(1_000_000) - 0.5).abs() < 1e-12);
        assert_eq!(m.cpu_utilization(0), 0.0);
    }

    #[test]
    fn mean_runq() {
        let m = MachineMetrics {
            runq_samples: 4,
            runq_sum: 10,
            ..Default::default()
        };
        assert!((m.mean_runq() - 2.5).abs() < 1e-12);
        assert_eq!(MachineMetrics::default().mean_runq(), 0.0);
    }
}
