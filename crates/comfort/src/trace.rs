//! Run traces: the per-second load measurements the UUCS client stores
//! with every run (§2.3: "CPU, memory and Disk load measurements for
//! entire duration of the testcase").
//!
//! [`execute_run_traced`] is [`crate::run::execute_run`] at full
//! fidelity plus a one-sample-per-second time series of commanded
//! contention, achieved utilization, memory residency, disk business,
//! faults, and foreground latency — enough to redraw Figure 4 with
//! *measured* curves next to the commanded ones.

use crate::run::RunSetup;
use std::fmt::Write as _;
use uucs_exercisers::playback::spawn_exercisers;
use uucs_protocol::{MonitorSummary, RunRecord};
use uucs_sim::{mean_latency_us, secs, Machine, SimTime, SEC};
use uucs_testcase::Resource;
use uucs_workloads::OsBackground;

/// One second of monitoring data.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Seconds into the testcase.
    pub t_secs: f64,
    /// Commanded contention per exercised resource at this instant.
    pub commanded: Vec<(Resource, f64)>,
    /// CPU utilization over the second.
    pub cpu_util: f64,
    /// Resident memory fraction at the sample instant.
    pub mem_fraction: f64,
    /// Disk busy fraction over the second.
    pub disk_busy: f64,
    /// Page faults during the second.
    pub faults: u64,
    /// Mean foreground latency over the second (µs), if any events
    /// completed.
    pub fg_latency_us: Option<f64>,
}

/// The full time series of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// One sample per second, in order.
    pub samples: Vec<TraceSample>,
}

impl RunTrace {
    /// Serializes the trace as CSV (long form, one row per second).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "t_secs,cmd_cpu,cmd_memory,cmd_disk,cpu_util,mem_fraction,disk_busy,faults,fg_latency_us\n",
        );
        for s in &self.samples {
            let cmd = |r: Resource| {
                s.commanded
                    .iter()
                    .find(|(res, _)| *res == r)
                    .map(|(_, v)| format!("{v:.4}"))
                    .unwrap_or_default()
            };
            writeln!(
                out,
                "{:.1},{},{},{},{:.4},{:.4},{:.4},{},{}",
                s.t_secs,
                cmd(Resource::Cpu),
                cmd(Resource::Memory),
                cmd(Resource::Disk),
                s.cpu_util,
                s.mem_fraction,
                s.disk_busy,
                s.faults,
                s.fg_latency_us
                    .map(|l| format!("{l:.0}"))
                    .unwrap_or_default()
            )
            .unwrap();
        }
        out
    }

    /// A Figure 4-style ASCII chart of one series: commanded level for
    /// `resource` (`*`) against achieved CPU utilization (`#`), per
    /// second, scaled to the chart height.
    pub fn render_ascii(&self, resource: Resource, height: usize) -> String {
        if self.samples.is_empty() {
            return "(empty trace)\n".to_string();
        }
        let width = self.samples.len();
        let max_cmd = self
            .samples
            .iter()
            .flat_map(|s| s.commanded.iter().filter(|(r, _)| *r == resource))
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut grid = vec![vec![b' '; width]; height];
        for (col, s) in self.samples.iter().enumerate() {
            let cmd = s
                .commanded
                .iter()
                .find(|(r, _)| *r == resource)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            let cmd_row = (((1.0 - cmd / max_cmd) * (height - 1) as f64).round() as usize)
                .min(height - 1);
            let util_row = (((1.0 - s.cpu_util.min(1.0)) * (height - 1) as f64).round() as usize)
                .min(height - 1);
            grid[util_row][col] = b'#';
            grid[cmd_row][col] = if cmd_row == util_row { b'@' } else { b'*' };
        }
        let mut out = format!(
            "commanded {resource} (*, scale 0..{max_cmd:.1}) vs achieved CPU utilization (#, scale 0..1); @ = both\n"
        );
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out
    }
}

/// Executes a run at full fidelity, returning the record *and* the
/// per-second monitoring trace.
pub fn execute_run_traced(setup: &RunSetup<'_>) -> (RunRecord, RunTrace) {
    // Decide exactly as `execute_run` would (same RNG stream).
    let base = crate::run::execute_run(&RunSetup {
        fidelity: crate::run::Fidelity::Fast,
        ..setup.clone()
    });
    let offset = base.offset_secs;

    const WARMUP: SimTime = 20 * SEC;
    let mut m = Machine::study_machine(setup.seed);
    m.spawn("os", Box::new(OsBackground::new()));
    let fg = m.spawn(setup.task.name(), setup.task.model());
    m.run_until(WARMUP);

    let start = m.now();
    let set = spawn_exercisers(&mut m, setup.testcase);
    let end = start + secs(offset);
    let mut trace = RunTrace::default();
    let mut prev_cpu = m.metrics().cpu_busy_us;
    let mut prev_disk = m.disk_stats().busy_us;
    let mut prev_faults = m.mem_stats().faults;
    let mut prev_lat_idx = m.thread_stats(fg).latencies.len();
    let mut peak_mem = m.mem_resident();
    let class = setup.task.latency_class();

    let mut t = start;
    while t < end {
        t = (t + SEC).min(end);
        m.run_until(t);
        peak_mem = peak_mem.max(m.mem_resident());
        let t_off = (t - start) as f64 / SEC as f64;
        let commanded: Vec<(Resource, f64)> = setup
            .testcase
            .functions
            .iter()
            .map(|f| (f.resource, setup.testcase.contention_at(f.resource, t_off)))
            .collect();
        let lat_all = &m.thread_stats(fg).latencies;
        let fg_latency_us =
            mean_latency_us(lat_all.iter_from(prev_lat_idx).filter(|s| s.class == class));
        prev_lat_idx = lat_all.len();
        trace.samples.push(TraceSample {
            t_secs: t_off,
            commanded,
            cpu_util: (m.metrics().cpu_busy_us - prev_cpu) as f64 / SEC as f64,
            mem_fraction: m.mem_resident() as f64 / m.config().mem_pages as f64,
            disk_busy: (m.disk_stats().busy_us - prev_disk) as f64 / SEC as f64,
            faults: m.mem_stats().faults - prev_faults,
            fg_latency_us,
        });
        prev_cpu = m.metrics().cpu_busy_us;
        prev_disk = m.disk_stats().busy_us;
        prev_faults = m.mem_stats().faults;
    }
    set.stop(&mut m);

    // Aggregate the trace into the stored monitor summary so record and
    // trace agree by construction.
    let n = trace.samples.len().max(1) as f64;
    let lat: Vec<f64> = trace
        .samples
        .iter()
        .filter_map(|s| s.fg_latency_us)
        .collect();
    let monitor = MonitorSummary {
        cpu_util: trace.samples.iter().map(|s| s.cpu_util).sum::<f64>() / n,
        peak_mem_fraction: peak_mem as f64 / m.config().mem_pages as f64,
        disk_busy: trace.samples.iter().map(|s| s.disk_busy).sum::<f64>() / n,
        faults: trace.samples.iter().map(|s| s.faults).sum(),
        mean_latency_us: if lat.is_empty() {
            None
        } else {
            Some(lat.iter().sum::<f64>() / lat.len() as f64)
        },
    };
    (RunRecord { monitor, ..base }, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::UserPopulation;
    use crate::run::{Fidelity, RunStyle};
    use uucs_testcase::{ExerciseSpec, Testcase};
    use uucs_workloads::Task;

    fn traced(level: f64, thr_user_seed: u64) -> (RunRecord, RunTrace) {
        let pop = UserPopulation::generate(1, thr_user_seed);
        let tc = Testcase::single(
            "trace-cpu-ramp",
            1.0,
            Resource::Cpu,
            ExerciseSpec::Ramp {
                level,
                duration: 60.0,
            },
        );
        execute_run_traced(&RunSetup {
            user: &pop.users()[0],
            task: Task::Powerpoint,
            testcase: &tc,
            style: RunStyle::Ramp,
            seed: 77,
            fidelity: Fidelity::Full,
            client_id: "trace".into(),
        })
    }

    #[test]
    fn trace_covers_the_run_second_by_second() {
        let (record, trace) = traced(2.0, 80);
        assert_eq!(trace.samples.len(), record.offset_secs.ceil() as usize);
        // Time is strictly increasing and ends at the offset.
        for w in trace.samples.windows(2) {
            assert!(w[1].t_secs > w[0].t_secs);
        }
        assert!((trace.samples.last().unwrap().t_secs - record.offset_secs).abs() < 1.0);
    }

    #[test]
    fn commanded_series_follows_the_ramp() {
        let (_, trace) = traced(2.0, 81);
        let cmd_at = |i: usize| {
            trace.samples[i]
                .commanded
                .iter()
                .find(|(r, _)| *r == Resource::Cpu)
                .unwrap()
                .1
        };
        // The ramp rises monotonically.
        let early = cmd_at(3);
        let later = cmd_at(trace.samples.len() - 2);
        assert!(later > early, "{early} -> {later}");
    }

    #[test]
    fn achieved_utilization_tracks_commanded_cpu() {
        let (_, trace) = traced(2.0, 82);
        // Late in the ramp (contention > 1) the machine is saturated.
        let late = &trace.samples[trace.samples.len() - 3];
        assert!(late.cpu_util > 0.9, "util {}", late.cpu_util);
    }

    #[test]
    fn summary_agrees_with_trace() {
        let (record, trace) = traced(1.5, 83);
        let mean_util =
            trace.samples.iter().map(|s| s.cpu_util).sum::<f64>() / trace.samples.len() as f64;
        assert!((record.monitor.cpu_util - mean_util).abs() < 1e-9);
        let total_faults: u64 = trace.samples.iter().map(|s| s.faults).sum();
        assert_eq!(record.monitor.faults, total_faults);
    }

    #[test]
    fn csv_is_rectangular() {
        let (_, trace) = traced(1.0, 84);
        let csv = trace.to_csv();
        let mut lines = csv.lines();
        let cols = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols);
        }
    }

    #[test]
    fn ascii_render_shows_both_series() {
        let (_, trace) = traced(2.0, 85);
        let s = trace.render_ascii(Resource::Cpu, 10);
        assert!(s.contains('*'));
        assert!(s.contains('#'));
        assert!(s.lines().count() >= 12);
        // Empty trace is handled.
        assert_eq!(RunTrace::default().render_ascii(Resource::Cpu, 5), "(empty trace)\n");
    }
}
