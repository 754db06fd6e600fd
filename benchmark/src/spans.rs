//! Spans recorded by the traced run: one per layer boundary, kept in
//! memory and written out as JSONL when the run ends.
//!
//! All spans are recorded from the benchmark's own code, around the
//! calls into each crate's public functions; nothing inside the crates
//! is instrumented.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one upload share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage`, e.g. `server.handle_upload`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (upload or session) index the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (a later span's
    /// `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent` and records it.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, request);
        out
    }

    /// Opens a span whose children are recorded before it closes;
    /// finish it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (a second load thread's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        // Both clocks are monotonic; re-base the other's onto ours.
        let skew = other.base.duration_since(self.base).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s.start_ns += skew;
            s.end_ns += skew;
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted
/// twice, and a child's part outside the parent does not count).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of a waterfall: a stage, how often it ran, and the median of
/// its duration and of its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under that name.
    pub count: usize,
    /// Median duration, µs.
    pub p50_us: f64,
    /// Median self time, µs.
    pub self_p50_us: f64,
}

/// Groups spans by name, in first-seen order, with median duration and
/// median self time.
pub fn waterfall(spans: &[Span]) -> Vec<Stage> {
    let selfs = self_times_ns(spans);
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let entry = by_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (Vec::new(), Vec::new())
        });
        entry.0.push(s.duration_ns() as f64 / 1e3);
        entry.1.push(self_ns as f64 / 1e3);
    }
    order
        .into_iter()
        .map(|name| {
            let (durs, selfs) = &by_name[name];
            Stage {
                name,
                count: durs.len(),
                p50_us: stats::median(durs),
                self_p50_us: stats::median(selfs),
            }
        })
        .collect()
}

/// Median duration of the spans called `name`, µs (0 when none).
pub fn stage_p50_us(stages: &[Stage], name: &str) -> f64 {
    stages
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.p50_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50).
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span("a.inner", 15, 25, Some(1)),
            // A child that sticks out of the parent counts only inside.
            span("c", 90, 130, Some(0)),
            // Unrelated root.
            span("other", 200, 260, None),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 40);
        assert_eq!(selfs[5], 60);
    }

    #[test]
    fn waterfall_reports_medians_in_first_seen_order() {
        let spans = vec![
            span("round_trip", 0, 3000, None),
            span("encode", 0, 1000, Some(0)),
            span("round_trip", 5000, 10_000, None),
            span("encode", 5000, 7000, Some(2)),
        ];
        let stages = waterfall(&spans);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "round_trip");
        assert_eq!(stages[0].count, 2);
        assert_eq!(stages[0].p50_us, 4.0);
        assert_eq!(stages[0].self_p50_us, 2.5);
        assert_eq!(stage_p50_us(&stages, "encode"), 1.5);
        assert_eq!(stage_p50_us(&stages, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let mut t = Tracer::new();
        let root = t.open("session", None, 7);
        t.time("upload", Some(root), 7, || std::hint::black_box(1 + 1));
        t.close(root);
        let mut other = Tracer::new();
        let r2 = other.open("session", None, 8);
        other.time("upload", Some(r2), 8, || ());
        other.close(r2);
        t.absorb(other);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[2].start_ns >= spans[0].start_ns, "re-based clock");
    }
}
