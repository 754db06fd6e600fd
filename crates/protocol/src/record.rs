//! Run result records (§2.3).
//!
//! "A considerable amount of information is stored as the result of the
//! testcase run", of which the paper's analysis uses: whether the run
//! ended in user feedback or exhaustion, the time offset of the report,
//! and the last five contention values of each exercise function at the
//! feedback point. We store those plus the monitoring summary.

use std::fmt;
use uucs_testcase::format::trim_line;
use uucs_testcase::Resource;

/// How many trailing contention values a client stores per exercise
/// function ("the last five contention values ... at the feedback
/// point"): the capacity a parsed `LEVELS` vector starts with. Longer
/// lines still parse; they just grow.
const LAST_LEVELS: usize = 5;

/// How a testcase run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The user expressed discomfort (clicked the tray icon / hit F11).
    Discomfort,
    /// The exercise functions ran out without feedback.
    Exhausted,
}

impl RunOutcome {
    /// Token used in the text format.
    pub fn token(self) -> &'static str {
        match self {
            RunOutcome::Discomfort => "discomfort",
            RunOutcome::Exhausted => "exhausted",
        }
    }

    /// Parses a token.
    pub fn parse(s: &str) -> Option<RunOutcome> {
        match s {
            "discomfort" => Some(RunOutcome::Discomfort),
            "exhausted" => Some(RunOutcome::Exhausted),
            _ => None,
        }
    }
}

/// Monitoring summary stored with every run ("CPU, memory and Disk load
/// measurements for entire duration of the testcase").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorSummary {
    /// Mean CPU utilization over the run.
    pub cpu_util: f64,
    /// Peak resident-memory fraction over the run.
    pub peak_mem_fraction: f64,
    /// Disk busy fraction over the run.
    pub disk_busy: f64,
    /// Page faults serviced during the run.
    pub faults: u64,
    /// Mean foreground interactive latency, µs (if the task recorded any).
    pub mean_latency_us: Option<f64>,
}

/// The result of one testcase run by one user in one context.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Client GUID (assigned at registration).
    pub client: String,
    /// Study subject identifier (controlled study) or `-` (Internet study,
    /// where the user is the client).
    pub user: String,
    /// Testcase identifier.
    pub testcase: String,
    /// Foreground task name (the user's context), or `-` if unknown.
    pub task: String,
    /// The user's self-rated skill class in the task's rating dimension
    /// (the model-service cohort key), or `-` if unrated. Legacy records
    /// without a `SKILL` line parse as unrated.
    pub skill: String,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Seconds into the testcase at which feedback or exhaustion occurred.
    pub offset_secs: f64,
    /// The last five contention values of each exercise function at the
    /// feedback point.
    pub last_levels: Vec<(Resource, Vec<f64>)>,
    /// Monitoring summary.
    pub monitor: MonitorSummary,
}

impl RunRecord {
    /// The contention level in force at the feedback point for `resource`
    /// (the final entry of its last-levels vector).
    pub fn level_at_feedback(&self, resource: Resource) -> Option<f64> {
        self.last_levels
            .iter()
            .find(|(r, _)| *r == resource)
            .and_then(|(_, v)| v.last().copied())
    }

    /// Serializes the record into the text result format.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    /// Serializes, appending to `out`.
    pub fn emit_into(&self, out: &mut String) {
        use fmt::Write;
        writeln!(out, "RESULT").unwrap();
        writeln!(out, "CLIENT {}", nonempty(&self.client)).unwrap();
        writeln!(out, "USER {}", nonempty(&self.user)).unwrap();
        writeln!(out, "TESTCASE {}", nonempty(&self.testcase)).unwrap();
        writeln!(out, "TASK {}", nonempty(&self.task)).unwrap();
        // Emitted only when rated, so records round-trip byte-identically
        // through stores written before the field existed.
        if !self.skill.is_empty() {
            writeln!(out, "SKILL {}", self.skill).unwrap();
        }
        writeln!(out, "OUTCOME {}", self.outcome.token()).unwrap();
        writeln!(out, "OFFSET {}", self.offset_secs).unwrap();
        for (r, levels) in &self.last_levels {
            write!(out, "LEVELS {r}").unwrap();
            for v in levels {
                write!(out, " {v}").unwrap();
            }
            out.push('\n');
        }
        writeln!(
            out,
            "MONITOR cpu {} mem {} disk {} faults {} latency {}",
            self.monitor.cpu_util,
            self.monitor.peak_mem_fraction,
            self.monitor.disk_busy,
            self.monitor.faults,
            self.monitor
                .mean_latency_us
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".to_string()),
        )
        .unwrap();
        writeln!(out, "END").unwrap();
    }

    /// Parses one record from lines, consuming them. Returns `None` at end
    /// of input (no RESULT header found).
    ///
    /// This is the inner loop of journal replay (one call per recovered
    /// record), so it allocates only what the record keeps: lines are
    /// trimmed and split on bytes when they are plain ASCII, tokens are
    /// consumed as they are found, and a `LEVELS` vector starts at the
    /// size the clients write.
    pub fn parse<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Option<RunRecord>, String> {
        // Find the RESULT header.
        let mut found = false;
        for line in lines.by_ref() {
            let line = trim_line(line);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "RESULT" {
                found = true;
                break;
            }
            return Err(format!("expected RESULT, found {line:?}"));
        }
        if !found {
            return Ok(None);
        }
        let mut rec = RunRecord {
            client: String::new(),
            user: String::new(),
            testcase: String::new(),
            task: String::new(),
            skill: String::new(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 0.0,
            last_levels: Vec::new(),
            monitor: MonitorSummary::default(),
        };
        let mut saw_outcome = false;
        for line in lines.by_ref() {
            let line = trim_line(line);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "END" {
                if !saw_outcome {
                    return Err("record missing OUTCOME".to_string());
                }
                return Ok(Some(rec));
            }
            let (key, rest) = split_key(line);
            match key {
                "CLIENT" => rec.client = de_nonempty(rest),
                "USER" => rec.user = de_nonempty(rest),
                "TESTCASE" => rec.testcase = de_nonempty(rest),
                "TASK" => rec.task = de_nonempty(rest),
                "SKILL" => rec.skill = de_nonempty(rest),
                "OUTCOME" => {
                    rec.outcome = RunOutcome::parse(rest)
                        .ok_or_else(|| format!("bad outcome {rest:?}"))?;
                    saw_outcome = true;
                }
                "OFFSET" => {
                    rec.offset_secs = rest
                        .parse()
                        .map_err(|_| format!("bad offset {rest:?}"))?;
                }
                "LEVELS" => {
                    let mut toks = rest.split_whitespace();
                    let rname = toks.next().ok_or("LEVELS missing resource")?;
                    let resource: Resource = rname
                        .parse()
                        .map_err(|_| format!("bad resource {rname:?}"))?;
                    let mut vals = Vec::with_capacity(LAST_LEVELS);
                    for t in toks {
                        vals.push(t.parse().map_err(|_| format!("bad level {t:?}"))?);
                    }
                    rec.last_levels.push((resource, vals));
                }
                "MONITOR" => {
                    // Key/value pairs; a trailing key without a value
                    // is ignored, as it always was.
                    let mut toks = rest.split_whitespace();
                    while let (Some(k), Some(v)) = (toks.next(), toks.next()) {
                        match k {
                            "cpu" => rec.monitor.cpu_util = pf(v)?,
                            "mem" => rec.monitor.peak_mem_fraction = pf(v)?,
                            "disk" => rec.monitor.disk_busy = pf(v)?,
                            "faults" => {
                                rec.monitor.faults =
                                    v.parse().map_err(|_| format!("bad faults {v:?}"))?
                            }
                            "latency" => {
                                rec.monitor.mean_latency_us =
                                    if v == "-" { None } else { Some(pf(v)?) }
                            }
                            other => return Err(format!("unknown monitor key {other:?}")),
                        }
                    }
                }
                other => return Err(format!("unknown record key {other:?}")),
            }
        }
        Err("unexpected end of input inside RESULT".to_string())
    }

    /// Parses every record in a text body.
    ///
    /// Errors carry the 1-based line number of the offending line, so a
    /// hand-edited or bit-rotted results file points at the damage
    /// (`line 41: bad outcome "maybee"`) instead of merely refusing to
    /// load. Contrast with the WAL (`uucs-wal`), where a torn *tail* is
    /// expected crash residue and silently truncated — a text store has
    /// no append-in-flight excuse, so every defect is reported.
    pub fn parse_many(input: &str) -> Result<Vec<RunRecord>, String> {
        let line_no = std::cell::Cell::new(0usize);
        let mut lines = input.lines().inspect(|_| line_no.set(line_no.get() + 1));
        let mut out = Vec::new();
        loop {
            match Self::parse(&mut lines) {
                Ok(Some(rec)) => out.push(rec),
                Ok(None) => return Ok(out),
                Err(e) => return Err(format!("line {}: {e}", line_no.get())),
            }
        }
    }

    /// Serializes many records into one text body.
    pub fn emit_many(records: &[RunRecord]) -> String {
        let mut out = String::new();
        for r in records {
            r.emit_into(&mut out);
        }
        out
    }
}

/// `line.split_once(' ')`, or the whole line as the key: a space is one
/// byte in UTF-8 and never part of another character, so the split can
/// look at bytes.
fn split_key(line: &str) -> (&str, &str) {
    match line.bytes().position(|b| b == b' ') {
        Some(at) => (&line[..at], &line[at + 1..]),
        None => (line, ""),
    }
}

fn pf(v: &str) -> Result<f64, String> {
    v.parse().map_err(|_| format!("bad number {v:?}"))
}

fn nonempty(s: &str) -> &str {
    if s.is_empty() {
        "-"
    } else {
        s
    }
}

fn de_nonempty(s: &str) -> String {
    if s == "-" {
        String::new()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            client: "c-123".into(),
            user: "u7".into(),
            testcase: "cpu-ramp-7-120".into(),
            task: "Word".into(),
            skill: "Typical".into(),
            outcome: RunOutcome::Discomfort,
            offset_secs: 74.5,
            last_levels: vec![(Resource::Cpu, vec![4.0, 4.1, 4.2, 4.3, 4.4])],
            monitor: MonitorSummary {
                cpu_util: 0.93,
                peak_mem_fraction: 0.41,
                disk_busy: 0.02,
                faults: 17,
                mean_latency_us: Some(12_345.5),
            },
        }
    }


    /// `RunRecord::parse` as it was before it stopped allocating what
    /// it only inspects, kept verbatim as the reference the new one is
    /// held equal to — `Ok` values and `Err` strings.
    fn reference_parse<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Option<RunRecord>, String> {
        // Find the RESULT header.
        let mut found = false;
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "RESULT" {
                found = true;
                break;
            }
            return Err(format!("expected RESULT, found {line:?}"));
        }
        if !found {
            return Ok(None);
        }
        let mut rec = RunRecord {
            client: String::new(),
            user: String::new(),
            testcase: String::new(),
            task: String::new(),
            skill: String::new(),
            outcome: RunOutcome::Exhausted,
            offset_secs: 0.0,
            last_levels: Vec::new(),
            monitor: MonitorSummary::default(),
        };
        let mut saw_outcome = false;
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "END" {
                if !saw_outcome {
                    return Err("record missing OUTCOME".to_string());
                }
                return Ok(Some(rec));
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "CLIENT" => rec.client = de_nonempty(rest),
                "USER" => rec.user = de_nonempty(rest),
                "TESTCASE" => rec.testcase = de_nonempty(rest),
                "TASK" => rec.task = de_nonempty(rest),
                "SKILL" => rec.skill = de_nonempty(rest),
                "OUTCOME" => {
                    rec.outcome = RunOutcome::parse(rest)
                        .ok_or_else(|| format!("bad outcome {rest:?}"))?;
                    saw_outcome = true;
                }
                "OFFSET" => {
                    rec.offset_secs = rest
                        .parse()
                        .map_err(|_| format!("bad offset {rest:?}"))?;
                }
                "LEVELS" => {
                    let mut toks = rest.split_whitespace();
                    let rname = toks.next().ok_or("LEVELS missing resource")?;
                    let resource: Resource = rname
                        .parse()
                        .map_err(|_| format!("bad resource {rname:?}"))?;
                    let mut vals = Vec::new();
                    for t in toks {
                        vals.push(t.parse().map_err(|_| format!("bad level {t:?}"))?);
                    }
                    rec.last_levels.push((resource, vals));
                }
                "MONITOR" => {
                    let toks: Vec<&str> = rest.split_whitespace().collect();
                    let mut i = 0;
                    while i + 1 < toks.len() {
                        let (k, v) = (toks[i], toks[i + 1]);
                        match k {
                            "cpu" => rec.monitor.cpu_util = pf(v)?,
                            "mem" => rec.monitor.peak_mem_fraction = pf(v)?,
                            "disk" => rec.monitor.disk_busy = pf(v)?,
                            "faults" => {
                                rec.monitor.faults =
                                    v.parse().map_err(|_| format!("bad faults {v:?}"))?
                            }
                            "latency" => {
                                rec.monitor.mean_latency_us =
                                    if v == "-" { None } else { Some(pf(v)?) }
                            }
                            other => return Err(format!("unknown monitor key {other:?}")),
                        }
                        i += 2;
                    }
                }
                other => return Err(format!("unknown record key {other:?}")),
            }
        }
        Err("unexpected end of input inside RESULT".to_string())
    }

    /// [`RunRecord::parse_many`] over the reference parser.
    fn reference_parse_many(input: &str) -> Result<Vec<RunRecord>, String> {
        let line_no = std::cell::Cell::new(0usize);
        let mut lines = input.lines().inspect(|_| line_no.set(line_no.get() + 1));
        let mut out = Vec::new();
        loop {
            match reference_parse(&mut lines) {
                Ok(Some(rec)) => out.push(rec),
                Ok(None) => return Ok(out),
                Err(e) => return Err(format!("line {}: {e}", line_no.get())),
            }
        }
    }

    #[test]
    fn roundtrip_single() {
        let r = sample();
        let text = r.emit();
        let parsed = RunRecord::parse_many(&text).unwrap();
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn roundtrip_many_with_empty_fields() {
        let mut a = sample();
        a.user = String::new();
        a.task = String::new();
        let mut b = sample();
        b.outcome = RunOutcome::Exhausted;
        b.monitor.mean_latency_us = None;
        b.last_levels = vec![
            (Resource::Cpu, vec![1.0]),
            (Resource::Memory, vec![0.5, 0.6]),
        ];
        let text = RunRecord::emit_many(&[a.clone(), b.clone()]);
        let parsed = RunRecord::parse_many(&text).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn legacy_records_without_skill_parse_as_unrated() {
        let mut r = sample();
        r.skill = String::new();
        let text = r.emit();
        assert!(!text.contains("SKILL"), "unrated records omit the line");
        assert_eq!(RunRecord::parse_many(&text).unwrap(), vec![r]);
    }

    #[test]
    fn level_at_feedback() {
        let r = sample();
        assert_eq!(r.level_at_feedback(Resource::Cpu), Some(4.4));
        assert_eq!(r.level_at_feedback(Resource::Disk), None);
    }

    #[test]
    fn parse_rejects_missing_outcome() {
        let text = "RESULT\nCLIENT a\nEND\n";
        assert!(RunRecord::parse_many(text).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunRecord::parse_many("HELLO\n").is_err());
        assert!(RunRecord::parse_many("RESULT\nOUTCOME discomfort\n").is_err());
        assert!(RunRecord::parse_many("RESULT\nOUTCOME maybe\nEND\n").is_err());
        assert!(RunRecord::parse_many("RESULT\nLEVELS gpu 1\nOUTCOME exhausted\nEND\n").is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        // One good record, then a defect: the error points at the exact
        // line of the second record's bad field.
        let good = sample().emit();
        let good_lines = good.lines().count();
        let text = format!("{good}RESULT\nOUTCOME maybe\nEND\n");
        let err = RunRecord::parse_many(&text).unwrap_err();
        assert_eq!(
            err,
            format!("line {}: bad outcome \"maybe\"", good_lines + 2),
            "error was: {err}"
        );
        // Truncated input points at the last line seen.
        let err = RunRecord::parse_many("RESULT\nOUTCOME discomfort\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "error was: {err}");
    }

    /// Every input the rejection tests above use, plus the result and
    /// batch bodies of `walenc`'s `decode_rejects_garbage`.
    const REJECTED: [&str; 11] = [
        "RESULT\nCLIENT a\nEND\n",
        "HELLO\n",
        "RESULT\nOUTCOME discomfort\n",
        "RESULT\nOUTCOME maybe\nEND\n",
        "RESULT\nLEVELS gpu 1\nOUTCOME exhausted\nEND\n",
        "not a record",
        "\u{fffd}\u{fffd}",
        "RESULT\nEND\n",
        "RESULT\nLEVELS\nEND\n",
        "RESULT\nMONITOR cpu x\nEND\n",
        "RESULT\nFOO\nEND\n",
    ];

    /// Lines a damaged store could hold between good ones: every key
    /// with a missing, malformed or surplus operand, comments, blanks.
    const STRAY: [&str; 28] = [
        "",
        "# comment",
        " # indented comment",
        "HELLO",
        "RESULT",
        "END",
        "CLIENT",
        "CLIENT -",
        "USER two words",
        "SKILL",
        "OUTCOME",
        "OUTCOME maybe",
        "OUTCOME exhausted",
        "OUTCOME  discomfort",
        "OFFSET",
        "OFFSET abc",
        "OFFSET 1e3",
        "LEVELS",
        "LEVELS gpu 1",
        "LEVELS MEM",
        "LEVELS cpu 1 x",
        "LEVELS disk 1 2 3 4 5 6 7",
        "MONITOR",
        "MONITOR cpu",
        "MONITOR cpu 1 mem",
        "MONITOR bogus 1",
        "MONITOR faults -1",
        "MONITOR latency - cpu nan",
    ];

    fn generated(rng: &mut uucs_stats::Pcg64) -> RunRecord {
        let name = |rng: &mut uucs_stats::Pcg64| {
            let names = ["", "-", "c-123", "Word", "two words", "caf\u{e9}", "x"];
            rng.choose(&names).to_string()
        };
        let number = |rng: &mut uucs_stats::Pcg64| match rng.below(5) {
            0 => rng.below(11) as f64,
            1 => -rng.f64(),
            2 => rng.f64() * 1e-9,
            3 => rng.f64() * 1e12,
            _ => rng.uniform(0.0, 10.0),
        };
        let mut last_levels = Vec::new();
        for resource in [Resource::Cpu, Resource::Memory, Resource::Disk, Resource::Network] {
            if rng.bernoulli(0.4) {
                let n = rng.below(8) as usize;
                last_levels.push((resource, (0..n).map(|_| number(rng)).collect()));
            }
        }
        RunRecord {
            client: name(rng),
            user: name(rng),
            testcase: name(rng),
            task: name(rng),
            skill: name(rng),
            outcome: if rng.bernoulli(0.5) {
                RunOutcome::Discomfort
            } else {
                RunOutcome::Exhausted
            },
            offset_secs: number(rng),
            last_levels,
            monitor: MonitorSummary {
                cpu_util: number(rng),
                peak_mem_fraction: number(rng),
                disk_busy: number(rng),
                faults: rng.below(1 << 40),
                mean_latency_us: rng.bernoulli(0.5).then(|| number(rng)),
            },
        }
    }

    /// Compared through `Debug` so that a NaN a bit flip might spell
    /// still equals itself.
    fn assert_parses_like_the_reference(text: &str, context: &str) {
        let new = format!("{:?}", RunRecord::parse_many(text));
        let old = format!("{:?}", reference_parse_many(text));
        assert_eq!(new, old, "{context}: {text:?}");
    }

    #[test]
    fn parse_equals_the_reference_on_every_rejected_input() {
        for text in REJECTED.iter().chain(&STRAY) {
            assert_parses_like_the_reference(text, "fixed input");
            assert_parses_like_the_reference(&format!("{}{text}\n", sample().emit()), "after a record");
        }
    }

    /// Generated records, then up to four stacked mutations of the kind
    /// the wire-fuzz suite makes: the lean parser and the reference
    /// agree on the `Ok` value or on the `Err` string (line number
    /// included) every time.
    #[test]
    fn parse_equals_the_reference_on_generated_and_damaged_records() {
        for seed in 0..600u64 {
            let mut rng = uucs_stats::Pcg64::new(seed);
            let records: Vec<RunRecord> = (0..=rng.below(3)).map(|_| generated(&mut rng)).collect();
            let mut text = RunRecord::emit_many(&records);
            assert_parses_like_the_reference(&text, &format!("seed {seed}, undamaged"));
            for round in 0..4 {
                text = uucs_harness::textfuzz::mutate_lines(&mut rng, &text, &STRAY);
                assert_parses_like_the_reference(&text, &format!("seed {seed}, round {round}"));
            }
        }
    }

    #[test]
    fn parse_empty_and_comments() {
        assert_eq!(RunRecord::parse_many("").unwrap(), vec![]);
        assert_eq!(RunRecord::parse_many("# header\n\n").unwrap(), vec![]);
    }

    #[test]
    fn outcome_tokens() {
        assert_eq!(RunOutcome::parse("discomfort"), Some(RunOutcome::Discomfort));
        assert_eq!(RunOutcome::parse("exhausted"), Some(RunOutcome::Exhausted));
        assert_eq!(RunOutcome::parse("bored"), None);
        assert_eq!(RunOutcome::Discomfort.token(), "discomfort");
    }
}
