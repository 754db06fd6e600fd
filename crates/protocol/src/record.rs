//! Run result records (§2.3).
//!
//! "A considerable amount of information is stored as the result of the
//! testcase run", of which the paper's analysis uses: whether the run
//! ended in user feedback or exhaustion, the time offset of the report,
//! and the last five contention values of each exercise function at the
//! feedback point. We store those plus the monitoring summary.

use std::fmt;
use uucs_testcase::format::{trim_line, words};
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

    /// Whether the five string fields can be spliced into line-oriented
    /// record text and read back equal. A line break would let a field
    /// forge lines (or whole records) of its own, [`RunRecord::parse`]
    /// trims each line, and `-` is the spelling of an empty field — so
    /// a control character, whitespace at either end and a literal `-`
    /// are refused, naming the field.
    pub fn check_text(&self) -> Result<(), String> {
        for (what, s) in [
            ("client", &self.client),
            ("user", &self.user),
            ("testcase", &self.testcase),
            ("task", &self.task),
            ("skill", &self.skill),
        ] {
            if s.chars().any(char::is_control) {
                return Err(format!("{what} {s:?} contains a control character"));
            }
            if s.starts_with(char::is_whitespace) || s.ends_with(char::is_whitespace) {
                return Err(format!("{what} {s:?} has leading or trailing whitespace"));
            }
            if s == "-" {
                return Err(format!("{what} \"-\" would read back empty"));
            }
        }
        Ok(())
    }

    /// [`RunRecord::emit_into`] for text that will be stored: a record
    /// [`RunRecord::check_text`] refuses writes nothing.
    pub fn emit_checked_into(&self, out: &mut String) -> Result<(), String> {
        self.check_text()?;
        self.emit_into(out);
        Ok(())
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
                    let mut toks = words(rest);
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
                    let mut toks = words(rest);
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

    /// Parses the one record of a block [`Blocks`] yielded; an error
    /// carries the 1-based line *within the block*.
    pub fn parse_block(block: &str) -> Result<RunRecord, String> {
        let line_no = std::cell::Cell::new(0usize);
        let mut lines = block.lines().inspect(|_| line_no.set(line_no.get() + 1));
        match Self::parse(&mut lines) {
            Ok(Some(rec)) => Ok(rec),
            Ok(None) => Err("no RESULT in block".to_string()),
            Err(e) => Err(format!("line {}: {e}", line_no.get())),
        }
    }

    /// The `client` field [`RunRecord::parse_block`] would give the
    /// block's record, read off its `CLIENT` line without decoding the
    /// rest — so a reader after one client's records can skip the
    /// others' blocks.
    pub fn block_client(block: &str) -> &str {
        let mut client = "";
        for line in block.lines() {
            if let ("CLIENT", rest) = split_key(trim_line(line)) {
                client = if rest == "-" { "" } else { rest };
            }
        }
        client
    }

    /// Counts the `RESULT`…`END` blocks of a text body without parsing
    /// a field or allocating: `Ok(n)` exactly when
    /// [`RunRecord::parse_many`] would yield `n` records or stop at a
    /// field-level defect, and its own error string (`line L: expected
    /// RESULT, found …`, `line L: unexpected end of input inside
    /// RESULT`) when the body is torn.
    pub fn count_blocks(body: &str) -> Result<usize, String> {
        let mut n = 0;
        for block in Blocks::new(body) {
            block?;
            n += 1;
        }
        Ok(n)
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

/// The `RESULT`…`END` blocks of a text body, delimited exactly the way
/// [`RunRecord::parse`] delimits records — lines trimmed, blanks and
/// `#` comments skipped, anything else between blocks an error — but
/// with no field parsed and nothing allocated. Each item is one block,
/// `RESULT` line through `END` line; an `Err` (with `parse_many`'s
/// string and body-relative line number) ends the iteration.
///
/// Inside a block no line is split or trimmed: the scan jumps from one
/// `D` byte to the next until one ends a line that trims to `END`, and a
/// line number is counted only for an error.
pub struct Blocks<'a> {
    /// The whole body.
    text: &'a str,
    /// Where the next block's search starts: a line start.
    at: usize,
}

impl<'a> Blocks<'a> {
    /// The blocks of `body`.
    pub fn new(body: &'a str) -> Self {
        Blocks { text: body, at: 0 }
    }

    /// The text after the last block taken (all of it after an error).
    pub fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    /// Past the end of the first line at or after `from` (a line start)
    /// that trims to `END` — past its newline, if it has one.
    fn end_line(&self, from: usize) -> Option<usize> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut search = from;
        loop {
            let d = search + text[search..].find('D')?;
            search = d + 1;
            if d < from + 2 || &bytes[d - 2..d] != b"EN" {
                continue;
            }
            let e = d - 2;
            let start = text[from..e].rfind('\n').map_or(from, |i| from + i + 1);
            let end = text[d + 1..].find('\n').map_or(text.len(), |i| d + 1 + i);
            if text[start..e].trim().is_empty() && text[d + 1..end].trim().is_empty() {
                return Some((end + 1).min(text.len()));
            }
            // Any later `END` on this line follows this one's letters.
            search = end;
        }
    }

    /// Ends the iteration with an error on the 1-based line `line`.
    fn fail(&mut self, line: usize, msg: String) -> Option<Result<&'a str, String>> {
        self.at = self.text.len();
        Some(Err(format!("line {line}: {msg}")))
    }

    /// The number of `\n` bytes before `at`.
    fn newlines_before(&self, at: usize) -> usize {
        self.text.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count()
    }
}

impl<'a> Iterator for Blocks<'a> {
    type Item = Result<&'a str, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let len = self.text.len();
        let start = loop {
            if self.at == len {
                return None;
            }
            let from = self.at;
            let end = self.text[from..].find('\n').map_or(len, |i| from + i);
            self.at = (end + 1).min(len);
            let line = trim_line(&self.text[from..end]);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "RESULT" {
                break from;
            }
            let number = self.newlines_before(from) + 1;
            return self.fail(number, format!("expected RESULT, found {line:?}"));
        };
        match self.end_line(self.at) {
            Some(after) => {
                self.at = after;
                Some(Ok(&self.text[start..after]))
            }
            None => {
                // Every line was taken, the last one maybe unterminated.
                let lines = self.newlines_before(len) + usize::from(!self.text.ends_with('\n'));
                self.fail(lines, "unexpected end of input inside RESULT".to_string())
            }
        }
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


/// The block scanner as it was before it stopped splitting and trimming
/// every line, kept as the reference the one-pass scanner is held equal
/// to.
#[cfg(test)]
pub(crate) mod reference {
    use uucs_testcase::format::trim_line;

    pub(crate) struct Blocks<'a> {
        rest: &'a str,
        line: usize,
    }

    impl<'a> Blocks<'a> {
        pub(crate) fn new(body: &'a str) -> Self {
            Blocks { rest: body, line: 0 }
        }

        pub(crate) fn rest(&self) -> &'a str {
            self.rest
        }

        fn take_line(&mut self) -> Option<&'a str> {
            if self.rest.is_empty() {
                return None;
            }
            let (line, rest) = match self.rest.find('\n') {
                Some(at) => (&self.rest[..at], &self.rest[at + 1..]),
                None => (self.rest, ""),
            };
            self.rest = rest;
            self.line += 1;
            Some(line)
        }

        fn fail(&mut self, msg: String) -> Option<Result<&'a str, String>> {
            self.rest = "";
            Some(Err(format!("line {}: {msg}", self.line)))
        }
    }

    impl<'a> Iterator for Blocks<'a> {
        type Item = Result<&'a str, String>;

        fn next(&mut self) -> Option<Self::Item> {
            let block = loop {
                let before = self.rest;
                let line = trim_line(self.take_line()?);
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if line == "RESULT" {
                    break before;
                }
                return self.fail(format!("expected RESULT, found {line:?}"));
            };
            while let Some(line) = self.take_line() {
                if trim_line(line) == "END" {
                    return Some(Ok(&block[..block.len() - self.rest.len()]));
                }
            }
            self.fail("unexpected end of input inside RESULT".to_string())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    pub(crate) const STRAY: [&str; 28] = [
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

    pub(crate) fn generated(rng: &mut uucs_stats::Pcg64) -> RunRecord {
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

    /// Whether `parse_many` stopped at something inside a block — a
    /// field — rather than at the block structure.
    fn field_level(err: &str) -> bool {
        ["bad ", "unknown ", "LEVELS missing", "record missing"]
            .iter()
            .any(|kind| err.contains(kind))
    }

    /// [`Blocks`] splits text exactly where the parser delimits
    /// records: the count is the parser's whenever the parser gets
    /// through, each block parses to the parser's record, a defect
    /// inside a block is `parse_block`'s to report — with the parser's
    /// message — and a torn structure is refused in the parser's words.
    fn assert_blocks_like_the_parser(text: &str, context: &str) {
        let blocks: Result<Vec<&str>, String> = Blocks::new(text).collect();
        assert_eq!(RunRecord::count_blocks(text), blocks.as_ref().map(Vec::len).map_err(String::clone));
        match (blocks, RunRecord::parse_many(text)) {
            (Ok(blocks), Ok(records)) => {
                let parsed: Vec<_> = blocks.iter().map(|b| RunRecord::parse_block(b).unwrap()).collect();
                assert_eq!(format!("{parsed:?}"), format!("{records:?}"), "{context}: {text:?}");
            }
            (Ok(blocks), Err(theirs)) => {
                assert!(field_level(&theirs), "{context}: accepted despite {theirs}: {text:?}");
                let msg = theirs.split_once(": ").unwrap().1;
                let mine = blocks.iter().find_map(|b| RunRecord::parse_block(b).err()).expect(context);
                assert_eq!(mine.split_once(": ").unwrap().1, msg, "{context}: {text:?}");
            }
            (Err(mine), Ok(_)) => panic!("{context}: refused ({mine}) what parses: {text:?}"),
            (Err(mine), Err(theirs)) => {
                assert!(mine == theirs || field_level(&theirs), "{context}: {mine} vs {theirs}: {text:?}")
            }
        }
    }

    #[test]
    fn blocks_are_delimited_like_the_parser_delimits_records() {
        for text in REJECTED.iter().chain(&STRAY) {
            assert_blocks_like_the_parser(text, "fixed input");
            assert_blocks_like_the_parser(&format!("{}{text}\n", sample().emit()), "after a record");
            assert_blocks_like_the_parser(&format!("{}{text}", sample().emit()), "unterminated");
        }
        for seed in 0..600u64 {
            let mut rng = uucs_stats::Pcg64::new(seed);
            let records: Vec<RunRecord> = (0..=rng.below(3)).map(|_| generated(&mut rng)).collect();
            let mut text = RunRecord::emit_many(&records);
            assert_blocks_like_the_parser(&text, &format!("seed {seed}, undamaged"));
            for round in 0..4 {
                text = uucs_harness::textfuzz::mutate_lines(&mut rng, &text, &STRAY);
                assert_blocks_like_the_parser(&text, &format!("seed {seed}, round {round}"));
            }
        }
        // A block is the RESULT line through the END line, whatever sits
        // between blocks; the client is read off it undecoded.
        let (a, b) = (sample().emit(), RunRecord { client: String::new(), ..sample() }.emit());
        let text = format!("# head\n\n{a}\n# between\n{b}");
        let blocks: Vec<&str> = Blocks::new(&text).map(Result::unwrap).collect();
        assert_eq!(blocks, vec![a.as_str(), b.as_str()]);
        assert_eq!((RunRecord::block_client(&a), RunRecord::block_client(&b)), ("c-123", ""));
    }

    /// Whatever the checked renderer accepts reads back equal, and what
    /// it refuses it refuses whole, naming the field. (Numbers are
    /// finite here: a NaN renders and parses, but equals nothing.)
    #[test]
    fn what_the_checked_renderer_accepts_reads_back_equal() {
        let names = [
            "", "-", "c-123", "two words", "caf\u{e9}", "\u{feff}x", "x\u{200b}", " lead", "trail ",
            "a\nb", "a\r", "a\tb", "a\u{0}b", "a\u{85}b", "\u{a0}x", "x\u{2028}", "x\nEND\nRESULT",
        ];
        let (mut accepted, mut refused) = (0, 0);
        for seed in 0..2000u64 {
            let mut rng = uucs_stats::Pcg64::new(seed);
            let mut rec = generated(&mut rng);
            for field in [&mut rec.client, &mut rec.user, &mut rec.testcase, &mut rec.task, &mut rec.skill] {
                if rng.bernoulli(0.3) {
                    *field = rng.choose(&names).to_string();
                }
            }
            let mut text = sample().emit();
            let before = text.clone();
            match rec.emit_checked_into(&mut text) {
                Ok(()) => {
                    accepted += 1;
                    let back = RunRecord::parse_many(&text).unwrap();
                    assert_eq!(back, vec![sample(), rec.clone()], "seed {seed}");
                    assert_eq!(RunRecord::count_blocks(&text), Ok(2), "seed {seed}");
                }
                Err(why) => {
                    refused += 1;
                    assert_eq!(text, before, "seed {seed}: refused ({why}) but wrote");
                    let named = ["client", "user", "testcase", "task", "skill"];
                    assert!(named.iter().any(|f| why.starts_with(f)), "seed {seed}: {why}");
                }
            }
        }
        assert!(accepted > 200 && refused > 200, "{accepted} accepted, {refused} refused");
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
