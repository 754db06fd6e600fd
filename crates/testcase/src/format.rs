//! The text-file storage format for testcases (paper §2: "Both are Windows
//! applications that store testcases and results on permanent storage in
//! text files").
//!
//! Format (line oriented, whitespace-delimited, `#` comments allowed):
//!
//! ```text
//! TESTCASE <id>
//! RATE <hz>
//! FUNCTION <resource> <count>
//! <v> <v> <v> ...          # `count` values across any number of lines
//! END
//! ```
//!
//! Several testcases may be concatenated in one file; [`parse_many`]
//! reads them all. [`emit`] and [`parse`] round-trip exactly (values are
//! printed with enough digits to reproduce the `f64` bit pattern).

use crate::exercise::ExerciseFunction;
use crate::resource::Resource;
use crate::testcase::Testcase;
use std::fmt;

/// `line.trim()` for the line-oriented text formats of the system (this
/// one, run records, model deltas): a line that begins and ends in a
/// printable ASCII byte has nothing to trim, which is every line the
/// emitters write, so journal replay skips the Unicode whitespace scan
/// from both ends. Any other line takes [`str::trim`] itself.
pub fn trim_line(line: &str) -> &str {
    match line.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => line,
        [only] if only.is_ascii_graphic() => line,
        _ => line.trim(),
    }
}

/// Errors produced while parsing the testcase text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Expected a keyword but found something else.
    Expected {
        /// What was expected.
        what: &'static str,
        /// 1-based line number.
        line: usize,
        /// What was actually found.
        found: String,
    },
    /// A number failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// Unknown resource name.
    BadResource {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The input ended in the middle of a testcase.
    UnexpectedEof,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Expected { what, line, found } => {
                write!(f, "line {line}: expected {what}, found {found:?}")
            }
            ParseError::BadNumber { line, token } => {
                write!(f, "line {line}: bad number {token:?}")
            }
            ParseError::BadResource { line, token } => {
                write!(f, "line {line}: unknown resource {token:?}")
            }
            ParseError::UnexpectedEof => write!(f, "unexpected end of input"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes one testcase into the text format.
pub fn emit(tc: &Testcase) -> String {
    let mut out = String::new();
    emit_into(tc, &mut out);
    out
}

/// Serializes one testcase, appending to `out`: every value is written
/// straight into `out`, with no string made per value or per line.
pub fn emit_into(tc: &Testcase, out: &mut String) {
    use fmt::Write;
    writeln!(out, "TESTCASE {}", tc.id).expect("writing to a String cannot fail");
    out.push_str("RATE ");
    push_f64(out, tc.sample_rate_hz);
    out.push('\n');
    for f in &tc.functions {
        writeln!(out, "FUNCTION {} {}", f.resource, f.values.len())
            .expect("writing to a String cannot fail");
        for chunk in f.values.chunks(8) {
            for (i, v) in chunk.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                push_f64(out, *v);
            }
            out.push('\n');
        }
    }
    out.push_str("END\n");
}

/// Serializes many testcases into one file body.
pub fn emit_many(tcs: &[Testcase]) -> String {
    let mut out = String::new();
    for tc in tcs {
        emit_into(tc, &mut out);
    }
    out
}

/// Appends an f64 so that parsing it back yields the identical value.
fn push_f64(out: &mut String, v: f64) {
    use fmt::Write;
    let start = out.len();
    // The shortest roundtrip representation Rust produces for {} is exact.
    write!(out, "{v}").expect("writing to a String cannot fail");
    debug_assert_eq!(out[start..].parse::<f64>().unwrap().to_bits(), v.to_bits());
}

/// Splits concatenated testcases after each line that reads `END` —
/// the pieces [`emit_many`] joined, each one [`emit`] output. Text after
/// the last such line is the last piece, so a caller that [`parse`]s
/// every piece refuses a torn or foreign tail rather than dropping it.
pub fn blocks(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut end = 0;
        for line in rest.split_inclusive('\n') {
            end += line.len();
            if line.trim() == "END" {
                break;
            }
        }
        let (block, tail) = rest.split_at(end);
        rest = tail;
        Some(block)
    })
}

/// Tokenizer: yields (line_number, token) over the input, skipping
/// comments (from `#` to end of line) and blank lines, a line at a time.
struct Tokens<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// The 1-based number of the line `words` splits.
    line: usize,
    words: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(input: &'a str) -> Self {
        Tokens {
            lines: input.lines().enumerate(),
            line: 0,
            words: "".split_whitespace(),
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        loop {
            if let Some(tok) = self.words.next() {
                return Some((self.line, tok));
            }
            let (i, raw) = self.lines.next()?;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            self.line = i + 1;
            self.words = line.split_whitespace();
        }
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<usize, ParseError> {
        match self.next() {
            Some((line, t)) if t == kw => Ok(line),
            Some((line, t)) => Err(ParseError::Expected {
                what: kw,
                line,
                found: t.to_string(),
            }),
            None => Err(ParseError::UnexpectedEof),
        }
    }

    fn expect_f64(&mut self) -> Result<(usize, f64), ParseError> {
        match self.next() {
            Some((line, t)) => t
                .parse::<f64>()
                .map(|v| (line, v))
                .map_err(|_| ParseError::BadNumber {
                    line,
                    token: t.to_string(),
                }),
            None => Err(ParseError::UnexpectedEof),
        }
    }

    fn expect_usize(&mut self) -> Result<(usize, usize), ParseError> {
        match self.next() {
            Some((line, t)) => t
                .parse::<usize>()
                .map(|v| (line, v))
                .map_err(|_| ParseError::BadNumber {
                    line,
                    token: t.to_string(),
                }),
            None => Err(ParseError::UnexpectedEof),
        }
    }
}

/// Parses exactly one testcase from the input: anything after its
/// `END` but comments and blank lines is an error.
pub fn parse(input: &str) -> Result<Testcase, ParseError> {
    let mut toks = Tokens::new(input);
    let tc = parse_one(&mut toks)?;
    match toks.next() {
        None => Ok(tc),
        Some((line, t)) => Err(ParseError::Expected {
            what: "end of input",
            line,
            found: t.to_string(),
        }),
    }
}

/// Parses every testcase in the input (possibly zero).
pub fn parse_many(input: &str) -> Result<Vec<Testcase>, ParseError> {
    let mut toks = Tokens::new(input);
    let mut out = Vec::new();
    loop {
        // Peek: clone the iterator state by checking with a fresh parse
        // attempt only when a TESTCASE token remains.
        match toks.next() {
            None => return Ok(out),
            Some((line, "TESTCASE")) => {
                out.push(parse_after_keyword(&mut toks, line)?);
            }
            Some((line, other)) => {
                return Err(ParseError::Expected {
                    what: "TESTCASE",
                    line,
                    found: other.to_string(),
                })
            }
        }
    }
}

fn parse_one(toks: &mut Tokens<'_>) -> Result<Testcase, ParseError> {
    let line = toks.expect_keyword("TESTCASE")?;
    parse_after_keyword(toks, line)
}

fn parse_after_keyword(toks: &mut Tokens<'_>, _kw_line: usize) -> Result<Testcase, ParseError> {
    let (_, id) = toks.next().ok_or(ParseError::UnexpectedEof)?;
    toks.expect_keyword("RATE")?;
    let (_, rate) = toks.expect_f64()?;
    let mut functions = Vec::new();
    loop {
        match toks.next() {
            Some((_, "END")) => break,
            Some((line, "FUNCTION")) => {
                let (rline, rtok) = toks.next().ok_or(ParseError::UnexpectedEof)?;
                let resource: Resource =
                    rtok.parse().map_err(|_| ParseError::BadResource {
                        line: rline,
                        token: rtok.to_string(),
                    })?;
                let (_, count) = toks.expect_usize()?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let (_, v) = toks.expect_f64()?;
                    values.push(v);
                }
                let _ = line;
                functions.push(ExerciseFunction::from_values(resource, rate, values));
            }
            Some((line, other)) => {
                return Err(ParseError::Expected {
                    what: "FUNCTION or END",
                    line,
                    found: other.to_string(),
                })
            }
            None => return Err(ParseError::UnexpectedEof),
        }
    }
    Ok(Testcase::new(id, rate, functions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_line_is_str_trim() {
        let edges = [
            "", " ", "\t", "\r", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{3000}", "\u{feff}",
            "x", "#", "~", "\u{7f}", "\u{e9}", "\u{85}",
        ];
        for head in edges {
            for tail in edges {
                for body in ["", "a", "a b", " a\u{a0}b ", "RESULT"] {
                    let line = format!("{head}{body}{tail}");
                    assert_eq!(trim_line(&line), line.trim(), "{line:?}");
                }
            }
        }
    }
    use crate::exercise::ExerciseSpec;

    fn sample_tc() -> Testcase {
        Testcase::from_specs(
            "demo-1",
            2.0,
            &[
                (
                    Resource::Cpu,
                    ExerciseSpec::Ramp {
                        level: 2.0,
                        duration: 10.0,
                    },
                ),
                (
                    Resource::Disk,
                    ExerciseSpec::Step {
                        level: 3.0,
                        duration: 10.0,
                        start: 4.0,
                    },
                ),
            ],
        )
    }

    #[test]
    fn roundtrip_single() {
        let tc = sample_tc();
        let text = emit(&tc);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, tc);
    }

    #[test]
    fn roundtrip_many() {
        let tcs = vec![
            sample_tc(),
            Testcase::blank("blank-x", 1.0, 120.0),
            Testcase::single(
                "mem-r",
                1.0,
                Resource::Memory,
                ExerciseSpec::Ramp {
                    level: 1.0,
                    duration: 120.0,
                },
            ),
        ];
        let text = emit_many(&tcs);
        let parsed = parse_many(&text).unwrap();
        assert_eq!(parsed, tcs);
    }

    #[test]
    fn parse_refuses_a_second_testcase() {
        let two = emit_many(&[sample_tc(), Testcase::blank("blank-x", 1.0, 3.0)]);
        assert!(matches!(
            parse(&two),
            Err(ParseError::Expected { what: "end of input", found, .. }) if found == "TESTCASE"
        ));
        let commented = format!("{}# trailing note\n\n", emit(&sample_tc()));
        assert_eq!(parse(&commented).unwrap(), sample_tc());
    }

    #[test]
    fn blocks_are_the_emitted_testcases() {
        let tcs = vec![sample_tc(), Testcase::blank("blank-x", 1.0, 3.0)];
        let text = emit_many(&tcs);
        let pieces: Vec<&str> = blocks(&text).collect();
        let want: Vec<String> = tcs.iter().map(emit).collect();
        assert_eq!(pieces, want);
        assert_eq!(blocks("").count(), 0);
        // A torn tail is a piece of its own, and does not parse.
        let torn = format!("{}TESTCASE t\nRATE 1\n", emit(&sample_tc()));
        let pieces: Vec<&str> = blocks(&torn).collect();
        assert_eq!(pieces.len(), 2);
        assert_eq!(parse(pieces[1]), Err(ParseError::UnexpectedEof));
    }

    #[test]
    fn parse_empty_is_empty() {
        assert_eq!(parse_many("").unwrap(), Vec::new());
        assert_eq!(parse_many("# just a comment\n\n").unwrap(), Vec::new());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# library header
TESTCASE t1
RATE 1   # one hertz
FUNCTION cpu 3
0 0.5 1   # rising
END
";
        let tc = parse(text).unwrap();
        assert_eq!(tc.id.as_str(), "t1");
        assert_eq!(tc.functions[0].values, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "TESTCASE t1\nRATE 1\nFUNCTION cpu 2\n0 zebra\nEND\n";
        match parse(text) {
            Err(ParseError::BadNumber { line, token }) => {
                assert_eq!(line, 4);
                assert_eq!(token, "zebra");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn unknown_resource_rejected() {
        let text = "TESTCASE t1\nRATE 1\nFUNCTION gpu 1\n0\nEND\n";
        assert!(matches!(
            parse(text),
            Err(ParseError::BadResource { token, .. }) if token == "gpu"
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let text = "TESTCASE t1\nRATE 1\nFUNCTION cpu 5\n0 0 0\n";
        assert_eq!(parse(text), Err(ParseError::UnexpectedEof));
    }

    #[test]
    fn garbage_keyword_rejected() {
        let text = "TESTCASE t1\nRATE 1\nFROBNICATE\nEND\n";
        assert!(matches!(
            parse(text),
            Err(ParseError::Expected { what: "FUNCTION or END", .. })
        ));
    }

    #[test]
    fn exact_float_roundtrip() {
        // Values chosen to stress decimal printing.
        // All within the CPU contention range so construction-time clamping
        // does not alter them.
        let vals = vec![0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e-300, 9.876543210123456];
        let tc = Testcase::new(
            "floats",
            1.0,
            vec![ExerciseFunction::from_values(Resource::Cpu, 1.0, vals.clone())],
        );
        let parsed = parse(&emit(&tc)).unwrap();
        for (a, b) in parsed.functions[0].values.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
