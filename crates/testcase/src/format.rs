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

/// Serializes one testcase, appending to `out`.
pub fn emit_into(tc: &Testcase, out: &mut String) {
    use fmt::Write;
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
}

/// Serializes many testcases into one file body.
pub fn emit_many(tcs: &[Testcase]) -> String {
    let mut out = String::new();
    for tc in tcs {
        emit_into(tc, &mut out);
    }
    out
}

/// Formats an f64 so that parsing it back yields the identical value.
fn fmt_f64(v: f64) -> String {
    // The shortest roundtrip representation Rust produces for {} is exact.
    let s = format!("{v}");
    debug_assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
    s
}

/// Tokenizer: yields (line_number, token) over the input, skipping
/// comments (from `#` to end of line) and blank lines.
struct Tokens<'a> {
    inner: std::vec::IntoIter<(usize, &'a str)>,
}

impl<'a> Tokens<'a> {
    fn new(input: &'a str) -> Self {
        let mut toks = Vec::new();
        for (i, raw) in input.lines().enumerate() {
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            for tok in line.split_whitespace() {
                toks.push((i + 1, tok));
            }
        }
        Tokens {
            inner: toks.into_iter(),
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        self.inner.next()
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

/// Parses exactly one testcase from the input.
pub fn parse(input: &str) -> Result<Testcase, ParseError> {
    let mut toks = Tokens::new(input);
    parse_one(&mut toks)
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
