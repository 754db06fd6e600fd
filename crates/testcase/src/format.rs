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

/// Whether an ASCII byte is white space to [`char::is_whitespace`]: tab,
/// line feed, vertical tab, form feed, carriage return and space.
#[inline]
fn is_ascii_space(b: u8) -> bool {
    const SPACES: u64 = 1 << b'\t' | 1 << b'\n' | 1 << 0x0B | 1 << 0x0C | 1 << b'\r' | 1 << b' ';
    b <= b' ' && SPACES & 1 << b != 0
}

/// `line.split_whitespace()` for the line-oriented text formats of the
/// system: ASCII — every line the emitters write — is walked a byte at
/// a time, and from the first word holding a byte that is not ASCII the
/// rest of the line is split by [`str::split_whitespace`] itself, so
/// vertical tab and Unicode spaces part words exactly as it says.
#[inline]
pub fn words(line: &str) -> Words<'_> {
    Words(Split::Ascii(line))
}

/// The words of a line: see [`words`].
#[derive(Debug, Clone)]
pub struct Words<'a>(Split<'a>);

#[derive(Debug, Clone)]
enum Split<'a> {
    /// The rest of the line, walked a byte at a time.
    Ascii(&'a str),
    /// The rest of a line that holds a byte that is not ASCII.
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let rest = match &mut self.0 {
            Split::Ascii(rest) => *rest,
            Split::Unicode(words) => return words.next(),
        };
        let bytes = rest.as_bytes();
        let mut at = 0;
        while at < bytes.len() && is_ascii_space(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && bytes[at].is_ascii() && !is_ascii_space(bytes[at]) {
            at += 1;
        }
        if at < bytes.len() && !bytes[at].is_ascii() {
            // `start` follows white space (or starts the line), so the
            // split of what is left goes on where this one stopped.
            let mut split = rest[start..].split_whitespace();
            let word = split.next();
            self.0 = Split::Unicode(split);
            return word;
        }
        self.0 = Split::Ascii(&rest[at..]);
        (at > start).then(|| &rest[start..at])
    }
}

/// Whether `token` is something [`f64`]'s `FromStr` accepts, decided
/// from its bytes without converting it: an optional sign, then `inf`,
/// `infinity` or `nan` in any case, or digits with at most one `.` and
/// at least one digit, then an optional `e`/`E`, optional sign and at
/// least one digit.
fn is_f64(token: &str) -> bool {
    fn unsigned(b: &[u8]) -> &[u8] {
        match b {
            [b'+' | b'-', rest @ ..] => rest,
            _ => b,
        }
    }
    let b = unsigned(token.as_bytes());
    if [&b"inf"[..], b"infinity", b"nan"].iter().any(|w| b.eq_ignore_ascii_case(w)) {
        return true;
    }
    let digits = |b: &[u8]| b.iter().take_while(|c| c.is_ascii_digit()).count();
    let int = digits(b);
    let (frac, at) = match b.get(int) {
        Some(b'.') => {
            let frac = digits(&b[int + 1..]);
            (frac, int + 1 + frac)
        }
        _ => (0, int),
    };
    if int + frac == 0 {
        return false;
    }
    match b.get(at) {
        None => true,
        Some(b'e' | b'E') => {
            let exp = unsigned(&b[at + 1..]);
            !exp.is_empty() && digits(exp) == exp.len()
        }
        Some(_) => false,
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
    /// A sample rate that is not a positive finite number.
    BadRate {
        /// 1-based line number of the `RATE` line.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A second `FUNCTION` for a resource the testcase exercises already.
    DuplicateFunction {
        /// 1-based line number of the second `FUNCTION` line.
        line: usize,
        /// The resource named twice.
        resource: Resource,
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
            ParseError::BadRate { line, token } => {
                write!(f, "line {line}: sample rate {token:?} is not a positive finite number")
            }
            ParseError::DuplicateFunction { line, resource } => {
                write!(f, "line {line}: second FUNCTION for {resource}")
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
    words: Words<'a>,
    /// The length of the whole input: no `FUNCTION` in it holds more
    /// values than half of that.
    len: usize,
}

impl<'a> Tokens<'a> {
    fn new(input: &'a str) -> Self {
        Tokens {
            lines: input.lines().enumerate(),
            line: 0,
            words: words(""),
            len: input.len(),
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
            self.words = words(line);
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

    /// The next token, parsed as a `T`.
    fn expect<T: std::str::FromStr>(&mut self) -> Result<(usize, &'a str, T), ParseError> {
        let (line, t) = self.next().ok_or(ParseError::UnexpectedEof)?;
        match t.parse() {
            Ok(v) => Ok((line, t, v)),
            Err(_) => Err(ParseError::BadNumber {
                line,
                token: t.to_string(),
            }),
        }
    }
}

/// How a walk over testcase text takes a `FUNCTION`'s values: [`parse`]
/// converts them (`Vec<f64>`), [`check`] only holds them to `f64`'s
/// grammar ([`is_f64`]) and keeps nothing (`()`).
trait Values: Sized {
    fn take(toks: &mut Tokens<'_>, count: usize) -> Result<Self, ParseError>;
}

impl Values for Vec<f64> {
    fn take(toks: &mut Tokens<'_>, count: usize) -> Result<Self, ParseError> {
        // The count is input: size the values by what the text can hold.
        let mut values = Vec::with_capacity(count.min(toks.len / 2));
        for _ in 0..count {
            values.push(toks.expect::<f64>()?.2);
        }
        Ok(values)
    }
}

impl Values for () {
    fn take(toks: &mut Tokens<'_>, count: usize) -> Result<Self, ParseError> {
        for _ in 0..count {
            match toks.next() {
                Some((_, t)) if is_f64(t) => {}
                Some((line, t)) => {
                    return Err(ParseError::BadNumber {
                        line,
                        token: t.to_string(),
                    })
                }
                None => return Err(ParseError::UnexpectedEof),
            }
        }
        Ok(())
    }
}

/// One testcase after its `TESTCASE` keyword — the grammar [`parse`] and
/// [`check`] share. Hands each function to `function` with its values
/// taken as `V`, and returns the id and the rate. A rate that is not a
/// positive finite number, or a resource named twice, is refused where
/// building the testcase would first meet it: the rate at the end of a
/// function or at `END`, the repeat at `END`.
fn walk<'a, V: Values>(
    toks: &mut Tokens<'a>,
    mut function: impl FnMut(Resource, f64, V),
) -> Result<(&'a str, f64), ParseError> {
    let (_, id) = toks.next().ok_or(ParseError::UnexpectedEof)?;
    toks.expect_keyword("RATE")?;
    let (rate_line, rate_token, rate) = toks.expect::<f64>()?;
    let check_rate = || match rate > 0.0 && rate.is_finite() {
        true => Ok(()),
        false => Err(ParseError::BadRate {
            line: rate_line,
            token: rate_token.to_string(),
        }),
    };
    let mut named = 0u8;
    let mut repeat = None;
    loop {
        match toks.next() {
            Some((_, "END")) => break,
            Some((line, "FUNCTION")) => {
                let (rline, rtok) = toks.next().ok_or(ParseError::UnexpectedEof)?;
                let resource: Resource = rtok.parse().map_err(|_| ParseError::BadResource {
                    line: rline,
                    token: rtok.to_string(),
                })?;
                let (_, _, count) = toks.expect::<usize>()?;
                let values = V::take(toks, count)?;
                check_rate()?;
                let bit = 1u8 << resource as u8;
                if named & bit != 0 && repeat.is_none() {
                    repeat = Some(ParseError::DuplicateFunction { line, resource });
                }
                named |= bit;
                function(resource, rate, values);
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
    check_rate()?;
    match repeat {
        Some(e) => Err(e),
        None => Ok((id, rate)),
    }
}

/// Refuses anything after a testcase's `END` but comments and blank
/// lines.
fn expect_end(toks: &mut Tokens<'_>) -> Result<(), ParseError> {
    match toks.next() {
        None => Ok(()),
        Some((line, t)) => Err(ParseError::Expected {
            what: "end of input",
            line,
            found: t.to_string(),
        }),
    }
}

/// Parses exactly one testcase from the input: anything after its
/// `END` but comments and blank lines is an error.
pub fn parse(input: &str) -> Result<Testcase, ParseError> {
    let mut toks = Tokens::new(input);
    toks.expect_keyword("TESTCASE")?;
    let tc = parse_after_keyword(&mut toks)?;
    expect_end(&mut toks)?;
    Ok(tc)
}

/// [`parse`]'s verdict on the input without building the testcase: the
/// id of the one testcase it holds, or the error `parse` gives. Values
/// are held to `f64`'s grammar and not converted.
pub fn check(input: &str) -> Result<&str, ParseError> {
    let mut toks = Tokens::new(input);
    toks.expect_keyword("TESTCASE")?;
    let (id, _) = walk::<()>(&mut toks, |_, _, ()| {})?;
    expect_end(&mut toks)?;
    Ok(id)
}

/// Parses every testcase in the input (possibly zero).
pub fn parse_many(input: &str) -> Result<Vec<Testcase>, ParseError> {
    let mut toks = Tokens::new(input);
    let mut out = Vec::new();
    loop {
        match toks.next() {
            None => return Ok(out),
            Some((_, "TESTCASE")) => out.push(parse_after_keyword(&mut toks)?),
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

fn parse_after_keyword(toks: &mut Tokens<'_>) -> Result<Testcase, ParseError> {
    let mut functions = Vec::new();
    let (id, rate) = walk(toks, |resource, rate, values| {
        functions.push(ExerciseFunction::from_values(resource, rate, values))
    })?;
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

    #[test]
    fn words_are_split_whitespace() {
        let spaces = [
            " ", "\t", "\r", "\n", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
            "\u{feff}", "\u{200b}", "\u{1c}",
        ];
        let words_of = ["", "a", "END", "caf\u{e9}", "1.5"];
        for a in spaces {
            for b in spaces {
                for w in words_of {
                    for line in [
                        format!("{a}{w}{b}"),
                        format!("{w}{a}{w}{b}{w}"),
                        format!("{a}{b}OBS{a}cpu{b}{w}"),
                    ] {
                        let want: Vec<&str> = line.split_whitespace().collect();
                        assert_eq!(words(&line).collect::<Vec<_>>(), want, "{line:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn is_f64_is_the_grammar_f64_parses() {
        let alphabet = b"09.eE+-inafINFx ";
        let mut token = Vec::new();
        // Every token of up to four bytes over the alphabet.
        fn each(alphabet: &[u8], token: &mut Vec<u8>, left: usize) {
            let s = std::str::from_utf8(token).unwrap();
            assert_eq!(is_f64(s), s.parse::<f64>().is_ok(), "{s:?}");
            if left > 0 {
                for &c in alphabet {
                    token.push(c);
                    each(alphabet, token, left - 1);
                    token.pop();
                }
            }
        }
        each(alphabet, &mut token, 4);
        for s in [
            "infinity", "-Infinity", "+INFINITY", "infinit", "infinityy", "nan", "-NaN", "nan1",
            "1e308", "1e999", "-0.0e-0", ".5e+10", "5.e5", "1.5e", "1__0", "٣",
            "0000000000000000000000000000001.00000000000000000000000000001e-0000000000000000001",
        ] {
            assert_eq!(is_f64(s), s.parse::<f64>().is_ok(), "{s:?}");
        }
    }

    /// `check` gives `parse`'s verdict: the id it would build, or its
    /// error.
    fn assert_checks_like_parse(text: &str) {
        let want = parse(text).map(|tc| tc.id.as_str().to_string());
        assert_eq!(check(text).map(str::to_string), want, "{text:?}");
    }

    #[test]
    fn check_is_parse_without_the_values() {
        let good = emit(&sample_tc());
        assert_checks_like_parse(&good);
        for n in 0..good.len() {
            if good.is_char_boundary(n) {
                assert_checks_like_parse(&good[..n]);
            }
        }
        for (from, to) in [
            ("0.5", "0.5x"),
            ("RATE 2", "RATE nan"),
            ("RATE 2", "RATE 0"),
            ("RATE 2", "RATE -1"),
            ("RATE 2", "RATE inf"),
            ("FUNCTION disk", "FUNCTION cpu"),
            ("FUNCTION disk 20", "FUNCTION disk 1000000000000"),
            ("FUNCTION disk 20", "FUNCTION disk 18446744073709551615"),
            ("END", "END\nTESTCASE"),
            (" ", "\u{b}"),
            (" ", "\u{a0}"),
            ("\n", "\r\n"),
        ] {
            assert_checks_like_parse(&good.replacen(from, to, 1));
        }
    }

    /// Text that names more values than it holds, or a rate or resource
    /// no testcase can have, is refused — never an allocation it cannot
    /// make or an assertion that stops the process.
    #[test]
    fn untrusted_counts_and_rates_are_refused() {
        for count in ["1000000000000", "18446744073709551615"] {
            let text = format!("TESTCASE t\nRATE 1\nFUNCTION cpu {count}\n0 1\nEND\n");
            assert_eq!(parse(&text), Err(ParseError::BadNumber { line: 5, token: "END".into() }));
            assert_eq!(parse_many(&text).unwrap_err(), parse(&text).unwrap_err());
            let torn = format!("TESTCASE t\nRATE 1\nFUNCTION cpu {count}\n0 1\n");
            assert_eq!(parse(&torn), Err(ParseError::UnexpectedEof));
        }
        for rate in ["0", "-1", "nan", "inf", "-0"] {
            for body in ["FUNCTION cpu 2\n0 1\n", ""] {
                let text = format!("TESTCASE t\nRATE {rate}\n{body}END\n");
                let err = ParseError::BadRate { line: 2, token: rate.into() };
                assert_eq!(parse(&text), Err(err.clone()), "{text:?}");
                assert_eq!(check(&text), Err(err), "{text:?}");
            }
        }
        assert_eq!(
            parse("TESTCASE t\nRATE 0\nFROB\n").unwrap_err().to_string(),
            "line 3: expected FUNCTION or END, found \"FROB\""
        );
        let twice = "TESTCASE t\nRATE 1\nFUNCTION cpu 1\n0\nFUNCTION disk 1\n0\nFUNCTION cpu 1\n0\nEND\n";
        let err = ParseError::DuplicateFunction { line: 7, resource: Resource::Cpu };
        assert_eq!(err.to_string(), "line 7: second FUNCTION for cpu");
        assert_eq!(parse(twice), Err(err.clone()));
        assert_eq!(check(twice), Err(err));
        assert_eq!(
            ParseError::BadRate { line: 2, token: "0".into() }.to_string(),
            "line 2: sample rate \"0\" is not a positive finite number"
        );
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
