//! A small JSON value, writer and parser: the workspace is std-only, so
//! the result files, the driver's result line, `BENCHMARK.json` and the
//! servers' `STATS` snapshots are all handled here.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value. Objects keep insertion order (metric tables print in
/// the order they were built).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Serializes on one line.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // Whole numbers print without a fraction; everything else
            // keeps every digit Rust's shortest round-trip form has.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                write!(out, "{}", *n as i64).expect("write to string")
            }
            Json::Num(n) => write!(out, "{n}").expect("write to string"),
            Json::Str(s) => emit_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    emit_str(k, out);
                    out.push_str(": ");
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// The counters, gauges and histogram digests of one server `STATS`
/// snapshot (`uucs_telemetry::metrics::snapshot_json`).
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, f64>,
    /// Gauges (current values).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms as `(count, mean)`. The quantiles are log2 bucket
    /// bounds (a p50 reads 524287 or 1048575 ns), so only the exact
    /// fields are kept: timings come from the benchmark's own spans.
    pub histograms: BTreeMap<String, (f64, f64)>,
}

impl StatsSnapshot {
    /// Parses a `STATS` reply body.
    pub fn parse(json: &str) -> Result<StatsSnapshot, String> {
        let doc = Json::parse(json)?;
        let numbers = |section: &str| -> BTreeMap<String, f64> {
            doc.get(section)
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect()
        };
        let histograms = doc
            .get("histograms")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| {
                let count = v.get("count")?.as_f64()?;
                let mean = v.get("mean_ns")?.as_f64()?;
                Some((k.clone(), (count, mean)))
            })
            .collect();
        Ok(StatsSnapshot {
            counters: numbers("counters"),
            gauges: numbers("gauges"),
            histograms,
        })
    }

    /// Counter `name` in `self` minus the same counter in `before`: the
    /// servers are never sent `STATS RESET` (it zeroes gauges too), so a
    /// window's count is always a difference of two snapshots.
    pub fn counter_since(&self, before: &StatsSnapshot, name: &str) -> f64 {
        let at = |s: &StatsSnapshot| s.counters.get(name).copied().unwrap_or(0.0);
        at(self) - at(before)
    }

    /// Mean of the values histogram `name` recorded between `before`
    /// and `self`, from the exact count and (integer) mean fields.
    pub fn hist_mean_since(&self, before: &StatsSnapshot, name: &str) -> f64 {
        let at = |s: &StatsSnapshot| s.histograms.get(name).copied().unwrap_or((0.0, 0.0));
        let (c1, m1) = at(self);
        let (c0, m0) = at(before);
        if c1 <= c0 {
            return 0.0;
        }
        (c1 * m1 - c0 * m0) / (c1 - c0)
    }

    /// Sum of every gauge whose name starts with `prefix` and ends with
    /// `suffix` (the per-shard occupancy gauges).
    pub fn gauge_sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.gauge_values(prefix, suffix).iter().sum()
    }

    /// Every gauge value whose name starts with `prefix` and ends with
    /// `suffix`.
    pub fn gauge_values(&self, prefix: &str, suffix: &str) -> Vec<f64> {
        self.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([(
                    "op_p50_ms",
                    Json::obj([
                        ("value", Json::Num(1.2034)),
                        ("unit", Json::Str("ms".into())),
                    ]),
                )]),
            ),
            (
                "notes",
                Json::Arr(vec![Json::Null, Json::Str("a \"b\"\n".into())]),
            ),
        ]);
        let text = doc.emit();
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(text.contains("\"attempted\": 1000,"), "{text}");
        assert!(text.contains("1.2034"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn counters_are_differenced_not_reset() {
        let before = StatsSnapshot::parse(
            r#"{"counters":{"server.verb.upload.count":10,"server.commit.count":4},
                "gauges":{"server.shard.results.0.records":7,"server.shard.results.1.records":5,
                          "server.config.shards":2},
                "histograms":{"server.commit.batch":{"count":4,"mean_ns":2,"p50_ns":3,"p90_ns":3,"p99_ns":3,"max_ns":3}}}"#,
        )
        .unwrap();
        let after = StatsSnapshot::parse(
            r#"{"counters":{"server.verb.upload.count":110,"server.commit.count":24},
                "gauges":{"server.shard.results.0.records":107,"server.shard.results.1.records":105},
                "histograms":{"server.commit.batch":{"count":24,"mean_ns":7,"p50_ns":7,"p90_ns":15,"p99_ns":15,"max_ns":9}}}"#,
        )
        .unwrap();
        assert_eq!(
            after.counter_since(&before, "server.verb.upload.count"),
            100.0
        );
        assert_eq!(after.counter_since(&before, "server.commit.count"), 20.0);
        assert_eq!(after.counter_since(&before, "absent"), 0.0);
        // (24*7 - 4*2) / 20 = 8
        assert_eq!(after.hist_mean_since(&before, "server.commit.batch"), 8.0);
        assert_eq!(before.gauge_sum("server.shard.results.", ".records"), 12.0);
        assert_eq!(after.gauge_sum("server.shard.results.", ".records"), 212.0);
    }
}
