//! A hand-rolled JSON emitter with stable key ordering.
//!
//! The workspace is hermetic — no serde — and the simulator's JSON needs
//! are narrow: flat-ish objects of numbers and strings whose dumps must
//! diff cleanly between runs. This module provides a tiny append-only
//! writer plus `to_json` implementations for the statistics types. Keys
//! are emitted exactly in the order the caller writes them (for the
//! registry: insertion order), so two runs that compute the same stats
//! produce byte-identical documents.
//!
//! Number formatting is part of the contract: integers print exactly,
//! floats print via [`fmt_f64`] (shortest round-trip representation, with
//! non-finite values mapped to `null` since JSON has no NaN/Infinity).

use std::fmt::Write as _;

use crate::registry::{StatValue, StatsRegistry};

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number: shortest representation that
/// round-trips, `null` for NaN/±∞ (JSON has no non-finite literals).
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// An append-only JSON object writer.
///
/// ```
/// use sim_stats::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("scheme", "re-nuca");
/// o.field_u64("writes", 42);
/// o.field_f64("ipc", 1.5);
/// assert_eq!(o.finish(), r#"{"scheme":"re-nuca","writes":42,"ipc":1.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape(name));
    }

    /// Add a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Add an integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a float field (non-finite values become `null`).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&fmt_f64(value));
        self
    }

    /// Add a field whose value is already-serialized JSON (object, array…).
    pub fn field_raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return the document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serialize a float slice as a JSON array via [`fmt_f64`].
pub fn f64_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| fmt_f64(x)).collect();
    format!("[{}]", items.join(","))
}

/// Serialize a u64 slice as a JSON array.
pub fn u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Join already-serialized JSON fragments into a JSON array.
pub fn raw_array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

impl StatValue {
    /// The value as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            StatValue::Int(v) => v.to_string(),
            StatValue::Float(v) => fmt_f64(*v),
            StatValue::Text(s) => format!("\"{}\"", escape(s)),
        }
    }
}

impl StatsRegistry {
    /// Serialize as a JSON object, keys in insertion order — so two runs
    /// that register the same statistics produce byte-identical dumps.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (k, v) in self.iter() {
            o.field_raw(k, &v.to_json());
        }
        o.finish()
    }
}

/// A parsed JSON value.
///
/// The counterpart of the emitter above: the campaign aggregator reads
/// `renuca-manifest-v1` documents back, and the verification tooling
/// re-checks emitted reports. Objects keep their key order as a `Vec` of
/// pairs — the same insertion-order philosophy as [`StatsRegistry`], and
/// manifests are small enough that linear key lookup is free.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, keys in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (linear scan; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (`Num` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exactly-representable unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(xs) => Some(xs),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns the root value or an error naming the
/// byte offset of the problem. Trailing non-whitespace is an error, as is
/// nesting deeper than 128 levels (the emitter never produces either).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Recursive-descent parser state. `pos` only ever advances past ASCII
/// bytes or whole characters, so it always sits on a char boundary of
/// `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: the emitter never writes them
                            // (it only \u-escapes control characters), but
                            // accept well-formed pairs for completeness.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "invalid surrogate pair at byte {}",
                                        self.pos
                                    ));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| {
                                    format!("bad code point at byte {}", self.pos)
                                })?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos))
                }
                Some(_) => {
                    // Consume one whole character (`pos` is on a char
                    // boundary, see `Parser`).
                    let c = self.text[self.pos..].chars().next().expect("not at end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_null() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let x = 1.0 / 3.0;
        assert_eq!(fmt_f64(x).parse::<f64>().unwrap(), x);
    }

    #[test]
    fn object_builds_in_field_order() {
        let mut o = JsonObject::new();
        o.field_str("b", "x").field_u64("a", 1);
        assert_eq!(o.finish(), r#"{"b":"x","a":1}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn registry_json_preserves_insertion_order() {
        let mut r = StatsRegistry::new();
        r.set("z.last", 1u64);
        r.set("a.first", 2.5f64);
        r.set("name", "wl1");
        assert_eq!(r.to_json(), r#"{"z.last":1,"a.first":2.5,"name":"wl1"}"#);
    }

    #[test]
    fn registry_json_is_stable_across_identical_runs() {
        let build = || {
            let mut r = StatsRegistry::new();
            r.set("l3.writes", 42u64);
            r.set("core0.ipc", 1.25f64);
            r.to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn arrays_render() {
        assert_eq!(f64_array(&[1.0, 2.5]), "[1,2.5]");
        assert_eq!(u64_array(&[3, 4]), "[3,4]");
        assert_eq!(f64_array(&[]), "[]");
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let mut o = JsonObject::new();
        o.field_str("name", "wl\"1\"\n")
            .field_u64("writes", 42)
            .field_f64("ipc", 1.0 / 3.0)
            .field_raw("banks", &f64_array(&[1.0, f64::NAN]))
            .field_raw("cfg", "null");
        let doc = o.finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("wl\"1\"\n"));
        assert_eq!(v.get("writes").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ipc").unwrap().as_f64(), Some(1.0 / 3.0));
        let banks = v.get("banks").unwrap().as_array().unwrap();
        assert_eq!(banks[0].as_f64(), Some(1.0));
        assert_eq!(banks[1], JsonValue::Null);
        assert_eq!(v.get("cfg"), Some(&JsonValue::Null));
    }

    #[test]
    fn parse_preserves_object_key_order() {
        let v = parse(r#"{"z":1,"a":[true,false,null],"m":{"x":-2.5e3}}"#).unwrap();
        match &v {
            JsonValue::Object(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("not an object: {other:?}"),
        }
        assert_eq!(
            v.get("m").unwrap().get("x").unwrap().as_f64(),
            Some(-2500.0)
        );
        assert_eq!(v.get("m").unwrap().get("x").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"bad \\q escape\"",
            "nan",
            // `\u` takes exactly four hex digits: no sign, no short form.
            "\"\\u+041\"",
            "\"\\u41\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
        assert_eq!(
            parse("\"A\\ud83d\\ude00\"").unwrap().as_str(),
            Some("A😀"),
            "surrogate pair decodes"
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn parse_depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }
}
