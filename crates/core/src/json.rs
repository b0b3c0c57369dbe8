//! The JSON codec shared by every JSON format in the workspace: chaos
//! repro artifacts and power-tree topology specs.
//!
//! The container is offline, so (like `mpr-lint`'s report writer) documents
//! are encoded by hand against fixed schemas and decoded with a small
//! recursive-descent parser covering the JSON subset those schemas use:
//! objects, arrays, strings, numbers, booleans and `null`. Numbers are
//! written with Rust's shortest round-trip formatting (`{:?}`), so every
//! `f64` replays bit-identically; `u64` seeds are written as strings to
//! dodge the 2^53 precision cliff of JSON numbers. An object that repeats
//! a key keeps the key's **first** value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. A repeated object key keeps its first value.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_owned(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(&c) = b.get(*pos) {
        if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, ParseError> {
    if b.get(*pos..)
        .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
    {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    b.get(start..*pos)
        .and_then(|digits| std::str::from_utf8(digits).ok())
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| err(start, "invalid number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    // Opening quote.
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let ch_len = utf8_len(c);
                let slice = b
                    .get(*pos..*pos + ch_len)
                    .ok_or_else(|| err(*pos, "truncated UTF-8"))?;
                let s =
                    std::str::from_utf8(slice).map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                out.push_str(s);
                *pos += ch_len;
            }
            None => return Err(err(*pos, "unterminated string")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xf0..=0xf7 => 4,
        0xe0..=0xef => 3,
        0xc0..=0xdf => 2,
        _ => 1,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    // Opening bracket.
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    // Opening brace.
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.entry(key).or_insert(value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer.

/// Escapes a string for inclusion in JSON output.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it parses back to the same bits: Rust's shortest
/// round-trip representation, with non-finite values (absent from JSON)
/// written as sentinel strings the parser never produces for numbers.
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("\"{v:?}\"")
    }
}

/// An incremental writer for one object literal.
#[derive(Debug, Default)]
pub struct ObjWriter {
    fields: Vec<(String, String)>,
}

impl ObjWriter {
    /// An empty object writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw (pre-encoded) field.
    pub fn raw(&mut self, key: &str, encoded: impl Into<String>) -> &mut Self {
        self.fields.push((key.to_owned(), encoded.into()));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", escape(v)))
    }

    /// Adds a number field.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, num(v))
    }

    /// Adds a `u64` field, encoded as a string to stay lossless.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, format!("\"{v}\""))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// Renders the object with the given indent level (2 spaces per level).
    #[must_use]
    pub fn render(&self, indent: usize) -> String {
        if self.fields.is_empty() {
            return "{}".to_owned();
        }
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k)))
            .collect();
        format!("{{\n{}\n{close}}}", body.join(",\n"))
    }
}

/// Fetches `key` from an object, with a uniform error.
///
/// # Errors
///
/// Returns an error naming the missing key.
pub fn field<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, ParseError> {
    obj.get(key).ok_or_else(|| ParseError {
        at: 0,
        message: format!("missing field `{key}`"),
    })
}

/// Fetches a `u64` encoded as a decimal string (see [`ObjWriter::u64`]).
///
/// # Errors
///
/// Returns an error when the field is missing or not a decimal string.
pub fn field_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, ParseError> {
    field(obj, key)?
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError {
            at: 0,
            message: format!("field `{key}` is not a u64 string"),
        })
}

/// Fetches an `f64` number field.
///
/// # Errors
///
/// Returns an error when the field is missing or not a number.
pub fn field_num(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, ParseError> {
    field(obj, key)?.as_num().ok_or_else(|| ParseError {
        at: 0,
        message: format!("field `{key}` is not a number"),
    })
}

/// Fetches a boolean field.
///
/// # Errors
///
/// Returns an error when the field is missing or not a boolean.
pub fn field_bool(obj: &BTreeMap<String, Value>, key: &str) -> Result<bool, ParseError> {
    field(obj, key)?.as_bool().ok_or_else(|| ParseError {
        at: 0,
        message: format!("field `{key}` is not a boolean"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_round_trip() {
        let mut w = ObjWriter::new();
        w.str("name", "power-cap")
            .num("oversub", 17.25)
            .u64("seed", u64::MAX)
            .bool("active", true)
            .raw("plan", "null");
        let text = w.render(0);
        let v = parse(&text).expect("parses");
        let obj = v.as_obj().expect("object");
        assert_eq!(field(obj, "name").unwrap().as_str(), Some("power-cap"));
        assert_eq!(field_num(obj, "oversub").unwrap(), 17.25);
        assert_eq!(field_u64(obj, "seed").unwrap(), u64::MAX);
        assert!(field_bool(obj, "active").unwrap());
        assert_eq!(field(obj, "plan").unwrap(), &Value::Null);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7] {
            let text = num(v);
            let parsed = parse(&text).expect("parses").as_num().expect("number");
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nwith \"quotes\" and \\slash\\ and tabs\t — unicode ✓";
        let text = format!("\"{}\"", escape(s));
        assert_eq!(parse(&text).expect("parses").as_str(), Some(s));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["{", "{\"a\": }", "{\"a\": 1,}", "tru", "\"open", "{} extra"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn arrays_parse() {
        let v = parse("[1, \"two\", [true], {}]").expect("parses");
        let items = v.as_arr().expect("array");
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].as_num(), Some(1.0));
        assert_eq!(items[1].as_str(), Some("two"));
        assert_eq!(items[2].as_arr().map(<[Value]>::len), Some(1));
        assert!(parse("[1,").is_err());
        assert_eq!(
            parse("[]").expect("empty").as_arr().map(<[Value]>::len),
            Some(0)
        );
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let v = parse("{\"a\": 1, \"b\": true, \"a\": 2}").expect("parses");
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.len(), 2);
        assert_eq!(field_num(obj, "a").unwrap(), 1.0);
    }

    #[test]
    fn nested_objects_parse() {
        let v = parse("{\"outer\": {\"inner\": 3}, \"b\": false}").expect("parses");
        let outer = v.as_obj().unwrap();
        let inner = field(outer, "outer").unwrap().as_obj().unwrap();
        assert_eq!(field_num(inner, "inner").unwrap(), 3.0);
    }
}
