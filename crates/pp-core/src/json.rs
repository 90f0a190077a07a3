//! The workspace's one JSON codec: a value type, a limit-checked
//! recursive-descent parser and a canonical writer.
//!
//! The workspace's `serde` is a vendored no-op facade (no registry access),
//! so every document — checkpoints, results, scenarios, job records,
//! protocol lines, metrics, traces, benchmark records — is read through
//! [`Json::parse`] and written as a [`Json`] value or, where a value tree
//! would cost (checkpoints), streamed through the same [`write_json_string`]
//! and [`write_f64`].  The parser takes the full scalar set so foreign
//! clients cannot wedge a reader with well-formed JSON.
//!
//! Two properties the workspace relies on:
//!
//! * **Deterministic output.**  Objects keep insertion order (a `Vec` of
//!   pairs, not a hash map) and floats print through Rust's shortest
//!   round-trip `Display` (non-finite ones as `null`), so writing the same
//!   value twice yields the same bytes, and every document the workspace
//!   writes re-serializes to itself (`tests/json_codec.rs`).
//! * **Integer exactness.**  Interaction counts exceed 2^53, so integers
//!   parse into `u64`/`i64` variants and never detour through `f64`.
//!
//! The parser recurses once per nested array or object, so it refuses
//! documents nested deeper than [`MAX_NESTING`] levels with a named error
//! instead of overflowing the stack on hostile input.

use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts.  The deepest
/// document the workspace writes has 6 levels: a `done` event (or `result`
/// reply) embedding an ensemble result document, down to a replica's final
/// `supports` array.
pub const MAX_NESTING: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact; counts exceed 2^53).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent part.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (deterministic re-serialization).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; precision loss past 2^53 is
    /// the caller's concern).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs, in document order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes the value to compact JSON (no whitespace).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => out.push_str(&write_f64(*v)),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a position-stamped message on malformed input, including
    /// nesting deeper than [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

/// A finite float in Rust's shortest round-trip form, `null` otherwise
/// (JSON has no NaN/∞) — the workspace's one float writer.
#[must_use]
pub fn write_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\\` are
/// backslash-escaped, newline, carriage return and tab use their short
/// escapes, and the other control characters use `\u00XX`, so a written
/// document never holds a raw line break.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_NESTING {
        return Err(format!(
            "nesting deeper than the limit of {MAX_NESTING} arrays/objects at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected {literal:?} at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not reassembled: the workspace's
                        // own output never emits them (the writer escapes
                        // only control characters), foreign ones map to the
                        // replacement character instead of an error.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {other:?} at byte {}", *pos));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain characters up to the next quote or
                // backslash.  Both are ASCII, so the run ends on a char
                // boundary of the input, which is a &str.
                let len = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let run =
                    std::str::from_utf8(&bytes[*pos..*pos + len]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut fractional = false;
    if bytes.get(*pos) == Some(&b'.') {
        fractional = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        fractional = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if !fractional {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

/// An insertion-ordered object builder — the writer the workspace's
/// canonical documents go through.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    pairs: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.pairs.push((key.to_string(), value));
        self
    }

    /// Appends `key: value` only when `value` is `Some` — the omit-none
    /// convention that keeps serialize → parse → serialize byte-stable.
    #[must_use]
    pub fn opt(self, key: &str, value: Option<Json>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "-7",
            "2.5",
            "\"hi \\\"there\\\"\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let parsed = Json::parse(doc).unwrap();
            assert_eq!(parsed.to_json(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn large_counts_stay_exact() {
        let doc = format!("{{\"interactions\":{}}}", u64::MAX);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("interactions").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn float_display_is_idempotent() {
        // Display ∘ parse ∘ Display is a fixed point: the second pass
        // serializes to the same bytes, which is all the round-trip
        // contract needs.
        for x in [0.1 + 0.2, 1.0 / 3.0, 2.0, 1e-9, 123456.789] {
            let once = write_f64(x);
            let back = Json::parse(&once).unwrap().as_f64().unwrap();
            assert_eq!(write_f64(back), once);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = "{\"z\":1,\"a\":2}";
        assert_eq!(Json::parse(doc).unwrap().to_json(), doc);
    }

    #[test]
    fn malformed_documents_fail_with_positions() {
        for doc in ["{", "[1,]", "\"abc", "{\"a\":}", "12 34", "nul"] {
            assert!(Json::parse(doc).is_err(), "{doc} should fail");
        }
    }

    #[test]
    fn hostile_nesting_fails_with_the_named_limit() {
        let brackets = "[".repeat(300_000);
        let objects = "{\"a\":".repeat(300_000 / 5);
        for doc in [brackets.as_str(), objects.as_str()] {
            let err = Json::parse(doc).unwrap_err();
            assert!(err.contains("nesting deeper than the limit"), "{err}");
        }
        // The limit itself parses; one level more does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).unwrap_err().contains("at byte 64"));
    }

    #[test]
    fn control_characters_escape_and_restore() {
        let original = "line\nbreak\ttab \u{0001} end";
        let mut out = String::new();
        write_json_string(original, &mut out);
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some(original));
    }
}
