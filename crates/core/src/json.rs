//! The workspace's one JSON codec: a minimal parser, string escaper and
//! ordered object writer.
//!
//! The workspace is hermetic (no serde), so the serve protocol's JSONL
//! framing, the chaos grid's `--json` summary and the benchmark reports
//! all go through this small recursive-descent parser and object writer. The parser accepts exactly the JSON grammar
//! (RFC 8259) with a nesting-depth cap; the writer emits fields in
//! insertion order so responses are byte-deterministic.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts; a hostile request cannot
/// recurse the stack arbitrarily deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, with fields in source order; on duplicate keys,
    /// [`get`](Json::get) returns the first.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object; `None` for missing fields and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part within the exactly-representable `f64` range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the failure.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.fail("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, message: &str) -> String {
        format!("byte {}: {}", self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.fail("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.fail("expected ':' after key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Object(fields));
            }
            return Err(self.fail("expected ',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            return Err(self.fail("expected ',' or ']' in array"));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.fail("invalid escape character")),
                    }
                }
                _ if byte < 0x20 => return Err(self.fail("raw control character in string")),
                _ => {
                    // Re-borrow the full UTF-8 character starting at byte.
                    let start = self.pos - 1;
                    let len = utf8_len(byte);
                    let end = start + len;
                    let Some(slice) = self.bytes.get(start..end) else {
                        return Err(self.fail("truncated UTF-8 sequence"));
                    };
                    let Ok(s) = std::str::from_utf8(slice) else {
                        return Err(self.fail("invalid UTF-8 in string"));
                    };
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by \uXXXX low.
        if (0xD800..0xDC00).contains(&first) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.fail("unpaired surrogate"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.fail("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&first) {
            Err(self.fail("unpaired low surrogate"))
        } else {
            char::from_u32(first).ok_or_else(|| self.fail("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.fail("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => u32::from(byte - b'0'),
                b'a'..=b'f' => u32::from(byte - b'a') + 10,
                b'A'..=b'F' => u32::from(byte - b'A') + 10,
                _ => return Err(self.fail("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.fail("invalid number"));
        };
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            _ => Err(self.fail("invalid number")),
        }
    }
}

/// Byte length of a UTF-8 character from its first byte (1 for malformed
/// leading bytes, letting `from_utf8` report the error).
fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Escapes a string for embedding inside a JSON string literal.
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

/// An ordered JSON object writer: fields render in the order they are
/// added, which is what makes serve responses byte-deterministic.
#[derive(Debug)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Opens an object.
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, name: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, name: &str, value: &str) -> Obj {
        self.key(name);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn usize(mut self, name: &str, value: usize) -> Obj {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field rendered with four decimal places (stable across
    /// platforms, unlike shortest-round-trip formatting of computed sums).
    pub fn f64(mut self, name: &str, value: f64) -> Obj {
        self.key(name);
        let _ = write!(self.buf, "{value:.4}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> Obj {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim.
    pub fn raw(mut self, name: &str, value: &str) -> Obj {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_shapes() {
        let v = parse(r#"{"op":"generate","clusters":32,"deep":{"x":[1,2.5,-3]},"ok":true}"#)
            .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("generate"));
        assert_eq!(v.get("clusters").and_then(Json::as_usize), Some(32));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let deep = v.get("deep").and_then(|d| d.get("x"));
        assert_eq!(
            deep,
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-3.0)
            ]))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "01x",
            "{\"a\":\"\\q\"}",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}é𝄞";
        let rendered = format!("\"{}\"", escape(original));
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse("\"\\ud834\\udd1e\"").unwrap();
        assert_eq!(v.as_str(), Some("𝄞"));
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(3.0).as_usize(), Some(3));
        assert_eq!(Json::Number(3.5).as_usize(), None);
        assert_eq!(Json::Number(-1.0).as_usize(), None);
        assert_eq!(Json::String("3".into()).as_usize(), None);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let fine = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn obj_renders_fields_in_insertion_order() {
        let text = Obj::new()
            .str("id", "a\"b")
            .usize("n", 7)
            .f64("rate", 0.5)
            .bool("ok", true)
            .raw("inner", "{\"x\":1}")
            .finish();
        assert_eq!(
            text,
            "{\"id\":\"a\\\"b\",\"n\":7,\"rate\":0.5000,\"ok\":true,\"inner\":{\"x\":1}}"
        );
        // And the output re-parses.
        assert!(parse(&text).is_ok());
    }
}
