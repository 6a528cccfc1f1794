//! A minimal JSON value type with a parser and two emitters.
//!
//! The repository is offline-only (no `serde`), so everything that speaks
//! JSON — the wire protocol, the on-disk result cache, `table1 --json`,
//! and `mct analyze --json` — goes through this one module instead of
//! hand-writing `write!` calls at every call site (which is how the
//! benchmark table used to do it).
//!
//! Integers and floats are kept distinct: a `gates` count must print as
//! `7`, while a delay of `7` prints as `7.0` (matching the original
//! hand-rolled table emitter). Float emission uses Rust's shortest
//! round-trip formatting, so a value survives emit → parse → emit
//! byte-identically — the property the content-addressed cache's
//! bit-identical replay guarantee rests on.
//!
//! # Examples
//!
//! ```
//! use mct_serve::json::Json;
//! let v = Json::parse(r#"{"name":"s27","mct":2.5,"gates":10}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("s27"));
//! assert_eq!(v.get("mct").and_then(Json::as_f64), Some(2.5));
//! assert_eq!(v.get("gates").and_then(Json::as_i64), Some(10));
//! assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
//! ```

use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent in the source.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with a byte offset into the source text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte position of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte position of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Emits on a single line with no spaces — the wire format.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None, 0);
        out
    }

    /// One wire message: the compact form and its terminating newline in
    /// one buffer, so a single `write_all` sends it as one TCP segment.
    /// (Writing the newline separately leaves it as a second segment that
    /// Nagle's algorithm holds until the peer's delayed ACK.)
    pub fn to_line(&self) -> Vec<u8> {
        let mut out = self.to_compact();
        out.push('\n');
        out.into_bytes()
    }

    /// Emits with two-space indentation — the human-facing format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(2), 0);
        out
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload: an `Int`, or a `Float` with integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Float(f) if f == f.trunc() && f.abs() < 9.2e18 => Some(f as i64),
            _ => None,
        }
    }

    /// The numeric payload of an `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn emit(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => out.push_str(&format_f64(*f)),
            Json::Str(s) => emit_string(out, s),
            Json::Arr(items) => emit_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].emit(out, indent, level + 1);
            }),
            Json::Obj(fields) => emit_seq(out, indent, level, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                emit_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.emit(out, indent, level + 1);
            }),
        }
    }
}

fn emit_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (level + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Formats a float the way the original table emitter did: integral values
/// keep one decimal (`4` → `"4.0"`), everything else uses Rust's shortest
/// round-trip form. Non-finite values have no JSON spelling and emit as
/// `null`; the report layer never produces them (infinite interval ends
/// are mapped to `null` explicitly).
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_owned()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require a \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let code = 0x10000
                                        + ((hi - 0xd800) as u32) * 0x400
                                        + (lo.wrapping_sub(0xdc00)) as u32;
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        } else {
            // Fall back to float for integers past i64 range.
            text.parse::<i64>().map(Json::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err(format!("bad number `{text}`")))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":""}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Str(String::new())));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{0001} ünïcode 🦀";
        let emitted = Json::Str(original.into()).to_compact();
        assert_eq!(
            Json::parse(&emitted).unwrap(),
            Json::Str(original.to_owned())
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé🦀""#).unwrap(), Json::Str("Aé🦀".into()));
        assert!(Json::parse(r#""\ud800""#).is_err()); // unpaired surrogate
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn compact_and_pretty_agree() {
        let v = Json::parse(r#"{"rows":[{"x":1,"y":2.5}],"n":3}"#).unwrap();
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(v.to_compact(), r#"{"rows":[{"x":1,"y":2.5}],"n":3}"#);
    }

    #[test]
    fn pretty_layout_matches_table_style() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(1)),
            ("b".into(), Json::Arr(vec![Json::Int(2)])),
        ]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn float_formatting_matches_legacy_emitter() {
        assert_eq!(format_f64(4.0), "4.0");
        assert_eq!(format_f64(2.5), "2.5");
        assert_eq!(format_f64(0.375), "0.375");
        assert_eq!(format_f64(-3.0), "-3.0");
    }

    #[test]
    fn float_emission_roundtrips_bit_identically() {
        for v in [2.5f64, 1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let emitted = Json::Float(v).to_compact();
            let Json::Float(back) = Json::parse(&emitted).unwrap() else {
                panic!("float parsed as non-float");
            };
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {emitted}");
            assert_eq!(Json::Float(back).to_compact(), emitted);
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        let v = Json::parse(r#"{"i":7,"f":7.0}"#).unwrap();
        assert_eq!(v.get("i"), Some(&Json::Int(7)));
        assert_eq!(v.get("f"), Some(&Json::Float(7.0)));
        assert_eq!(v.to_compact(), r#"{"i":7,"f":7.0}"#);
    }
}
