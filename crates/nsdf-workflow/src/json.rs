//! Minimal JSON reading and writing for byte-stable workflow artifacts.
//!
//! Run reports and recompute manifests are compared with `cmp` in CI,
//! so the writers here emit fully deterministic bytes: object keys in
//! sorted order, no whitespace, and `u64` checksums as fixed-width hex
//! strings (JSON numbers cannot carry the full 64-bit range exactly).
//! The reader is a small recursive-descent parser covering exactly the
//! JSON subset those writers produce, plus enough generality (escapes,
//! floats, null/bool) to stay honest about being JSON.

use nsdf_util::{NsdfError, Result};
use std::collections::BTreeMap;

/// A parsed JSON value. Numbers keep their raw token so integers
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse `text` as a single JSON value (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(NsdfError::corrupt(format!("json: trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// The string payload, or an error naming `what`.
    pub fn str_of(&self, what: &str) -> Result<&str> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(NsdfError::corrupt(format!("json: {what} is not a string: {other:?}"))),
        }
    }

    /// The value as an exact `u64` (written as a plain digit token).
    pub fn u64_of(&self, what: &str) -> Result<u64> {
        match self {
            JsonValue::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| NsdfError::corrupt(format!("json: {what} is not a u64: {raw:?}"))),
            other => Err(NsdfError::corrupt(format!("json: {what} is not a number: {other:?}"))),
        }
    }

    /// The array items, or an error naming `what`.
    pub fn arr_of(&self, what: &str) -> Result<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(NsdfError::corrupt(format!("json: {what} is not an array: {other:?}"))),
        }
    }

    /// The object map, or an error naming `what`.
    pub fn obj_of(&self, what: &str) -> Result<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Ok(map),
            other => Err(NsdfError::corrupt(format!("json: {what} is not an object: {other:?}"))),
        }
    }

    /// Required object member `key`.
    pub fn field(&self, key: &str) -> Result<&JsonValue> {
        self.obj_of("value")?
            .get(key)
            .ok_or_else(|| NsdfError::corrupt(format!("json: missing field {key:?}")))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| NsdfError::corrupt("json: unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? != b {
            return Err(NsdfError::corrupt(format!(
                "json: expected {:?} at byte {}",
                b as char, self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(NsdfError::corrupt(format!("json: bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek()? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => {
                Err(NsdfError::corrupt(format!("json: unexpected byte {other:#x} at {}", self.pos)))
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        if !saw_digit {
            return Err(NsdfError::corrupt(format!("json: bad number at byte {start}")));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| NsdfError::corrupt("json: non-utf8 number"))?;
        // Validate the token through the float path; the raw text is kept.
        raw.parse::<f64>().map_err(|_| NsdfError::corrupt(format!("json: bad number {raw:?}")))?;
        Ok(JsonValue::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let Some(slice) = self.bytes.get(self.pos..end) else {
            return Err(NsdfError::corrupt("json: truncated \\u escape"));
        };
        let s = std::str::from_utf8(slice)
            .map_err(|_| NsdfError::corrupt("json: non-utf8 \\u escape"))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| NsdfError::corrupt(format!("json: bad \\u escape {s:?}")))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(NsdfError::corrupt("json: bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| NsdfError::corrupt("json: bad codepoint"))?,
                            );
                        }
                        other => {
                            return Err(NsdfError::corrupt(format!(
                                "json: bad escape \\{:?}",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume the rest of a multi-byte UTF-8 sequence intact.
                    let start = self.pos - 1;
                    let width = utf8_width(b)?;
                    let end = start + width;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| NsdfError::corrupt("json: truncated utf-8"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| NsdfError::corrupt("json: invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(NsdfError::corrupt(format!(
                        "json: expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                other => {
                    return Err(NsdfError::corrupt(format!(
                        "json: expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    )))
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> Result<usize> {
    match first {
        0x00..=0x7F => Ok(1),
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err(NsdfError::corrupt("json: invalid utf-8 lead byte")),
    }
}

/// Append `s` as a JSON string literal onto `out` (same escaping rules as
/// the metrics snapshot writer, so artifacts stay `cmp`-comparable).
pub fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a `u64` as a fixed-width 16-digit hex JSON string. JSON numbers
/// are doubles and silently lose precision past 2^53; checksums and
/// fingerprints use the full 64 bits, so they travel as strings.
pub fn push_hex_u64(v: u64, out: &mut String) {
    out.push('"');
    out.push_str(&format!("{v:016x}"));
    out.push('"');
}

/// Parse a [`push_hex_u64`]-encoded value back.
pub fn parse_hex_u64(v: &JsonValue, what: &str) -> Result<u64> {
    let s = v.str_of(what)?;
    u64::from_str_radix(s, 16)
        .map_err(|_| NsdfError::corrupt(format!("json: {what} is not hex-u64: {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Num("42".into()));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap(), JsonValue::Num("-1.5e3".into()));
        assert_eq!(JsonValue::parse(r#""hi""#).unwrap(), JsonValue::Str("hi".into()));
        let arr = JsonValue::parse("[1, 2, 3]").unwrap();
        assert_eq!(arr.arr_of("a").unwrap().len(), 3);
        let obj = JsonValue::parse(r#"{"b": 2, "a": 1}"#).unwrap();
        assert_eq!(obj.field("a").unwrap().u64_of("a").unwrap(), 1);
        assert_eq!(obj.field("b").unwrap().u64_of("b").unwrap(), 2);
        assert!(JsonValue::parse("{}").unwrap().obj_of("o").unwrap().is_empty());
        assert!(JsonValue::parse("[]").unwrap().arr_of("a").unwrap().is_empty());
    }

    #[test]
    fn u64_round_trips_exactly_at_full_range() {
        for v in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D] {
            let mut s = String::new();
            push_hex_u64(v, &mut s);
            let parsed = parse_hex_u64(&JsonValue::parse(&s).unwrap(), "v").unwrap();
            assert_eq!(parsed, v);
        }
        // Plain decimal tokens also round-trip through Num.
        let text = format!("{}", u64::MAX);
        assert_eq!(JsonValue::parse(&text).unwrap().u64_of("v").unwrap(), u64::MAX);
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g — π 🌍";
        let mut s = String::new();
        push_json_string(nasty, &mut s);
        assert_eq!(JsonValue::parse(&s).unwrap().str_of("s").unwrap(), nasty);
        // Surrogate pair escape form parses too.
        assert_eq!(
            JsonValue::parse(r#""\ud83c\udf0d""#).unwrap().str_of("s").unwrap(),
            "\u{1F30D}"
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"",
            "{\"a\"}",
            "1 2",
            "nul",
            "{\"a\":}",
            "[,]",
            "\"\\x\"",
            "\"\\ud800\"",
            "--1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn typed_accessors_report_mismatches() {
        let v = JsonValue::parse(r#"{"n": 1}"#).unwrap();
        assert!(v.str_of("v").is_err());
        assert!(v.arr_of("v").is_err());
        assert!(v.field("missing").is_err());
        assert!(v.field("n").unwrap().obj_of("n").is_err());
        assert!(JsonValue::parse("1.5").unwrap().u64_of("v").is_err());
        assert!(JsonValue::parse("-3").unwrap().u64_of("v").is_err());
    }
}
