//! The workspace's one JSON reader. The workspace is offline (no serde).
//! Its inputs are the `m3d-serve` wire requests, which arrive from
//! outside the program, and the `m3d-obs/1` reports, `m3d-obs-stream/1`
//! streams and `BENCH_*.json` snapshots the `m3d-obsctl` tools read.
//! A small recursive-descent parser over the full JSON grammar serves
//! both, strict where lenience would hide corruption:
//!
//! - duplicate object keys and raw control bytes in strings are errors;
//! - `\u` takes exactly four ASCII hex digits, and surrogates must pair;
//! - nesting deeper than [`MAX_DEPTH`] is an error, so no input can
//!   overflow the stack;
//! - anything but whitespace after the value is an error.
//!
//! Parsing is linear in the input: unescaped runs of a string are
//! copied wholesale.
//!
//! Numbers are held as `f64` (every value the tooling reads — millisecond
//! stats, counters, nanosecond offsets — fits); integer fields are read
//! through [`Json::as_u64`], which refuses fractions instead of
//! truncating them. Writers use [`crate::report::json_string`] and
//! [`crate::report::json_number`].

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, a stream `delta` record, nests 5 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved; keys are unique (a
    /// repeated key is a parse error).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer: `None` for negatives,
    /// fractions and values of 2^64 or more (which would saturate).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n < 18_446_744_073_709_551_616.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes the opening bracket of a container one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.open(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Four ASCII hex digits (no sign, no shorter form).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let bytes = self.bytes;
        let digits = bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let nibble = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("\\u takes four hex digits"))?;
            v = v << 4 | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// The code point of a `\u` escape (the `\u` already consumed),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("unpaired high surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("unpaired high surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("unpaired low surrogate")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run wholesale. It ends at an ASCII byte
            // or the end of input, so both ends are char boundaries.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(_) => return Err(self.err("raw control byte in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json_string;

    fn obj(pairs: &[(&str, Json)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a b\"").unwrap(), Json::Str("a b".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn parses_multi_key_objects_and_null() {
        let parsed =
            parse(r#" {"id":"a","design":"aes/Syn-1","note":null,"log":"x\ny"} "#).expect("parses");
        assert_eq!(
            parsed,
            obj(&[
                ("id", Json::Str("a".into())),
                ("design", Json::Str("aes/Syn-1".into())),
                ("note", Json::Null),
                ("log", Json::Str("x\ny".into())),
            ])
        );
        assert_eq!(parse("{}").expect("empty object"), obj(&[]));
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        for (input, decoded) in [
            (r#""q\"\\\n\t\u0041\ud83d\ude00""#, "q\"\\\n\tA\u{1F600}"),
            (r#""\u00E9\/\b\f\r""#, "é/\u{8}\u{c}\r"),
        ] {
            assert_eq!(parse(input).unwrap().as_str(), Some(decoded), "{input}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let deep = "[".repeat(100_000);
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "\"\\ud800\"",
            "\"\\udc00\"",
            // `\u` takes exactly four hex digits, unsigned.
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u04\"",
            "\"\\u00é\"",
            // Raw control bytes must be escaped.
            "\"a\nb\"",
            // Keys are unique.
            "{\"k\":null,\"k\":1}",
            // Nesting is capped, never a stack overflow.
            &deep,
        ] {
            assert!(
                parse(bad).is_err(),
                "{:?} must fail",
                bad.get(..40).unwrap_or(bad)
            );
        }
    }

    #[test]
    fn rejects_bare_nan_and_infinity_tokens() {
        // JSON has no NaN/Infinity literals; the producer writes `null`
        // instead, and the grammar here must reject the bare tokens (and
        // Rust-float spellings like `inf`) rather than parse them as
        // numbers.
        for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf", "-inf", "1e"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // ...while `null` (the producer's non-finite encoding) parses.
        assert_eq!(parse("null").unwrap(), Json::Null);
    }

    #[test]
    fn parses_deeply_nested_arrays() {
        let v = parse("[[[[[1,2],[3]],[]],[4]],[5,[6,[7]]]]").unwrap();
        let outer = v.as_arr().unwrap();
        assert_eq!(outer.len(), 2);
        assert_eq!(
            outer[0].as_arr().unwrap()[0].as_arr().unwrap()[0]
                .as_arr()
                .unwrap()[0]
                .as_arr()
                .unwrap()[1]
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            outer[1].as_arr().unwrap()[1].as_arr().unwrap()[0].as_u64(),
            Some(6)
        );
        // The cap counts open containers: MAX_DEPTH parses, one more
        // level fails, and siblings do not add up.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&siblings).is_ok());
        assert!(parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).is_err());
    }

    #[test]
    fn write_string_round_trips_through_parse() {
        for original in ["weird \"name\"\\with\nescapes\tand\u{1}control", ""] {
            let mut s = String::new();
            json_string(&mut s, original);
            assert_eq!(parse(&s).unwrap().as_str(), Some(original), "{s}");
        }
    }

    #[test]
    fn escape_then_parse_round_trips() {
        // A string written into a one-key object line, as the serve wire
        // carries it, reads back as that object.
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1}\u{1f600} é";
        let mut line = String::from("{\"k\":");
        json_string(&mut line, nasty);
        line.push('}');
        let parsed = parse(&line).expect("round trip");
        assert_eq!(parsed, obj(&[("k", Json::Str(nasty.into()))]));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let parsed = parse(r#"{"k":"\ud83d\ude00"}"#).expect("parses");
        assert_eq!(parsed.get("k").and_then(Json::as_str), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_malformed_lines() {
        // Broken one-key object lines. Well-formed JSON of the wrong shape
        // (`null`, `[1]`, a number value) is refused by
        // `m3d_serve::parse_request`, not here.
        for bad in [
            "{\"k\":\"v\"",
            "{\"k\":\"v\"} trailing",
            "{\"k\":\"v\",}",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\ud83d\"}",
            "{\"k\":\"v\",\"k\":\"w\"}",
            "{\"k\":\"\u{1}\"}",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_negatives_and_overflow() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        for bad in ["1.5", "-1", "1e20", "0.5"] {
            assert_eq!(parse(bad).unwrap().as_u64(), None, "{bad}");
        }
    }
}
