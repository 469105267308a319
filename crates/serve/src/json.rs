//! Hand-rolled JSON reader for the flat string-valued objects the wire
//! protocol exchanges — the workspace has no serde, and the protocol
//! needs nothing more than `{"key":"value",...}` in. Writers use
//! `m3d_obs::report::json_string`, the workspace's one string escaper.
//!
//! The parser accepts exactly one object per line whose values are
//! strings or `null` (null-valued keys are dropped); anything else —
//! arrays, numbers, nested objects, trailing junk — is a parse error the
//! server converts into a `rejected` response rather than a dropped
//! connection.

struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.at))
        }
    }

    /// Parses a JSON string literal (opening quote under the cursor).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| "bad \\u escape".to_string())?);
                        }
                        _ => return Err(format!("bad escape `\\{}`", char::from(e))),
                    }
                }
                b if b < 0x20 => {
                    return Err("raw control byte in string".to_string());
                }
                b if b < 0x80 => out.push(char::from(b)),
                _ => {
                    // Re-decode the UTF-8 sequence starting at `at - 1`.
                    let start = self.at - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("non-empty by construction");
                    self.at = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        let hex = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.at = end;
        Ok(v)
    }
}

/// Parses one flat JSON object of string (or `null`) values, in key
/// order. Duplicate keys are an error; `null` values are omitted from
/// the result.
pub fn parse_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut sc = Scanner {
        bytes: line.as_bytes(),
        at: 0,
    };
    sc.skip_ws();
    sc.expect(b'{')?;
    let mut out: Vec<(String, String)> = Vec::new();
    sc.skip_ws();
    if sc.peek() == Some(b'}') {
        sc.at += 1;
    } else {
        loop {
            sc.skip_ws();
            let key = sc.string()?;
            if out.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            sc.skip_ws();
            sc.expect(b':')?;
            sc.skip_ws();
            match sc.peek() {
                Some(b'"') => {
                    let value = sc.string()?;
                    out.push((key, value));
                }
                Some(b'n') if sc.bytes[sc.at..].starts_with(b"null") => {
                    sc.at += 4;
                }
                _ => return Err(format!("value of `{key}` must be a string (or null)")),
            }
            sc.skip_ws();
            match sc.peek() {
                Some(b',') => sc.at += 1,
                Some(b'}') => {
                    sc.at += 1;
                    break;
                }
                _ => return Err("expected `,` or `}`".to_string()),
            }
        }
    }
    sc.skip_ws();
    if sc.at != sc.bytes.len() {
        return Err("trailing content after object".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_then_parse_round_trips() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1}\u{1f600} é";
        let mut line = String::from("{\"k\":");
        m3d_obs::report::json_string(&mut line, nasty);
        line.push('}');
        let parsed = parse_object(&line).expect("round trip");
        assert_eq!(parsed, vec![("k".to_string(), nasty.to_string())]);
    }

    #[test]
    fn parses_multi_key_objects_and_null() {
        let parsed = parse_object(r#" {"id":"a","design":"aes/Syn-1","note":null,"log":"x\ny"} "#)
            .expect("parses");
        assert_eq!(
            parsed,
            vec![
                ("id".to_string(), "a".to_string()),
                ("design".to_string(), "aes/Syn-1".to_string()),
                ("log".to_string(), "x\ny".to_string()),
            ]
        );
        assert_eq!(parse_object("{}").expect("empty object"), vec![]);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let parsed = parse_object(r#"{"k":"\ud83d\ude00"}"#).expect("parses");
        assert_eq!(parsed[0].1, "\u{1f600}");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "null",
            "[1]",
            "{\"k\":1}",
            "{\"k\":\"v\"",
            "{\"k\":\"v\"} trailing",
            "{\"k\":\"v\",}",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\ud83d\"}",
            "{\"k\":\"v\",\"k\":\"w\"}",
            "{\"k\":\"\u{1}\"}",
        ] {
            assert!(parse_object(bad).is_err(), "must reject {bad:?}");
        }
    }
}
