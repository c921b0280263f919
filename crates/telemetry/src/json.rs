//! The flat-JSON codec shared by every JSONL boundary in the workspace.
//!
//! Telemetry traces, job specs and reports, daemon frames, progress
//! streams, the run ledger and metrics snapshots are all one flat JSON
//! object per line: string keys, scalar values (string, number, boolean,
//! `null`), no arrays or sub-objects. [`parse_object`] reads exactly that
//! shape and rejects everything else with a message: nested containers,
//! missing or doubled commas, truncated lines and trailing bytes. The
//! writers [`push_escaped`] and [`push_f64`] produce it. The build
//! environment has no serde, and this codec is small enough not to need it.
//!
//! The module is compiled in every build, independent of the `enabled`
//! feature.

use std::fmt::Write as _;

/// A JSON scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string, unescaped.
    Str(String),
    /// A number (parsed as `f64`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null` (the writers emit non-finite numbers as `null`).
    Null,
}

impl Json {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; only ever advanced past whole characters.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both are ASCII, so the run ends on a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
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
                    let code = if (0xd800..0xdc00).contains(&hi) {
                        // Surrogate pair: the low half must follow.
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err("lone high surrogate".into());
                        }
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err("invalid low surrogate".into());
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                }
                _ => return Err(format!("unknown escape at byte {}", self.pos - 2)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or("truncated \\u escape")?;
            let d = char::from(b)
                .to_digit(16)
                .ok_or("non-hex digit in \\u escape")?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'{') | Some(b'[') => Err("nested containers are not supported".into()),
            Some(_) => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
                {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }
}

/// Parses one flat JSON object into its key/value pairs, in source order.
/// Whitespace is allowed around every token, so both the compact
/// (`{"a":1}`) and the spaced (`{"a": 1}`) writers' lines parse.
///
/// # Errors
///
/// Returns a human-readable message on malformed input, nested containers,
/// or trailing garbage.
pub fn parse_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.ws();
    if !p.eat(b'}') {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            let val = p.value()?;
            out.push((key, val));
            p.ws();
            if p.eat(b',') {
                continue;
            }
            p.expect(b'}')?;
            break;
        }
    }
    p.ws();
    if p.pos != line.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(out)
}

/// Appends `s` to `line` with JSON string escaping (no surrounding
/// quotes).
pub fn push_escaped(line: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
}

/// Appends `value` as a JSON number, or `null` when non-finite.
pub fn push_f64(line: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(line, "{value}");
    } else {
        line.push_str("null");
    }
}

/// [`push_escaped`] into a new `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// [`push_f64`] into a new `String`.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let kv =
            parse_object(r#"{"id": "j1", "deadline_ms": 250.5, "ok": true, "x": null}"#).unwrap();
        assert_eq!(kv[0], ("id".into(), Json::Str("j1".into())));
        assert_eq!(kv[1], ("deadline_ms".into(), Json::Num(250.5)));
        assert_eq!(kv[2], ("ok".into(), Json::Bool(true)));
        assert_eq!(kv[3], ("x".into(), Json::Null));
        assert!(parse_object("{}").unwrap().is_empty());

        // A spaced job report row and a compact telemetry event line.
        let kv = parse_object(
            r#"{"id": "a1", "status": "complete", "wall_ms": 13.05, "legal": true, "fom": null}"#,
        )
        .unwrap();
        assert_eq!(kv[1].1.as_str(), Some("complete"));
        assert_eq!(kv[2].1.as_num(), Some(13.05));
        assert_eq!(kv[3].1, Json::Bool(true));
        assert_eq!(kv[4].1, Json::Null);
        let kv = parse_object(r#"{"type":"event","kind":"gp_iter","t_us":42,"overflow":0.75,"neg":-1.5e-3,"off":false}"#)
            .unwrap();
        assert_eq!(kv[0], ("type".into(), Json::Str("event".into())));
        assert_eq!(kv[1], ("kind".into(), Json::Str("gp_iter".into())));
        assert_eq!(kv[2].1.as_num(), Some(42.0));
        assert_eq!(kv[3].1.as_num(), Some(0.75));
        assert_eq!(kv[4].1.as_num(), Some(-1.5e-3));
        assert_eq!(kv[5].1, Json::Bool(false));
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let kv = parse_object(r#"{"s": "a\"b\\c\ndµ😀", "p": "a\/b", "u": "é😀"}"#).unwrap();
        assert_eq!(kv[0].1, Json::Str("a\"b\\c\ndµ😀".into()));
        assert_eq!(kv[1].1, Json::Str("a/b".into()));
        assert_eq!(kv[2].1, Json::Str("é😀".into()));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\t"), "\\u0001\\t");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "not json",
            r#"{"a": 1"#,
            r#"{"a": [1]}"#,
            r#"{"a": {"b": 1}}"#,
            r#"{"a": 1} extra"#,
            r#"{"a": bogus}"#,
            r#"{"k":}"#,
            r#"{"unterminated"#,
            r#"{"a":1 "b":2}"#,
            r#"{"a":1,,,"b":2}"#,
            r#"{,"a":1}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} trailing junk"#,
            r#"{"a":true"#,
            r#"{"ok":false,"#,
            r#"{"s": "\q"}"#,
            r#"{"s": "\ud83d"}"#,
            r#"{"s": "\é"}"#,
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_roundtrip() {
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        let kv = parse_object(&format!(r#"{{"v": {}}}"#, number(1e-9))).unwrap();
        assert_eq!(kv[0].1, Json::Num(1e-9));
    }
}
