//! Minimal recursive-descent JSON reader (RFC 8259 subset, no external
//! dependencies) — the inverse of [`crate::Report::to_json`]'s hand-rolled
//! writer, used by [`crate::Report::from_json`] and by tools that consume
//! the `--json` output of the example binaries — plus [`json_string`], the
//! string escaper those writers share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string into a JSON string literal (RFC 8259, quotes
/// included): `"`, `\` and the named control characters get their short
/// escapes, any other control character a `\u00XX` escape.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as f64.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub(crate) fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let got = self.bump()?;
        if got != c {
            return Err(format!(
                "expected '{c}' at offset {}, got '{got}'",
                self.pos
            ));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(JsonValue::String(self.string()?)),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{c}' at offset {}", self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(JsonValue::Object(map)),
                c => return Err(format!("expected ',' or '}}', got '{c}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(JsonValue::Array(items)),
                c => return Err(format!("expected ',' or ']', got '{c}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(s),
                '\\' => match self.bump()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'b' => s.push('\u{0008}'),
                    'f' => s.push('\u{000c}'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad \\u hex digit '{d}'"))?;
                        }
                        // Surrogate pairs are not produced by the writer;
                        // lone surrogates decode to the replacement char.
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    c => return Err(format!("bad escape '\\{c}'")),
                },
                c if (c as u32) < 0x20 => return Err("raw control character inside string".into()),
                c => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":true,"e":null}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\ny")
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse(r#"{"a":01x}"#).is_err());
    }

    #[test]
    fn unescapes_unicode() {
        let v = parse("\"A\\u00e9\\u0007\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{7}"));
    }
}
