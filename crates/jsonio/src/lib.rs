//! # jsonio — a minimal shared JSON value model with writer and parser.
//!
//! The workspace has no serialization framework: the engine's cache
//! file, the metrics export, and the `webssari-serve` HTTP API all
//! serialize by hand through this crate. Only the subset the workspace
//! emits is supported: objects, arrays, strings, booleans, `null`, and
//! non-negative integers (every number stored is a count or a
//! microsecond duration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the only number shape the engine emits).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list (insertion order is
    /// preserved when writing).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Lengths of compact JSON renderings, counted without rendering: each
/// function gives the `to_json().len()` of the matching [`Value`].
///
/// # Examples
///
/// ```
/// use jsonio::{len, Value};
///
/// let v = Value::obj(vec![("k", Value::str("a\"b")), ("n", Value::Num(42))]);
/// let n = len::object(&[("k", len::string("a\"b")), ("n", len::number(42))]);
/// assert_eq!(n, v.to_json().len());
/// ```
pub mod len {
    /// A string, quotes and escapes included.
    pub fn string(s: &str) -> usize {
        // Escapes only replace ASCII bytes, so a byte walk is exact.
        2 + s
            .bytes()
            .map(|b| match b {
                b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
                0..=0x1f => 6,
                _ => 1,
            })
            .sum::<usize>()
    }

    /// A number.
    pub fn number(n: u64) -> usize {
        n.checked_ilog10().map_or(1, |d| d as usize + 1)
    }

    /// `true` or `false`.
    pub fn boolean(b: bool) -> usize {
        if b {
            4
        } else {
            5
        }
    }

    /// An array of values of the given lengths.
    pub fn array(items: impl IntoIterator<Item = usize>) -> usize {
        let (count, total) = items
            .into_iter()
            .fold((0usize, 0), |(count, total), n| (count + 1, total + n));
        2 + total + count.saturating_sub(1)
    }

    /// An object whose values have the given lengths.
    pub fn object(fields: &[(&str, usize)]) -> usize {
        let pairs: usize = fields.iter().map(|(k, v)| string(k) + 1 + v).sum();
        2 + pairs + fields.len().saturating_sub(1)
    }
}

/// Parses a JSON document. Returns `None` on any syntax error or on
/// trailing non-whitespace — a corrupt cache file simply reads as
/// empty.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Option<()> {
        (self.bump()? == expected).then_some(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<u64>().ok().map(Value::Num)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.bump()? as char).to_digit(16)?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b => {
                    // Re-decode multi-byte UTF-8 sequences in place.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match b {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            0xf0..=0xf7 => 4,
                            _ => return None,
                        };
                        let end = start + len;
                        let chunk = self.bytes.get(start..end)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(Value::Arr(items)),
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(Value::Obj(pairs)),
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_match_renderings() {
        for s in [
            "",
            "plain",
            "q\"b\\s",
            "\n\r\t\u{1}\u{1f}",
            "\u{e9}\u{2603}\u{1f600}",
        ] {
            assert_eq!(len::string(s), Value::str(s).to_json().len(), "{s:?}");
        }
        for n in [0, 9, 10, 99, 100, 12_345, u64::MAX] {
            assert_eq!(len::number(n), Value::Num(n).to_json().len(), "{n}");
        }
        for b in [true, false] {
            assert_eq!(len::boolean(b), Value::Bool(b).to_json().len());
        }
        assert_eq!(len::array([]), Value::Arr(vec![]).to_json().len());
        assert_eq!(len::object(&[]), Value::obj(vec![]).to_json().len());
        let nested = Value::obj(vec![
            ("a", Value::Arr(vec![Value::Num(1), Value::str("x")])),
            ("b\"", Value::Bool(false)),
        ]);
        let counted = len::object(&[
            ("a", len::array([len::number(1), len::string("x")])),
            ("b\"", len::boolean(false)),
        ]);
        assert_eq!(counted, nested.to_json().len());
    }

    #[test]
    fn writes_compact_json() {
        let v = Value::obj(vec![
            ("name", Value::str("a.php")),
            ("count", Value::Num(3)),
            ("flag", Value::Bool(true)),
            ("items", Value::Arr(vec![Value::Num(1), Value::Null])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"name":"a.php","count":3,"flag":true,"items":[1,null]}"#
        );
    }

    #[test]
    fn escapes_and_unescapes() {
        let v = Value::str("a\"b\\c\nd\te\u{1}f");
        let json = v.to_json();
        assert_eq!(json, r#""a\"b\\c\nd\te\u0001f""#);
        assert_eq!(parse(&json), Some(v));
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::obj(vec![
            ("fingerprint", Value::str("line one\nline two")),
            (
                "entries",
                Value::Arr(vec![Value::obj(vec![
                    ("file", Value::str("λ/€.php")),
                    ("hash", Value::Num(u64::MAX)),
                ])]),
            ),
        ]);
        assert_eq!(parse(&v.to_json()), Some(v));
    }

    #[test]
    fn accepts_whitespace_rejects_garbage() {
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } "),
            Some(Value::obj(vec![(
                "a",
                Value::Arr(vec![Value::Num(1), Value::Num(2)])
            )]))
        );
        assert_eq!(parse(""), None);
        assert_eq!(parse("{"), None);
        assert_eq!(parse("{} extra"), None);
        assert_eq!(parse("[1,]"), None);
        assert_eq!(parse("-1"), None); // engine never writes negatives
        assert_eq!(parse("\"\\q\""), None);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""\u00e9""#), Some(Value::str("é")));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k":"v","n":7,"a":[true]}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("v"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
