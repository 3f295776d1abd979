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

/// The escape each byte takes inside a JSON string: `0` for none, the
/// letter after the backslash for a short escape, `u` for `\u00XX`.
/// Only ASCII bytes escape, so every cut between runs lands on a char
/// boundary.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table
};

/// Writes `s` quoted, copying each run of bytes that need no escape
/// with one `push_str`.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        out.push_str(&s[run..i]);
        out.push('\\');
        if escape == b'u' {
            out.push_str("u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push(escape as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
            .map(|b| match super::ESCAPE[usize::from(b)] {
                0 => 1,
                b'u' => 6,
                _ => 2,
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

/// How deeply arrays and objects may nest in a parsed document. The
/// workspace writes at most five levels; deeper input reads as corrupt
/// rather than recursing without bound.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns `None` on any syntax error, on
/// nesting deeper than [`MAX_DEPTH`], or on trailing non-whitespace —
/// a corrupt cache file simply reads as empty.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
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
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    /// Parses an array or object one level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Option<Value>) -> Option<Value> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<u64>().ok().map(Value::Num)
    }

    /// A string, with each run of unescaped bytes copied by one
    /// `push_str`. Runs end only at ASCII `"` or `\`, so each is a
    /// slice of the (UTF-8) input on char boundaries.
    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek()?, b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            if self.bump()? == b'"' {
                return Some(out);
            }
            let c = match self.bump()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return None,
            };
            out.push(c);
        }
    }

    /// The char of a `\uXXXX` escape whose `\u` is consumed. A high
    /// surrogate must be followed by an escaped low one, and the pair
    /// names one astral char; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Option<char> {
        let high = self.hex4()?;
        if !(0xd800..0xdc00).contains(&high) {
            // A lone low surrogate is not a char either.
            return char::from_u32(high);
        }
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return None;
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xdc00..0xe000).contains(&low) {
            return None;
        }
        char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        let mut code = 0;
        for &d in digits {
            code = code * 16 + char::from(d).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
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
        assert_eq!(parse(r#""\u00E9\u2603""#), Some(Value::str("é\u{2603}")));
    }

    #[test]
    fn surrogate_pairs_parse_as_one_char() {
        // Python's `json.dumps("😀")`.
        assert_eq!(parse(r#""\ud83d\ude00""#), Some(Value::str("\u{1f600}")));
        assert_eq!(
            parse(r#""a\uD83D\uDE00b\udbff\udfff""#),
            Some(Value::str("a\u{1f600}b\u{10ffff}"))
        );
        // A lone or misordered surrogate is not a char.
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\ude0""#,
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), None);
        let objects = "{\"k\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse(&objects).is_some());
        // Depth is counted along one path, not in total.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_some());
    }

    #[test]
    fn deep_nesting_is_rejected_on_a_small_stack() {
        // A `/batch` body under serve's 1 MiB cap, parsed on a thread
        // with the 2 MiB stack serve's workers get.
        let body = "{\"files\":".to_owned() + &"[".repeat(50_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&body))
            .expect("thread starts")
            .join()
            .expect("no stack overflow");
        assert_eq!(parsed, None);
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

    /// The char-at-a-time escaper `to_json` used before strings were
    /// written by runs: the reference the fast writer must match.
    fn reference_escaped(s: &str) -> String {
        let mut out = String::from('"');
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

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Chars weighted toward what escaping treats specially: every
        /// control byte, quotes and backslashes, DEL, and two-, three-
        /// and four-byte UTF-8.
        fn any_char() -> BoxedStrategy<char> {
            let code = |range: std::ops::Range<u32>| {
                range.prop_map(|c| char::from_u32(c).expect("range holds scalar values"))
            };
            prop_oneof![
                3 => code(0..0x20),
                3 => prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
                4 => code(0x20..0x7f),
                2 => code(0x80..0x800),
                2 => code(0x800..0xd800),
                1 => code(0xe000..0x10000),
                2 => code(0x10000..0x110000),
            ]
        }

        fn any_string() -> BoxedStrategy<String> {
            prop::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn escaping_matches_the_reference(s in any_string()) {
                let json = Value::str(s.clone()).to_json();
                prop_assert_eq!(&json, &reference_escaped(&s));
                prop_assert_eq!(len::string(&s), json.len());
            }

            #[test]
            fn parse_round_trips_to_json(key in any_string(), s in any_string()) {
                let v = Value::Obj(vec![(key, Value::Arr(vec![Value::Str(s), Value::Num(7)]))]);
                prop_assert_eq!(parse(&v.to_json()), Some(v));
            }
        }
    }
}
