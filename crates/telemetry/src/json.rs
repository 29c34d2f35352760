//! Minimal, deterministic JSON emission, a strict validator, and a small
//! tree parser.
//!
//! `serde_json` would work, but hand-rolling keeps this crate dependency
//! free and guarantees byte-stable output: fixed field order, sorted map
//! keys, and Rust's shortest-roundtrip float formatting. The read side
//! exists so trace consumers can read our own output back without pulling
//! in a JSON dependency either: `object_members` validates a line and
//! splits a top-level object into byte spans for
//! [`crate::reader::JsonlReader`], and [`parse`] builds a [`Value`] tree
//! for the `cbp-obs` report differ.

use std::borrow::Cow;
use std::fmt::Write as _;

#[cfg(test)]
mod reference;

/// True if `s` can be written between quotes as is: no quote, backslash
/// or control character.
fn needs_no_escape(s: &str) -> bool {
    s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\')
}

/// Appends `s` to `out` as a JSON string literal (with quotes), escaping
/// control characters, quotes and backslashes.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    if needs_no_escape(s) {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

/// Appends `x` as a JSON number. Non-finite values (which JSON cannot
/// represent) are emitted as `null`.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's Display for f64 is the shortest representation that
        // round-trips and never uses exponent notation — deterministic and
        // JSON-valid. Integral values print without a fractional part
        // ("3"), which is still a valid JSON number.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// `"00"`, `"01"`, …, `"99"`, back to back: two decimal digits per lookup.
const DIGIT_PAIRS: &str = {
    const BYTES: [u8; 200] = {
        let mut pairs = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            pairs[2 * i] = b'0' + (i / 10) as u8;
            pairs[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        pairs
    };
    match std::str::from_utf8(&BYTES) {
        Ok(pairs) => pairs,
        Err(_) => panic!("decimal digits are ASCII"),
    }
};

/// Appends `x` as a JSON number.
pub fn push_u64(out: &mut String, x: u64) {
    // u64::MAX has 20 digits. Their pairs are found from the back, then
    // appended from the front as two-character slices of the table, so
    // nothing is copied a character at a time.
    let mut pairs = [0usize; 10];
    let mut n = 0;
    let mut x = x;
    while x >= 100 {
        pairs[n] = (x % 100) as usize * 2;
        x /= 100;
        n += 1;
    }
    if x >= 10 {
        let pair = x as usize * 2;
        out.push_str(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out.push(char::from(b'0' + x as u8));
    }
    for &pair in pairs[..n].iter().rev() {
        out.push_str(&DIGIT_PAIRS[pair..pair + 2]);
    }
}

/// Appends a `"key":` prefix (escaped) to an object under construction.
pub fn push_key(out: &mut String, key: &str) {
    push_str_escaped(out, key);
    out.push(':');
}

/// Appends a slice of floats as a JSON array.
pub fn push_f64_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *x);
    }
    out.push(']');
}

/// Appends a slice of u64s as a JSON array.
pub fn push_u64_array(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, *x);
    }
    out.push(']');
}

/// True if `s` parses as exactly one JSON value (object, array, string,
/// number, boolean or null) with nothing but whitespace around it.
///
/// This is a strict little recursive-descent parser used by the golden
/// tests to check that every emitted line/file is well-formed JSON without
/// pulling in `serde_json`.
pub fn is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    if !p.value() {
        return false;
    }
    p.skip_ws();
    p.i == b.len()
}

/// Where one member of a top-level JSON object sits in its source text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    key: (usize, usize),
    value: (usize, usize),
}

impl Member {
    /// The key between its quotes, escapes unresolved (see [`unescape`]).
    pub(crate) fn raw_key<'s>(&self, src: &'s str) -> &'s str {
        &src[self.key.0..self.key.1]
    }

    /// The value's source text, e.g. `42`, `"a\\nb"` or `[1,{}]`.
    pub(crate) fn raw_value<'s>(&self, src: &'s str) -> &'s str {
        &src[self.value.0..self.value.1]
    }
}

/// Validates `s` exactly as [`is_valid`] does and, if it is an object,
/// records the spans of its top-level members into `out` (cleared first;
/// nested values are validated but not split). Returns `false` for
/// invalid JSON; any other valid value leaves `out` empty.
pub(crate) fn object_members(s: &str, out: &mut Vec<Member>) -> bool {
    out.clear();
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let ok = if p.peek() == Some(b'{') {
        p.object(Some(out))
    } else {
        p.value()
    };
    if !ok {
        return false;
    }
    p.skip_ws();
    p.i == b.len()
}

/// Reads a validated value's text as a `u64`. Like [`Value::U64`], only
/// a non-negative integer that fits qualifies: all digits, no sign,
/// fraction or exponent.
pub(crate) fn raw_u64(raw: &str) -> Option<u64> {
    if raw.is_empty() {
        return None;
    }
    raw.bytes().try_fold(0u64, |acc, c| {
        let digit = c.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(digit as u64)
    })
}

/// Reads a validated value's text as a bool: `true` or `false`.
pub(crate) fn raw_bool(raw: &str) -> Option<bool> {
    match raw {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Reads a validated value's text as a string, unescaped.
pub(crate) fn raw_str(raw: &str) -> Option<Cow<'_, str>> {
    let body = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(unescape(body))
}

/// Resolves the escapes in the body of a string literal (the text between
/// its quotes, as the validator accepted it). A body without escapes is
/// borrowed as is.
pub(crate) fn unescape(body: &str) -> Cow<'_, str> {
    if !body.contains('\\') {
        return Cow::Borrowed(body);
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                // Surrogate pairs are not produced by our own emitter;
                // map lone surrogates to the replacement character.
                let code = u32::from_str_radix(&hex, 16).ok();
                out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
            }
            // `"`, `\\` and `/` stand for themselves.
            Some(c) => out.push(c),
            None => {}
        }
    }
    Cow::Owned(out)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn lit(&mut self, lit: &str) -> bool {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.object(None),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// An object; with `members`, also records each member's spans.
    fn object(&mut self, mut members: Option<&mut Vec<Member>>) -> bool {
        if !self.eat(b'{') {
            return false;
        }
        self.skip_ws();
        if self.eat(b'}') {
            return true;
        }
        loop {
            self.skip_ws();
            let key_start = self.i;
            if !self.string() {
                return false;
            }
            let key = (key_start + 1, self.i - 1);
            self.skip_ws();
            if !self.eat(b':') {
                return false;
            }
            self.skip_ws();
            let value_start = self.i;
            if !self.value() {
                return false;
            }
            if let Some(out) = members.as_deref_mut() {
                out.push(Member {
                    key,
                    value: (value_start, self.i),
                });
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b'}');
        }
    }

    fn array(&mut self) -> bool {
        if !self.eat(b'[') {
            return false;
        }
        self.skip_ws();
        if self.eat(b']') {
            return true;
        }
        loop {
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b']');
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => {
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return false,
                                }
                            }
                        }
                        _ => return false,
                    };
                }
                0x00..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    fn number(&mut self) -> bool {
        self.eat(b'-');
        if self.eat(b'0') {
            // leading zero must not be followed by digits
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return false;
            }
        } else if !self.digits() {
            return false;
        }
        if self.eat(b'.') && !self.digits() {
            return false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.digits() {
                return false;
            }
        }
        true
    }
}

/// A parsed JSON value.
///
/// Integers that fit `u64` are kept exact ([`Value::U64`]) rather than
/// routed through `f64`, because trace task ids pack two 32-bit fields
/// into one `u64` and would lose precision above 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact integer value, if this is a [`Value::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as `f64` (lossy above 2^53 for integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The object fields (in document order).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses `s` as exactly one JSON value (with nothing but whitespace
/// around it). Returns `None` on any syntax error — the strictness matches
/// [`is_valid`].
pub fn parse(s: &str) -> Option<Value> {
    let b = s.as_bytes();
    let mut p = TreeParser {
        inner: Parser { b, i: 0 },
        src: s,
    };
    p.inner.skip_ws();
    let v = p.value()?;
    p.inner.skip_ws();
    (p.inner.i == b.len()).then_some(v)
}

struct TreeParser<'a> {
    inner: Parser<'a>,
    src: &'a str,
}

impl TreeParser<'_> {
    fn value(&mut self) -> Option<Value> {
        match self.inner.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.inner.lit("true").then_some(Value::Bool(true)),
            b'f' => self.inner.lit("false").then_some(Value::Bool(false)),
            b'n' => self.inner.lit("null").then_some(Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Value> {
        if !self.inner.eat(b'{') {
            return None;
        }
        let mut fields = Vec::new();
        self.inner.skip_ws();
        if self.inner.eat(b'}') {
            return Some(Value::Object(fields));
        }
        loop {
            self.inner.skip_ws();
            let key = self.string()?;
            self.inner.skip_ws();
            if !self.inner.eat(b':') {
                return None;
            }
            self.inner.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.inner.skip_ws();
            if self.inner.eat(b',') {
                continue;
            }
            return self.inner.eat(b'}').then_some(Value::Object(fields));
        }
    }

    fn array(&mut self) -> Option<Value> {
        if !self.inner.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        self.inner.skip_ws();
        if self.inner.eat(b']') {
            return Some(Value::Array(items));
        }
        loop {
            self.inner.skip_ws();
            items.push(self.value()?);
            self.inner.skip_ws();
            if self.inner.eat(b',') {
                continue;
            }
            return self.inner.eat(b']').then_some(Value::Array(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        let start = self.inner.i;
        if !self.inner.string() {
            return None;
        }
        Some(unescape(&self.src[start + 1..self.inner.i - 1]).into_owned())
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.inner.i;
        if !self.inner.number() {
            return None;
        }
        let text = &self.src[start..self.inner.i];
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(x) = text.parse::<u64>() {
                return Some(Value::U64(x));
            }
        }
        text.parse::<f64>().ok().map(Value::F64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert!(is_valid(&s));
    }

    #[test]
    fn float_formatting() {
        let mut s = String::new();
        push_f64(&mut s, 0.1);
        s.push(' ');
        push_f64(&mut s, 3.0);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "0.1 3 null null");
    }

    #[test]
    fn validator_accepts_good_json() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e10",
            "\"hi\\n\"",
            "{\"a\":[1,2.5,{\"b\":null}],\"c\":\"x\"}",
            "  [1, 2, 3]  ",
            "{\"u\":\"\\u00e9\"}",
        ] {
            assert!(is_valid(good), "should accept: {good}");
        }
    }

    #[test]
    fn validator_rejects_bad_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "nulla",
            "\"unterminated",
            "[1] [2]",
            "{'a':1}",
            "+1",
        ] {
            assert!(!is_valid(bad), "should reject: {bad}");
        }
    }

    #[test]
    fn arrays() {
        let mut s = String::new();
        push_f64_array(&mut s, &[1.0, 2.5]);
        assert_eq!(s, "[1,2.5]");
        let mut s = String::new();
        push_u64_array(&mut s, &[7, 8]);
        assert_eq!(s, "[7,8]");
    }

    #[test]
    fn parse_round_trips_scalars() {
        assert_eq!(parse("null"), Some(Value::Null));
        assert_eq!(parse("true"), Some(Value::Bool(true)));
        assert_eq!(parse(" 42 "), Some(Value::U64(42)));
        assert_eq!(parse("-1"), Some(Value::F64(-1.0)));
        assert_eq!(parse("2.5"), Some(Value::F64(2.5)));
        assert_eq!(parse("\"a\\nb\""), Some(Value::Str("a\nb".into())));
        // Large u64s (packed task ids) survive exactly.
        let big = (7u64 << 32) | 3;
        assert_eq!(parse(&big.to_string()), Some(Value::U64(big)));
        assert_eq!(parse(&u64::MAX.to_string()), Some(Value::U64(u64::MAX)));
    }

    #[test]
    fn parse_objects_and_arrays() {
        let v = parse("{\"t_us\":5,\"event\":\"x\",\"ok\":true,\"xs\":[1,2.5]}").unwrap();
        assert_eq!(v.get("t_us").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("event").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let xs = v.get("xs").and_then(Value::as_array).unwrap();
        assert_eq!(xs[0].as_f64(), Some(1.0));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(v.as_object().unwrap().len(), 4);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_what_is_valid_rejects() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01", "nulla", "[1] [2]"] {
            assert!(parse(bad).is_none(), "should reject: {bad}");
        }
    }

    #[test]
    fn parse_unescapes_unicode() {
        assert_eq!(parse("\"\\u00e9\\u0041\""), Some(Value::Str("éA".into())));
    }
}
