//! A minimal JSON document model with a writer and a parser.
//!
//! The workspace builds offline with no third-party JSON crate. This module
//! provides the small, dependency-free subset the `rmsa` CLI needs: objects
//! with *stable key order* (golden-file friendly), arrays, strings,
//! booleans, integers and floats. Floats are written with Rust's shortest-roundtrip formatting,
//! so `parse(render(x)) == x` exactly.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A finite float. Non-finite values are rendered as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = value;
                } else {
                    entries.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Look up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (accepting both `Int` and `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as a compact single-line JSON string.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render as pretty-printed JSON with two-space indentation and a
    /// trailing newline (the on-disk `BENCH_*.json` format).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // Shortest-roundtrip form; force a decimal marker so the
                    // parser can distinguish floats from integers.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    write_escaped(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }
}

fn write_seq<F: FnMut(&mut String, usize)>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: F,
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
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

/// Parse a JSON document. Returns a human-readable error on malformed input.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes: Vec<char> = input.chars().collect();
    let mut parser = Parser {
        chars: &bytes,
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return Err(format!("trailing characters at offset {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected '{c}' at offset {}", self.pos - 1))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('n') => self.literal("null", Json::Null),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => self.array(),
            Some('{') => self.object(),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => self.pos += 1,
                '.' | 'e' | 'E' | '+' | '-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad integer {text:?}: {e}"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            if !items.is_empty() {
                self.expect(',')?;
            }
            items.push(self.value()?);
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut entries = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Json::Obj(entries));
            }
            if !entries.is_empty() {
                self.expect(',')?;
                self.skip_ws();
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            entries.push((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let mut doc = Json::obj();
        doc.set("name", Json::Str("fig1".into()))
            .set("version", Json::Int(1))
            .set("quick", Json::Bool(true))
            .set(
                "points",
                Json::Arr(vec![Json::Num(0.1), Json::Num(1.0 / 3.0), Json::Null]),
            );
        for rendered in [doc.render_compact(), doc.render_pretty()] {
            let parsed = parse(&rendered).unwrap();
            assert_eq!(parsed, doc);
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.1, 1e-9, 123456.789, -0.25, 2.0] {
            let rendered = Json::Num(f).render_compact();
            assert_eq!(parse(&rendered).unwrap().as_f64(), Some(f));
        }
        // Whole-number floats keep a decimal marker so the type survives.
        assert_eq!(Json::Num(2.0).render_compact(), "2.0");
        assert_eq!(Json::Int(2).render_compact(), "2");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1}";
        let rendered = Json::Str(s.into()).render_compact();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
    }

    #[test]
    fn integer_vs_float_boundary_is_preserved() {
        // i64 extremes stay integers.
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        // One past i64::MAX is an error, not a silent truncation.
        assert!(parse("9223372036854775808").is_err());
        // Exponent forms are floats even when whole, and stay floats
        // through a render/parse cycle (the writer pins a decimal marker).
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::Num(1000.0).render_compact(), "1000.0");
        assert_eq!(parse("1000.0").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("1000").unwrap(), Json::Int(1000));
        // Accessor cross-over: whole floats read as ints, fractional don't.
        assert_eq!(Json::Num(2.0).as_i64(), Some(2));
        assert_eq!(Json::Num(2.5).as_i64(), None);
        assert_eq!(Json::Int(2).as_f64(), Some(2.0));
        // Negative zero round-trips as a float.
        let neg_zero = parse("-0.0").unwrap();
        assert_eq!(neg_zero.as_f64(), Some(-0.0));
        assert!(neg_zero.as_f64().unwrap().is_sign_negative());
    }

    #[test]
    fn escaped_strings_cover_the_wire_protocol() {
        // Every escape class the NDJSON wire can carry: quotes,
        // backslashes, control characters, \uXXXX, raw non-ASCII.
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "newline\n tab\t return\r",
            "control \u{1} \u{1f}",
            "unicode é Ω 🦀",
            "\\\\double-escaped\\\"",
            "",
        ] {
            let rendered = Json::Str(s.into()).render_compact();
            assert!(!rendered.contains('\n'), "{rendered:?} must be one line");
            assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
        }
        // \uXXXX parses (the writer only emits it for control chars).
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn nested_arrays_of_objects_roundtrip() {
        // The stats response shape: an object holding an array of objects,
        // each holding arrays and nested objects.
        let text = r#"{"sessions":[{"session":"a/standard","streams":[{"kind":"optimize","len":10},{"kind":"validate","len":10}]},{"session":"b/subsim","streams":[]}],"evictions":0}"#;
        let doc = parse(text).unwrap();
        let sessions = doc.get("sessions").unwrap().as_arr().unwrap();
        assert_eq!(sessions.len(), 2);
        let streams = sessions[0].get("streams").unwrap().as_arr().unwrap();
        assert_eq!(streams[1].get("kind").unwrap().as_str(), Some("validate"));
        assert!(sessions[1]
            .get("streams")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        // Compact rendering reproduces the input byte-for-byte (stable key
        // order), and pretty rendering parses back to the same document.
        assert_eq!(doc.render_compact(), text);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn malformed_documents_error_out() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "12x", "\"unterminated", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = parse(r#"{"a": 1, "b": 2.5, "c": [true, null], "d": "x"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("d").unwrap().as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
