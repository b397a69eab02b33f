//! Minimal JSON value type, writer, and parser.
//!
//! The workspace builds offline with no external dependencies, so the
//! telemetry exporters carry their own tiny JSON layer. It covers exactly
//! what the snapshot and timeline schemas need: objects with string keys,
//! arrays, finite numbers, strings, and booleans.
//!
//! Writing is deterministic: object members are emitted in insertion order,
//! and numbers are formatted with a single fixed rule, `write_num`, which
//! the exporters that write their text directly share.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite inputs are written as `0`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's members, if it is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn elements(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `x` deterministically: an integer without a fraction,
/// anything else via shortest round-trip `Display`, non-finite as `0`.
pub(crate) fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push('0');
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `s` as a quoted JSON string.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// Parses JSON text into a [`Json`] value.
///
/// Accepts the standard grammar (with the usual `\uXXXX` escapes, including
/// surrogate pairs). Returns a descriptive error on malformed input or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    parse_document(text, None)
}

/// Parses like [`parse`], except that the elements of the top-level
/// object's array member `member` are handed to `each` one at a time as
/// they are parsed, and the returned object holds that member as an empty
/// array. A document of one big array then never exists as one tree.
///
/// Only the member [`Json::get`] would read is streamed: the first one
/// named `member`, and only if its value is an array. Every other value,
/// a later duplicate included, is parsed into the returned tree as usual.
/// Errors are [`parse`]'s, so `each` may have seen elements of a document
/// that turns out malformed.
pub(crate) fn parse_streaming(
    text: &str,
    member: &str,
    mut each: impl FnMut(Json),
) -> Result<Json, String> {
    parse_document(text, Some((member, &mut each)))
}

/// A member name and what receives its elements.
type Stream<'a> = (&'a str, &'a mut dyn FnMut(Json));

fn parse_document(text: &str, stream: Option<Stream<'_>>) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = match stream {
        Some(stream) if p.peek() == Some(b'{') => p.object(Some(stream))?,
        _ => p.value()?,
    };
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(None),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.elements(|item| items.push(item))?;
        Ok(Json::Arr(items))
    }

    /// Parses an array, handing each element to `each`.
    fn elements(&mut self, mut each: impl FnMut(Json)) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Parses an object, streaming the member `stream` names (see
    /// [`parse_streaming`]).
    fn object(&mut self, mut stream: Option<Stream<'_>>) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = match stream.take_if(|(name, _)| *name == key) {
                Some((_, each)) if self.peek() == Some(b'[') => {
                    self.elements(each)?;
                    Json::Arr(Vec::new())
                }
                _ => self.value()?,
            };
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let b = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: expect the low half immediately after.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00) & 0x3ff)
                    } else {
                        return Err("lone high surrogate".to_string());
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_string())?
            }
            _ => return Err(format!("bad escape '\\{}'", b as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| "truncated \\u escape".to_string())?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| "non-hex \\u escape".to_string())?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reparses_compound_values() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::Str("x \"y\"\n".into())),
            ("d".into(), Json::Num(1.5)),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"a":1,"b":[true,null],"c":"x \"y\"\n","d":1.5}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = parse(r#"{"s":"A😀","n":-2.5e2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\u{1F600}"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-250.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn non_finite_numbers_render_as_zero() {
        let text = |x| Json::Num(x).render();
        assert_eq!(text(f64::NAN), "0");
        assert_eq!(text(f64::INFINITY), "0");
        assert_eq!(text(3.0), "3");
        assert_eq!(text(0.25), "0.25");
    }

    #[test]
    fn streaming_hands_out_the_first_named_array_and_parses_the_rest() {
        let text = r#"{"a":1,"w":[{"x":1},2,[3]],"w":[9],"b":"s"}"#;
        let tree = parse(text).unwrap();
        let mut seen = Vec::new();
        let v = parse_streaming(text, "w", |e| seen.push(e)).unwrap();
        assert_eq!(Some(&Json::Arr(seen)), tree.get("w"));
        assert_eq!(v.get("w"), Some(&Json::Arr(Vec::new())));
        // Every other member, the duplicate too, is in the tree as usual.
        let (got, want) = (v.members().unwrap(), tree.members().unwrap());
        assert_eq!(got.len(), 4);
        for i in [0, 2, 3] {
            assert_eq!(got[i], want[i]);
        }
        // A first member that is not an array is not streamed, and neither
        // is a later one; a document that is not an object is parsed whole.
        let mut streamed = 0;
        for text in [r#"{"w":5,"w":[1]}"#, "[1,2]", r#""w""#] {
            let v = parse_streaming(text, "w", |_| streamed += 1);
            assert_eq!(v, parse(text));
        }
        assert_eq!(streamed, 0);
        // Malformed input fails with `parse`'s error.
        for bad in [
            r#"{"w":[1,}"#,
            r#"{"w":[1] x"#,
            r#"{"w":[1],"#,
            r#"{"w":[1]} 2"#,
        ] {
            assert_eq!(parse_streaming(bad, "w", |_| {}), parse(bad), "{bad}");
        }
    }

    #[test]
    fn accessors_distinguish_kinds() {
        let v = parse(r#"{"k":[1,2]}"#).unwrap();
        assert!(v.get("k").unwrap().elements().is_some());
        assert_eq!(v.get("k").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
    }
}
