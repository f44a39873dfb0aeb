//! The wire format: a minimal, dependency-free JSON value.
//!
//! Two properties matter more here than generality:
//!
//! - **Numbers are raw tokens.** A [`Value::Num`] stores the literal
//!   characters from the wire, so a `u64` campaign seed round-trips
//!   losslessly — it is never squeezed through an `f64` (which silently
//!   mangles integers above 2^53).
//! - **Objects preserve insertion order.** Encoding a decoded object
//!   reproduces the original byte sequence for the subset of JSON the
//!   service emits, which keeps record payloads comparable byte for
//!   byte.

use dramctrl_kernel::json::escape_into;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (lossless for any integer width).
    Num(String),
    /// A string (decoded — escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document; trailing non-whitespace is an error.
    /// Nesting deeper than [`MAX_DEPTH`] is refused — the parser is
    /// recursive descent, and a hostile line of a million `[`s must get
    /// an error, not a stack overflow.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// A number value from anything that displays as a JSON number.
    pub fn num(n: impl ToString) -> Value {
        Value::Num(n.to_string())
    }

    /// Object field lookup (first match; `None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number token parsed as `u64`, if this is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), objects in
    /// insertion order, number tokens verbatim.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest container nesting [`Value::parse`] accepts. Far beyond any
/// value the protocol emits, far below any stack limit.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at offset {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        };
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        // Validate the token shape via the float parser, but *store* the
        // raw token so wide integers stay exact.
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at offset {start}"))?;
        Ok(Value::Num(raw.to_owned()))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| "truncated escape".to_owned())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_owned());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // escape in one go. `"` and `\` are ASCII, never
                    // UTF-8 continuation bytes, so a byte-wise scan
                    // stops only on char boundaries — and the input was
                    // a `&str`, so the run is valid UTF-8. (Per-char
                    // consumption here would be O(n²) on long strings —
                    // a hostile megabyte string must cost one pass.)
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was a str and the run ends on ASCII"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| "truncated \\u escape".to_owned())?;
            self.pos += 1;
            code = code * 16
                + (b as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("bad hex digit {:?}", b as char))?;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_json() {
        let src = r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e3}}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.encode(), src);
    }

    #[test]
    fn u64_seeds_survive_unmangled() {
        // 2^63 + 3 — unrepresentable in f64; the raw token must survive.
        let src = r#"{"seed":9223372036854775811}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9223372036854775811));
        assert_eq!(v.encode(), src);
    }

    #[test]
    fn accessors_and_lookup() {
        let v = Value::parse(r#"{"s":"hi","n":4,"f":0.5,"b":true,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
        assert!(v.get("s").unwrap().as_u64().is_none());
    }

    #[test]
    fn escapes_decode_and_encode() {
        let v = Value::parse(r#""tab\t quote\" uA pair😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" uA pair😀"));
        assert_eq!(
            dramctrl_kernel::json::json_str("a\"b\nc\u{1}"),
            "\"a\\\"b\\nc\\u0001\""
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Under MAX_DEPTH parses fine...
        let deep = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(Value::parse(&deep).is_ok());
        // ...a megabyte of brackets is refused with a plain error.
        let hostile = "[".repeat(1 << 20);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let mixed = "{\"a\":".repeat(10_000);
        assert!(Value::parse(&mixed).unwrap_err().contains("nesting"));
    }

    #[test]
    fn whitespace_tolerated_on_input() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2]}"#);
    }
}
