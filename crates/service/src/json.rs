//! Minimal JSON reader/writer for the `tmg-service/v1` request protocol.
//!
//! The build environment has no crates.io access (the vendored serde is
//! derive-markers only), so requests are parsed by a small hand-rolled
//! recursive-descent parser and responses are written with `format!` plus
//! [`escape`].  Integers are kept exact up to `i128` (path bounds are
//! `u128`); floats fall back to `f64`.  The parser accepts exactly the JSON
//! grammar — objects, arrays, strings with the standard escapes, numbers,
//! booleans, null — and rejects everything else with a position-tagged
//! error, which the server maps to an `ok:false` response.  Nesting is capped
//! at `MAX_DEPTH` so that hostile input cannot overflow the parser's stack.

use rustc_hash::FxHashMap;

/// Deepest array/object nesting [`parse`] accepts; deeper input is a
/// "nesting too deep" error.  Protocol requests nest at most 3 deep, and the
/// recursive descent stays far from any thread's stack limit at this depth.
pub(crate) const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion order is not preserved; the protocol never
    /// depends on it).
    Object(FxHashMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object and the key is present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload as `u128`, if this is a non-negative integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Int(v) if *v >= 0 => Some(*v as u128),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if it fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// The numeric payload as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            message: "trailing characters",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8, message: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, message })
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays or objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err(ParseError {
            at: *pos,
            message: "unexpected end of input",
        });
    };
    if matches!(c, b'{' | b'[') && depth == MAX_DEPTH {
        return Err(ParseError {
            at: *pos,
            message: "nesting too deep",
        });
    }
    match c {
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => Ok(Value::Str(parse_string(bytes, pos)?)),
        b't' | b'f' | b'n' => parse_keyword(bytes, pos),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(ParseError {
            at: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    for (lit, value) in [
        (&b"true"[..], Value::Bool(true)),
        (&b"false"[..], Value::Bool(false)),
        (&b"null"[..], Value::Null),
    ] {
        if bytes[*pos..].starts_with(lit) {
            *pos += lit.len();
            return Ok(value);
        }
    }
    Err(ParseError {
        at: *pos,
        message: "invalid keyword",
    })
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut map = FxHashMap::default();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(ParseError {
                at: *pos,
                message: "unterminated string",
            });
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(ParseError {
                        at: *pos,
                        message: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(ParseError {
                            at: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            at: *pos,
                            message: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            message: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by the protocol;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            message: "invalid escape",
                        })
                    }
                }
            }
            _ => {
                // Re-validate multi-byte sequences through the source str.
                let start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..end]).map_err(|_| ParseError {
                    at: start,
                    message: "invalid utf-8 in string",
                })?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut integral = true;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                integral = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if integral {
        if let Ok(v) = text.parse::<i128>() {
            return Ok(Value::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| ParseError {
            at: start,
            message: "invalid number",
        })
}

/// Escapes a string for embedding in hand-written JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id": 3, "op": "analyse", "source": "void f() { }", "path_bound": 4}"#)
            .expect("parse");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("analyse"));
        assert_eq!(v.get("path_bound").and_then(Value::as_u128), Some(4));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_arrays_numbers_and_escapes() {
        let v = parse(r#"[null, true, -7, 2.5, "a\"b\\c\ndA", []]"#).expect("parse");
        let items = v.as_array().expect("array");
        assert_eq!(items[0], Value::Null);
        assert_eq!(items[1], Value::Bool(true));
        assert_eq!(items[2], Value::Int(-7));
        assert_eq!(items[3], Value::Float(2.5));
        assert_eq!(items[4].as_str(), Some("a\"b\\c\nd\u{41}"));
        assert_eq!(items[5], Value::Array(vec![]));
    }

    #[test]
    fn big_path_bounds_stay_exact() {
        let v = parse("{\"path_bound\": 340282366920938463463374607431768211455}").expect("parse");
        // u128::MAX overflows i128 and degrades to a float...
        assert!(v.get("path_bound").and_then(Value::as_u128).is_none());
        // ...but anything representable in i128 is exact.
        let v = parse("{\"path_bound\": 170141183460469231731687303715884105727}").expect("parse");
        assert_eq!(
            v.get("path_bound").and_then(Value::as_u128),
            Some(i128::MAX as u128)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&objects).expect_err("objects too").message,
            "nesting too deep"
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "line\nquote\" backslash\\ tab\t control\u{0001} ünïcode";
        let json = format!("{{\"s\": \"{}\"}}", escape(nasty));
        let v = parse(&json).expect("parse escaped");
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }
}
