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
//!
//! The server reads request lines through [`parse_members`]: the same
//! grammar, positions and errors as [`parse`], in one pass, but the
//! top-level members come back in a flat list and strings without escapes
//! borrow from the line instead of being copied.

use std::borrow::Cow;

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
    /// An object.
    Object(Object),
}

/// The members of a JSON object, in input order.  A repeated key keeps
/// every occurrence and lookups see the last one.  The member names come
/// from clients, so there is no hash map to flood with colliding keys:
/// parsing is linear in the object, and a lookup scans it once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// The value of the last member named `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member names in input order, repeats included.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.iter().map(|(k, _)| k)
    }
}

impl Value {
    /// Member of an object, if this is an object and the key is present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(object) => object.get(key),
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
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    end_of_input(input.as_bytes(), pos)?;
    Ok(value)
}

fn end_of_input(bytes: &[u8], mut pos: usize) -> Result<(), ParseError> {
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            message: "trailing characters",
        });
    }
    Ok(())
}

/// A top-level member of an object parsed by [`parse_members`]: a string,
/// borrowed from the input unless it had escapes, or any other value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Member<'a> {
    Str(Cow<'a, str>),
    Other(Value),
}

impl<'a> Member<'a> {
    /// The string, owned only if it is not already.
    pub(crate) fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Member::Str(s) => Some(s),
            Member::Other(_) => None,
        }
    }

    pub(crate) fn as_u128(&self) -> Option<u128> {
        match self {
            Member::Other(v) => v.as_u128(),
            Member::Str(_) => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Member::Other(v) => v.as_u64(),
            Member::Str(_) => None,
        }
    }
}

/// The top-level members of an object, as [`parse_members`] returns them.
#[derive(Debug, Default)]
pub(crate) struct Members<'a>(Vec<(Cow<'a, str>, Member<'a>)>);

impl<'a> Members<'a> {
    /// The member named `key`; the last one when the key repeats, as in
    /// [`Value::get`].
    pub(crate) fn get(&self, key: &str) -> Option<&Member<'a>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Moves the member named `key` out (the last one when it repeats).
    pub(crate) fn take(&mut self, key: &str) -> Option<Member<'a>> {
        let at = self.0.iter().rposition(|(k, _)| k == key)?;
        Some(self.0.swap_remove(at).1)
    }
}

/// Parses one complete JSON value like [`parse`], with the same errors at
/// the same positions, returning the members of a top-level object (none
/// for any other value).  Strings borrow from `input` unless they contain
/// escapes.
pub(crate) fn parse_members(input: &str) -> Result<Members<'_>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        parse(input)?;
        return Ok(Members::default());
    }
    let mut members = Vec::new();
    parse_object_with(input, &mut pos, |key, pos| {
        let member = if bytes.get(*pos) == Some(&b'"') {
            Member::Str(parse_string(input, pos)?)
        } else {
            Member::Other(parse_value(input, pos, 1)?)
        };
        members.push((key, member));
        Ok(())
    })?;
    end_of_input(bytes, pos)?;
    Ok(Members(members))
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
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
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
        b'{' => {
            let mut members = Vec::new();
            parse_object_with(input, pos, |key, pos| {
                let value = parse_value(input, pos, depth + 1)?;
                members.push((key.into_owned(), value));
                Ok(())
            })?;
            Ok(Value::Object(Object(members)))
        }
        b'[' => parse_array(input, pos, depth + 1),
        b'"' => Ok(Value::Str(parse_string(input, pos)?.into_owned())),
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

/// Parses the object at `pos`, handing each key to `member` with `pos` at
/// its value (after the `:` and any whitespace); `member` parses the value
/// at the object's depth.
fn parse_object_with<'a>(
    input: &'a str,
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'{', "expected '{'")?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        skip_ws(bytes, pos);
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
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

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(input, pos, depth)?);
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

/// Parses the string at `pos`, borrowing it from `input` unless it has
/// escapes.  Runs between escapes are copied whole.
fn parse_string<'a>(input: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, ParseError> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"', "expected string")?;
    let mut out: Option<String> = None;
    // Start of the run of plain characters not yet copied into `out`.
    let mut run = *pos;
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(ParseError {
                at: *pos,
                message: "unterminated string",
            });
        };
        match c {
            b'"' => {
                let tail = &input[run..*pos];
                *pos += 1;
                return Ok(match out {
                    None => Cow::Borrowed(tail),
                    Some(mut out) => {
                        out.push_str(tail);
                        Cow::Owned(out)
                    }
                });
            }
            b'\\' => {
                let out = out.get_or_insert_with(String::new);
                out.push_str(&input[run..*pos]);
                *pos += 1;
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
                run = *pos;
            }
            // `input` is a `str`, so every other byte belongs to a valid
            // character and is copied with its run.
            _ => *pos += 1,
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
    fn members_match_the_value_parser_on_values_and_errors() {
        let deep = format!("{{\"x\": {}}}", "[".repeat(MAX_DEPTH + 5));
        let inputs = [
            r#"{"id": 3, "op": "analyse", "source": "void f() { }", "path_bound": 4}"#,
            r#" { "s" : "a\"b\\c\ndA\u00e9ü" , "n": -2.5e3, "t": true, "z": null } "#,
            r#"{"nested": {"a": [1, {"b": "c"}]}, "a": 1, "a": 2}"#,
            r#"{}"#,
            r#"[1, 2]"#,
            r#""top""#,
            "",
            "{",
            r#"{"a": }"#,
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
            r#"{"a": "unterminated"#,
            r#"{"a": "bad \q escape"}"#,
            r#"{"a": "\u12"}"#,
            r#"{"a": "\u+041"}"#,
            r#"{"a": 1} trailing"#,
            r#"{1: 2}"#,
            &deep,
        ];
        for input in inputs {
            let value = parse(input);
            let members = parse_members(input);
            match (&value, &members) {
                (Ok(value), Ok(members)) => {
                    let keys: Vec<&str> = match value {
                        Value::Object(map) => map.keys().map(String::as_str).collect(),
                        _ => Vec::new(),
                    };
                    for key in keys {
                        let member = members.get(key).expect("same keys");
                        let expected = value.get(key).expect("key");
                        match member {
                            Member::Str(s) => assert_eq!(expected.as_str(), Some(&**s)),
                            Member::Other(v) => assert_eq!(v, expected),
                        }
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{input}"),
                _ => panic!("{input}: {value:?} vs {members:?}"),
            }
        }
    }

    #[test]
    fn member_strings_borrow_unless_escaped_and_the_last_key_wins() {
        let mut members =
            parse_members(r#"{"plain": "void f() { }", "escaped": "a\nb", "k": 1, "k": 2}"#)
                .expect("parse");
        assert!(matches!(
            members.get("plain"),
            Some(Member::Str(Cow::Borrowed(_)))
        ));
        assert!(matches!(members.get("escaped"), Some(Member::Str(Cow::Owned(s))) if s == "a\nb"));
        assert_eq!(members.get("k").and_then(Member::as_u64), Some(2));
        assert_eq!(
            members.take("plain").and_then(Member::into_str).as_deref(),
            Some("void f() { }")
        );
        assert!(members.get("plain").is_none());
    }

    #[test]
    fn the_last_of_a_repeated_key_wins_in_nested_objects() {
        let v = parse(
            r#"{"outer": {"k": 1, "inner": {"x": "a", "x": "b"}, "k": 2}, "outer": {"k": 3, "k": 4}}"#,
        )
        .expect("parse");
        let outer = v.get("outer").expect("outer");
        assert_eq!(outer.get("k").and_then(Value::as_u64), Some(4));
        let Value::Object(object) = &v else {
            panic!("an object")
        };
        assert_eq!(object.keys().collect::<Vec<_>>(), ["outer", "outer"]);
        let first = match &object.0[0].1 {
            Value::Object(first) => first,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.get("k").and_then(Value::as_u64), Some(2));
        assert_eq!(
            first
                .get("inner")
                .and_then(|i| i.get("x"))
                .and_then(Value::as_str),
            Some("b")
        );
        // Many repeats of one key parse in linear time and keep the last.
        let many: String = (0..20_000).map(|i| format!("\"k\": {i}, ")).collect();
        let v = parse(&format!("{{\"o\": {{{many}\"k\": -1}}}}")).expect("parse");
        assert_eq!(v.get("o").and_then(|o| o.get("k")), Some(&Value::Int(-1)));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "line\nquote\" backslash\\ tab\t control\u{0001} ünïcode";
        let json = format!("{{\"s\": \"{}\"}}", escape(nasty));
        let v = parse(&json).expect("parse escaped");
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }
}
