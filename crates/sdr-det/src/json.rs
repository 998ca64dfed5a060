//! A minimal JSON value type with a parser and serializer.
//!
//! Exists so the `e2e` benchmark can *write* its records and *read* its
//! child processes' lines back, without reintroducing `serde` into the
//! hermetic workspace. Scope is the JSON the workspace itself
//! produces: objects, arrays, strings (with `\uXXXX` escapes), finite
//! numbers, booleans and null. Non-finite numbers serialize as `null`
//! (matching `JSON.stringify`).

use std::fmt::Write as _;

/// A JSON value.
///
/// Objects preserve insertion order (they are association lists, not
/// hash maps — the handful of keys in a bench record never warrants a
/// table).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// Inserts or replaces `key` in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on a non-object");
        };
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_string(), value)),
        }
    }

    /// Parses a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out.push('\n');
        out
    }
}

fn write_value(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.is_finite() {
                // Integral values print without a fraction for readability.
                if *n == n.trunc() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}]");
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                write_string(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
                );
                *pos += 1;
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are out of scope for the files we
                        // produce; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape `\\{}`", esc as char)),
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_bench_record() {
        let mut root = Json::Obj(vec![]);
        root.set("suite", Json::Str("rtree".into()));
        root.set(
            "current",
            Json::Obj(vec![(
                "rtree/window_query".into(),
                Json::Obj(vec![
                    ("min_ns".into(), Json::Num(1234.5)),
                    ("median_ns".into(), Json::Num(2000.0)),
                ]),
            )]),
        );
        let text = root.to_pretty();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, root);
        assert_eq!(
            back.get("current")
                .and_then(|c| c.get("rtree/window_query"))
                .and_then(|b| b.get("min_ns"))
                .and_then(Json::as_f64),
            Some(1234.5)
        );
    }

    #[test]
    fn parses_literals_arrays_and_escapes() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, true, false, null], "s": "x\n\"A"}"#)
            .expect("valid json");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
            ]))
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\n\"A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{\"a\": 1} extra", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn set_replaces_in_place() {
        let mut o = Json::Obj(vec![("k".into(), Json::Num(1.0))]);
        o.set("k", Json::Num(2.0));
        assert_eq!(o.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(o.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(30.0).to_pretty(), "30\n");
        assert_eq!(Json::Num(0.5).to_pretty(), "0.5\n");
    }
}
