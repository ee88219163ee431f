#![forbid(unsafe_code)]
//! Offline stand-in for `serde_json`.
//!
//! Converts between the shim [`serde::Value`] tree and JSON text:
//! [`to_string`], [`to_string_pretty`] and [`from_str`]. The writer
//! escapes control characters, quotes and backslashes; the reader is a
//! strict recursive-descent parser (no trailing garbage, no NaN/Inf
//! literals) sufficient for round-tripping everything the workspace
//! serializes.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes a value as human-indented JSON (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    T::from_value(&v)
}

fn write_value(
    v: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(Error("cannot serialize non-finite float".into()));
            }
            // `{:?}` keeps a decimal point or exponent, so the value
            // re-parses as a float rather than an integer.
            out.push_str(&format!("{f:?}"));
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            if !items.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out)?;
            }
            if !entries.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting ceiling matching real serde_json's default recursion limit;
/// keeps adversarial input from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        let v = self.parse_value_inner();
        self.depth -= 1;
        v
    }

    fn parse_value_inner(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of JSON input".into())),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error(format!("expected `,` or `]` at byte {}", self.pos)))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => {
                            return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos)))
                        }
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in JSON string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            // `from_str_radix` tolerates a leading sign;
                            // JSON requires exactly four hex digits.
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(Error("bad \\u escape".into()));
                            }
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs are not produced by our
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error("bad \\u code point".into()))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape in JSON string".into())),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error("unterminated JSON string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        // JSON grammar: the integer part is `0` or a nonzero-led digit
        // run — never empty, never `0123`.
        if int_len == 0 || (int_len > 1 && self.bytes[int_start] == b'0') {
            return Err(Error(format!("bad number at byte {start}")));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(Error(format!(
                    "bad number at byte {start}: no fraction digits"
                )));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(Error(format!(
                    "bad number at byte {start}: no exponent digits"
                )));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            match text.parse::<f64>() {
                // `f64::from_str` saturates overflow to ±inf, which our
                // writer refuses; reject here so accepted == writable.
                Ok(f) if f.is_finite() => Ok(Value::F64(f)),
                _ => Err(Error(format!("bad number `{text}`"))),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "0", "42", "-17", "\"hi\""] {
            let v: Value = from_str_value(json);
            let mut out = String::new();
            write_value(&v, None, 0, &mut out).unwrap();
            assert_eq!(out, json);
        }
        let v: Value = from_str_value("1.5");
        assert_eq!(v, Value::F64(1.5));
    }

    fn from_str_value(s: &str) -> Value {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value().unwrap();
        p.skip_ws();
        assert_eq!(p.pos, s.len());
        v
    }

    #[test]
    fn nested_structures_round_trip() {
        let json = "{\"a\":[1,2,3],\"b\":{\"c\":\"x\\n\\\"y\\\"\",\"d\":[]},\"e\":null}";
        let v = from_str_value(json);
        let mut out = String::new();
        write_value(&v, None, 0, &mut out).unwrap();
        assert_eq!(out, json);
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let json = "{\"nodes\":[{\"lambda\":0,\"cells\":[1,2]},{\"lambda\":3,\"cells\":[]}]}";
        let v = from_str_value(json);
        let mut pretty = String::new();
        write_value(&v, Some(2), 0, &mut pretty).unwrap();
        assert!(pretty.contains("\n  \"nodes\""));
        assert_eq!(from_str_value(&pretty), v);
    }

    #[test]
    fn typed_round_trip_and_errors() {
        let v: Vec<(u32, u32)> = from_str("[[1,2],[3,4]]").unwrap();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
        assert_eq!(to_string(&v).unwrap(), "[[1,2],[3,4]]");
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<Vec<u32>>("[1] trailing").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn hostile_inputs_error_instead_of_crashing() {
        // Deep nesting must return Err, not overflow the stack.
        let deep = "[".repeat(100_000);
        assert!(from_str::<Vec<u32>>(&deep).is_err());
        let just_over = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(from_str::<Value>(&just_over).is_err());
        let at_limit = format!("{}1{}", "[".repeat(127), "]".repeat(127));
        assert!(from_str::<Value>(&at_limit).is_ok());
        // Overflowing float literals must not sneak in as ±inf.
        assert!(from_str::<f64>("1e999").is_err());
        assert!(from_str::<f64>("-1e999").is_err());
        assert_eq!(from_str::<f64>("1e10").unwrap(), 1e10);
    }

    #[test]
    fn invalid_json_forms_are_rejected() {
        // Number grammar violations real serde_json also rejects.
        for bad in ["0123", "-0123", "1.", ".5", "1e", "1e+", "-", "--1"] {
            assert!(from_str::<f64>(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(from_str::<u64>("0").unwrap(), 0);
        assert_eq!(from_str::<f64>("-0.5e+2").unwrap(), -50.0);
        // \u escapes must be exactly four hex digits (no sign leniency).
        assert!(from_str::<String>("\"\\u+041\"").is_err());
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }

    #[test]
    fn derive_handles_arrow_in_field_types() {
        // The `->` in the phantom fn type must not unbalance the
        // derive's generic-depth tracking: `after` must still be
        // serialized (regression test for the derive's type-skipper).
        #[derive(serde::Serialize, serde::Deserialize)]
        struct WithArrow {
            tag: std::marker::PhantomData<fn(u32) -> Vec<u32>>,
            after: u32,
        }
        let json = to_string(&WithArrow {
            tag: std::marker::PhantomData,
            after: 7,
        })
        .unwrap();
        assert_eq!(json, "{\"tag\":null,\"after\":7}");
        let back: WithArrow = from_str(&json).unwrap();
        assert_eq!(back.after, 7);
    }

    #[test]
    fn u64_values_stay_exact() {
        let big = u64::MAX - 3;
        let json = to_string(&big).unwrap();
        assert_eq!(from_str::<u64>(&json).unwrap(), big);
    }
}
