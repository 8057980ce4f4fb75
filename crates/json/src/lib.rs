//! # bakery-json
//!
//! A small, zero-dependency JSON layer shared by the whole suite: the
//! simulator's trace/state/metrics exports, the model checker's reports and
//! the harness's experiment tables (every committed `BENCH_*.json`) all go
//! through this crate.  It replaces the serde/serde_json dependency the
//! modules were originally written against (the build environment is
//! offline), and gives the suite one place that owns its wire format.
//!
//! Three pieces:
//!
//! * [`Value`] — a JSON document model with a compact and a pretty printer;
//! * [`parse`] / [`from_str`] — a strict recursive-descent parser;
//! * [`ToJson`] / [`FromJson`] + [`json_object!`] — object mapping for plain
//!   structs; the macro generates both directions from a field list, with an
//!   optional `skip { ... }` section for fields that stay out of the wire
//!   format (they are restored with `Default::default()` on parse).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (covers the full u64/i64 ranges losslessly).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Errors produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value, if this is an in-range integer.
    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The number as an `f64` (integers are converted).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Renders the value compactly (no whitespace).
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with two-space indentation.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    // JSON has no Inf/NaN; match serde_json's lossy `null`.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Value::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
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
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(value)
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

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at offset {}",
                byte as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(Error::new("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Object(fields)),
                _ => return Err(Error::new("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs: parse the low half when present.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(Error::new("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            let combined =
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| Error::new("invalid \\u escape"))?);
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                },
                Some(byte) => {
                    // Collect the full UTF-8 sequence starting at `byte`.
                    let start = self.pos - 1;
                    let width = utf8_width(byte);
                    self.pos = start + width;
                    let slice = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number '{text}'")))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Types that can render themselves as a [`Value`].
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait FromJson: Sized {
    /// Converts from a JSON value.
    fn from_json(value: &Value) -> Result<Self, Error>;
}

/// Renders `value` compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_compact_string())
}

/// Renders `value` with two-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_pretty_string())
}

/// Parses `text` into a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

macro_rules! impl_json_uint {
    ($($ty:ty),*) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Value {
                    Value::Int(i128::from(*self as u64))
                }
            }
            impl FromJson for $ty {
                fn from_json(value: &Value) -> Result<Self, Error> {
                    let raw = value
                        .as_i128()
                        .ok_or_else(|| Error::new(concat!("expected ", stringify!($ty))))?;
                    <$ty>::try_from(raw)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($ty))))
                }
            }
        )*
    };
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),*) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Value {
                    Value::Int(i128::from(*self as i64))
                }
            }
            impl FromJson for $ty {
                fn from_json(value: &Value) -> Result<Self, Error> {
                    let raw = value
                        .as_i128()
                        .ok_or_else(|| Error::new(concat!("expected ", stringify!($ty))))?;
                    <$ty>::try_from(raw)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($ty))))
                }
            }
        )*
    };
}
impl_json_int!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::new("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| Error::new("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(inner) => inner.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(Error::new("expected 2-element array")),
        }
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

macro_rules! impl_value_from {
    ($($ty:ty),*) => {
        $(
            impl From<$ty> for Value {
                fn from(value: $ty) -> Self {
                    value.to_json()
                }
            }
        )*
    };
}
impl_value_from!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f64, bool, String, &str);

/// `None` becomes `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(value: Option<T>) -> Self {
        value.map_or(Value::Null, Into::into)
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a plain struct from its field
/// list.  Fields in the optional `skip { ... }` section are excluded from the
/// wire format and restored with `Default::default()` when parsing.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: u64, cached_norm: Option<f64> }
/// bakery_json::json_object!(Point { x, y } skip { cached_norm });
///
/// let p = Point { x: 1, y: 2, cached_norm: Some(2.23) };
/// let text = bakery_json::to_string(&p).unwrap();
/// assert_eq!(text, r#"{"x":1,"y":2}"#);
/// let back: Point = bakery_json::from_str(&text).unwrap();
/// assert_eq!(back.cached_norm, None);
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        $crate::json_object!($ty { $($field),* } skip { });
    };
    ($ty:ident { $($field:ident),* $(,)? } skip { $($skipped:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Value) -> Result<Self, $crate::Error> {
                if value.as_object().is_none() {
                    return Err($crate::Error {
                        message: format!("expected object for {}", stringify!($ty)),
                    });
                }
                Ok(Self {
                    $($field: match value.get(stringify!($field)) {
                        Some(field_value) => $crate::FromJson::from_json(field_value)?,
                        None => Default::default(),
                    },)*
                    $($skipped: Default::default(),)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_printers_round_trip_through_parser() {
        let value = Value::Object(vec![
            ("name".into(), Value::Str("bakery \"++\"\n".into())),
            ("count".into(), Value::Int(18446744073709551615)),
            ("ratio".into(), Value::Float(0.25)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "items".into(),
                Value::Array(vec![Value::Int(1), Value::Int(-2)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        for text in [value.to_compact_string(), value.to_pretty_string()] {
            assert_eq!(parse(&text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn pretty_printing_uses_key_space_value() {
        let value = Value::Object(vec![("k".into(), Value::Int(1))]);
        assert_eq!(value.to_pretty_string(), "{\n  \"k\": 1\n}");
        assert_eq!(value.to_compact_string(), "{\"k\":1}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let parsed = parse(r#""aéb\nA 😀""#).unwrap();
        assert_eq!(parsed, Value::Str("aéb\nA 😀".to_string()));
        let raw_unicode = parse("\"caché ± λ\"").unwrap();
        assert_eq!(raw_unicode, Value::Str("caché ± λ".to_string()));
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<Option<usize>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<usize>>("3").unwrap(), Some(3));
        assert_eq!(
            from_str::<Vec<(u64, bool)>>("[[1,true],[2,false]]").unwrap(),
            vec![(1, true), (2, false)]
        );
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<bool>("7").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        name: String,
        values: Vec<u64>,
        owner: Option<usize>,
        scratch: Vec<String>,
    }
    json_object!(Sample { name, values, owner } skip { scratch });

    #[test]
    fn json_object_macro_round_trips_and_skips() {
        let sample = Sample {
            name: "demo".into(),
            values: vec![1, 2, 3],
            owner: Some(4),
            scratch: vec!["not serialized".into()],
        };
        let text = to_string(&sample).unwrap();
        assert_eq!(text, r#"{"name":"demo","values":[1,2,3],"owner":4}"#);
        let back: Sample = from_str(&text).unwrap();
        assert_eq!(back.name, "demo");
        assert_eq!(back.owner, Some(4));
        assert!(back.scratch.is_empty(), "skipped fields default");
    }

    #[test]
    fn values_convert_from_primitives() {
        assert_eq!(Value::from(7u64), Value::Int(7));
        assert_eq!(Value::from(-2i32), Value::Int(-2));
        assert_eq!(Value::from(0.5), Value::Float(0.5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(None::<u64>), Value::Null);
        assert_eq!(Value::from(Some(true)), Value::Bool(true));
    }

    #[test]
    fn missing_fields_default_on_parse() {
        let back: Sample = from_str(r#"{"name":"x"}"#).unwrap();
        assert_eq!(back.name, "x");
        assert!(back.values.is_empty());
        assert_eq!(back.owner, None);
    }
}
