//! Offline stand-in for the subset of
//! [serde_json](https://docs.rs/serde_json) used by this workspace:
//! [`Value`], the [`ToJson`] conversion behind [`to_value`], [`to_string`],
//! [`to_string_pretty`] and the [`json!`] macro for flat object literals,
//! and a [`from_str`] parser into [`Value`].
//!
//! Simplifications vs. the real crate: there is no serde underneath, so
//! types convert through [`ToJson`] (implemented by hand) instead of a
//! derived `Serialize`; and [`from_str`] is not generic over `Deserialize`
//! — it always produces a [`Value`] tree, which callers walk with the
//! accessor methods (`get`, `as_f64`, `as_array`, ...).

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Finite floating-point number. Non-finite values render as `null`,
    /// matching serde_json's behavior.
    Float(f64),
    Int(i64),
    UInt(u64),
    String(String),
    Array(Vec<Value>),
    /// Insertion-ordered object, mirroring serde_json's `preserve_order`.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn write_escaped(s: &str, out: &mut String) {
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

    fn write_float(x: f64, out: &mut String) {
        if !x.is_finite() {
            out.push_str("null");
        } else if x == x.trunc() && x.abs() < 1e15 {
            // Render integral floats with a trailing ".0" like serde_json.
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&format!("{x}"));
        }
    }

    fn render(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Float(x) => Self::write_float(*x, out),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::String(s) => Self::write_escaped(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::newline_indent(out, indent, level + 1);
                    item.render(out, indent, level + 1);
                }
                Self::newline_indent(out, indent, level);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::newline_indent(out, indent, level + 1);
                    Self::write_escaped(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, level + 1);
                }
                Self::newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * level {
                out.push(' ');
            }
        }
    }

    /// Compact rendering.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    // ---- Accessors mirroring serde_json::Value's read API ----

    /// Field of an object by key (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// Conversion into a JSON [`Value`]: what [`json!`], [`to_value`] and
/// [`to_string`] accept. Structs that go into JSON implement it by hand,
/// listing their keys in the order they should render.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

impl_to_json_uint!(u8, u16, u32, u64, usize);
impl_to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Serialization/parse error carrying a human-readable message.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Parse a JSON document into a [`Value`]. Accepts the full JSON grammar
/// (RFC 8259): nested arrays/objects, escaped strings including `\uXXXX`
/// (with surrogate pairs), and numbers parsed as `UInt`/`Int` when integral
/// and in range, `Float` otherwise. Trailing non-whitespace is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by [`from_str`] — bounds stack use on
/// adversarial inputs (the parser recurses per nesting level).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(Error::new("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::new("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(Error::new("control character in string"));
                }
                Some(b) => {
                    // Copy one UTF-8 character: validate only its own bytes
                    // (validating the whole remaining input per character
                    // would make string parsing quadratic).
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(Error::new("invalid UTF-8 in string")),
                    };
                    let end = self.pos + len;
                    if end > self.bytes.len() {
                        return Err(Error::new("truncated UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(Error::new(format!("invalid number at byte {start}")));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(Error::new(format!("invalid number at byte {start}")));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(Error::new(format!("invalid number at byte {start}")));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number '{text}'")))
    }
}

pub fn to_value<T: ToJson>(value: T) -> Result<Value, Error> {
    Ok(value.to_json())
}

pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_json_string())
}

pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_json_string_pretty())
}

/// Build a [`Value`] from a JSON-shaped literal. Supports `null`, arrays of
/// expressions, objects with string-literal keys and expression values, and
/// bare serializable expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($element:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$element).unwrap() ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value(&$value).unwrap()) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other).unwrap() };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(v.to_json_string(), r#"{"a":1,"b":[true,null]}"#);
        let pretty = v.to_json_string_pretty();
        assert!(pretty.contains("\n  \"a\": 1"), "{pretty}");
    }

    #[test]
    fn floats_render_like_serde_json() {
        assert_eq!(Value::Float(2.0).to_json_string(), "2.0");
        assert_eq!(Value::Float(0.25).to_json_string(), "0.25");
        assert_eq!(Value::Float(f64::NAN).to_json_string(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Value::String("a\"b\\c\n".into()).to_json_string(),
            r#""a\"b\\c\n""#
        );
    }

    #[test]
    fn option_and_collections() {
        assert_eq!(None::<u32>.to_json(), Value::Null);
        assert_eq!(Some(3u32).to_json(), Value::UInt(3));
        assert_eq!(
            vec![1i64, -2].to_json(),
            Value::Array(vec![Value::Int(1), Value::Int(-2)])
        );
    }

    #[test]
    fn json_macro_shapes() {
        let v = json!({"a": 1u32, "b": 2.5f64, "c": "x"});
        assert_eq!(v.to_json_string(), r#"{"a":1,"b":2.5,"c":"x"}"#);
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!([1u32, 2u32]).to_json_string(), "[1,2]");
        assert_eq!(json!(7u64).to_json_string(), "7");
    }

    #[test]
    fn to_string_roundtrips_shapes() {
        let rows = vec![1u32, 2, 3];
        assert_eq!(to_string(&rows).unwrap(), "[1,2,3]");
        assert!(to_string_pretty(&rows).unwrap().contains('\n'));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" false ").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str("-0.125").unwrap(), Value::Float(-0.125));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            from_str(r#"{"eps": 1.5, "points": [[0.0, 1.0], [2.0, 3.0]], "tag": null}"#).unwrap();
        assert_eq!(v.get("eps").and_then(Value::as_f64), Some(1.5));
        let pts = v.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].as_array().unwrap()[0].as_f64(), Some(2.0));
        assert!(v.get("tag").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            from_str(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap(),
            Value::String("a\"b\\c\nA😀".into())
        );
    }

    #[test]
    fn roundtrips_through_renderer() {
        let original = json!({"a": 1u32, "b": [1.5f64, 2.0f64], "c": "x\"y"});
        let parsed = from_str(&original.to_json_string()).unwrap();
        assert_eq!(parsed, original);
        let pretty = from_str(&original.to_json_string_pretty()).unwrap();
        assert_eq!(pretty, original);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[1,]",
            "- 5",
            "01x",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(from_str(&deep).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression guard: per-character whole-input UTF-8 validation made
        // this quadratic (a 256 KiB string took minutes).
        let long = "aé😀".repeat(40_000);
        let doc = format!("{{\"s\": \"{long}\"}}");
        let v = from_str(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(long.as_str()));
    }
}
