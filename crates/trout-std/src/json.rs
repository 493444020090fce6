//! Minimal JSON value, parser and writer plus the [`ToJson`]/[`FromJson`]
//! traits (the workspace's `serde`/`serde_json` replacement).
//!
//! Structs and unit-variant enums get their impls from
//! [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum); data-carrying enum variants
//! are implemented by hand in their defining crates. The wire format
//! follows serde's defaults (struct → object keyed by field name, unit
//! variant → string, data variant → externally tagged object), so
//! checkpoints written by the seed code parse unchanged.
//!
//! Numbers: integers are kept as `i128` so `u64` seeds and job ids round
//! trip exactly; floats write their shortest round-trip decimal form, with
//! `f32` widened to `f64` first so the reparsed value is bit-identical.
//! Non-finite floats serialize as `null` and parse back as NaN. Those rules
//! live in [`write_number`], which the tree writer and hand-written
//! writers (the serve daemon's predict responses) share.
//!
//! Besides the tree parser, [`Members`] streams the top-level members of a
//! document without building a tree: keys and escape-free strings borrow
//! from the input, scalars come by value, and only nested values become a
//! [`Json`]. Both run on one parser, so the grammar, the depth limit and
//! the error text exist once.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.` or exponent).
    Int(i128),
    /// A floating-point literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }

    /// Wraps the error with the field it occurred in.
    pub fn in_field(self, field: &str) -> Self {
        JsonError(format!("{field}: {}", self.0))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to an object's members.
    pub fn as_object_mut(&mut self) -> Option<&mut Vec<(String, Json)>> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Removes (and returns) an object member by key.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let members = self.as_object_mut()?;
        let i = members.iter().position(|(k, _)| k == key)?;
        Some(members.remove(i).1)
    }

    /// The members of an object, or an error naming the expected type.
    pub fn expect_obj(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(members) => Ok(members),
            other => Err(JsonError::new(format!(
                "{what}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array, or an error naming the expected type.
    pub fn expect_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "{what}: expected array, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn write<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_number(out, Number::Int(*i)),
            Json::Num(x) => write_number(out, Number::Float(*x)),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// A JSON number for [`write_number`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer, written in decimal.
    Int(i128),
    /// A float (widen `f32` first, as [`ToJson`] for `f32` does).
    Float(f64),
}

/// Writes a number in the workspace's JSON form: integers in decimal,
/// finite floats in their shortest round-trip decimal form with a `.0`
/// kept on integral values (so they read back as floats), and non-finite
/// floats as `null`. Writes straight into `out`: no intermediate `String`.
pub fn write_number<W: fmt::Write + ?Sized>(out: &mut W, n: Number) -> fmt::Result {
    match n {
        Number::Int(i) => write!(out, "{i}"),
        // `Display` for f64 never uses an exponent, so an integral value
        // prints without a `.` and needs the float marker.
        Number::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(out, "{x}.0"),
        Number::Float(x) if x.is_finite() => write!(out, "{x}"),
        // serde_json refuses NaN/inf; we degrade to null (read back as
        // NaN) so a poisoned model still checkpoints.
        Number::Float(_) => out.write_str("null"),
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters. Unescaped runs are written as whole slices.
fn write_string<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let esc = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match esc {
            Some(e) => out.write_str(e)?,
            None => write!(out, "\\u{:04x}", c as u32)?,
        }
        run = i + c.len_utf8();
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// [`fmt::Write`] over a byte buffer, so JSON text can be written straight
/// into an output buffer (a socket's write buffer) with no `String` in
/// between. Writing never fails.
pub struct ByteWriter<'a>(pub &'a mut Vec<u8>);

impl fmt::Write for ByteWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

const MAX_DEPTH: usize = 128;

#[cfg(test)]
thread_local! {
    /// Input bytes the string scanner has examined on this thread: the
    /// linearity guard's measure of parse work (test builds only).
    static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Records `n` input bytes examined by the string scanner (a no-op outside
/// test builds).
#[inline(always)]
fn note_examined(_n: usize) {
    #[cfg(test)]
    EXAMINED.with(|c| c.set(c.get() + _n));
}

struct Parser<'a> {
    /// The document; `bytes` is its byte view. Slicing `text` at ASCII
    /// delimiters needs no UTF-8 re-validation.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Ends a document: only whitespace may follow its value.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing data at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.depth += 1;
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            break;
                        }
                        _ => {
                            return Err(JsonError::new(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
                self.depth -= 1;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                let mut more = self.open_object();
                while more {
                    let key = self.member_key()?.into_owned();
                    members.push((key, self.value()?));
                    more = self.member_end()?;
                }
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    /// Consumes an object's `{` (the caller has peeked it) and reports
    /// whether a member follows; an empty object is consumed whole.
    fn open_object(&mut self) -> bool {
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return false;
        }
        true
    }

    /// Consumes a member's `"key":` and the whitespace up to its value.
    fn member_key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Consumes what follows a member's value: `,` (another member
    /// follows, returns `true`) or the object's closing `}` (`false`).
    fn member_end(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(JsonError::new(format!(
                "expected ',' or '}}' at byte {}",
                self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
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
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("invalid number '{text}' at byte {start}")))
    }

    /// A string, borrowed from the document when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        // Owned only once an escape is seen; until then the string is one
        // slice of the input.
        let mut owned: Option<String> = None;
        loop {
            // Take the run up to the next quote or backslash as one slice.
            // Both delimiters are ASCII, so the run ends on a char boundary
            // of the already-valid input: each byte is examined once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            note_examined(run.map_or(self.bytes.len() - self.pos, |n| n + 1));
            let Some(run) = run else {
                return Err(JsonError::new("unterminated string"));
            };
            let end = self.pos + run;
            let text = &self.text[self.pos..end];
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(text);
            let esc = self
                .peek()
                .ok_or_else(|| JsonError::new("unterminated escape"))?;
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
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair.
                        self.eat(b'\\')?;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        let combined =
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        char::from_u32(hi)
                    };
                    out.push(c.ok_or_else(|| JsonError::new("invalid \\u escape"))?);
                }
                other => {
                    return Err(JsonError::new(format!(
                        "invalid escape '\\{}'",
                        other as char
                    )))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|_| JsonError::new("invalid \\u escape"))
    }
}

/// One member value handed out by [`Members`]: a [`Json`] whose strings
/// may borrow from the document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no `.` or exponent).
    Int(i128),
    /// A floating-point literal.
    Num(f64),
    /// A string: borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array or object, built as a tree (borrowed when viewing one).
    Nested(Cow<'a, Json>),
}

impl<'a> From<&'a Json> for JsonRef<'a> {
    fn from(j: &'a Json) -> JsonRef<'a> {
        match j {
            Json::Null => JsonRef::Null,
            Json::Bool(b) => JsonRef::Bool(*b),
            Json::Int(i) => JsonRef::Int(*i),
            Json::Num(x) => JsonRef::Num(*x),
            Json::Str(s) => JsonRef::Str(Cow::Borrowed(s)),
            Json::Arr(_) | Json::Obj(_) => JsonRef::Nested(Cow::Borrowed(j)),
        }
    }
}

impl From<Json> for JsonRef<'_> {
    fn from(j: Json) -> Self {
        match j {
            Json::Null => JsonRef::Null,
            Json::Bool(b) => JsonRef::Bool(b),
            Json::Int(i) => JsonRef::Int(i),
            Json::Num(x) => JsonRef::Num(x),
            Json::Str(s) => JsonRef::Str(Cow::Owned(s)),
            nested => JsonRef::Nested(Cow::Owned(nested)),
        }
    }
}

impl JsonRef<'_> {
    /// The owned [`Json`] value (moves a nested tree out without a copy).
    pub fn into_json(self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(b),
            JsonRef::Int(i) => Json::Int(i),
            JsonRef::Num(x) => Json::Num(x),
            JsonRef::Str(s) => Json::Str(s.into_owned()),
            JsonRef::Nested(j) => j.into_owned(),
        }
    }
}

/// Reads the top-level members of one JSON document in order, without
/// building a tree: keys and escape-free strings are slices of the input,
/// scalars come by value, and only nested values become a [`Json`]. It
/// accepts exactly what [`Json::parse`] accepts, with the same errors: the
/// whole document is checked, so [`Members::next_member`] returns `None`
/// only after the closing `}` and the trailing-data check. A document that
/// is valid but not an object has no members. Duplicate keys are handed
/// out as they appear.
pub struct Members<'a> {
    p: Parser<'a>,
    /// Whether another member follows.
    more: bool,
}

impl<'a> Members<'a> {
    /// Starts reading `text`. Errors here are parse errors of the whole
    /// document when it is not an object.
    pub fn new(text: &'a str) -> Result<Members<'a>, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let more = if p.peek() == Some(b'{') {
            p.open_object()
        } else {
            p.value()?;
            false
        };
        if !more {
            p.finish()?;
        }
        Ok(Members { p, more })
    }

    /// The next `(key, value)`, or `None` once the document has ended.
    pub fn next_member(&mut self) -> Result<Option<(Cow<'a, str>, JsonRef<'a>)>, JsonError> {
        if !self.more {
            return Ok(None);
        }
        let key = self.p.member_key()?;
        let value = if self.p.peek() == Some(b'"') {
            JsonRef::Str(self.p.string()?)
        } else {
            JsonRef::from(self.p.value()?)
        };
        self.more = self.p.member_end()?;
        if !self.more {
            self.p.finish()?;
        }
        Ok(Some((key, value)))
    }
}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;

    /// Convenience: the compact JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs a value from JSON.
    fn from_json(j: &Json) -> Result<Self, JsonError>;

    /// Reconstructs from an optional object member. The default requires
    /// the field to be present; `Option<T>` overrides this so missing
    /// members read as `None` (serde's behaviour for `Option` fields).
    fn from_json_field(v: Option<&Json>, ctx: &str) -> Result<Self, JsonError> {
        match v {
            Some(j) => Self::from_json(j).map_err(|e| e.in_field(ctx)),
            None => Err(JsonError::new(format!("missing field {ctx}"))),
        }
    }

    /// Convenience: parse text then convert.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Int(*self as i128)
                }
            }
            impl FromJson for $ty {
                fn from_json(j: &Json) -> Result<Self, JsonError> {
                    match j {
                        Json::Int(i) => <$ty>::try_from(*i)
                            .map_err(|_| JsonError::new(format!("{} out of range for {}", i, stringify!($ty)))),
                        Json::Num(x) if x.fract() == 0.0 => Ok(*x as $ty),
                        other => Err(JsonError::new(format!("expected integer, got {}", other.kind()))),
                    }
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Num(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // Widen so the decimal form is the exact f64 of this f32 — parsing
        // back and narrowing returns the identical bits.
        Json::Num(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        f64::from_json(j).map(|x| x as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.expect_arr("Vec")?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_json_field(v: Option<&Json>, ctx: &str) -> Result<Self, JsonError> {
        match v {
            None => Ok(None),
            Some(j) => Self::from_json(j).map_err(|e| e.in_field(ctx)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let items = j.expect_arr("pair")?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-element array, got {}",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

/// Looks up `key` in an object's member list (macro support).
pub fn obj_get<'a>(members: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Implements [`ToJson`]/[`FromJson`] for a struct, serializing the listed
/// fields as a JSON object keyed by field name (serde's default layout).
/// Invoke in the crate that defines the type; private fields are fine.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let members = j.expect_obj(stringify!($ty))?;
                Ok($ty {
                    $( $field: $crate::json::FromJson::from_json_field(
                        $crate::json::obj_get(members, stringify!($field)),
                        concat!(stringify!($ty), ".", stringify!($field)),
                    )?, )+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit variants,
/// serializing each as its name string (serde's default layout).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $( $ty::$variant => $crate::json::Json::Str(stringify!($variant).to_string()), )+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match j {
                    $( $crate::json::Json::Str(s) if s == stringify!($variant) => Ok($ty::$variant), )+
                    other => Err($crate::json::JsonError::new(format!(
                        "invalid {} variant: {}", stringify!($ty), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f32,
        tags: Vec<i64>,
        maybe: Option<f64>,
    }

    impl_json_struct!(Demo {
        name,
        count,
        ratio,
        tags,
        maybe
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Careful,
    }

    impl_json_enum!(Mode { Fast, Careful });

    #[test]
    fn struct_round_trip_is_exact() {
        let d = Demo {
            name: "α \"quoted\"\nline".to_string(),
            count: u64::MAX,
            ratio: 0.1,
            tags: vec![-3, 0, 9_007_199_254_740_993],
            maybe: None,
        };
        let text = d.to_json_string();
        let back = Demo::from_json_str(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        for bits in [
            0x3DCC_CCCDu32,
            0x0000_0001,
            0x7F7F_FFFF,
            0x8000_0000,
            0x4049_0FDB,
        ] {
            let x = f32::from_bits(bits);
            let text = x.to_json_string();
            let back = f32::from_json_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert!(f64::from_json_str("null").unwrap().is_nan());
    }

    #[test]
    fn missing_option_field_reads_as_none() {
        let back = Demo::from_json_str(r#"{"name":"x","count":1,"ratio":2.0,"tags":[]}"#).unwrap();
        assert_eq!(back.maybe, None);
    }

    #[test]
    fn missing_required_field_errors() {
        let err = Demo::from_json_str(r#"{"name":"x"}"#).unwrap_err();
        assert!(err.0.contains("Demo.count"), "{err}");
    }

    #[test]
    fn unit_enum_round_trips() {
        assert_eq!(Mode::Fast.to_json_string(), "\"Fast\"");
        assert_eq!(Mode::from_json_str("\"Careful\"").unwrap(), Mode::Careful);
        assert!(Mode::from_json_str("\"Slow\"").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#""aé\n\t\"\\A 😀""#).unwrap();
        assert_eq!(v, Json::Str("aé\n\t\"\\A 😀".to_string()));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\":}",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_by_shape() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::Int(u64::MAX as i128)
        );
    }

    #[test]
    fn object_helpers_work() {
        let mut v = Json::parse(r#"{"a":1,"b":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(1)));
        assert_eq!(v.remove("a"), Some(Json::Int(1)));
        assert_eq!(v.get("a"), None);
        assert_eq!(v.to_string(), r#"{"b":2}"#);
    }

    /// Characters that stress the string scanner: delimiters, escapes,
    /// control characters, multi-byte and astral (surrogate-pair) code
    /// points.
    const TRICKY: &str =
        "\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}éß€中\u{2028}\u{fffd}\u{e000}😀𝄞\u{10ffff}";

    /// Maps `(kind, raw)` draws to a char: a tricky one, an arbitrary
    /// scalar value, plain ASCII, or an astral-plane char.
    fn char_of((kind, raw): (u64, u64)) -> char {
        let raw = raw as u32;
        match kind {
            0 => {
                let n = TRICKY.chars().count();
                TRICKY.chars().nth(raw as usize % n).unwrap()
            }
            1 => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
            2 => char::from(b' ' + (raw % 95) as u8),
            _ => char::from_u32(0x1_0000 + raw % 0x10_0000).unwrap(),
        }
    }

    /// Encodes every char of `s` as a `\uXXXX` escape (astral chars as a
    /// surrogate pair), alternating hex-digit case.
    fn escape_all(s: &str) -> String {
        let mut out = String::from("\"");
        let mut units = [0u16; 2];
        for (k, c) in s.chars().enumerate() {
            for unit in c.encode_utf16(&mut units) {
                if k % 2 == 0 {
                    out.push_str(&format!("\\u{unit:04x}"));
                } else {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
        out.push('"');
        out
    }

    crate::proptest_lite! {
        // Strings survive the writer → parser round trip, and the
        // all-escaped spelling (surrogate pairs included) parses to the
        // same value, also as object keys inside nested containers.
        #[cases(300)]
        fn unicode_and_escape_heavy_strings_round_trip(
            draws in crate::proptest_lite::vec_of((0u64..4, 0u64..u64::MAX), 0..80),
            depth in 0u64..40
        ) {
            let s: String = draws.iter().copied().map(char_of).collect();
            let direct = Json::Str(s.clone()).to_string();
            crate::prop_assert_eq!(Json::parse(&direct), Ok(Json::Str(s.clone())));
            let escaped = escape_all(&s);
            crate::prop_assert_eq!(Json::parse(&escaped), Ok(Json::Str(s.clone())));

            let mut doc = format!("{{{escaped}:[{direct},{escaped}]}}");
            let mut want = Json::Obj(vec![(
                s.clone(),
                Json::Arr(vec![Json::Str(s.clone()), Json::Str(s.clone())]),
            )]);
            for _ in 0..depth {
                doc = format!("[{doc},{direct}]");
                want = Json::Arr(vec![want, Json::Str(s.clone())]);
            }
            let parsed = Json::parse(&doc);
            crate::prop_assert_eq!(parsed.as_ref(), Ok(&want));
            crate::prop_assert_eq!(Json::parse(&want.to_string()), Ok(want));
        }
    }

    /// Every member [`Members`] hands out, or its first error.
    fn read_members(doc: &str) -> Result<Vec<(String, Json)>, JsonError> {
        let mut r = Members::new(doc)?;
        let mut out = Vec::new();
        while let Some((k, v)) = r.next_member()? {
            out.push((k.into_owned(), v.into_json()));
        }
        Ok(out)
    }

    /// A member value drawn from `pick`: every scalar kind, strings that
    /// need escapes, and nested containers.
    fn value_of(pick: u64, s: &str) -> Json {
        match pick % 8 {
            0 => Json::Null,
            1 => Json::Bool(pick % 16 < 8),
            2 => Json::Int(pick as i128 - (1 << 40)),
            3 => Json::Num(f64::from_bits(pick.rotate_left(17)).clamp(-1e300, 1e300)),
            4 | 5 => Json::Str(s.to_string()),
            6 => Json::Arr(vec![Json::Int(1), Json::Str(s.to_string())]),
            _ => Json::Obj(vec![(s.to_string(), Json::Arr(vec![]))]),
        }
    }

    crate::proptest_lite! {
        // The streaming member reader agrees with the tree parser on every
        // document: the same members in order (duplicates included) when
        // the tree is an object, none when it is another value, and the
        // same error text when the document is malformed — after escaped
        // keys, truncation or trailing bytes.
        #[cases(400)]
        fn member_reader_matches_the_tree_parser(
            members in crate::proptest_lite::vec_of(
                ((0u64..4, 0u64..u64::MAX), 0u64..u64::MAX), 0..8),
            escape_keys in 0u64..2,
            cut in 0u64..u64::MAX,
            tail in 0u64..6
        ) {
            let mut doc = String::from("{");
            for (k, ((kind, raw), pick)) in members.iter().enumerate() {
                // Every seventh key repeats: duplicates come out in order.
                let s: String = if pick % 7 == 0 {
                    "dup".to_string()
                } else {
                    std::iter::once(char_of((*kind, *raw))).chain("ey".chars()).collect()
                };
                if k > 0 {
                    doc.push_str(if pick % 3 == 0 { " ,\n " } else { "," });
                }
                if escape_keys == 1 {
                    doc.push_str(&escape_all(&s));
                } else {
                    doc.push_str(&Json::Str(s.clone()).to_string());
                }
                doc.push_str(if pick % 5 == 0 { " : " } else { ":" });
                doc.push_str(&value_of(*pick, &s).to_string());
            }
            doc.push('}');
            // Sometimes cut the document short, sometimes append bytes.
            if cut % 4 == 0 {
                let mut at = (cut / 4) as usize % (doc.len() + 1);
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                doc.truncate(at);
            }
            doc.push_str(["", " ", "\n", " x", "}", ",{}"][tail as usize]);
            let want = Json::parse(&doc).map(|j| match j {
                Json::Obj(ms) => ms,
                _ => Vec::new(),
            });
            crate::prop_assert_eq!(read_members(&doc), want, "{}", doc);
        }
    }

    #[test]
    fn member_reader_borrows_escape_free_strings_and_reads_non_objects_empty() {
        let doc = r#"{"event":"predict","id":7,"lane":"urg\u0065nt","job":{"a":[1]}}"#;
        let mut r = Members::new(doc).unwrap();
        let (k, v) = r.next_member().unwrap().unwrap();
        assert!(matches!(k, Cow::Borrowed("event")));
        assert!(matches!(v, JsonRef::Str(Cow::Borrowed("predict"))));
        assert_eq!(r.next_member().unwrap().unwrap().1, JsonRef::Int(7));
        let (_, lane) = r.next_member().unwrap().unwrap();
        assert!(matches!(lane, JsonRef::Str(Cow::Owned(ref s)) if s == "urgent"));
        let (_, job) = r.next_member().unwrap().unwrap();
        assert_eq!(job.into_json(), Json::parse(r#"{"a":[1]}"#).unwrap());
        assert!(r.next_member().unwrap().is_none());
        for doc in ["[1,2]", " 42 ", "\"s\"", "null", "{}"] {
            assert_eq!(read_members(doc), Ok(Vec::new()), "{doc}");
        }
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(200), "]".repeat(200));
        assert_eq!(read_members(&deep), Err(JsonError::new("nesting too deep")));
    }

    /// The float rule as the tree writer stated it before [`write_number`]
    /// existed: `to_string`, then `.0` unless a `.` or exponent shows.
    fn float_reference(x: f64) -> String {
        if !x.is_finite() {
            return "null".into();
        }
        let mut s = x.to_string();
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    }

    fn number_text(n: Number) -> String {
        let mut s = String::new();
        write_number(&mut s, n).unwrap();
        s
    }

    crate::proptest_lite! {
        // Every f64 and every f32 (widened) writes as the reference rule
        // does: NaN/inf, signed zeros, subnormals and huge integral values
        // included.
        #[cases(2000)]
        fn write_number_matches_the_reference_float_rule(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            crate::prop_assert_eq!(number_text(Number::Float(x)), float_reference(x));
            let y = f32::from_bits(bits as u32) as f64;
            crate::prop_assert_eq!(number_text(Number::Float(y)), float_reference(y));
        }
    }

    #[test]
    fn write_number_edge_cases() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -42.0,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f32::MAX as f64,
            f32::from_bits(1) as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(number_text(Number::Float(x)), float_reference(x), "{x:e}");
        }
        assert_eq!(number_text(Number::Float(-0.0)), "-0.0");
        assert_eq!(number_text(Number::Int(i128::MIN)), i128::MIN.to_string());
        assert_eq!(
            number_text(Number::Int(u64::MAX as i128)),
            "18446744073709551615"
        );
    }

    #[test]
    fn byte_writer_matches_display() {
        let v = Json::parse(r#"{"k\n":[1,2.5,null,"\u0001\"x",{"y":-0.0}]}"#).unwrap();
        let mut bytes = Vec::new();
        fmt::Write::write_fmt(&mut ByteWriter(&mut bytes), format_args!("{v}")).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), v.to_string());
        assert_eq!(
            v.to_string(),
            r#"{"k\n":[1,2.5,null,"\u0001\"x",{"y":-0.0}]}"#
        );
    }

    /// Bytes the string scanner examines while parsing `doc`.
    fn examined_by(doc: &str) -> usize {
        EXAMINED.with(|c| c.set(0));
        Json::parse(doc).unwrap();
        EXAMINED.with(|c| c.get())
    }

    #[test]
    fn string_parsing_examines_each_byte_a_bounded_number_of_times() {
        // A snapshot-shaped document: many members whose keys and values
        // are long, unicode-heavy, escape-sprinkled strings. Re-validating
        // the rest of the document per character (the old scanner) grows
        // as size × string bytes; the guard allows a constant per byte.
        let member = |k: usize| {
            let text = format!(
                "jöb-{k} ☃ \\\"quoted\\\" \\u00e9\\ud83d\\ude00 {}",
                "x".repeat(40)
            );
            format!("\"{text}\":[\"{text}\",{k}]")
        };
        for n in [10usize, 100, 1_000, 4_000] {
            let doc = format!("{{{}}}", (0..n).map(member).collect::<Vec<_>>().join(","));
            let examined = examined_by(&doc);
            assert!(examined > 0);
            assert!(
                examined <= 2 * doc.len(),
                "{n} members: examined {examined} bytes of a {}-byte document",
                doc.len()
            );
        }
        // An unterminated string is rejected after one pass over it.
        let open = format!("\"{}", "é".repeat(50_000));
        EXAMINED.with(|c| c.set(0));
        assert!(Json::parse(&open).is_err());
        assert!(EXAMINED.with(|c| c.get()) <= open.len());
    }

    #[test]
    fn nested_value_round_trips_through_text() {
        let text = r#"{"cluster":{"name":"anvil","partitions":[{"name":"shared","whole_node":false}]},"records":[],"x":[1,2.5,null,true,"s"]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
