//! Algorithm parameters as JSON documents.
//!
//! Every [`crate::algo::Algorithm`] exposes its tunables as a JSON object
//! ([`Algorithm::default_params`](crate::algo::Algorithm::default_params))
//! and accepts overrides in the same shape
//! ([`Algorithm::run_with_params`](crate::algo::Algorithm::run_with_params)),
//! so experiment configs can travel through files, CLI flags and perf
//! records without every consumer learning eleven config types.
//!
//! [`Value`] is a complete little JSON codec — parser and renderer —
//! because the workspace builds hermetically: the vendored `serde` is an
//! API stub and `serde_json` is not available at all. The config structs
//! still derive the (stubbed) serde traits, so swapping the vendored
//! crates for the real ones later only *adds* capability; this module is
//! the part that has to work today. Object keys keep insertion order, so
//! `parse(render(v)) == v` exactly (see the round-trip tests).
//!
//! A config struct becomes such a document through one **knob table**
//! ([`Knobs`], built with [`knobs!`](crate::knobs)): each row names a key
//! once and says how the field is read into a [`Value`] and written back
//! from one ([`Param`]). The generic [`render`] and [`apply`] serve every
//! config from its table, so the keys a document carries, the keys an
//! override may use and the "valid keys" listing of an error cannot
//! drift apart. Kind-tagged enums (`{"kind": "ring"}`) share
//! [`read_tag`] and [`check_knobs`].

use std::fmt;

/// A JSON value. Numbers are `f64` (as in JSON itself); objects preserve
/// insertion order so documents round-trip byte-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON has only one numeric type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Error applying or parsing algorithm parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError(pub String);

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Shorthand for building a [`ParamError`].
pub(crate) fn err(msg: impl Into<String>) -> ParamError {
    ParamError(msg.into())
}

/// A knob's field type: how the field is read into a [`Value`] and
/// written back from one.
pub trait Param {
    /// The field as a JSON value.
    fn to_value(&self) -> Value;

    /// Overwrites the field from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming `key` for a wrongly typed or
    /// out-of-range value.
    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError>;
}

/// The error for a parameter `key` whose value `v` is not `what`.
#[must_use]
pub fn wants(key: &str, what: &str, v: &Value) -> ParamError {
    err(format!(
        "parameter {key:?} wants {what}, got {}",
        v.render()
    ))
}

/// A fresh `T` read from `v` (a default `T` with `v` written into it).
///
/// # Errors
///
/// Returns the error of [`Param::set`].
pub fn from_value<T: Param + Default>(key: &str, v: &Value) -> Result<T, ParamError> {
    let mut x = T::default();
    x.set(key, v)?;
    Ok(x)
}

/// One row of a knob table.
pub struct Knob<C> {
    /// The JSON key (the field's name).
    pub key: &'static str,
    /// Reads the knob.
    pub get: fn(&C) -> Value,
    /// Writes the knob, including the knob's own check.
    pub set: fn(&mut C, &Value) -> Result<(), ParamError>,
}

/// A config whose knobs travel as one JSON object, described by its knob
/// table (see [`knobs!`](crate::knobs)).
pub trait Knobs: Clone + 'static {
    /// The config's name in error messages (`"unknown {NAME} parameter"`).
    const NAME: &'static str;
    /// One row per key, in render order.
    const TABLE: &'static [Knob<Self>];

    /// Whole-config check an [`apply`] must pass before it commits.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming the offending knob.
    fn check(&self) -> Result<(), ParamError> {
        Ok(())
    }
}

/// A config's knobs as a JSON object, in table order.
#[must_use]
pub fn render<C: Knobs>(c: &C) -> Value {
    Value::Obj(
        C::TABLE
            .iter()
            .map(|k| (k.key.to_string(), (k.get)(c)))
            .collect(),
    )
}

/// Applies a JSON object of overrides onto a config, all or nothing: the
/// overrides are written into a copy, which must pass [`Knobs::check`]
/// before it replaces `c`.
///
/// # Errors
///
/// Rejects a non-object document, unknown keys (listing the table's
/// keys), wrongly typed or out-of-range values and a failed check; `c` is
/// then left as it was.
pub fn apply<C: Knobs>(c: &mut C, overrides: &Value) -> Result<(), ParamError> {
    let mut next = c.clone();
    for (key, v) in overrides.expect_obj(&format!("{} parameters", C::NAME))? {
        let knob = C::TABLE.iter().find(|k| k.key == key).ok_or_else(|| {
            let valid: Vec<&str> = C::TABLE.iter().map(|k| k.key).collect();
            err(format!(
                "unknown {} parameter {key:?}; valid keys: {valid:?}",
                C::NAME
            ))
        })?;
        (knob.set)(&mut next, v)?;
    }
    next.check()?;
    *c = next;
    Ok(())
}

/// A nested config is one knob of its parent, rendered and applied
/// through its own table.
impl<C: Knobs> Param for C {
    fn to_value(&self) -> Value {
        render(self)
    }

    fn set(&mut self, _key: &str, v: &Value) -> Result<(), ParamError> {
        apply(self, v)
    }
}

/// Implements [`Knobs`](crate::params::Knobs) for a config struct from its
/// knob table: each listed field travels under its own name, in listed
/// order, through its [`Param`](crate::params::Param) conversion.
/// `field(check)` adds a per-knob check and a trailing path a
/// whole-config check, both `fn(&T) -> Result<(), String>`.
///
/// ```
/// use gossip_core::params::{apply, render, Value};
///
/// #[derive(Clone, Default)]
/// struct Tuning {
///     rounds: u32,
///     scale: f64,
/// }
/// gossip_core::knobs!(Tuning, "Tuning", [rounds, scale]);
///
/// let mut t = Tuning::default();
/// apply(&mut t, &Value::parse(r#"{"scale": 2.5}"#).unwrap()).unwrap();
/// assert_eq!(render(&t).render(), r#"{"rounds":0,"scale":2.5}"#);
/// assert!(apply(&mut t, &Value::parse(r#"{"speed": 1}"#).unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! knobs {
    ($ty:ty, $name:literal, [$($field:ident $(($check:path))?),* $(,)?] $(, $validate:path)?) => {
        impl $crate::params::Knobs for $ty {
            const NAME: &'static str = $name;
            const TABLE: &'static [$crate::params::Knob<Self>] = &[$($crate::params::Knob {
                key: stringify!($field),
                get: |c| $crate::params::Param::to_value(&c.$field),
                set: |c, v| {
                    $crate::params::Param::set(&mut c.$field, stringify!($field), v)?;
                    $($check(&c.$field).map_err($crate::params::ParamError)?;)?
                    Ok(())
                },
            }),*];

            $(fn check(&self) -> Result<(), $crate::params::ParamError> {
                $validate(self).map_err($crate::params::ParamError)
            })?
        }
    };
}

/// Reads the tag of a kind-tagged object such as `{"kind": "ring"}`: the
/// string under `tag_key`, which must be one of `tags`. `what` names the
/// enum in errors.
///
/// # Errors
///
/// Rejects a non-object document, a missing or non-string tag, and an
/// unknown tag (listing the valid ones).
pub fn read_tag<'v>(
    what: &str,
    tag_key: &str,
    tags: &[&str],
    v: &'v Value,
) -> Result<&'v str, ParamError> {
    v.expect_obj(&format!("{what} parameters"))?;
    let tag = v
        .get(tag_key)
        .ok_or_else(|| err(format!("{what} parameters need a {tag_key:?} key")))?;
    let tag = tag
        .as_str()
        .ok_or_else(|| wants(tag_key, "a string", tag))?;
    if !tags.contains(&tag) {
        return Err(err(format!(
            "unknown {what} {tag_key} {tag:?}; valid {tag_key}s: {}",
            quoted(tags, "or")
        )));
    }
    Ok(tag)
}

/// Checks the knobs of a kind-tagged object whose tag (under `tag_key`)
/// is `tag`: every one of `knobs` is required and every other key is
/// rejected.
///
/// # Errors
///
/// Names the first key the variant does not take, or every knob when one
/// is missing.
pub fn check_knobs(
    what: &str,
    tag_key: &str,
    tag: &str,
    knobs: &[&str],
    v: &Value,
) -> Result<(), ParamError> {
    if let Some((key, _)) = v
        .entries()
        .iter()
        .find(|(k, _)| k != tag_key && !knobs.contains(&k.as_str()))
    {
        return Err(err(if knobs.is_empty() {
            format!("{what} {tag_key} {tag:?} has no knobs; {key:?} does not apply")
        } else {
            format!(
                "{what} {tag_key} {tag:?} does not take knob {key:?}; valid knobs: {}",
                knobs.join(", ")
            )
        }));
    }
    if knobs.iter().any(|k| v.get(k).is_none()) {
        return Err(err(format!(
            "{what} {tag_key} {tag:?} needs {}",
            quoted(knobs, "and")
        )));
    }
    Ok(())
}

/// `"a", "b" or "c"` (with `conj` as the last separator).
#[must_use]
pub fn quoted(items: &[&str], conj: &str) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    match quoted.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} {conj} {last}", rest.join(", ")),
        _ => quoted.concat(),
    }
}

impl Param for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        *self = v.as_f64().ok_or_else(|| wants(key, "a number", v))?;
        Ok(())
    }
}

/// A `u64` travels as a plain number when exactly representable as `f64`
/// (≤ 2^53), else as a decimal string — JSON numbers are doubles, and
/// silently rounding a 64-bit seed would break exact replay. Both forms
/// are accepted back.
impl Param for u64 {
    fn to_value(&self) -> Value {
        if *self <= (1u64 << 53) {
            Value::Num(*self as f64)
        } else {
            Value::Str(self.to_string())
        }
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        let x = match v {
            Value::Str(s) => s.parse().ok(),
            _ => v.as_u64(),
        };
        *self = x.ok_or_else(|| wants(key, "an integer", v))?;
        Ok(())
    }
}

macro_rules! narrow_int_param {
    ($($t:ty),*) => {$(
        impl Param for $t {
            fn to_value(&self) -> Value {
                (*self as u64).to_value()
            }

            fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
                let x: u64 = from_value(key, v)?;
                *self = <$t>::try_from(x)
                    .map_err(|_| err(format!("parameter {key:?} out of range: {x}")))?;
                Ok(())
            }
        }
    )*};
}

narrow_int_param!(u32, usize);

impl Param for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        *self = v
            .as_str()
            .ok_or_else(|| wants(key, "a string", v))?
            .to_string();
        Ok(())
    }
}

/// `None` travels as `null`.
impl<T: Param + Default> Param for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Param::to_value)
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        *self = match v {
            Value::Null => None,
            _ => Some(from_value(key, v)?),
        };
        Ok(())
    }
}

impl<T: Param + Default> Param for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Param::to_value).collect())
    }

    fn set(&mut self, key: &str, v: &Value) -> Result<(), ParamError> {
        let Value::Arr(items) = v else {
            return Err(wants(key, "an array", v));
        };
        *self = items
            .iter()
            .map(|x| from_value(key, x))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

impl Value {
    /// An empty JSON object (`{}`) — the "no overrides" document.
    #[must_use]
    pub fn empty() -> Value {
        Value::Obj(Vec::new())
    }

    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's entries (empty for non-objects).
    #[must_use]
    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(entries) => entries,
            _ => &[],
        }
    }

    /// This object with `(key, value)` inserted as its first entry.
    #[must_use]
    pub fn with_first(self, key: &str, value: Value) -> Value {
        let mut entries = vec![(key.to_string(), value)];
        if let Value::Obj(rest) = self {
            entries.extend(rest);
        }
        Value::Obj(entries)
    }

    /// This object without its `key` entry (non-objects unchanged, so a
    /// later [`Value::expect_obj`] still rejects them).
    #[must_use]
    pub fn without(&self, key: &str) -> Value {
        match self {
            Value::Obj(entries) => {
                Value::Obj(entries.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            other => other.clone(),
        }
    }

    /// The object's entries, rejecting non-object values — parameter
    /// override documents must be JSON objects, and a silently ignored
    /// string/array/number (e.g. a double-encoded document) would run
    /// with defaults while claiming success.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] naming `what` when the value is not an
    /// object.
    pub fn expect_obj(&self, what: &str) -> Result<&[(String, Value)], ParamError> {
        match self {
            Value::Obj(entries) => Ok(entries),
            _ => Err(err(format!(
                "{what} must be a JSON object, got {}",
                self.render()
            ))),
        }
    }

    /// Numeric view of the value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (numbers with no fractional part).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Boolean view of the value.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(x) => {
                if x.is_finite() {
                    // `{x}` prints f64 with enough digits to round-trip.
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] describing the first syntax error (with
    /// byte offset), nesting deeper than [`MAX_DEPTH`], or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Value, ParamError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err(format!(
                "trailing characters after JSON value at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// The deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a short
/// document (`[[[[…`) overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), ParamError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, ParamError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(err(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, ParamError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParamError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(err(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParamError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Advance over the plain (unescaped, non-quote) run.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(err(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                _ => return Err(err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParamError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err(format!("invalid number {text:?} at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-3.25", "1e3", "\"hi\""] {
            let v = Value::parse(doc).expect(doc);
            assert_eq!(Value::parse(&v.render()).unwrap(), v, "{doc}");
        }
    }

    #[test]
    fn objects_keep_order_and_round_trip() {
        let v = Value::obj([
            ("b", Value::Num(2.0)),
            ("a", Value::Num(1.5)),
            ("nested", Value::obj([("x", Value::Bool(true))])),
        ]);
        let doc = v.render();
        assert_eq!(doc, r#"{"b":2,"a":1.5,"nested":{"x":true}}"#);
        assert_eq!(Value::parse(&doc).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn whitespace_and_arrays() {
        let v = Value::parse(" { \"xs\" : [ 1 , 2.5 , null ] } ").unwrap();
        assert_eq!(
            v.get("xs"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Null
            ]))
        );
    }

    #[test]
    fn errors_are_located() {
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("42 junk").unwrap_err().0.contains("trailing"));
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn nesting_depth_is_capped() {
        let e = Value::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(e.0.contains("nesting deeper"), "{e}");
        assert!(e.0.contains(&format!("byte {MAX_DEPTH}")), "{e}");
        let e = Value::parse(&"{\"a\":".repeat(200)).unwrap_err();
        assert!(e.0.contains("nesting deeper"), "{e}");

        let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
        let v = Value::parse(&deep).unwrap();
        assert_eq!(v.render(), deep);
    }

    #[test]
    fn expect_obj_rejects_non_objects() {
        assert!(Value::empty().expect_obj("x").is_ok());
        for v in [
            Value::Null,
            Value::Num(4.0),
            Value::Str("{}".into()),
            Value::Arr(vec![]),
        ] {
            let err = v.expect_obj("tunables").unwrap_err();
            assert!(err.0.contains("tunables"), "{err}");
            assert!(err.0.contains("JSON object"), "{err}");
        }
    }

    #[test]
    fn accessors() {
        let v = Value::obj([("n", Value::Num(64.0)), ("on", Value::Bool(true))]);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(64));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(64.0));
        assert_eq!(v.get("on").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }
}
