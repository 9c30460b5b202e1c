//! A small self-contained JSON value type, parser and writer.
//!
//! The build environment is fully offline (no crates.io), so artifact
//! serialization cannot lean on `serde`. This module provides the one JSON
//! layer every crate shares: [`Json`] is a plain tree, [`Json::parse`] is a
//! strict recursive-descent reader, and [`Json::write`] emits a compact,
//! deterministic encoding (object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting, so `parse(write(v)) == v`).
//!
//! Exact integers wider than an `f64` mantissa (e.g. `fixpt::Fixed::raw`
//! payloads) must be carried as strings by the schema; [`Json::Num`] is a
//! lossless `f64` only.
//!
//! # The codec
//!
//! One mechanism decides how a Rust value becomes JSON and back:
//!
//! - [`Encode`] and [`Decode`] are implemented here for the value types
//!   the wire carries: integers, `f64`, `bool`, strings, `Option`
//!   (`null`), `Vec` (array), `BTreeMap<String, _>` (object in key order),
//!   [`Json`] itself, fixed-point values and interpreter slots.
//! - Integers decode by *checked narrowing*: a number that is not a
//!   non-negative integer (or an integer, for signed types), or that does
//!   not fit the target type, is an error naming the value and the type —
//!   never a wrapped or truncated value.
//! - [`json_struct!`](crate::json_struct) derives both directions of a
//!   plain struct from its field list: keys in field order, an absent key
//!   is `"<label>: missing <key>"` (unless the field is an `Option` or has
//!   a default), a bad value is `"<label>: bad <key>: <why>"`.
//! - [`Named`] maps a unit enum to its wire names through one table.
//!
//! Irregular shapes (tagged unions, omitted-when-empty keys, validated
//! fields) implement the traits by hand with [`field`] and [`field_or`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use fixpt::{Fixed, Format, Signedness};

use crate::diag::json_str;
use crate::{Slot, VarId};

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite floats are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (and significant for the writer),
    /// which keeps serialized artifacts byte-stable across processes.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64` without loss of
    /// the magnitudes this codebase stores (counts, widths, areas).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` count (callers keep counts < 2^53).
    pub fn count(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Builds a number from a `usize` count.
    pub fn size(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative integer
    /// that fits one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as an `i64`, if this is an integer that fits one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n < i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Writes the compact deterministic encoding.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest formatting round-trips exactly through
                    // str::parse::<f64>.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&json_str(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(k));
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A value with one JSON encoding.
pub trait Encode {
    /// The value as JSON.
    fn encode(&self) -> Json;
}

/// A value that decodes from its [`Encode`] form.
pub trait Decode: Sized {
    /// Decodes `v`, or says what is wrong with it.
    fn decode(v: &Json) -> Result<Self, String>;

    /// What an absent key decodes to; `None` makes absence an error.
    /// `Option` reads an absent key as `None`.
    fn absent() -> Option<Self> {
        None
    }
}

/// Decodes the value under `key` of the record `v` (called `label` in
/// errors). An absent key is an error unless the type allows absence.
pub fn field<T: Decode>(v: &Json, label: &str, key: &str) -> Result<T, String> {
    match v.get(key) {
        Some(x) => T::decode(x).map_err(|e| format!("{label}: bad {key}: {e}")),
        None => T::absent().ok_or_else(|| format!("{label}: missing {key}")),
    }
}

/// [`field`], with `default()` for an absent key.
pub fn field_or<T: Decode>(
    v: &Json,
    label: &str,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, String> {
    match v.get(key) {
        Some(_) => field(v, label, key),
        None => Ok(default()),
    }
}

/// A unit enum encoded as one name from a fixed table.
pub trait Named: Copy + PartialEq + 'static {
    /// Every variant with its name.
    const NAMES: &'static [(Self, &'static str)];

    /// This variant's name (empty for a variant the table misses).
    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(v, _)| *v == self)
            .map_or("", |(_, n)| n)
    }

    /// The variant called `name`.
    fn by_name(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(v, _)| *v)
    }
}

impl<T: Named> Encode for T {
    fn encode(&self) -> Json {
        Json::str(self.name())
    }
}

impl<T: Named> Decode for T {
    fn decode(v: &Json) -> Result<T, String> {
        let name = v.as_str().ok_or("expected a name")?;
        T::by_name(name).ok_or_else(|| format!("unknown name {name:?}"))
    }
}

macro_rules! integers {
    ($($t:ty: $read:ident, $what:literal;)*) => {$(
        impl Encode for $t {
            fn encode(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl Decode for $t {
            fn decode(v: &Json) -> Result<$t, String> {
                let n = v.$read().ok_or(concat!("expected ", $what))?;
                <$t>::try_from(n)
                    .map_err(|_| format!("{n} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}

integers! {
    u32: as_u64, "a non-negative integer";
    u64: as_u64, "a non-negative integer";
    usize: as_u64, "a non-negative integer";
    i32: as_i64, "an integer";
    i64: as_i64, "an integer";
}

impl Encode for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
}

impl Decode for f64 {
    fn decode(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Encode for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Decode for bool {
    fn decode(v: &Json) -> Result<bool, String> {
        v.as_bool()
            .ok_or_else(|| "expected true or false".to_string())
    }
}

impl Encode for &str {
    fn encode(&self) -> Json {
        Json::str(*self)
    }
}

impl Encode for String {
    fn encode(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl Decode for String {
    fn decode(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

impl Encode for Json {
    fn encode(&self) -> Json {
        self.clone()
    }
}

impl Decode for Json {
    fn decode(v: &Json) -> Result<Json, String> {
        Ok(v.clone())
    }
}

/// Encodes as its current value (a counter snapshot).
impl Encode for AtomicU64 {
    fn encode(&self) -> Json {
        self.load(Ordering::Relaxed).encode()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Encode::encode)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(v: &Json) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Json) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::decode(x).map_err(|e| format!("item {i}: {e}")))
            .collect()
    }
}

impl<T: Encode> Encode for BTreeMap<String, T> {
    fn encode(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.encode())).collect())
    }
}

impl<T: Decode> Decode for BTreeMap<String, T> {
    fn decode(v: &Json) -> Result<BTreeMap<String, T>, String> {
        v.as_obj()
            .ok_or("expected an object")?
            .iter()
            .map(|(k, x)| Ok((k.clone(), T::decode(x).map_err(|e| format!("{k:?}: {e}"))?)))
            .collect()
    }
}

/// A fixed-point value travels as its raw mantissa (a string: mantissas
/// exceed `f64` precision) plus its full format, so it round-trips
/// bit-exactly.
impl Encode for Fixed {
    fn encode(&self) -> Json {
        let f = self.format();
        Json::obj(vec![
            ("raw", Json::str(self.raw().to_string())),
            ("width", f.width().encode()),
            ("int_bits", f.int_bits().encode()),
            ("signed", f.is_signed().encode()),
        ])
    }
}

impl Decode for Fixed {
    fn decode(v: &Json) -> Result<Fixed, String> {
        const L: &str = "fixed";
        let raw: String = field(v, L, "raw")?;
        let raw: i128 = raw
            .parse()
            .map_err(|e| format!("{L}: bad raw mantissa: {e}"))?;
        let signedness = if field(v, L, "signed")? {
            Signedness::Signed
        } else {
            Signedness::Unsigned
        };
        let format = Format::new(field(v, L, "width")?, field(v, L, "int_bits")?, signedness)
            .map_err(|e| format!("{L}: bad format: {e:?}"))?;
        Fixed::from_raw(raw, format).map_err(|_| format!("{L}: raw out of format range"))
    }
}

/// `{"scalar": x}` or `{"array": [x, ...]}`.
impl Encode for Slot {
    fn encode(&self) -> Json {
        match self {
            Slot::Scalar(x) => Json::obj(vec![("scalar", x.encode())]),
            Slot::Array(xs) => Json::obj(vec![("array", xs.encode())]),
        }
    }
}

impl Decode for Slot {
    fn decode(v: &Json) -> Result<Slot, String> {
        if v.get("scalar").is_some() {
            return field(v, "slot", "scalar").map(Slot::Scalar);
        }
        if v.get("array").is_some() {
            return field(v, "slot", "array").map(Slot::Array);
        }
        Err("slot: neither scalar nor array".to_string())
    }
}

/// A variable travels as its index.
impl Encode for VarId {
    fn encode(&self) -> Json {
        self.index().encode()
    }
}

impl Decode for VarId {
    fn decode(v: &Json) -> Result<VarId, String> {
        u32::decode(v).map(VarId::from_raw)
    }
}

/// Derives the JSON codec of a plain struct from its field list.
///
/// Each field is `name`, `name as "key"` (a wire key that differs from
/// the field name) or `name or default` (the value of an absent key);
/// every field's type implements [`Encode`](crate::json::Encode) (and
/// [`Decode`](crate::json::Decode) when decoding). Keys are written in
/// the order listed.
///
/// - `pub Type as "label" { .. }` implements both traits and inherent
///   `to_json`/`from_json` (with the given visibility); `label` names
///   the record in decode errors.
/// - `pub Type { .. }` implements `Encode` and an inherent `to_json`.
/// - `impl Type as "label" { .. }` and `impl Type { .. }` implement the
///   traits only.
///
/// ```
/// use hls_ir::json::{Decode, Encode};
/// use hls_ir::{json_struct, Json};
///
/// #[derive(Debug, PartialEq)]
/// pub struct Point {
///     x: u32,
///     y: Option<u32>,
///     tags: Vec<String>,
/// }
/// json_struct! { pub Point as "point" { x, y, tags as "labels" or Vec::new() } }
///
/// let p = Point { x: 1, y: None, tags: vec!["a".into()] };
/// assert_eq!(p.to_json().write(), r#"{"x":1,"y":null,"labels":["a"]}"#);
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// let wide = Json::parse(r#"{"x": 4294967296}"#).unwrap();
/// assert_eq!(
///     Point::from_json(&wide),
///     Err("point: bad x: 4294967296 is out of range for u32".to_string())
/// );
/// ```
#[macro_export]
macro_rules! json_struct {
    (impl $ty:ident as $label:literal { $($body:tt)* }) => {
        $crate::json_struct!(@encode $ty { $($body)* });
        $crate::json_struct!(@decode $ty $label { $($body)* });
    };
    (impl $ty:ident { $($body:tt)* }) => {
        $crate::json_struct!(@encode $ty { $($body)* });
    };
    ($vis:vis $ty:ident as $label:literal { $($body:tt)* }) => {
        $crate::json_struct!(impl $ty as $label { $($body)* });
        impl $ty {
            #[doc = concat!("Encodes the `", stringify!($ty), "` as JSON.")]
            $vis fn to_json(&self) -> $crate::Json {
                $crate::json::Encode::encode(self)
            }

            #[doc = concat!("Decodes a `", stringify!($ty), "` written by `to_json`.")]
            $vis fn from_json(v: &$crate::Json) -> Result<$ty, String> {
                $crate::json::Decode::decode(v)
            }
        }
    };
    ($vis:vis $ty:ident { $($body:tt)* }) => {
        $crate::json_struct!(impl $ty { $($body)* });
        impl $ty {
            #[doc = concat!("Encodes the `", stringify!($ty), "` as JSON.")]
            $vis fn to_json(&self) -> $crate::Json {
                $crate::json::Encode::encode(self)
            }
        }
    };
    (@encode $ty:ident {
        $($field:ident $(as $key:literal)? $(or $default:expr)?),* $(,)?
    }) => {
        impl $crate::json::Encode for $ty {
            fn encode(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$((
                    $crate::json_struct!(@key $field $($key)?).to_string(),
                    $crate::json::Encode::encode(&self.$field),
                )),*])
            }
        }
    };
    (@decode $ty:ident $label:literal {
        $($field:ident $(as $key:literal)? $(or $default:expr)?),* $(,)?
    }) => {
        impl $crate::json::Decode for $ty {
            fn decode(v: &$crate::Json) -> Result<$ty, String> {
                Ok($ty {$(
                    $field: $crate::json_struct!(
                        @field v, $label, $crate::json_struct!(@key $field $($key)?) $(, $default)?
                    ),
                )*})
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@field $v:ident, $label:literal, $key:expr) => {
        $crate::json::field($v, $label, $key)?
    };
    (@field $v:ident, $label:literal, $key:expr, $default:expr) => {
        $crate::json::field_or($v, $label, $key, || $default)?
    };
}

/// A stable 128-bit content digest rendered as 32 lowercase hex digits.
///
/// Two independent FNV-1a-64 passes with distinct offset bases; no
/// cryptographic strength is claimed — consumers that need integrity store
/// the preimage next to the digest and compare on load, so a collision
/// degrades to a cache miss, never to wrong data. Dependency-free and
/// byte-stable across processes and platforms.
pub fn stable_digest(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142;
    for &byte in bytes {
        a = (a ^ byte as u64).wrapping_mul(PRIME);
        b = (b ^ byte as u64).wrapping_mul(PRIME).rotate_left(1);
    }
    format!("{a:016x}{b:016x}")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are not produced by our writer;
                            // decode lone escapes, pair high+low when present.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad surrogate"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume the whole run of ordinary bytes at once. The
                    // run splits only at ASCII delimiters, so it stays valid
                    // UTF-8 given a `&str` input (continuation bytes are
                    // ≥ 0x80 and never match a delimiter).
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\n\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.write()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn round_trips_shortest_float() {
        let v = Json::Num(0.1 + 0.2);
        let back = Json::parse(&v.write()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn preserves_object_order() {
        let v = Json::obj(vec![
            ("zebra", Json::count(1)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.write(), "{\"zebra\":1,\"alpha\":[null,true]}");
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"a\": [1, 2.5], \"b\": \"x\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(stable_digest(b"abc"), stable_digest(b"abc"));
        assert_ne!(stable_digest(b"abc"), stable_digest(b"abd"));
        assert_eq!(stable_digest(b"").len(), 32);
        assert!(stable_digest(b"x").chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "nul", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn integers_narrow_by_checked_conversion() {
        let n = Json::Num;
        assert_eq!(u32::decode(&n(4294967295.0)), Ok(u32::MAX));
        assert_eq!(
            u32::decode(&n(4294967298.0)),
            Err("4294967298 is out of range for u32".to_string())
        );
        assert!(u32::decode(&n(-1.0)).is_err());
        assert!(u32::decode(&n(2.5)).is_err());
        assert!(u32::decode(&Json::str("1")).is_err());
        assert_eq!(i32::decode(&n(-2147483648.0)), Ok(i32::MIN));
        assert!(i32::decode(&n(2147483648.0)).is_err());
        assert_eq!(u64::decode(&n(9007199254740992.0)), Ok(1 << 53));
        assert_eq!(usize::decode(&n(3.0)), Ok(3));
    }

    #[test]
    fn fields_name_missing_and_bad_keys() {
        let v = Json::parse(r#"{"a": 1, "b": null, "c": "x", "m": {"k": 300}}"#).unwrap();
        assert_eq!(field::<u32>(&v, "rec", "a"), Ok(1));
        assert_eq!(
            field::<u32>(&v, "rec", "z"),
            Err("rec: missing z".to_string())
        );
        assert_eq!(field::<Option<u32>>(&v, "rec", "z"), Ok(None));
        assert_eq!(field::<Option<u32>>(&v, "rec", "b"), Ok(None));
        assert_eq!(
            field::<u32>(&v, "rec", "c"),
            Err("rec: bad c: expected a non-negative integer".to_string())
        );
        assert_eq!(field_or(&v, "rec", "z", || 7u32), Ok(7));
        assert_eq!(
            field::<BTreeMap<String, i32>>(&v, "rec", "m").map(|m| m["k"]),
            Ok(300)
        );
        assert_eq!(
            field::<Vec<u32>>(&Json::parse(r#"{"v": [1, -2]}"#).unwrap(), "rec", "v"),
            Err("rec: bad v: item 1: expected a non-negative integer".to_string())
        );
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }

    impl Named for Mode {
        const NAMES: &'static [(Mode, &'static str)] =
            &[(Mode::Fast, "fast"), (Mode::Slow, "slow")];
    }

    #[test]
    fn named_enums_use_their_table() {
        assert_eq!(Mode::Slow.encode(), Json::str("slow"));
        assert_eq!(Mode::decode(&Json::str("fast")), Ok(Mode::Fast));
        assert_eq!(
            Mode::decode(&Json::str("turbo")),
            Err("unknown name \"turbo\"".to_string())
        );
        assert!(Mode::decode(&Json::Num(0.0)).is_err());
    }

    #[test]
    fn fixed_point_values_travel_exactly() {
        let wide = Format::new(64, -3, Signedness::Signed).unwrap();
        for x in [
            Fixed::from_raw(i64::MIN as i128, wide).unwrap(),
            Fixed::from_raw(255, Format::unsigned(8, 8)).unwrap(),
        ] {
            let text = Slot::Array(vec![x; 2]).encode().write();
            let back = Slot::decode(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, Slot::Array(vec![x; 2]));
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }
}
