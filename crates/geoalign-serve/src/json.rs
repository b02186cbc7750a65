//! A minimal JSON value type with a recursive-descent parser and a
//! serializer — just enough for the service's request and response bodies.
//! No external dependencies; numbers are `f64` (like JavaScript), objects
//! preserve insertion order.
//!
//! The parser is depth-limited ([`MAX_DEPTH`]): recursion tracks the
//! nesting level, so a hostile body of 100k `[` characters is rejected
//! with [`JsonErrorKind::TooDeep`] instead of overflowing the worker
//! thread's stack.
//!
//! The bulk request bodies have typed decoders ([`parse_crosswalk`],
//! [`parse_triples`]) that walk the same grammar with the same
//! primitives, so they accept, reject and report exactly what [`parse`]
//! does, but keep their bulk arrays as `f64`s and borrowed strings
//! instead of a [`Json`] per element (DESIGN.md §7).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(v) => write_number(out, *v),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => write_array(out, items, |out, item| item.write(out)),
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders the value as compact JSON text (so `.to_string()` works too).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::String(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Appends `items` as a JSON array, each element written by `write`.
pub(crate) fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Appends `v` as [`Json::Number`] renders it.
pub(crate) fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 round-trips and never emits exponent-less `inf`.
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    }
}

/// Appends `s` as [`Json::String`] renders it.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Maximum container nesting the parser accepts. Every `[` or `{` costs
/// one level; deeper documents are rejected before the recursion can
/// threaten the stack.
pub const MAX_DEPTH: usize = 128;

/// Classification of a [`JsonError`], so callers can count depth-limit
/// rejections separately from plain syntax errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed input.
    Syntax,
    /// Structurally valid prefix, but nested past [`MAX_DEPTH`].
    TooDeep,
}

/// A JSON parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
    /// Whether this was a syntax error or a depth-limit rejection.
    pub kind: JsonErrorKind,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error. Nesting past [`MAX_DEPTH`] is rejected.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    document(text, |bytes, pos| parse_value(bytes, pos, MAX_DEPTH))
}

/// An object read by a typed decoder: the first member named by the
/// decoder's bulk key, decoded typed, and every other member as
/// [`parse`] builds it. [`Json::get`] on `other` therefore finds what
/// it finds on the tree for every key but the bulk one.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields<B> {
    /// The other members in document order, as a [`Json::Object`]; or,
    /// when the value is not an object, that value.
    pub other: Json,
    /// The first member named by the bulk key, if there is one.
    pub bulk: Option<B>,
}

/// A bulk array member.
#[derive(Debug, Clone, PartialEq)]
pub enum Bulk<T> {
    /// An array whose every element has the typed shape.
    Typed(Vec<T>),
    /// Any other value (not an array, or an array holding an element of
    /// another shape) as [`parse`] builds it.
    Tree(Json),
}

/// A `[source, target, number]` element. The strings are borrowed from
/// the body when they hold no escape.
pub type Triple<'a> = (Cow<'a, str>, Cow<'a, str>, f64);

/// One `/crosswalk` attribute: `values` typed, `name` among the others.
pub type Attribute = Fields<Bulk<f64>>;

/// Decodes a `/crosswalk` body: `attributes` is typed, and so is each
/// attribute's `values`. Accepts and rejects exactly what [`parse`]
/// does, with the same error.
pub fn parse_crosswalk(text: &str) -> Result<Fields<Bulk<Attribute>>, JsonError> {
    document(text, |bytes, pos| {
        fields(bytes, pos, MAX_DEPTH, "attributes", |pos, depth| {
            attributes(bytes, pos, depth)
        })
    })
}

/// Decodes a body whose member `key` holds `[source, target, number]`
/// triples (`/ingest` points, `/references` entries). Accepts and
/// rejects exactly what [`parse`] does, with the same error.
pub fn parse_triples<'a>(text: &'a str, key: &str) -> Result<Fields<Bulk<Triple<'a>>>, JsonError> {
    document(text, |bytes, pos| {
        fields(bytes, pos, MAX_DEPTH, key, |pos, depth| {
            bulk_array(
                bytes,
                pos,
                depth,
                |pos, depth| Ok(triple(bytes, pos, depth)),
                |(source, target, value)| {
                    Json::Array(vec![
                        Json::String(source.into_owned()),
                        Json::String(target.into_owned()),
                        Json::Number(value),
                    ])
                },
            )
        })
    })
}

/// Decodes the one value of `text` with `value`, then allows only
/// trailing whitespace: the frame every decoder shares.
fn document<'a, T>(
    text: &'a str,
    value: impl FnOnce(&'a [u8], &mut usize) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing content after document", pos));
    }
    Ok(value)
}

/// The value at `*pos` as [`Fields`]: an object's first `key` member goes
/// to `bulk`, called with the member's remaining depth; everything else
/// goes to [`parse_value`].
fn fields<B>(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    key: &str,
    mut bulk: impl FnMut(&mut usize, usize) -> Result<B, JsonError>,
) -> Result<Fields<B>, JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'{') {
        let other = parse_value(bytes, pos, depth)?;
        return Ok(Fields { other, bulk: None });
    }
    let mut other = Vec::new();
    let mut found = None;
    object_members(bytes, pos, depth, |name, pos, depth| {
        if found.is_none() && name == key {
            found = Some(bulk(pos, depth)?);
        } else {
            other.push((name.into_owned(), parse_value(bytes, pos, depth)?));
        }
        Ok(())
    })?;
    Ok(Fields {
        other: Json::Object(other),
        bulk: found,
    })
}

/// `/crosswalk`'s `attributes`. Every value is an attribute (one that is
/// not an object has no members), so only a non-array stays a tree.
fn attributes(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Bulk<Attribute>, JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'[') {
        return parse_value(bytes, pos, depth).map(Bulk::Tree);
    }
    let mut attributes = Vec::new();
    array_elements(bytes, pos, depth, |pos, depth| {
        attributes.push(fields(bytes, pos, depth, "values", |pos, depth| {
            bulk_array(bytes, pos, depth, |pos, _| number(bytes, pos), Json::Number)
        })?);
        Ok(())
    })?;
    Ok(Bulk::Typed(attributes))
}

/// The value at `*pos` as a [`Bulk`]. Each array element goes to `elem`,
/// called with the element's remaining depth, which decodes it or
/// returns `None` for any other value, well-formed or not. From that
/// element on, [`parse_value`] builds the array from the element's start
/// (and reports the element's error, if it has one), and `tree` turns
/// the typed elements before it back into the trees the parser builds.
fn bulk_array<T>(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut elem: impl FnMut(&mut usize, usize) -> Result<Option<T>, JsonError>,
    tree: impl Fn(T) -> Json,
) -> Result<Bulk<T>, JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'[') {
        return parse_value(bytes, pos, depth).map(Bulk::Tree);
    }
    let mut typed = Vec::new();
    let mut trees: Option<Vec<Json>> = None;
    array_elements(bytes, pos, depth, |pos, depth| {
        if trees.is_none() {
            let start = *pos;
            if let Some(item) = elem(pos, depth)? {
                typed.push(item);
                return Ok(());
            }
            *pos = start;
        }
        let items = trees.get_or_insert_with(|| typed.drain(..).map(&tree).collect());
        items.push(parse_value(bytes, pos, depth)?);
        Ok(())
    })?;
    Ok(match trees {
        Some(items) => Bulk::Tree(Json::Array(items)),
        None => Bulk::Typed(typed),
    })
}

/// One array element as a number, or `None` when [`parse_value`] would
/// read a literal, a string or a container there (or find nothing).
fn number(bytes: &[u8], pos: &mut usize) -> Result<Option<f64>, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{') => Ok(None),
        Some(_) => parse_number(bytes, pos).map(Some),
    }
}

/// One `[string, string, number]` element, or `None` for any other value.
fn triple<'a>(bytes: &'a [u8], pos: &mut usize, depth: usize) -> Option<Triple<'a>> {
    let punct = |pos: &mut usize, b: u8| {
        skip_ws(bytes, pos);
        (bytes.get(*pos) == Some(&b)).then(|| *pos += 1)
    };
    if depth == 0 {
        return None;
    }
    punct(pos, b'[')?;
    skip_ws(bytes, pos);
    let source = parse_str(bytes, pos).ok()?;
    punct(pos, b',')?;
    skip_ws(bytes, pos);
    let target = parse_str(bytes, pos).ok()?;
    punct(pos, b',')?;
    let value = number(bytes, pos).ok().flatten()?;
    punct(pos, b']')?;
    Some((source, target, value))
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_owned(),
        offset,
        kind: JsonErrorKind::Syntax,
    }
}

fn too_deep(offset: usize) -> JsonError {
    JsonError {
        message: format!("nesting exceeds the depth limit of {MAX_DEPTH}"),
        offset,
        kind: JsonErrorKind::TooDeep,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", b as char), *pos))
    }
}

/// `depth` is the remaining nesting allowance; containers recurse with
/// one less and reject when it runs out.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(_) => parse_number(bytes, pos).map(Json::Number),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected '{lit}'"), *pos))
    }
}

/// Most digits the exact path accumulates: any 19 fit in a `u64`.
const EXACT_DIGITS: usize = 19;

/// `10^f` for every fraction length the exact path sees: at least one
/// of its digits is whole, so `f < EXACT_DIGITS`. Each is an exact `f64`
/// (every power of ten up to `10^22` is).
const POW10: [f64; EXACT_DIGITS] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// Largest mantissa the exact path takes: every integer up to `2^53` is
/// an `f64`.
const EXACT_MANTISSA: u64 = 1 << 53;

/// A number token: the longest run of `-?[0-9.eE+-]*` at `*pos`, valued
/// by `str::parse`.
///
/// A token `-?d+(.d+)?` of at most 19 digits in all, whose digits read
/// as an integer `w <= 2^53` with `f` of them after the point, takes an
/// exact path instead: `w` and `10^f` are both exact `f64`s, so the one
/// correctly rounded division `w / 10^f` is the correctly rounded value
/// of the token, which is also what `str::parse` returns (negation is
/// exact, so the sign changes nothing). Every other token (`1e5`, `+1`,
/// `.5`, `1.`, 20 digits) is scanned and handed to `str::parse`, with
/// the same span, value and error as ever.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if let Some(value) = exact_decimal(bytes, pos) {
        return Ok(value);
    }
    // The exact path stopped inside the token: the scan goes on from there.
    while *pos < bytes.len() && is_number_byte(bytes[*pos]) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>()
        .map_err(|_| err(&format!("bad number '{text}'"), start))
}

/// The bytes a number token runs over after its optional `-`.
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// The exact path of [`parse_number`]: the value of the token at `*pos`
/// when it has the exact form, with `*pos` at its end. `None` when it
/// does not, with `*pos` past the sign, digits and point read so far,
/// all of them bytes of the token.
fn exact_decimal(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    let mut mantissa = 0;
    let whole = digit_run(bytes, pos, &mut mantissa);
    let mut fraction = 0;
    if whole > 0 && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        fraction = digit_run(bytes, pos, &mut mantissa);
        if fraction == 0 {
            return None;
        }
    }
    if whole == 0
        || whole + fraction > EXACT_DIGITS
        || mantissa > EXACT_MANTISSA
        || bytes.get(*pos).copied().is_some_and(is_number_byte)
    {
        return None;
    }
    let magnitude = mantissa as f64 / POW10[fraction];
    Some(if negative { -magnitude } else { magnitude })
}

/// Appends the decimal digits at `*pos` to `mantissa` and returns how
/// many there were. Past 19 digits the mantissa wraps; callers reject
/// those runs.
fn digit_run(bytes: &[u8], pos: &mut usize, mantissa: &mut u64) -> usize {
    let start = *pos;
    while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        *pos += 1;
    }
    *pos - start
}

/// A string at `*pos`, borrowed from the input when it holds no escape
/// or control character; otherwise [`parse_string`] decodes it, or
/// reports why it is malformed.
fn parse_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, JsonError> {
    if bytes.get(*pos) == Some(&b'"') {
        let body = *pos + 1;
        let end = bytes[body..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .map(|len| body + len);
        if let Some(end) = end.filter(|&end| bytes[end] == b'"') {
            if let Ok(s) = std::str::from_utf8(&bytes[body..end]) {
                *pos = end + 1;
                return Ok(Cow::Borrowed(s));
            }
        }
    }
    parse_string(bytes, pos).map(Cow::Owned)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err("unterminated string", *pos));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err("unterminated escape", *pos));
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
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by \uDC00..\uDFFF.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                let combined = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(err("invalid unicode escape", *pos)),
                        }
                    }
                    _ => return Err(err("invalid escape", *pos - 1)),
                }
            }
            _ if b < 0x20 => return Err(err("raw control character in string", *pos - 1)),
            _ => {
                // Re-walk the UTF-8 sequence starting at this byte.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = start + len;
                let Some(slice) = bytes.get(start..end) else {
                    return Err(err("truncated UTF-8", start));
                };
                let s = std::str::from_utf8(slice).map_err(|_| err("invalid UTF-8", start))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let Some(slice) = bytes.get(*pos..*pos + 4) else {
        return Err(err("truncated \\u escape", *pos));
    };
    let text = std::str::from_utf8(slice).map_err(|_| err("bad \\u escape", *pos))?;
    let code = u32::from_str_radix(text, 16).map_err(|_| err("bad \\u escape", *pos))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let mut items = Vec::new();
    array_elements(bytes, pos, depth, |pos, depth| {
        items.push(parse_value(bytes, pos, depth)?);
        Ok(())
    })?;
    Ok(Json::Array(items))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let mut pairs = Vec::new();
    object_members(bytes, pos, depth, |key, pos, depth| {
        pairs.push((key.into_owned(), parse_value(bytes, pos, depth)?));
        Ok(())
    })?;
    Ok(Json::Object(pairs))
}

/// Walks the array at `*pos`, calling `each` with each element's
/// remaining depth; `each` must consume the element. The depth check,
/// grammar, messages and offsets are the one copy every decoder uses.
fn array_elements(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut each: impl FnMut(&mut usize, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if depth == 0 {
        return Err(too_deep(*pos));
    }
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        each(pos, depth - 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

/// Walks the object at `*pos`, calling `each` with each key and its
/// value's remaining depth; `each` must consume the value. Like
/// [`array_elements`], the one copy of the object grammar.
fn object_members<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    depth: usize,
    mut each: impl FnMut(Cow<'a, str>, &mut usize, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if depth == 0 {
        return Err(too_deep(*pos));
    }
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        each(key, pos, depth - 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn round_trips_documents() {
        let text = r#"{"name":"zip","units":["z1","z2"],"n":3,"ok":true,"none":null,"nested":[[1,2.5],[-3e2]]}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("zip"));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("units").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn string_escapes() {
        let doc = parse(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\n\tAé"));
        // Surrogate pair (😀 U+1F600).
        let doc = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("😀"));
        // Serializer escapes what it must.
        let j = Json::String("a\"b\n".to_owned());
        assert_eq!(j.to_string(), r#""a\"b\n""#);
        assert_eq!(parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn utf8_pass_through() {
        let doc = parse(r#""héllo — 世界""#).unwrap();
        assert_eq!(doc.as_str(), Some("héllo — 世界"));
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\":}",
            "nul",
            "1 2",
            "[1,]",
            "{,}",
            "\"\\q\"",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting_without_overflow() {
        // 100k open brackets: the seed parser recursed once per bracket
        // until the thread stack blew; now it's a TooDeep error.
        let hostile = "[".repeat(100_000);
        let e = parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        assert!(e.message.contains("depth limit"), "{e}");

        // Same for objects.
        let hostile = r#"{"a":"#.repeat(100_000);
        let e = parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);

        // Exactly at the limit parses; one past it does not.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&deep).unwrap_err().kind, JsonErrorKind::TooDeep);

        // Ordinary syntax errors keep the Syntax kind.
        assert_eq!(parse("[1,").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn numbers_round_trip() {
        for v in [0.0, -1.5, 1e300, 123456.789, -0.001] {
            let j = Json::Number(v);
            let back = parse(&j.to_string()).unwrap();
            assert_eq!(back.as_f64(), Some(v));
        }
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
    }

    /// A xorshift generator for the crate's seeded tests.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        pub(crate) fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }

        fn digits(&mut self, n: usize) -> String {
            (0..n)
                .map(|_| char::from(b'0' + self.below(10) as u8))
                .collect()
        }
    }

    /// The number `parse` must give for `token` wherever it stands: the
    /// bits of `str::parse`, or the error the scan-and-parse path made
    /// at the token's offset.
    fn want_number(token: &str, offset: usize) -> Result<u64, JsonError> {
        token
            .parse::<f64>()
            .map(f64::to_bits)
            .map_err(|_| JsonError {
                message: format!("bad number '{token}'"),
                offset,
                kind: JsonErrorKind::Syntax,
            })
    }

    fn assert_number(token: &str) {
        let alone = parse(token).map(|doc| doc.as_f64().expect("a number").to_bits());
        assert_eq!(alone, want_number(token, 0), "{token:?}");

        let prefix = r#"{"attributes":[{"values":[0, "#;
        let doc = format!("{prefix}{token}]}}]}}");
        let typed = parse_crosswalk(&doc).map(|body| match body.bulk {
            Some(Bulk::Typed(attrs)) => match &attrs[0].bulk {
                Some(Bulk::Typed(values)) => values[1].to_bits(),
                other => panic!("{doc}: values decoded as {other:?}"),
            },
            other => panic!("{doc}: attributes decoded as {other:?}"),
        });
        assert_eq!(typed, want_number(token, prefix.len()), "{doc}");
    }

    #[test]
    fn numbers_parse_exactly_as_str_parse() {
        for edge in [
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "900719925474099.2",
            "900719925474099.3",
            "0.9007199254740993",
            "1234567890123456789",
            "12345678901234567890",
            "0000000000000000001",
            "00000000000000000001",
            "0.000000000000000001",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "1.0000000000000000000001",
            "0.30000000000000004",
            "123.456",
            "-0",
            "-0.0",
            "007",
            "00",
            "1.",
            "-1.",
            ".5",
            "-.5",
            "+1",
            "1e5",
            "1E5",
            "1e+5",
            "1.5e-3",
            "1e400",
            "-1e400",
            "5e-324",
            "1.7976931348623157e308",
            "-",
            "+",
            ".",
            "1.2.3",
            "--1",
            "1-2",
            "1e",
            "e5",
        ] {
            assert_number(edge);
        }
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..50_000 {
            let mut token = String::new();
            match rng.below(8) {
                0..=2 => token.push('-'),
                3 => token.push('+'),
                _ => {}
            }
            token.push_str(&"0".repeat(rng.below(4)));
            let whole = 1 + rng.below(25);
            token.push_str(&rng.digits(whole));
            if rng.below(4) > 0 {
                token.push('.');
                let fraction = rng.below(26);
                token.push_str(&rng.digits(fraction));
            }
            if rng.below(16) == 0 {
                token.push(['e', 'E'][rng.below(2)]);
                token.push_str(["", "-", "+"][rng.below(3)]);
                let exponent = 1 + rng.below(3);
                token.push_str(&rng.digits(exponent));
            }
            assert_number(&token);
        }
    }

    /// `fields` against the tree [`parse`] builds: `other` is the tree
    /// without its first `key` member, and `bulk`, checked by
    /// `check_bulk`, stands for that member.
    fn assert_fields<B>(
        fields: &Fields<B>,
        tree: &Json,
        key: &str,
        check_bulk: impl Fn(&B, &Json),
    ) {
        match tree {
            Json::Object(pairs) => {
                let mut rest = pairs.clone();
                let first = pairs.iter().position(|(k, _)| k == key);
                let member = first.map(|i| rest.remove(i).1);
                assert_eq!(fields.other, Json::Object(rest));
                match (&fields.bulk, &member) {
                    (Some(bulk), Some(member)) => check_bulk(bulk, member),
                    (None, None) => {}
                    (bulk, member) => panic!("bulk {:?} for member {member:?}", bulk.is_some()),
                }
            }
            value => {
                assert_eq!(&fields.other, value);
                assert!(fields.bulk.is_none());
            }
        }
    }

    /// A [`Bulk`] against the tree of its member: typed elements are the
    /// tree's, and a tree array holds an element of another shape.
    fn assert_bulk<T>(
        bulk: &Bulk<T>,
        tree: &Json,
        check: impl Fn(&T, &Json),
        typed_shape: impl Fn(&Json) -> bool,
    ) {
        match (bulk, tree) {
            (Bulk::Typed(items), Json::Array(trees)) => {
                assert_eq!(items.len(), trees.len());
                for (item, tree) in items.iter().zip(trees) {
                    check(item, tree);
                }
            }
            (Bulk::Tree(value), _) => {
                assert_eq!(value, tree);
                if let Json::Array(trees) = value {
                    assert!(!trees.iter().all(typed_shape), "{value:?} should be typed");
                }
            }
            (Bulk::Typed(_), _) => panic!("typed bulk for {tree:?}"),
        }
    }

    fn is_triple(tree: &Json) -> bool {
        matches!(
            tree.as_array(),
            Some([Json::String(_), Json::String(_), Json::Number(_)])
        )
    }

    /// Both typed decoders against [`parse`] on `text`: the same error,
    /// or the same values in typed form.
    fn assert_typed_decoders_match(text: &str) {
        let tree = parse(text);
        match (parse_crosswalk(text), &tree) {
            (Ok(body), Ok(tree)) => assert_fields(&body, tree, "attributes", |bulk, member| {
                assert_bulk(
                    bulk,
                    member,
                    |attr, tree| {
                        assert_fields(attr, tree, "values", |values, member| {
                            assert_bulk(
                                values,
                                member,
                                |v, tree| {
                                    assert_eq!(Some(v.to_bits()), tree.as_f64().map(f64::to_bits))
                                },
                                |tree| matches!(tree, Json::Number(_)),
                            )
                        })
                    },
                    |_| true,
                )
            }),
            (typed, tree) => assert_eq!(typed.err().as_ref(), tree.as_ref().err(), "{text}"),
        }
        for key in ["points", "entries"] {
            match (parse_triples(text, key), &tree) {
                (Ok(body), Ok(tree)) => assert_fields(&body, tree, key, |bulk, member| {
                    assert_bulk(
                        bulk,
                        member,
                        |(s, t, v), tree| {
                            let want = Json::Array(vec![
                                Json::from(&**s),
                                Json::from(&**t),
                                Json::Number(*v),
                            ]);
                            assert_eq!(&want, tree);
                        },
                        is_triple,
                    )
                }),
                (typed, tree) => assert_eq!(typed.err().as_ref(), tree.as_ref().err(), "{text}"),
            }
        }
    }

    #[test]
    fn typed_decoders_match_the_tree_parser() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let mut docs: Vec<String> = [
            r#"{"source":"a","target":"b","attributes":[{"name":"x","values":[1,2.5,-3]}]}"#,
            r#"{"attributes":[{"values":[1],"name":"x","values":["dup"]}],"attributes":7}"#,
            r#"{"attributes":[{"values":[1,"two",3]},[1],"x",{"values":{"a":1}},{}]}"#,
            r#"{"attributes":{"values":[1]}}"#,
            r#"[{"attributes":[]}]"#,
            r#"{"source":"z","points":[["a","b",1],["c\u0041","d\n",2.5e1],["é","世界",0]]}"#,
            r#"{"points":[["a","b",1],["a","b"],["a","b",1,2],["a",1,1],null]}"#,
            r#"{"points":[["a","b","1"]],"points":[["x","y",1]]}"#,
            r#"{"entries":[["a","b",1]],"unknown":{"x":[[{"y":null}]],"z":[true,false]}}"#,
            r#"{"entries":"not an array","points":[]}"#,
            " { \"points\" : [ [ \"a\" , \"b\" , 1 ] , [ \"c\" , \"d\" , 2 ] ] } ",
            r#"{"val\u0075es":[1],"attributes":[{"val\u0075es":[2]}],"p\u006fints":[["a","b",3]]}"#,
            r#"{"points":[["a","b",1],["bad\q","b",1]]}"#,
            r#"{"points":[["a","b",1] ["c","d",2]]}"#,
            r#"{"attributes":[{"values":[1 2]}]}"#,
            r#"{"attributes":[{"values":[1,]}]}"#,
            r#"{"points":[["a","b",1.2.3]]}"#,
            r#"{"points":[["a","b",-]]}"#,
            r#"{"a":1} trailing"#,
        ]
        .map(String::from)
        .to_vec();
        for n in [MAX_DEPTH - 3, MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH] {
            docs.push(format!(
                r#"{{"attributes":[{{"values":[1,{}]}}]}}"#,
                deep(n)
            ));
            docs.push(format!(r#"{{"points":[["a","b",1],{}]}}"#, deep(n)));
            docs.push(format!(r#"{{"unknown":{},"points":[]}}"#, deep(n)));
        }
        let prefixes: Vec<String> = docs
            .iter()
            .take(12)
            .flat_map(|doc| (0..doc.len()).filter_map(|n| doc.get(..n).map(str::to_owned)))
            .collect();
        for doc in docs.iter().chain(&prefixes) {
            assert_typed_decoders_match(doc);
        }
        // The depth cases really straddle the limit.
        let at_limit = format!(r#"{{"points":[["a","b",1],{}]}}"#, deep(MAX_DEPTH - 2));
        assert!(parse_triples(&at_limit, "points").is_ok());
        let past_limit = format!(r#"{{"points":[["a","b",1],{}]}}"#, deep(MAX_DEPTH - 1));
        let e = parse_triples(&past_limit, "points").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn typed_strings_borrow_from_the_body_unless_escaped() {
        let body = parse_triples(r#"{"points":[["plain","esc\"aped",1]]}"#, "points").unwrap();
        let Some(Bulk::Typed(points)) = body.bulk else {
            panic!("points should be typed");
        };
        assert!(matches!(points[0].0, Cow::Borrowed("plain")));
        assert!(matches!(&points[0].1, Cow::Owned(s) if s == "esc\"aped"));
    }
}
