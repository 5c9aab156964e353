//! Byte-deterministic snapshot values.
//!
//! The crash-contained parallel runtime (DESIGN.md §11) checkpoints the
//! full `Network` state at conservative-epoch boundaries and must be able
//! to prove `run(0..T)` ≡ `run(0..t) → snapshot → restore → run(t..T)`
//! *byte-for-byte*. That proof obligation rules out any encoding that
//! round-trips floats through decimal: every `f64` is serialized as its
//! exact IEEE-754 bit pattern, and maps preserve insertion order, so the
//! same state always serializes to the same bytes on every platform.
//!
//! The format is a compact single-line text form (one snapshot per line
//! composes into JSONL-style checkpoint files):
//!
//! ```text
//! n              null
//! t / f          booleans
//! u<digits>      u64 (full precision decimal)
//! i<digits>      i64 (sign included)
//! d<16 hex>      f64 bit pattern, big-endian, lowercase, zero padded
//! "…"            string, with \" \\ \n \r \t and \u{XXXX} escapes
//! [v,v,…]        list
//! {"k":v,…}      map (insertion-ordered; duplicate keys rejected on parse)
//! ```
//!
//! The crate stays dependency-free: writer and parser are hand-rolled.

use std::fmt;

/// A snapshot value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / none.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (counters, ids, sequence numbers).
    U64(u64),
    /// Signed integer (signed ledgers such as in-flight byte balances).
    I64(i64),
    /// IEEE-754 double, preserved bit-exactly (including NaN payloads
    /// and the sign of zero).
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    List(Vec<Value>),
    /// Insertion-ordered map. Construction order is part of the byte
    /// determinism contract: build maps in a fixed field order.
    Map(Vec<(String, Value)>),
}

/// Error raised while parsing or interrogating a snapshot value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Byte offset of the failure when parsing, 0 for shape errors.
    pub at: usize,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for SnapError {}

fn err<T>(at: usize, what: impl Into<String>) -> Result<T, SnapError> {
    Err(SnapError {
        at,
        what: what.into(),
    })
}

/// A loader's refusal of a value that parsed: a shape or range error.
pub fn refuse(what: impl Into<String>) -> SnapError {
    SnapError {
        at: 0,
        what: what.into(),
    }
}

impl Value {
    /// Builds a map value from `(key, value)` pairs, preserving order.
    pub fn map(pairs: Vec<(&str, Value)>) -> Value {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(items)
    }

    /// Wraps an optional value (`None` → `Null`).
    pub fn opt(v: Option<Value>) -> Value {
        v.unwrap_or(Value::Null)
    }

    /// Looks up `key` in a map value.
    pub fn get(&self, key: &str) -> Result<&Value, SnapError> {
        match self {
            Value::Map(pairs) => match pairs.iter().find(|(k, _)| k == key) {
                Some((_, v)) => Ok(v),
                None => err(0, format!("missing key '{key}'")),
            },
            _ => err(0, format!("expected map looking up '{key}'")),
        }
    }

    /// The map entries, or an error for non-maps.
    pub fn entries(&self) -> Result<&[(String, Value)], SnapError> {
        match self {
            Value::Map(pairs) => Ok(pairs),
            _ => err(0, "expected map"),
        }
    }

    /// The list items, or an error for non-lists.
    pub fn items(&self) -> Result<&[Value], SnapError> {
        match self {
            Value::List(items) => Ok(items),
            _ => err(0, "expected list"),
        }
    }

    /// Unwraps a `U64`.
    pub fn as_u64(&self) -> Result<u64, SnapError> {
        match self {
            Value::U64(v) => Ok(*v),
            _ => err(0, format!("expected u64, got {self:?}")),
        }
    }

    /// Unwraps an `I64`.
    pub fn as_i64(&self) -> Result<i64, SnapError> {
        match self {
            Value::I64(v) => Ok(*v),
            _ => err(0, format!("expected i64, got {self:?}")),
        }
    }

    /// Unwraps an `F64` (bit-exact).
    pub fn as_f64(&self) -> Result<f64, SnapError> {
        match self {
            Value::F64(v) => Ok(*v),
            _ => err(0, format!("expected f64, got {self:?}")),
        }
    }

    /// Unwraps a `Bool`.
    pub fn as_bool(&self) -> Result<bool, SnapError> {
        match self {
            Value::Bool(v) => Ok(*v),
            _ => err(0, format!("expected bool, got {self:?}")),
        }
    }

    /// Unwraps a `Str`.
    pub fn as_str(&self) -> Result<&str, SnapError> {
        match self {
            Value::Str(v) => Ok(v),
            _ => err(0, format!("expected string, got {self:?}")),
        }
    }

    /// Unwraps a `U64` narrowed to `usize`.
    pub fn as_usize(&self) -> Result<usize, SnapError> {
        let v = self.as_u64()?;
        usize::try_from(v).or_else(|_| err(0, format!("u64 {v} does not fit usize")))
    }

    /// Unwraps a `U64` narrowed to `u32`.
    pub fn as_u32(&self) -> Result<u32, SnapError> {
        let v = self.as_u64()?;
        u32::try_from(v).or_else(|_| err(0, format!("u64 {v} does not fit u32")))
    }

    /// Unwraps a `U64` counter: below 2^63, so that a run adding to it
    /// cannot overflow.
    pub fn as_counter(&self) -> Result<u64, SnapError> {
        match self.as_u64()? {
            n if n < 1 << 63 => Ok(n),
            n => err(0, format!("counter {n} is out of range")),
        }
    }

    /// Unwraps an `F64` that is finite.
    pub fn as_finite(&self) -> Result<f64, SnapError> {
        match self.as_f64()? {
            x if x.is_finite() => Ok(x),
            x => err(0, format!("{x} is not a finite number")),
        }
    }

    /// Looks up `key` in a map value and unwraps it as a finite `F64`.
    pub fn get_finite(&self, key: &str) -> Result<f64, SnapError> {
        self.get(key)?
            .as_finite()
            .map_err(|e| refuse(format!("'{key}': {}", e.what)))
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes to the canonical single-line byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Serializes to the canonical form as a `String`.
    pub fn to_text(&self) -> String {
        // The writer only emits ASCII plus escaped UTF-8 string bytes.
        String::from_utf8(self.to_bytes()).expect("snapshot writer emits valid UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(b'n'),
            Value::Bool(true) => out.push(b't'),
            Value::Bool(false) => out.push(b'f'),
            Value::U64(v) => {
                out.push(b'u');
                out.extend_from_slice(v.to_string().as_bytes());
            }
            Value::I64(v) => {
                out.push(b'i');
                out.extend_from_slice(v.to_string().as_bytes());
            }
            Value::F64(v) => {
                out.push(b'd');
                let bits = v.to_bits();
                for i in (0..16).rev() {
                    let nib = ((bits >> (i * 4)) & 0xf) as u8;
                    out.push(if nib < 10 {
                        b'0' + nib
                    } else {
                        b'a' + nib - 10
                    });
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::List(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Value::Map(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                out.extend_from_slice(format!("\\u{{{:x}}}", c as u32).as_bytes());
            }
            c => {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    out.push(b'"');
}

/// Parses a canonical snapshot line back into a [`Value`]. The full input
/// must be consumed (trailing bytes are an error), so concatenation bugs
/// surface instead of silently truncating.
pub fn parse(input: &str) -> Result<Value, SnapError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    if pos != bytes.len() {
        return err(pos, "trailing bytes after value");
    }
    Ok(v)
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, SnapError> {
    match b.get(*pos) {
        None => err(*pos, "unexpected end of input"),
        Some(b'n') => {
            *pos += 1;
            Ok(Value::Null)
        }
        Some(b't') => {
            *pos += 1;
            Ok(Value::Bool(true))
        }
        Some(b'f') => {
            *pos += 1;
            Ok(Value::Bool(false))
        }
        Some(b'u') => {
            *pos += 1;
            let digits = take_while(b, pos, |c| c.is_ascii_digit());
            match digits.parse::<u64>() {
                Ok(v) => Ok(Value::U64(v)),
                Err(_) => err(*pos, format!("bad u64 '{digits}'")),
            }
        }
        Some(b'i') => {
            *pos += 1;
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            take_while(b, pos, |c| c.is_ascii_digit());
            let digits = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
            match digits.parse::<i64>() {
                Ok(v) => Ok(Value::I64(v)),
                Err(_) => err(*pos, format!("bad i64 '{digits}'")),
            }
        }
        Some(b'd') => {
            *pos += 1;
            if b.len() < *pos + 16 {
                return err(*pos, "truncated f64 bit pattern");
            }
            let mut bits = 0u64;
            for _ in 0..16 {
                let c = b[*pos];
                let nib = match c {
                    b'0'..=b'9' => c - b'0',
                    b'a'..=b'f' => c - b'a' + 10,
                    _ => return err(*pos, format!("bad hex digit '{}'", c as char)),
                };
                bits = (bits << 4) | u64::from(nib);
                *pos += 1;
            }
            Ok(Value::F64(f64::from_bits(bits)))
        }
        Some(b'"') => Ok(Value::Str(parse_str(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::List(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::List(items));
                    }
                    _ => return err(*pos, "expected ',' or ']' in list"),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs: Vec<(String, Value)> = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(pairs));
            }
            loop {
                let key_at = *pos;
                let key = parse_str(b, pos)?;
                if pairs.iter().any(|(k, _)| *k == key) {
                    return err(key_at, format!("duplicate key '{key}'"));
                }
                if b.get(*pos) != Some(&b':') {
                    return err(*pos, "expected ':' after map key");
                }
                *pos += 1;
                let v = parse_value(b, pos)?;
                pairs.push((key, v));
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(pairs));
                    }
                    _ => return err(*pos, "expected ',' or '}' in map"),
                }
            }
        }
        Some(c) => err(*pos, format!("unexpected byte '{}'", *c as char)),
    }
}

fn take_while(b: &[u8], pos: &mut usize, pred: impl Fn(u8) -> bool) -> String {
    let start = *pos;
    while *pos < b.len() && pred(b[*pos]) {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .expect("predicate admits ASCII only")
        .to_string()
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, SnapError> {
    if b.get(*pos) != Some(&b'"') {
        return err(*pos, "expected '\"'");
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return err(*pos, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        if b.get(*pos) != Some(&b'{') {
                            return err(*pos, "expected '{' in \\u escape");
                        }
                        *pos += 1;
                        let hex = take_while(b, pos, |c| c.is_ascii_hexdigit());
                        if b.get(*pos) != Some(&b'}') {
                            return err(*pos, "expected '}' in \\u escape");
                        }
                        let cp = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        match cp {
                            Some(c) => out.push(c),
                            None => return err(*pos, format!("bad codepoint '{hex}'")),
                        }
                    }
                    other => return err(*pos, format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain characters, up to the next quote or escape:
                // both are ASCII, so never inside a multi-byte character.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |k| *pos + k);
                match std::str::from_utf8(&b[*pos..end]) {
                    Ok(run) => out.push_str(run),
                    Err(_) => return err(*pos, "invalid UTF-8 in string"),
                }
                *pos = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let text = v.to_text();
        let back = parse(&text).expect("parse back");
        assert_eq!(&back, v, "round trip through '{text}'");
        // Re-serializing the parsed value must give identical bytes.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::U64(0));
        round_trip(&Value::U64(u64::MAX));
        round_trip(&Value::I64(i64::MIN));
        round_trip(&Value::I64(-1));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Str("hello \"world\"\n\t\\ π €".into()));
        round_trip(&Value::Str("\u{1}\u{1f}".into()));
    }

    #[test]
    fn f64_is_bit_exact() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            0.1 + 0.2, // famously non-decimal-exact
        ] {
            let v = Value::F64(x);
            let text = v.to_text();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        // NaN payload survives too (PartialEq would reject NaN, so compare
        // bits directly).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let text = Value::F64(nan).to_text();
        assert_eq!(
            parse(&text).unwrap().as_f64().unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn f64_encoding_is_fixed_width_hex() {
        assert_eq!(Value::F64(1.0).to_text(), "d3ff0000000000000");
        assert_eq!(Value::F64(0.0).to_text(), "d0000000000000000");
        assert_eq!(Value::F64(-0.0).to_text(), "d8000000000000000");
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Value::List(vec![]));
        round_trip(&Value::Map(vec![]));
        round_trip(&Value::map(vec![
            ("format", Value::U64(1)),
            ("now", Value::F64(1.25)),
            (
                "links",
                Value::list(vec![
                    Value::Null,
                    Value::map(vec![("rate", Value::F64(1e6)), ("up", Value::Bool(true))]),
                ]),
            ),
            ("inflight", Value::I64(-12)),
            ("name", Value::Str("tandem".into())),
        ]));
    }

    #[test]
    fn map_order_is_preserved_not_sorted() {
        let v = Value::map(vec![("z", Value::U64(1)), ("a", Value::U64(2))]);
        assert_eq!(v.to_text(), "{\"z\":u1,\"a\":u2}");
        let back = parse(&v.to_text()).unwrap();
        assert_eq!(back.entries().unwrap()[0].0, "z");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("x").is_err());
        assert!(parse("u").is_err());
        assert!(parse("d12345").is_err()); // truncated bit pattern
        assert!(parse("[u1,u2").is_err());
        assert!(parse("{\"a\":u1,\"a\":u2}").is_err()); // duplicate key
        assert!(parse("u1 ").is_err()); // trailing bytes
        assert!(parse("\"abc").is_err()); // unterminated string
    }

    /// Byte-level mutants of a checkpoint-shaped value — truncated, one
    /// bit flipped, or a piece of itself spliced in — parse or are refused,
    /// never panic, and whatever parses writes bytes that parse back to it.
    #[test]
    fn mutated_bytes_parse_or_are_refused() {
        let packet = |id: u64| Value::list(vec![Value::U64(id), Value::F64(1.5e-3 * id as f64)]);
        let v = Value::map(vec![
            ("v", Value::U64(4)),
            ("now", Value::F64(0.25)),
            ("inflight", Value::I64(-4096)),
            ("tag", Value::Str("wf2q+ \"é\" \u{1}".into())),
            ("fifo", Value::list((0..6).map(packet).collect())),
            ("head", Value::Null),
            ("live", Value::Bool(true)),
        ]);
        let text = v.to_bytes();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize % n.max(1)
        };
        let (mut parsed, rounds) = (0, if cfg!(miri) { 300 } else { 30_000 });
        for _ in 0..rounds {
            let mut bytes = text.clone();
            match below(3) {
                0 => bytes.truncate(below(text.len())),
                1 => bytes[below(text.len())] ^= 1 << below(8),
                _ => {
                    let len = 1 + below(64).min(text.len() - 1);
                    let from = below(text.len() - len + 1);
                    let at = below(text.len());
                    let cut = below(65).min(text.len() - at);
                    bytes.splice(at..at + cut, text[from..from + len].iter().copied());
                }
            }
            if let Ok(back) = parse(&String::from_utf8_lossy(&bytes)) {
                parsed += 1;
                let again = parse(&back.to_text()).expect("re-parse");
                assert_eq!(again.to_bytes(), back.to_bytes());
            }
        }
        assert!(parsed > 0 && parsed < rounds, "{parsed} of {rounds} parsed");
    }

    #[test]
    fn accessors_report_shape_errors() {
        let v = Value::map(vec![("a", Value::U64(7))]);
        assert_eq!(v.get("a").unwrap().as_u64().unwrap(), 7);
        assert!(v.get("b").is_err());
        assert!(v.get("a").unwrap().as_str().is_err());
        assert!(Value::U64(1).get("a").is_err());
        assert_eq!(Value::U64(7).as_usize().unwrap(), 7usize);
        assert!(Value::U64(u64::MAX).as_u32().is_err());
        assert_eq!(
            Value::U64((1 << 63) - 1).as_counter().unwrap(),
            (1 << 63) - 1
        );
        assert!(Value::U64(1 << 63).as_counter().is_err());
        let v = Value::map(vec![("x", Value::F64(0.5)), ("y", Value::F64(f64::NAN))]);
        assert_eq!(v.get_finite("x").unwrap(), 0.5);
        assert!(v.get_finite("y").is_err());
        assert!(Value::F64(f64::NEG_INFINITY).as_finite().is_err());
        assert!(Value::map(vec![("z", Value::F64(f64::INFINITY))])
            .get_finite("z")
            .is_err());
    }
}
