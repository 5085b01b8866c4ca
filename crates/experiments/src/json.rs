//! Hand-rolled JSON: a tiny value tree, writer and parser.
//!
//! The build environment has no crates.io (so no serde); this module is
//! the machine-readable surface behind `Report::to_json` and the `ndp`
//! CLI's `--json` flag. The writer emits standard JSON (non-finite floats
//! become `null`); the parser is the minimal inverse used by tests and by
//! `ndp --json` consumers that want to re-load results.

use ndp_telemetry::export::Decimal;
use std::fmt::Write as _;

/// 2^53: every integer of smaller magnitude is an exact `f64`.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number; NaN/±inf have no JSON representation and become `null`.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // An integer of magnitude below 2^53 is exact as a `u64`, and
            // `Display` prints it as its digits, with no fraction or
            // exponent; `-0` keeps its sign as `Display` does.
            Json::Num(x) if x.abs() < TWO_53 && x.fract() == 0.0 => {
                if x.is_sign_negative() {
                    out.push('-');
                }
                out.push_str(Decimal::new(x.abs() as u64).as_str());
            }
            Json::Num(x) if x.is_finite() => {
                // Rust's f64 Display is shortest-roundtrip and (for finite
                // values) valid JSON.
                write!(out, "{x}").expect("write to String")
            }
            // Non-finite floats have no JSON representation; guard here as
            // well as in `num()` so directly-constructed Num values can
            // never emit an invalid `NaN`/`inf` token.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document. Minimal but complete for everything the writer
/// emits (and ordinary hand-written JSON); duplicate object keys are kept
/// in order, `get` returns the first.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go (valid UTF-8 input:
            // multi-byte sequences never contain '"' or '\\').
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by the writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Route through `Json::num`: an overflowing literal (1e999) parses
        // to infinity, which must become Null or render() would emit the
        // non-JSON token `inf`.
        text.parse::<f64>()
            .map(Json::num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let doc = Json::obj([
            ("id", Json::str("fig14")),
            ("utilization", Json::num(0.923)),
            ("incomplete", Json::num(0.0)),
            ("nan_becomes_null", Json::num(f64::NAN)),
            ("flags", Json::arr([Json::Bool(true), Json::Bool(false)])),
            (
                "rows",
                Json::arr([Json::obj([
                    ("proto", Json::str("NDP \"quoted\" \\ tab\t")),
                    ("gbps", Json::num(-9.5e-3)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = parse(&text).expect("parse own output");
        assert_eq!(back.get("id").and_then(Json::as_str), Some("fig14"));
        assert_eq!(back.get("utilization").and_then(Json::as_f64), Some(0.923));
        assert_eq!(back.get("nan_becomes_null"), Some(&Json::Null));
        let rows = back.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("proto").and_then(Json::as_str),
            Some("NDP \"quoted\" \\ tab\t")
        );
        assert_eq!(rows[0].get("gbps").and_then(Json::as_f64), Some(-9.5e-3));
        // Full fidelity: re-render equals the original text.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parser_accepts_ordinary_json() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , null ] , \"b\" : \"x\\u0041\" } ").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xA"));
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 3);
    }

    #[test]
    fn directly_constructed_non_finite_nums_render_as_null() {
        let v = Json::arr([
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(1.5),
        ]);
        assert_eq!(v.render(), "[null,null,1.5]");
    }

    /// Integral numbers take the digit writer, everything else `Display`;
    /// both must print what `Display` prints, on either side of every edge.
    #[test]
    fn numbers_render_as_display_prints_them() {
        let below = TWO_53 - 1.0;
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            -12_345.0,
            1e15,
            below,
            -below,
            TWO_53,
            -TWO_53,
            TWO_53 * 2.0,
            // Display prints these as 17 significant digits and zeros,
            // not as their exact integer digits.
            2f64.powi(60),
            -2f64.powi(63),
            1e300,
            -1e300,
            0.5,
            -0.5,
            1.5,
            below - 0.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::MAX,
            f64::MIN,
        ];
        for x in edges {
            assert_eq!(Json::Num(x).render(), format!("{x}"), "{x:e}");
        }
    }

    #[test]
    fn overflowing_literals_stay_renderable() {
        let v = parse("{\"x\":1e999,\"y\":-1e999}").unwrap();
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("y"), Some(&Json::Null));
        assert!(parse(&v.render()).is_ok());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
