//! A minimal JSON parser for validating driver output and trace exports.
//!
//! The container has no serde; this hand-rolled recursive-descent parser
//! is enough to check that `results/*.json` and the Chrome trace files
//! are well-formed and to pull fields out of them in tests and CI.

use std::collections::BTreeMap;

use farmem_fabric::AccessStats;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; exact for integers below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order is not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as [`AccessStats`]: an object holding every counter of
    /// [`AccessStats::FIELD_NAMES`] as a whole number, the shape
    /// [`AccessStats::to_json`] writes. The error names the first field
    /// that is missing or not a whole number.
    pub fn access_stats(&self) -> Result<AccessStats, String> {
        let mut values = [0u64; AccessStats::COUNT];
        for (v, name) in values.iter_mut().zip(AccessStats::FIELD_NAMES) {
            *v = self
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats field `{name}` is missing or not a whole number"))?;
        }
        Ok(AccessStats::from_array(values))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&byte) => {
                // Consume one UTF-8 scalar; validate only its own bytes
                // (validating the whole tail here would be quadratic).
                let len = match byte {
                    0x00..=0x7f => 1,
                    0xc2..=0xdf => 2,
                    0xe0..=0xef => 3,
                    0xf0..=0xf4 => 4,
                    _ => return Err("invalid UTF-8 in string".into()),
                };
                let end = *pos + len;
                let ch = b
                    .get(*pos..end)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .and_then(|s| s.chars().next())
                    .ok_or("invalid UTF-8 in string")?;
                out.push(ch);
                *pos = end;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = Json::parse(r#""× ratio ∞""#).unwrap();
        assert_eq!(v.as_str(), Some("× ratio ∞"));
        let v = Json::parse("\"httree × ∞\"").unwrap();
        assert_eq!(v.as_str(), Some("httree × ∞"));
    }

    #[test]
    fn integers_survive_exactly() {
        let v = Json::parse("[0, 9007199254740992, 42]").unwrap();
        assert_eq!(v.as_arr().unwrap()[2].as_u64(), Some(42));
        assert_eq!(v.as_arr().unwrap()[0].as_u64(), Some(0));
    }

    #[test]
    fn access_stats_round_trip_through_their_json() {
        let mut values = [0u64; AccessStats::COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            *v = 1 + 7 * i as u64;
        }
        let stats = AccessStats::from_array(values);
        assert_eq!(Json::parse(&stats.to_json()).unwrap().access_stats(), Ok(stats));
        let err = Json::parse(r#"{"round_trips": 1}"#).unwrap().access_stats().unwrap_err();
        assert!(err.contains("`messages`"), "{err}");
    }

    #[test]
    fn table_json_parses_back(){
        let mut t = crate::Table::new("Demo × table", &["op", "RT/op"]);
        t.row(vec!["httree.get".into(), "2.00".into()]);
        let v = Json::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("title").unwrap().as_str(), Some("Demo × table"));
        assert_eq!(
            v.get("rows").unwrap().as_arr().unwrap()[0].as_arr().unwrap()[0].as_str(),
            Some("httree.get")
        );
    }
}
