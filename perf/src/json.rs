//! JSON for `BENCHMARK.json`, the driver's result line and this
//! benchmark's result files: `farmem_bench::Json` reads it, [`quote`]
//! writes its strings.

use std::collections::BTreeMap;

pub use farmem_bench::Json;

/// The members of `j`, if it is an object.
pub fn members(j: &Json) -> Option<&BTreeMap<String, Json>> {
    match j {
        Json::Obj(m) => Some(m),
        _ => None,
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_strings_read_back() {
        for s in ["plain", "a \"q\"\n\\", "tab\tand \u{1} control", "— dash"] {
            assert_eq!(Json::parse(&quote(s)).unwrap().as_str(), Some(s));
        }
    }
}
