//! A small Rust lexer — the foundation every pass sits on.
//!
//! The five original `xtask` lints were line-based greps with a
//! `LineFilter`-style comment heuristic, which had two known
//! blind-spot classes: multi-line `/* */` block comments (code inside
//! them was still linted) and raw strings `r#"…"#` (their *contents*
//! look like code to a grep). This lexer tokenizes the real thing —
//! line and nested block comments, plain and raw (and byte) string
//! literals, char literals vs. lifetimes, numbers, identifiers — so
//! both the migrated lints and the new dataflow passes see tokens, not
//! bytes.
//!
//! The lexer is *lossless*: concatenating every token's text
//! reconstructs the source byte-for-byte (a tested property, see
//! `tests/lexer_roundtrip.rs`, which lexes every `.rs` file in the
//! workspace). It does not need to be a full Rust grammar — it only
//! has to classify code vs. non-code exactly, and keep enough shape
//! (punctuation, identifiers) for the sketch extractor to build
//! control-flow sketches on top.

/// Token classes. `White`, `LineComment` and `BlockComment` are
/// non-code trivia; `Str`/`RawStr`/`Char` are code but their *contents*
/// are data, not code — [`Lexed::masked`] blanks all five classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whitespace run (spaces, tabs, newlines).
    White,
    /// `// …` to end of line (newline excluded).
    LineComment,
    /// `/* … */`, nested per Rust rules.
    BlockComment,
    /// `"…"` or `b"…"` with escapes.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##` — any hash depth.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a`, `'static` — a quote that opens a lifetime, not a char.
    Lifetime,
    /// `0`, `0xff`, `1_000_000u64` (a `.` is a separate `Punct`).
    Number,
    /// Identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident,
    /// Any single remaining character (full UTF-8 width).
    Punct,
}

/// One token: a classification plus a byte range into the source and
/// the 1-based line its first byte sits on.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token class.
    pub kind: Kind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

/// A lexed source file: the original text plus its token stream.
pub struct Lexed {
    /// The source exactly as read.
    pub src: String,
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// The text of one token.
    pub fn text(&self, t: &Token) -> &str {
        &self.src[t.start..t.end]
    }

    /// The source with every non-code byte blanked to a space:
    /// comments, string/char contents (and their delimiters) become
    /// spaces while newlines survive, so line numbers and column
    /// positions are unchanged and a line-oriented lint sees *only*
    /// code. This is the `LineFilter` replacement: a `FarAddr(p + 8)`
    /// inside a block comment or a raw string vanishes before any
    /// pattern looks at it.
    pub fn masked(&self) -> String {
        let mut out = String::with_capacity(self.src.len());
        for t in &self.tokens {
            let text = self.text(t);
            match t.kind {
                Kind::LineComment | Kind::BlockComment | Kind::Str | Kind::RawStr | Kind::Char => {
                    // One space per byte (not per char): multi-byte
                    // chars in comments must not shift byte columns.
                    for b in text.bytes() {
                        out.push(if b == b'\n' { '\n' } else { ' ' });
                    }
                }
                _ => out.push_str(text),
            }
        }
        out
    }

    /// Indices of the significant (non-trivia) tokens, in order.
    pub fn significant(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| {
                !matches!(
                    self.tokens[i].kind,
                    Kind::White | Kind::LineComment | Kind::BlockComment
                )
            })
            .collect()
    }

    /// The line of the first `#[cfg(test)]` attribute, if any. By the
    /// repo-wide tests-module-last convention everything from that line
    /// on is test code and exempt from source lints (same rule the old
    /// `LineFilter` applied, now matched on real tokens so the pattern
    /// inside a string or comment no longer trips it).
    pub fn test_cutoff_line(&self) -> Option<u32> {
        let sig = self.significant();
        let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
        for w in sig.windows(pat.len()) {
            if w.iter()
                .zip(pat.iter())
                .all(|(&i, &p)| self.text(&self.tokens[i]) == p)
            {
                return Some(self.tokens[w[0]].line);
            }
        }
        None
    }
}

/// Lexes a source file. Never fails: unterminated constructs run to
/// end of input (the analyzer's job is classification, not parsing
/// diagnostics).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let start = i;
        let start_line = line;
        let kind = match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                Kind::LineComment
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                Kind::BlockComment
            }
            c if c.is_ascii_whitespace() => {
                while i < b.len() && b[i].is_ascii_whitespace() {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                Kind::White
            }
            b'"' => {
                i = scan_str(b, i, &mut line);
                Kind::Str
            }
            b'\'' => scan_quote(b, &mut i, &mut line),
            c if c == b'r' || c == b'b' => {
                // Raw/byte literal prefixes before plain identifiers:
                // r"…", r#"…"#, b"…", br#"…"#, b'…'.
                if let Some(end) = raw_str_end(b, i) {
                    let _ = end;
                    i = scan_raw_str(b, i, &mut line);
                    Kind::RawStr
                } else if c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' {
                    i = scan_str(b, i + 1, &mut line);
                    Kind::Str
                } else if c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
                    i += 1;
                    let k = scan_quote(b, &mut i, &mut line);
                    debug_assert!(matches!(k, Kind::Char | Kind::Lifetime));
                    Kind::Char
                } else {
                    i = scan_ident(b, i);
                    Kind::Ident
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                i = scan_ident(b, i);
                Kind::Ident
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                Kind::Number
            }
            _ => {
                // One character of punctuation — full UTF-8 width so a
                // multibyte char (×, µ in doc text) never splits.
                let ch = src[i..].chars().next().expect("char at boundary");
                i += ch.len_utf8();
                Kind::Punct
            }
        };
        tokens.push(Token { kind, start, end: i, line: start_line });
    }
    Lexed { src: src.to_string(), tokens }
}

/// Scans a `"…"` string starting at the opening quote; returns the
/// index one past the closing quote.
fn scan_str(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` that ends the line continues the string on the next.
                *line += u32::from(b.get(i + 1) == Some(&b'\n'));
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If position `i` starts a raw-string prefix (`r`/`br`/`rb` + `#`* +
/// `"`), returns the index of the opening quote.
fn raw_str_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some(j)
    } else {
        None
    }
}

/// Scans a raw string starting at its prefix; returns one past the
/// closing quote+hashes.
fn scan_raw_str(b: &[u8], start: usize, line: &mut u32) -> usize {
    let quote = raw_str_end(b, start).expect("raw prefix");
    let hashes = quote - start - usize::from(b[start] == b'b') - 1;
    let mut i = quote + 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        }
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Scans from a `'`: classifies char literal vs. lifetime. `i` points
/// at the quote on entry and one past the token on exit.
fn scan_quote(b: &[u8], i: &mut usize, line: &mut u32) -> Kind {
    let open = *i;
    *i += 1;
    if *i >= b.len() {
        return Kind::Char;
    }
    if b[*i] == b'\\' {
        // Escaped char literal: '\n', '\'', '\u{1F600}'.
        *i += 2;
        while *i < b.len() && b[*i] != b'\'' {
            if b[*i] == b'\n' {
                *line += 1;
            }
            *i += 1;
        }
        *i = (*i + 1).min(b.len());
        return Kind::Char;
    }
    if b[*i] == b'_' || b[*i].is_ascii_alphabetic() {
        let ident_start = *i;
        *i = scan_ident(b, *i);
        let run = *i - ident_start;
        if run == 1 && *i < b.len() && b[*i] == b'\'' {
            *i += 1; // 'a'
            return Kind::Char;
        }
        return Kind::Lifetime; // 'a as in <'a>, 'static
    }
    // Non-identifier char literal: '0', '+', '✓'.
    let rest = std::str::from_utf8(&b[*i..]).unwrap_or("");
    if let Some(ch) = rest.chars().next() {
        *i += ch.len_utf8();
    }
    if *i < b.len() && b[*i] == b'\'' {
        *i += 1;
        Kind::Char
    } else {
        // A stray quote (macro-generated source); classify as Char so
        // masking stays conservative.
        *i = open + 1;
        Kind::Char
    }
}

fn scan_ident(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Lexed {
        let lx = lex(src);
        let rebuilt: String = lx.tokens.iter().map(|t| lx.text(t)).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless");
        lx
    }

    #[test]
    fn classifies_line_and_nested_block_comments() {
        let lx = roundtrip("a // c1\n/* x /* y */ z */ b");
        let kinds: Vec<Kind> = lx
            .tokens
            .iter()
            .filter(|t| t.kind != Kind::White)
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![Kind::Ident, Kind::LineComment, Kind::BlockComment, Kind::Ident]
        );
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let lx = roundtrip(r###"let s = r#"client.read(x)"#; let t = r"y";"###);
        let raws: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::RawStr)
            .map(|t| lx.text(t))
            .collect();
        assert_eq!(raws, vec![r##"r#"client.read(x)"#"##, "r\"y\""]);
    }

    #[test]
    fn byte_raw_strings_and_byte_chars() {
        let lx = roundtrip(r##"let a = br#"x"#; let b = b"s"; let c = b'z';"##);
        let kinds: Vec<Kind> = lx
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Kind::RawStr | Kind::Str | Kind::Char))
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds, vec![Kind::RawStr, Kind::Str, Kind::Char]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = roundtrip("fn f<'a>(x: &'a str) -> &'static str { 'q' }");
        let lifetimes: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| lx.text(t))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        let chars: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Char)
            .map(|t| lx.text(t))
            .collect();
        assert_eq!(chars, vec!["'q'"]);
    }

    #[test]
    fn escaped_char_literals() {
        let lx = roundtrip(r"let n = '\n'; let q = '\''; let u = '\u{1F600}';");
        let chars: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Char)
            .map(|t| lx.text(t))
            .collect();
        assert_eq!(chars, vec![r"'\n'", r"'\''", r"'\u{1F600}'"]);
    }

    #[test]
    fn masked_blanks_comments_and_string_contents() {
        let src = "client.read(a); // client.cas(b)\nlet s = \"client.faa(c)\";";
        let m = lex(src).masked();
        assert!(m.contains("client.read(a);"));
        assert!(!m.contains("client.cas"));
        assert!(!m.contains("client.faa"));
        assert_eq!(m.lines().count(), src.lines().count());
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masked_preserves_line_structure_of_multiline_trivia() {
        let src = "a\n/* x\ny\nz */\nb r#\"p\nq\"# c";
        let m = lex(src).masked();
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.lines().nth(4).unwrap().starts_with('b'));
    }

    #[test]
    fn test_cutoff_found_on_tokens_not_text() {
        let src = "let a = \"#[cfg(test)]\";\n// #[cfg(test)]\nfn f() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(lex(src).test_cutoff_line(), Some(4));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "/* a\nb */ x\n\"s\ntr\" y\n\"con\\\ntinued\" z";
        let lx = lex(src);
        let line = |word: &str| lx.tokens.iter().find(|t| lx.text(t) == word).unwrap().line;
        assert_eq!(line("x"), 2);
        assert_eq!(line("y"), 4);
        assert_eq!(line("z"), 6, "a `\\` at the end of a line continues the string");
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let lx = roundtrip("for i in 0..10 { let f = 1.5; }");
        let nums: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Number)
            .map(|t| lx.text(t))
            .collect();
        assert_eq!(nums, vec!["0", "10", "1", "5"]);
    }
}
