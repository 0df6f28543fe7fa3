//! The five original `xtask` repo lints, migrated onto the lexer.
//!
//! Semantics are unchanged — same rules, same test-module and per-crate
//! exemptions — but every pattern now matches against
//! [`Lexed::masked`] text, where comments
//! and string/char *contents* are blanked before any pattern looks at
//! a line. That retires the two `LineFilter` blind-spot classes:
//!
//! * multi-line `/* … */` block comments: code inside them was linted
//!   (false positives on commented-out examples);
//! * raw strings `r#"…"#`: their contents looked like code to a grep
//!   (false positives on embedded source, e.g. this crate's own unit
//!   tests).
//!
//! Like the dataflow passes, the lints report every violation; waivers
//! are applied by [`crate::audit_source`].

use crate::lex::Lexed;
use crate::{AuditConfig, Finding};

/// The balanced-paren argument of the first `FarAddr(` at/after `at`,
/// within one line, with nested `[...]` index expressions removed
/// (array indexing arithmetic is not address arithmetic).
pub fn far_addr_arg(line: &str, at: usize) -> String {
    let body = &line[at..];
    let mut depth = 0usize;
    let mut bracket = 0usize;
    let mut arg = String::new();
    for c in body.chars() {
        if bracket > 0 {
            match c {
                '[' => bracket += 1,
                ']' => bracket -= 1,
                _ => {}
            }
            continue;
        }
        match c {
            '(' => {
                depth += 1;
                if depth > 1 {
                    // audit: rt-in-loop-ok: String building — `c` is a char, not a client
                    arg.push(c);
                }
            }
            ')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
                arg.push(c);
            }
            '[' => bracket = 1,
            c => arg.push(c),
        }
    }
    arg
}

/// True when the text immediately after a field reference is an
/// assignment (`= v`, `+= v`, ...), as opposed to a comparison
/// (`==`), a match arm (`=>`), a method call or a plain read.
pub fn is_assignment(rest: &str) -> bool {
    let rest = rest.trim_start();
    for op in ["+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="] {
        if rest.starts_with(op) {
            return true;
        }
    }
    rest.starts_with('=') && !rest.starts_with("==") && !rest.starts_with("=>")
}

/// Line-oriented view shared by the migrated lints: masked (code-only)
/// lines for pattern matching and the test-module cutoff.
struct LintView {
    masked_lines: Vec<String>,
    cutoff: u32,
}

impl LintView {
    fn new(lx: &Lexed) -> LintView {
        LintView {
            masked_lines: lx.masked().lines().map(str::to_string).collect(),
            cutoff: lx.test_cutoff_line().unwrap_or(u32::MAX),
        }
    }

    /// Code text of 0-based line `i`, empty once the test module opens.
    fn code(&self, i: usize) -> &str {
        if (i as u32) + 1 >= self.cutoff {
            ""
        } else {
            self.masked_lines.get(i).map_or("", String::as_str)
        }
    }

    fn len(&self) -> usize {
        self.masked_lines.len()
    }
}

/// Runs the four per-file legacy lints (the fifth, `forbid-unsafe`, is
/// per-crate-root and lives in [`crate::audit_tree`]). Pass scoping by
/// path is identical to the pre-migration linter.
pub fn legacy_findings(path: &str, lx: &Lexed, cfg: &AuditConfig) -> Vec<Finding> {
    let v = LintView::new(lx);
    let mut out = Vec::new();
    if crate::pass_enabled("far-addr", path) {
        far_addr(path, &v, &mut out);
    }
    if crate::pass_enabled("retire-guard", path) {
        retire_guard(path, &v, &mut out);
    }
    if crate::pass_enabled("stats-mut", path) {
        stats_mut(path, &v, cfg, &mut out);
    }
    if crate::pass_enabled("block-async", path) {
        block_async(path, &v, &mut out);
    }
    out
}

/// No hand-built `FarAddr` arithmetic outside `crates/fabric`.
fn far_addr(path: &str, v: &LintView, out: &mut Vec<Finding>) {
    const OPS: [&str; 7] = [" + ", " - ", " * ", " / ", " % ", " << ", " >> "];
    for i in 0..v.len() {
        let line = v.code(i);
        let mut from = 0usize;
        while let Some(pos) = line[from..].find("FarAddr(") {
            let at = from + pos + "FarAddr".len();
            let arg = far_addr_arg(line, at);
            if OPS.iter().any(|op| arg.contains(op)) {
                out.push(Finding {
                    file: path.to_string(),
                    line: (i + 1) as u32,
                    function: String::new(),
                    pass: "far-addr".to_string(),
                    message: format!("FarAddr arithmetic constructed by hand ({})", arg.trim()),
                    suggestion: "use FarAddr::offset, or annotate `lint: far-addr-ok`"
                        .to_string(),
                });
            }
            from = at;
        }
    }
}

/// Every `retire(x)` / `retire_restructure(x)` call sits in a guard
/// scope: a `pin(`/`pin_deferred(`/`Guard` within the preceding 80 *code*
/// lines.
fn retire_guard(path: &str, v: &LintView, out: &mut Vec<Finding>) {
    for i in 0..v.len() {
        let line = v.code(i);
        // `.retire(x` with an argument; `.retire()` is Arena's
        // unrelated whole-arena teardown.
        let Some(args) = [".retire(", ".retire_restructure("]
            .iter()
            .find_map(|call| line.find(call).map(|pos| &line[pos + call.len()..]))
        else {
            continue;
        };
        if args.starts_with(')') {
            continue;
        }
        let guarded = (i.saturating_sub(80)..i)
            .any(|j| {
                let code = v.code(j);
                code.contains("pin(") || code.contains("pin_deferred(") || code.contains("Guard")
            });
        if !guarded {
            out.push(Finding {
                file: path.to_string(),
                line: (i + 1) as u32,
                function: String::new(),
                pass: "retire-guard".to_string(),
                message: "retire outside a guard scope (no pin()/Guard within 80 lines)"
                    .to_string(),
                suggestion: "annotate `// lint: retire-ok: <why>` if the protocol justifies it"
                    .to_string(),
            });
        }
    }
}

/// No direct `AccessStats` counter-field assignment outside
/// `crates/fabric`.
fn stats_mut(path: &str, v: &LintView, cfg: &AuditConfig, out: &mut Vec<Finding>) {
    for i in 0..v.len() {
        let line = v.code(i);
        for field in &cfg.stats_fields {
            let needle = format!(".{field}");
            let mut from = 0usize;
            while let Some(pos) = line[from..].find(&needle) {
                let end = from + pos + needle.len();
                from = end;
                // Reject partial identifier matches (`.retries_total`).
                if line[end..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                if is_assignment(&line[end..]) {
                    out.push(Finding {
                        file: path.to_string(),
                        line: (i + 1) as u32,
                        function: String::new(),
                        pass: "stats-mut".to_string(),
                        message: format!(
                            "direct mutation of AccessStats field `{field}` outside \
                             crates/fabric; counters move only through fabric verbs"
                        ),
                        suggestion: "annotate `lint: stats-ok: <why>` if this is a \
                                     different struct's field"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Inside `async fn` bodies in `crates/core`, no unannotated blocking
/// fabric access (`client.<verb>(...)` or the `.with(...)` escape
/// hatch).
fn block_async(path: &str, v: &LintView, out: &mut Vec<Finding>) {
    // `Some(depth)` while an `async fn` is open: 0 until its `{`
    // arrives, then the running brace depth of the body.
    let mut body: Option<i64> = None;
    for i in 0..v.len() {
        let line = v.code(i);
        if body.is_none() && line.contains("async fn ") {
            body = Some(0);
        }
        let Some(depth) = body.as_mut() else { continue };
        let inside = *depth > 0;
        for c in line.chars() {
            match c {
                '{' => *depth += 1,
                '}' => *depth -= 1,
                _ => {}
            }
        }
        if *depth <= 0 && inside {
            body = None;
        }
        if !inside {
            continue;
        }
        // `.with(` is the sole synchronous escape hatch on
        // `AsyncClient`; `client.` is the repo-wide name for a
        // blocking `&mut FabricClient` receiver.
        if !line.contains(".with(") && !line.contains("client.") {
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line: (i + 1) as u32,
            function: String::new(),
            pass: "block-async".to_string(),
            message: "blocking fabric access inside an async fn".to_string(),
            suggestion: "suspend at the doorbell instead, or annotate \
                         `// lint: block-ok — <why>` within 4 lines above"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        legacy_findings(path, &lex(src), &AuditConfig::default())
    }

    #[test]
    fn far_addr_arg_strips_index_expressions() {
        let line = "let a = FarAddr(w[(A_DIR / 8) as usize]);";
        let at = line.find("FarAddr").unwrap() + "FarAddr".len();
        assert_eq!(far_addr_arg(line, at), "w");
    }

    #[test]
    fn far_addr_arg_keeps_top_level_arithmetic() {
        let line = "c.read(FarAddr(p + 16), 8)";
        let at = line.find("FarAddr").unwrap() + "FarAddr".len();
        assert_eq!(far_addr_arg(line, at), "p + 16");
    }

    #[test]
    fn assignment_detection_separates_writes_from_reads() {
        assert!(is_assignment(" = 3;"));
        assert!(is_assignment(" += len;"));
        assert!(is_assignment("<<= 1;"));
        assert!(!is_assignment(" == other.retries"));
        assert!(!is_assignment(" => {}"));
        assert!(!is_assignment(".to_string()"));
        assert!(!is_assignment(" > 0"));
    }

    #[test]
    fn far_addr_flags_hand_arithmetic_in_code() {
        let f = run("crates/core/src/x.rs", "let a = FarAddr(base + 8 * i);\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "far-addr");
    }

    #[test]
    fn far_addr_ignores_block_comments_and_raw_strings() {
        // Both were LineFilter blind spots: the old linter flagged the
        // second line of a block comment and the contents of r#"…"#.
        let src = r##"
/* example of what NOT to do:
   let a = FarAddr(base + 8 * i);
*/
let doc = r#"FarAddr(base + 8 * i)"#;
let ok = FarAddr(stored);
"##;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn stats_mut_flags_assignment_not_comparison() {
        let src = "s.retries += 1;\nif s.retries == 2 {}\n";
        let cfg =
            AuditConfig { stats_fields: vec!["retries".to_string()], ..AuditConfig::default() };
        let f = legacy_findings("crates/core/src/x.rs", &lex(src), &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn stats_mut_ignores_raw_string_contents() {
        let src = "let doc = r#\"s.retries = 1;\"#;\n";
        let cfg =
            AuditConfig { stats_fields: vec!["retries".to_string()], ..AuditConfig::default() };
        assert!(legacy_findings("crates/core/src/x.rs", &lex(src), &cfg).is_empty());
    }

    #[test]
    fn retire_guard_needs_code_evidence_not_comment_mentions() {
        // A `Guard` mention in a comment is no longer guard evidence.
        let bare = "// the Guard is elsewhere\nh.retire(client, addr, len)?;\n";
        let f = run("crates/core/src/x.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "retire-guard");

        let guarded = "let guard = pin(&shared, client)?;\nh.retire(client, addr, len)?;\n";
        assert!(run("crates/core/src/x.rs", guarded).is_empty());

        // The restructure retire is held to the same rule.
        let restructure = "h.retire_restructure(client, addr, len)?;\n";
        assert_eq!(run("crates/core/src/x.rs", restructure).len(), 1);
        let guarded = "let guard = pin(&shared, client)?;\nh.retire_restructure(client, a, n)?;\n";
        assert!(run("crates/core/src/x.rs", guarded).is_empty());
    }

    #[test]
    fn block_async_brace_depth_survives_braces_in_strings() {
        // The old line-based depth tracker counted the `{` inside the
        // string and never saw the async fn close, so a later sync fn
        // was still "inside" it.
        let src = r#"
async fn a(x: u64) -> String {
    format!("{{x}}")
}
fn b(client: &mut FabricClient) {
    client.read_u64(addr).unwrap();
}
"#;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn block_async_still_flags_blocking_access() {
        let src = "async fn a(client: &mut FabricClient) {\n    client.read_u64(addr).unwrap();\n}\n";
        let f = run("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "block-async");
    }

    #[test]
    fn pass_scoping_matches_the_old_linter() {
        let far = "let a = FarAddr(base + 8);\n";
        assert!(run("crates/fabric/src/x.rs", far).is_empty());
        assert!(!run("crates/core/src/x.rs", far).is_empty());
        let block = "async fn a(client: &mut C) {\n    client.read(a, 8);\n}\n";
        assert!(run("crates/serve/src/x.rs", block).is_empty());
        assert!(!run("crates/core/src/x.rs", block).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let a = FarAddr(b + 8); }\n}\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
