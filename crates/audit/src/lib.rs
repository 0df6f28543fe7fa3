#![forbid(unsafe_code)]
//! # farmem-audit — static round-trip & lease-safety analysis
//!
//! The paper's design axis is round trips, but nothing *static* in the
//! repo enforced it: a PR could turn an O(1) batched path into an O(n)
//! serial-verb loop and only a human reading e-driver tables would
//! notice. This crate is the compile-time counterpart of `farmem-check`
//! (which model-checks the protocols dynamically): a small Rust lexer,
//! a per-function control-flow sketch extractor, and dataflow passes
//! over the sketches.
//!
//! ## Pass catalog
//!
//! Dataflow passes (new in this crate):
//!
//! * **rt-in-loop** — serial fabric verbs inside a loop body with no
//!   batch adopter (`pipeline()`, `get_many`, `read_ranges`,
//!   `dequeue_batch`, ...) in scope: loop-carried round-trip
//!   amplification. The finding names the batched twin to adopt.
//! * **lock-across-rt** — a `FarMutex` held across ≥ N
//!   fabric verbs (default 4) or across any `.await`: the 100 ms
//!   virtual lease can expire under the holder and a contender will
//!   fence it out mid-critical-section.
//! * **guard-escape** — a value derived from a fabric read under an
//!   epoch [`Guard`](../farmem_reclaim) dereferenced after the guard
//!   ends: the reclaimer may already have freed the target.
//! * **verb-in-drop** — fabric verbs inside `Drop` impls, where
//!   retry/backoff cannot surface errors and drops run at
//!   unpredictable times (mid-panic, mid-failover).
//!
//! Migrated legacy lints ([`legacy`]): `far-addr`, `retire-guard`,
//! `stats-mut`, `block-async` (per-file) and `forbid-unsafe` (per
//! crate root). Same rules as the old `xtask` greps, but matched
//! against [`lex::Lexed::masked`] text, which retires the
//! `LineFilter` blind spots (multi-line `/* */` comments, raw
//! strings).
//!
//! ## Annotation grammar
//!
//! A deliberate exception carries a marker in a comment on the finding
//! line or within the 4 lines above it:
//!
//! ```text
//! // audit: rt-in-loop-ok: pointer chase — each hop depends on the last
//! ```
//!
//! (`lint:` is accepted as a synonym for the migrated lints, which
//! keep their historical `lint: far-addr-ok` spelling.) The marker
//! names the pass it suppresses; a marker never suppresses another
//! pass.
//!
//! ## Fixture corpus
//!
//! `fixtures/*.rs` are standalone seeded-violation files (never
//! compiled) in the farmem-check mutation-score style: each declares
//! the path it pretends to live at and the passes it must trip:
//!
//! ```text
//! // fixture-path: crates/core/src/seeded.rs
//! // fixture-expect: rt-in-loop
//! ```
//!
//! `fixture-expect: clean` asserts zero findings. The audit gate
//! (`cargo run -p xtask -- audit`, driver `e21_audit`) requires 100%
//! of mutants caught and every clean fixture clean — an analyzer
//! change that silently loses a detection class fails CI the same way
//! a lost dynamic invariant fails `farmem-check`.

pub mod legacy;
pub mod lex;
pub mod passes;
pub mod sketch;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use farmem_fabric::AccessStats;

/// One analyzer finding. `function` is empty for line-oriented legacy
/// lints, which do not track enclosing functions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub function: String,
    pub pass: String,
    pub message: String,
    pub suggestion: String,
}

/// Analyzer knobs. The defaults are the repo gate's settings.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// `lock-across-rt` fires when a lease lock is held across at
    /// least this many fabric verbs (any `.await` fires regardless).
    /// Bounded CAS retries under a lock are normal; a verb-per-element
    /// loop under a lock is not.
    pub lock_rt_threshold: usize,
    /// Field names `stats-mut` protects. Defaults to the real
    /// [`AccessStats::FIELD_NAMES`], so the lint tracks the struct.
    pub stats_fields: Vec<String>,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            lock_rt_threshold: 4,
            stats_fields: AccessStats::FIELD_NAMES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Every pass the analyzer runs: four dataflow passes, four migrated
/// line lints, and the crate-root `forbid-unsafe` check. The fixture
/// corpus gate requires at least one mutant per entry.
pub const PASSES: [&str; 9] = [
    "rt-in-loop",
    "lock-across-rt",
    "guard-escape",
    "verb-in-drop",
    "far-addr",
    "retire-guard",
    "stats-mut",
    "block-async",
    "forbid-unsafe",
];

/// Pass scoping by workspace-relative path (forward slashes). Mirrors
/// the old linter's per-pass exclude lists and extends them to the
/// dataflow passes:
///
/// * `rt-in-loop` skips `crates/fabric` (the verb and pipeline
///   implementations themselves), `crates/baselines` (deliberately
///   serial paper baselines), `crates/bench` and `crates/check`
///   (measurement drivers and protocol programs that exercise serial
///   paths on purpose), and `shims`.
/// * the other dataflow passes skip only `shims` (no fabric there).
/// * migrated lints keep their historical scopes: `far-addr` and
///   `stats-mut` skip `crates/fabric`, `retire-guard` skips
///   `crates/reclaim`, `block-async` applies only in `crates/core`.
pub fn pass_enabled(pass: &str, path: &str) -> bool {
    let starts = |p: &str| path.starts_with(p);
    match pass {
        "rt-in-loop" => {
            !starts("crates/fabric")
                && !starts("crates/baselines")
                && !starts("crates/bench")
                && !starts("crates/check")
                && !starts("shims")
        }
        "lock-across-rt" | "guard-escape" | "verb-in-drop" => !starts("shims"),
        "far-addr" | "stats-mut" => !starts("crates/fabric"),
        "retire-guard" => !starts("crates/reclaim"),
        "block-async" => starts("crates/core"),
        _ => true,
    }
}

/// All per-file passes (dataflow + migrated lints) over one source
/// file. `path` is the workspace-relative path used for scoping and
/// reporting.
pub fn audit_source(path: &str, src: &str, cfg: &AuditConfig) -> Vec<Finding> {
    let lx = lex::lex(src);
    let sketches = sketch::extract(&lx);
    let mut out = passes::dataflow_findings(path, &lx, &sketches, cfg);
    out.extend(legacy::legacy_findings(path, &lx, cfg));
    out.sort();
    out
}

/// The result of running the analyzer over a tree: findings plus the
/// coverage denominator, rendered as text or schema-versioned JSON.
#[derive(Debug, Clone)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl AuditReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-oriented rendering, one block per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let at = if f.function.is_empty() {
                String::new()
            } else {
                format!(" (fn {})", f.function)
            };
            let _ = writeln!(out, "{}:{} [{}]{}: {}", f.file, f.line, f.pass, at, f.message);
            let _ = writeln!(out, "    fix: {}", f.suggestion);
        }
        let _ = writeln!(
            out,
            "audit: {} finding(s) across {} file(s)",
            self.findings.len(),
            self.files_scanned
        );
        out
    }

    /// Machine-oriented rendering. Byte-identical across runs on the
    /// same tree (findings are fully sorted, no timestamps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema_version\":1,");
        let _ = write!(out, "\"files_scanned\":{},\"findings\":[", self.files_scanned);
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"function\":{},\"pass\":{},\
                 \"message\":{},\"suggestion\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.function),
                json_str(&f.pass),
                json_str(&f.message),
                json_str(&f.suggestion)
            );
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with the escapes the findings can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            // audit: rt-in-loop-ok: String building — `c` is a char, not a client
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The directory holding the workspace `Cargo.toml` (where
/// `[workspace]` lives), found by walking up from the current
/// directory.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(s) = fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            panic!("no workspace Cargo.toml above cwd");
        }
    }
}

/// Every crate root in the workspace (for `forbid-unsafe`).
pub fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("src/lib.rs"), root.join("xtask/src/main.rs")];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let lib = e.path().join("src/lib.rs");
            if lib.is_file() {
                out.push(lib);
            }
        }
    }
    out.sort();
    out
}

/// Files subject to per-file passes: `.rs` under `src/`, `crates/`,
/// `shims/`, excluding integration `tests/`, `benches/`, and this
/// crate's seeded-violation `fixtures/`.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for group in ["src", "crates", "shims"] {
        walk(&root.join(group), &mut out);
    }
    out.retain(|p| {
        let r = rel(root, p);
        !r.contains("/tests/") && !r.contains("/benches/") && !r.contains("/fixtures/")
    });
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Workspace-relative path with forward slashes (stable across hosts,
/// so findings JSON is portable).
pub fn rel(root: &Path, p: &Path) -> String {
    let r = p.strip_prefix(root).unwrap_or(p);
    r.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// `forbid-unsafe` on one crate root's source: every crate opts out
/// of `unsafe` at the root (matched on masked text, so a commented-out
/// attribute no longer satisfies it — and a real one inside a block
/// comment never did).
pub fn forbid_unsafe_source(path: &str, src: &str) -> Option<Finding> {
    let masked = lex::lex(src).masked();
    if masked.contains("#![forbid(unsafe_code)]") {
        return None;
    }
    Some(Finding {
        file: path.to_string(),
        line: 1,
        function: String::new(),
        pass: "forbid-unsafe".to_string(),
        message: "crate root missing #![forbid(unsafe_code)]".to_string(),
        suggestion: "add `#![forbid(unsafe_code)]` as the first line".to_string(),
    })
}

fn forbid_unsafe_findings(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for path in crate_roots(root) {
        let text = fs::read_to_string(&path).unwrap_or_default();
        out.extend(forbid_unsafe_source(&rel(root, &path), &text));
    }
    out
}

/// All passes over the workspace tree.
pub fn audit_tree(root: &Path, cfg: &AuditConfig) -> io::Result<AuditReport> {
    let files = source_files(root);
    let mut findings = forbid_unsafe_findings(root);
    for path in &files {
        let src = fs::read_to_string(path)?;
        findings.extend(audit_source(&rel(root, path), &src, cfg));
    }
    findings.sort();
    Ok(AuditReport { findings, files_scanned: files.len() })
}

/// One fixture file's contract, parsed from its header directives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureSpec {
    /// The workspace-relative path the fixture pretends to live at
    /// (so path-scoped passes apply as they would in the real tree).
    pub pretend_path: String,
    /// Passes the fixture must trip; empty means `clean` (zero
    /// findings required).
    pub expect: Vec<String>,
}

/// Parses `// fixture-path:` and `// fixture-expect:` directives.
/// Returns `None` when either is missing (not a fixture file).
pub fn fixture_spec(src: &str) -> Option<FixtureSpec> {
    let mut path = None;
    let mut expect: Vec<String> = Vec::new();
    let mut saw_expect = false;
    for line in src.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("// fixture-path:") {
            path = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("// fixture-expect:") {
            saw_expect = true;
            for p in rest.split(',') {
                let p = p.trim();
                if !p.is_empty() && p != "clean" {
                    expect.push(p.to_string());
                }
            }
        }
    }
    expect.sort();
    expect.dedup();
    Some(FixtureSpec { pretend_path: path?, expect: if saw_expect { expect } else { return None } })
}

/// One fixture's outcome under the analyzer.
#[derive(Debug, Clone)]
pub struct FixtureResult {
    /// Fixture file name (not the pretend path).
    pub name: String,
    pub spec: FixtureSpec,
    /// Distinct passes that fired, sorted.
    pub fired: Vec<String>,
    /// Total findings.
    pub findings: usize,
    /// Mutants: every expected pass fired. Clean fixtures: zero
    /// findings.
    pub caught: bool,
}

/// Runs the analyzer over every `*.rs` fixture in `dir`, in file-name
/// order (deterministic). Panics on a fixture missing its directives —
/// a malformed corpus is a bug, not a soft failure.
pub fn run_fixture_corpus(dir: &Path, cfg: &AuditConfig) -> io::Result<Vec<FixtureResult>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = fs::read_to_string(&path)?;
        let spec = fixture_spec(&src)
            .unwrap_or_else(|| panic!("{name}: missing fixture-path/fixture-expect directives"));
        let mut findings = audit_source(&spec.pretend_path, &src, cfg);
        // A fixture pretending to be a crate root is also subject to
        // the root-level forbid-unsafe pass.
        if spec.pretend_path.ends_with("/lib.rs") || spec.pretend_path.ends_with("main.rs") {
            findings.extend(forbid_unsafe_source(&spec.pretend_path, &src));
        }
        let mut fired: Vec<String> = findings.iter().map(|f| f.pass.clone()).collect();
        fired.sort();
        fired.dedup();
        let caught = if spec.expect.is_empty() {
            findings.is_empty()
        } else {
            spec.expect.iter().all(|p| fired.contains(p))
        };
        out.push(FixtureResult { name, spec, fired, findings: findings.len(), caught });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_table_matches_the_old_linter() {
        assert!(!pass_enabled("far-addr", "crates/fabric/src/lib.rs"));
        assert!(pass_enabled("far-addr", "crates/core/src/httree.rs"));
        assert!(!pass_enabled("retire-guard", "crates/reclaim/src/lib.rs"));
        assert!(pass_enabled("retire-guard", "crates/serve/src/store.rs"));
        assert!(!pass_enabled("stats-mut", "crates/fabric/src/stats.rs"));
        assert!(pass_enabled("block-async", "crates/core/src/httree.rs"));
        assert!(!pass_enabled("block-async", "crates/serve/src/store.rs"));
    }

    #[test]
    fn dataflow_scoping_skips_serial_by_design_crates() {
        for p in [
            "crates/fabric/src/client.rs",
            "crates/baselines/src/lib.rs",
            "crates/bench/src/bin/e13_queue.rs",
            "crates/check/src/lib.rs",
            "shims/rand/src/lib.rs",
        ] {
            assert!(!pass_enabled("rt-in-loop", p), "{p}");
        }
        assert!(pass_enabled("rt-in-loop", "crates/core/src/vector.rs"));
        assert!(pass_enabled("lock-across-rt", "crates/bench/src/bin/e13_queue.rs"));
        assert!(!pass_enabled("lock-across-rt", "shims/rand/src/lib.rs"));
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn report_json_shape_and_determinism() {
        let f = Finding {
            file: "crates/core/src/x.rs".into(),
            line: 3,
            function: "get".into(),
            pass: "rt-in-loop".into(),
            message: "m".into(),
            suggestion: "s".into(),
        };
        let r = AuditReport { findings: vec![f], files_scanned: 1 };
        let j = r.to_json();
        assert!(j.starts_with("{\"schema_version\":1,"));
        assert!(j.contains("\"pass\":\"rt-in-loop\""));
        assert_eq!(j, r.to_json());
        assert!(r.render_text().contains("crates/core/src/x.rs:3 [rt-in-loop] (fn get): m"));
    }

    #[test]
    fn fixture_directive_parsing() {
        let src = "// fixture-path: crates/core/src/x.rs\n// fixture-expect: rt-in-loop, lock-across-rt\nfn f() {}\n";
        let spec = fixture_spec(src).unwrap();
        assert_eq!(spec.pretend_path, "crates/core/src/x.rs");
        assert_eq!(spec.expect, vec!["lock-across-rt".to_string(), "rt-in-loop".to_string()]);

        let clean = "// fixture-path: crates/core/src/x.rs\n// fixture-expect: clean\n";
        assert_eq!(fixture_spec(clean).unwrap().expect, Vec::<String>::new());

        assert!(fixture_spec("fn f() {}\n").is_none());
        assert!(fixture_spec("// fixture-path: a.rs\n").is_none());
    }

    #[test]
    fn audit_source_merges_dataflow_and_legacy() {
        let src = "fn f(client: &mut FabricClient, n: u64) {\n\
                   \x20   let a = FarAddr(base + 8);\n\
                   \x20   for i in 0..n {\n\
                   \x20       client.read_u64(a).unwrap();\n\
                   \x20   }\n\
                   }\n";
        let f = audit_source("crates/core/src/x.rs", src, &AuditConfig::default());
        let passes: Vec<&str> = f.iter().map(|x| x.pass.as_str()).collect();
        assert!(passes.contains(&"far-addr"), "{passes:?}");
        assert!(passes.contains(&"rt-in-loop"), "{passes:?}");
    }
}
