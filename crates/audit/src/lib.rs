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
//! ## Waivers
//!
//! A deliberate exception carries a marker in a comment: `audit:` (or
//! `lint:`, the migrated lints' historical spelling), the word of the
//! pass it waives with `-ok` appended, then `: <why>`. The word is the
//! pass's name, except `retire`, `stats` and `block` for
//! `retire-guard`, `stats-mut` and `block-async`. A marker covers the
//! findings of its pass on its own line and the [`WINDOW`] lines below,
//! and never another pass's.
//!
//! A waiver must waive something. One that covers no finding is itself
//! a finding of the `dead-waiver` pass: a marker that outlived its code,
//! or one placed where its pass does not run. A finding two markers
//! cover counts for the nearer one only, so the farther one is dead
//! unless it covers a finding of its own.
//!
//! ## Mutants
//!
//! The analyzer is checked against the code that ships:
//! `crates/audit/mutants/*.mutant` are edits of shipped files in the
//! format of `farmem-check`'s mutants, whose `expect` names audit
//! passes. The `analyzer` integration test applies each one to its
//! target's text in memory and audits the result; exactly the passes it
//! expects must fire, and every entry of [`PASSES`] needs a mutant.

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
/// line lints, the crate-root `forbid-unsafe` check and the waiver rule
/// `dead-waiver`. Each needs at least one mutant (crate docs).
pub const PASSES: [&str; 10] = [
    "rt-in-loop",
    "lock-across-rt",
    "guard-escape",
    "verb-in-drop",
    "far-addr",
    "retire-guard",
    "stats-mut",
    "block-async",
    "forbid-unsafe",
    "dead-waiver",
];

/// How many lines below its marker a waiver reaches.
pub const WINDOW: u32 = 4;

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
/// file, with its waivers applied. `path` is the workspace-relative path
/// used for scoping and reporting.
pub fn audit_source(path: &str, src: &str, cfg: &AuditConfig) -> Vec<Finding> {
    let lx = lex::lex(src);
    let mut found = passes::dataflow_findings(path, &sketch::extract(&lx), cfg);
    found.extend(legacy::legacy_findings(path, &lx, cfg));
    let mut out = waive(path, &passes::markers(&lx), found);
    out.sort();
    out
}

/// The marker word that waives `pass` (crate docs).
fn waiver_word(pass: &str) -> &str {
    match pass {
        "retire-guard" => "retire",
        "stats-mut" => "stats",
        "block-async" => "block",
        pass => pass,
    }
}

/// Drops each finding a marker covers, crediting the nearest marker
/// above it, and reports each marker credited with none as a
/// `dead-waiver` finding.
fn waive(path: &str, marks: &[passes::Marker], found: Vec<Finding>) -> Vec<Finding> {
    let mut live = vec![false; marks.len()];
    let mut out: Vec<Finding> = found
        .into_iter()
        .filter(|f| {
            let covers = |m: &passes::Marker| {
                m.word == waiver_word(&f.pass) && (m.line..=m.line + WINDOW).contains(&f.line)
            };
            let nearest = (0..marks.len()).filter(|&i| covers(&marks[i])).max_by_key(|&i| marks[i].line);
            nearest.inspect(|&i| live[i] = true).is_none()
        })
        .collect();
    for (m, _) in marks.iter().zip(live).filter(|(_, live)| !live) {
        out.push(Finding {
            file: path.to_string(),
            line: m.line,
            function: String::new(),
            pass: "dead-waiver".to_string(),
            message: format!(
                "`{}-ok` waives nothing: no finding of its pass on this line or the {WINDOW} below",
                m.word
            ),
            suggestion: "delete the marker; a reason that still explains the code may stay \
                         as a plain comment"
                .to_string(),
        });
    }
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
/// `shims/`, excluding integration `tests/` and `benches/`.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for group in ["src", "crates", "shims"] {
        walk(&root.join(group), &mut out);
    }
    out.retain(|p| {
        let r = rel(root, p);
        !r.contains("/tests/") && !r.contains("/benches/")
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

    /// Which passes fire on `src` at `path`, waivers applied.
    fn fired(path: &str, src: &str) -> Vec<String> {
        let mut passes: Vec<String> =
            audit_source(path, src, &AuditConfig::default()).into_iter().map(|f| f.pass).collect();
        passes.sort_unstable();
        passes.dedup();
        passes
    }

    #[test]
    fn a_waiver_covers_its_window_and_one_that_covers_nothing_is_a_finding() {
        // A verb loop with `marks` above the verb, `gap` blank lines
        // between them.
        let serial = |marks: &str, gap: usize| {
            format!(
                "fn f(client: &mut FabricClient, n: u64) {{\n    for i in 0..n {{\n{marks}{}\
                 \x20       client.read_u64(a).unwrap();\n    }}\n}}\n",
                "\n".repeat(gap)
            )
        };
        let ok = "        // audit: rt-in-loop-ok: why\n";
        let core = "crates/core/src/x.rs";
        for (case, path, src, want) in [
            ("directly above", core, serial(ok, 0), vec![]),
            ("at the window's edge", core, serial(ok, WINDOW as usize - 1), vec![]),
            ("past the window", core, serial(ok, WINDOW as usize), vec!["dead-waiver", "rt-in-loop"]),
            ("the legacy spelling", core, serial("// lint: rt-in-loop-ok: why\n", 0), vec![]),
            ("another pass's", core, serial("// lint: far-addr-ok: why\n", 0), vec!["dead-waiver", "rt-in-loop"]),
            ("a word of no pass", core, serial("// audit: rt-loop-ok: why\n", 0), vec!["dead-waiver", "rt-in-loop"]),
            // Two markers over one finding: the nearer waives it, the
            // farther waives nothing.
            ("a second in one window", core, serial(&ok.repeat(2), 0), vec!["dead-waiver"]),
            ("where the pass does not run", "crates/bench/src/x.rs", serial(ok, 0), vec!["dead-waiver"]),
            ("with nothing to waive", core, format!("{ok}fn f() {{}}\n"), vec!["dead-waiver"]),
        ] {
            assert_eq!(fired(path, &src), want, "a waiver {case}");
        }
    }

    #[test]
    fn forbid_unsafe_needs_the_attribute_in_code() {
        let root = "crates/x/src/lib.rs";
        assert!(forbid_unsafe_source(root, "#![forbid(unsafe_code)]\npub fn f() {}\n").is_none());
        for src in [
            "//! The attribute `#![forbid(unsafe_code)]` is discussed, never declared.\n",
            "/*\n#![forbid(unsafe_code)]\n*/\npub fn f() {}\n",
            "pub fn attr() -> &'static str {\n    \"#![forbid(unsafe_code)]\"\n}\n",
        ] {
            let f = forbid_unsafe_source(root, src).map(|f| f.pass);
            assert_eq!(f.as_deref(), Some("forbid-unsafe"), "{src}");
        }
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
