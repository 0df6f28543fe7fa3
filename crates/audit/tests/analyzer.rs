//! Whole-tree integration tests for the analyzer: the lexer must
//! round-trip every real source file, the analyzer must be a
//! deterministic pure function of the tree, the real tree must audit
//! clean, and every mutant under `crates/audit/mutants/` must be caught.

#![forbid(unsafe_code)]

#[allow(dead_code)] // `Mutant::is_applied` and `MUTANT_DIR` serve farmem-check.
#[path = "../../check/src/mutants.rs"]
mod spec;

use farmem_audit::{
    audit_source, audit_tree, crate_roots, forbid_unsafe_source, lex, source_files, workspace_root,
    PASSES,
};
use spec::{all_mutants, Expect, AUDIT_MUTANT_DIR, AUDIT_PASSES};

/// Every token's span concatenates back to the original source — the
/// property every pass leans on for line numbers.
#[test]
fn lexer_round_trips_every_workspace_file() {
    let root = workspace_root();
    let files = source_files(&root);
    assert!(files.len() > 50, "walker found only {} files", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).expect("read source");
        let lx = lex::lex(&src);
        let rebuilt: String = lx.tokens.iter().map(|t| lx.text(t)).collect();
        assert_eq!(rebuilt, src, "token spans must tile {}", path.display());
    }
}

/// Two independent runs over the same tree report identical findings —
/// no iteration-order or hashing nondeterminism.
#[test]
fn audit_is_deterministic() {
    let root = workspace_root();
    let a = audit_tree(&root).expect("audit tree");
    let b = audit_tree(&root).expect("audit tree");
    assert_eq!(a.findings, b.findings, "two audits of the same tree diverged");
}

/// The committed tree carries no unjustified violations: every finding
/// class is either fixed or annotated with a reasoned exception.
#[test]
fn real_tree_audits_clean() {
    let root = workspace_root();
    let report = audit_tree(&root).expect("audit tree");
    assert!(
        report.clean(),
        "workspace must audit clean, found:\n{}",
        report.render_text()
    );
}

/// Mutation score: each mutant — one edit of a shipped file — is
/// audited on its target's patched text, and exactly the passes it
/// expects fire. Every pass, the waiver rule included, has a mutant.
#[test]
fn every_mutant_is_caught_by_exactly_its_passes() {
    let root = workspace_root();
    assert_eq!(AUDIT_PASSES, PASSES, "the mutant parser's pass names");
    let roots = crate_roots(&root);
    let mutants = all_mutants(&root, AUDIT_MUTANT_DIR).unwrap_or_else(|e| panic!("{e}"));
    for m in &mutants {
        let shipped = m.read_target(&root).unwrap_or_else(|e| panic!("{e}"));
        let sites = shipped.matches(&m.before).count();
        assert_eq!(sites, 1, "mutant {}: its `before` occurs {sites} times in {}", m.name, m.target);
        assert!(m.after.contains(&format!("MUTANT({})", m.name)), "mutant {}: `after` does not name it", m.name);
        assert!(m.programs.is_empty(), "mutant {}: names a program", m.name);
        let patched = m.apply(&shipped);
        let mut found = audit_source(&m.target, &patched);
        if roots.contains(&root.join(&m.target)) {
            found.extend(forbid_unsafe_source(&m.target, &patched));
        }
        let mut fired: Vec<&str> = found.iter().map(|f| f.pass.as_str()).collect();
        fired.sort_unstable();
        fired.dedup();
        let mut want: Vec<&str> = m.expect.iter().map(|e| e.label()).collect();
        want.sort_unstable();
        assert_eq!(fired, want, "mutant {} of {}: the passes that fire", m.name, m.target);
    }
    for pass in PASSES {
        assert!(
            mutants.iter().any(|m| m.expect.contains(&Expect::Audit(pass))),
            "no mutant exercises pass {pass}"
        );
    }
}
