//! E21 — static analyzer gate: clean tree, 100% mutant catch rate,
//! byte-identical reruns.
//!
//! The `farmem-audit` analyzer is itself a checked artifact, held to
//! the same mutation-score discipline E16 applies to the dynamic
//! checkers. This driver runs the full analyzer twice over (a) the
//! real workspace tree and (b) the seeded-violation fixture corpus in
//! `crates/audit/fixtures/`, then asserts:
//!
//! * the real tree is clean (all annotated exceptions justified);
//! * every mutant fixture is caught by every pass it seeds, and every
//!   clean fixture stays clean;
//! * each of the nine passes is exercised by at least one mutant, so a
//!   pass cannot silently stop detecting anything;
//! * both runs produce byte-identical findings JSON — the analyzer is
//!   a pure function of the source tree.
//!
//! Output: `results/e21_audit.json`.

#![forbid(unsafe_code)]

use farmem_audit::{
    audit_tree, run_fixture_corpus, workspace_root, AuditConfig, AuditReport, FixtureResult,
    PASSES,
};
use farmem_bench::{BenchArgs, Table};

/// One full analyzer run: real tree + fixture corpus.
struct Suite {
    tree: AuditReport,
    fixtures: Vec<FixtureResult>,
}

fn run_suite(cfg: &AuditConfig) -> Suite {
    let root = workspace_root();
    let tree = audit_tree(&root, cfg).expect("read workspace sources");
    let fixtures =
        run_fixture_corpus(&root.join("crates/audit/fixtures"), cfg).expect("read fixture corpus");
    Suite { tree, fixtures }
}

/// Canonical serialization of a whole suite, for the determinism
/// assert: tree findings JSON plus every fixture's classification.
fn suite_json(s: &Suite) -> String {
    let mut out = s.tree.to_json();
    for r in &s.fixtures {
        out.push_str(&format!(
            "{}|{}|expect={}|fired={}|caught={}\n",
            r.name,
            r.spec.pretend_path,
            r.spec.expect.join("+"),
            r.fired.join("+"),
            r.caught
        ));
    }
    out
}

fn mutants(s: &Suite) -> Vec<&FixtureResult> {
    s.fixtures.iter().filter(|r| !r.spec.expect.is_empty()).collect()
}

fn assert_gates(s: &Suite) {
    assert!(
        s.tree.clean(),
        "real tree must audit clean, found {} finding(s):\n{}",
        s.tree.findings.len(),
        s.tree.render_text()
    );
    for r in &s.fixtures {
        assert!(
            r.caught,
            "fixture {} (as {}) missed: expected [{}], fired [{}]",
            r.name,
            r.spec.pretend_path,
            r.spec.expect.join(", "),
            r.fired.join(", ")
        );
    }
    let muts = mutants(s);
    assert!(muts.len() >= 8, "corpus too small: {} mutants < 8", muts.len());
    for pass in PASSES {
        assert!(
            muts.iter().any(|r| r.spec.expect.iter().any(|e| e == pass)),
            "no mutant exercises pass {pass}"
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e21_audit");
    let cfg = AuditConfig::default();

    if args.verbose() {
        println!("E21: static analyzer gate (tree audit + fixture corpus, run twice)");
    }

    let suite = run_suite(&cfg);
    let again = run_suite(&cfg);
    assert_eq!(
        suite_json(&suite),
        suite_json(&again),
        "analyzer must be deterministic: two runs over the same tree diverged"
    );

    let mut tree = Table::new(
        "tree audit: real workspace",
        &["scope", "files scanned", "findings", "verdict"],
    );
    tree.row(vec![
        "src/ + crates/ + shims/".to_string(),
        suite.tree.files_scanned.to_string(),
        suite.tree.findings.len().to_string(),
        if suite.tree.clean() { "clean" } else { "DIRTY" }.to_string(),
    ]);
    report.add(tree);

    let mut fx = Table::new(
        "fixture corpus: seeded violations",
        &["fixture", "pretend path", "expects", "fired", "caught"],
    );
    for r in &suite.fixtures {
        let expects =
            if r.spec.expect.is_empty() { "clean".to_string() } else { r.spec.expect.join("+") };
        let fired = if r.fired.is_empty() { "-".to_string() } else { r.fired.join("+") };
        fx.row(vec![
            r.name.clone(),
            r.spec.pretend_path.clone(),
            expects,
            fired,
            if r.caught { "yes" } else { "MISSED" }.to_string(),
        ]);
    }
    report.add(fx);

    let muts = mutants(&suite);
    let caught = muts.iter().filter(|r| r.caught).count();
    let cleans = suite.fixtures.len() - muts.len();
    let mut summary = Table::new(
        "summary",
        &[
            "files scanned",
            "tree findings",
            "passes",
            "mutants",
            "caught",
            "clean fixtures",
            "mutation score",
            "deterministic",
        ],
    );
    summary.row(vec![
        suite.tree.files_scanned.to_string(),
        suite.tree.findings.len().to_string(),
        PASSES.len().to_string(),
        muts.len().to_string(),
        caught.to_string(),
        cleans.to_string(),
        format!("{}%", 100 * caught / muts.len().max(1)),
        "yes".to_string(),
    ]);
    report.add(summary);

    assert_gates(&suite);

    if args.verbose() {
        println!(
            "\ngates: tree clean, {caught}/{} mutants caught, all {} passes exercised, \
             reruns byte-identical",
            muts.len(),
            PASSES.len()
        );
    }

    report.save();
}
