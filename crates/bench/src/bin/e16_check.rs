//! E16 — farmem-check: mechanical verification of every protocol.
//!
//! This driver runs the full `farmem-check` suite (DESIGN.md §9): every
//! main protocol program explored under bounded DFS plus seeded random
//! (chaos) schedules, with the happens-before race detector and the
//! Wing–Gong linearizability checker applied to everything the explorer
//! keeps. (The mutation self-test — every deliberately broken edit of
//! the shipped code must be flagged — runs apart, one patched copy of the
//! workspace per mutant: `cargo run -p xtask -- mutants`.)
//!
//! The driver is itself an assertion battery:
//!
//! * the suite runs **twice** and the two results must be equal, every
//!   exploration field for field — determinism is a checked property,
//!   not a hope;
//! * every main program must come back **clean** (0 races, 0
//!   linearizability violations, 0 invariant failures, 0 panics).
//!
//! Output lands in `results/e16_check.json` (table document).
//!
//! Run: `cargo run --release -p farmem-bench --bin e16_check`

use farmem_bench::{BenchArgs, Table};
use farmem_check::explore::Exploration;
use farmem_check::suite::{run_suite, SuiteConfig, SuiteResult};

/// Committed default seed (determinism over novelty).
const SEED: u64 = 0xE16;

fn program_row(x: &Exploration) -> Vec<String> {
    vec![
        x.name.to_string(),
        x.schedules.to_string(),
        x.random_schedules.to_string(),
        if x.exhausted { "yes".into() } else { "no".into() },
        x.truncated.to_string(),
        x.steps.to_string(),
        x.races.len().to_string(),
        x.lin_checked.to_string(),
        x.lin_violations.to_string(),
        x.invariant_violations.to_string(),
    ]
}

fn main() {
    let args = BenchArgs::parse();
    // The full schedule budgets: `SuiteConfig::smoke` is for the check
    // crate's own unit tests.
    let cfg = SuiteConfig { smoke: false, seed: args.seed_or(SEED) };
    let mut report = args.report("e16_check");

    eprintln!("running check suite (smoke={}, seed={:#x}) ...", cfg.smoke, cfg.seed);
    let suite = run_suite(&cfg);
    eprintln!("re-running for the determinism assertion ...");
    let again = run_suite(&cfg);
    assert_eq!(
        suite, again,
        "suite result differs between two identical runs: exploration is not deterministic"
    );

    let mut programs = Table::new(
        &format!(
            "E16: main protocol programs, explored clean (smoke={}, seed {:#x})",
            cfg.smoke, cfg.seed
        ),
        &[
            "program",
            "dfs runs",
            "random runs",
            "exhausted",
            "truncated",
            "steps",
            "races",
            "lin checked",
            "lin viol",
            "inv viol",
        ],
    );
    for x in &suite.programs {
        programs.row(program_row(x));
    }
    report.add(programs);

    let mut summary = Table::new("E16: summary", &["programs", "clean", "deterministic"]);
    summary.row(vec![
        suite.programs.len().to_string(),
        suite.programs.iter().filter(|p| p.clean()).count().to_string(),
        "yes".into(),
    ]);
    report.add(summary);

    assert_gates(&suite);

    report.save();
}

/// The hard gates CI relies on; failing any one aborts the driver.
fn assert_gates(suite: &SuiteResult) {
    for p in &suite.programs {
        assert!(
            p.clean(),
            "program {} not clean: races={:?} first_lin={:?} first_invariant={:?} panicked={}",
            p.name,
            p.races,
            p.first_lin,
            p.first_invariant,
            p.panicked
        );
    }
    // "Every program clean" is vacuous for a program dropped from the
    // suite: the failover, serving-TTL, record-publish, record-hint, take,
    // split-retire, batched-hint, queue-wrap, restructure, table-hint,
    // splice and carried-publish programs are required by name.
    for required in [
        "serve_ttl_evict",
        "httree_publish",
        "reclaim_hinted_get",
        "reclaim_hinted_get_many",
        "reclaim_hinted_table",
        "reclaim_take",
        "reclaim_split",
        "reclaim_trim",
        "queue_wrap",
        "queue_wrap_chaos",
        "httree_split_race",
        "reclaim_evicted_publish",
    ] {
        assert!(
            suite.programs.iter().any(|p| p.name == required),
            "{required} is missing from the main suite"
        );
    }
}
