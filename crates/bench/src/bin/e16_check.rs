//! E16 — farmem-check: mechanical verification of every protocol.
//!
//! This driver runs the full `farmem-check` suite (DESIGN.md §9): every
//! main protocol program explored under bounded DFS plus seeded random
//! (chaos) schedules, with the happens-before race detector and the
//! Wing–Gong linearizability checker applied to everything the explorer
//! keeps; then every deliberately-broken mutant, which the expected
//! analyses must flag.
//!
//! The driver is itself an assertion battery:
//!
//! * the suite runs **twice** and the two JSON renderings must be
//!   byte-identical — determinism is a checked property, not a hope;
//! * every main program must come back **clean** (0 races, 0
//!   linearizability violations, 0 invariant failures, 0 panics);
//! * every mutant must be **caught** by each analysis it was built to
//!   trip (100% mutation score), with at least one mutant per analysis.
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
        suite.to_json(),
        again.to_json(),
        "suite JSON differs between two identical runs: exploration is not deterministic"
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

    let mut mutants = Table::new(
        "E16: mutation self-test — every broken variant must be flagged",
        &["mutant", "expects", "caught", "races", "lin viol", "inv viol"],
    );
    for m in &suite.mutants {
        mutants.row(vec![
            m.exploration.name.to_string(),
            m.expect.join("+"),
            if m.caught { "yes".into() } else { "NO".into() },
            m.exploration.races.len().to_string(),
            m.exploration.lin_violations.to_string(),
            m.exploration.invariant_violations.to_string(),
        ]);
    }
    report.add(mutants);

    let caught = suite.mutants.iter().filter(|m| m.caught).count();
    let mut summary = Table::new(
        "E16: summary",
        &["programs", "clean", "mutants", "caught", "mutation score", "deterministic"],
    );
    summary.row(vec![
        suite.programs.len().to_string(),
        suite.programs.iter().filter(|p| p.clean()).count().to_string(),
        suite.mutants.len().to_string(),
        caught.to_string(),
        format!("{}%", 100 * caught / suite.mutants.len().max(1)),
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
    for m in &suite.mutants {
        assert!(
            m.caught,
            "mutant {} escaped (expected {:?}): races={:?} lin={} inv={}",
            m.exploration.name,
            m.expect,
            m.exploration.races,
            m.exploration.lin_violations,
            m.exploration.invariant_violations
        );
    }
    // "Every mutant caught" is vacuous for a mutant that was dropped from
    // the suite: the failover, serving-TTL, record-publish, record-hint, take,
    // split-retire, batched-hint, queue-repair, restructure, table-hint,
    // splice, block-version and carried-publish mutants, and the programs
    // they break, are required by name.
    for required in [
        "m9_serve_read_after_fence",
        "m10_promote_without_epoch_bump",
        "m11_ack_write_before_replica_durable",
        "m12_serve_read_after_expiry",
        "m13_evict_without_retire",
        "m14_publish_record_after_cas",
        "m15_hint_trusted_without_tree",
        "m16_take_relinks_stale_head",
        "m17_restructure_sealed_as_record",
        "m18_batched_hint_trusted_without_compare",
        "m19_empty_claim_leaves_guard_open",
        "m20_attach_adopts_odd_epoch",
        "m21_directory_published_by_blind_write",
        "m22_table_taken_by_plain_write",
        "m23_table_hint_trusted_without_compare",
        "m24_trim_without_walk",
        "m25_poison_loss_keeps_stale_harvest",
        "m26_get_trusts_block_without_version",
        "m27_batched_publish_trusted_after_lost_cas",
    ] {
        assert!(
            suite.mutants.iter().any(|m| m.exploration.name == required),
            "mutant {required} is missing from the suite"
        );
    }
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
    for analysis in ["races", "linearizability", "invariant"] {
        assert!(
            suite.mutants.iter().any(|m| m.expect.contains(&analysis)),
            "no mutant exercises the {analysis} analysis"
        );
    }
}
