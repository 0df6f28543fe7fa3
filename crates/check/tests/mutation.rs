//! Mutation self-tests. Every main (unbroken) program must come back
//! clean under the smoke bounds CI uses, and every mutant — a file under
//! `crates/check/mutants/`, one edit of the shipped code each — must
//! still describe the tree it edits.
//!
//! Whether each mutant is *caught* is judged in a patched copy of the
//! workspace: `cargo run -p xtask -- mutants` applies one mutant at a time
//! and runs [`every_mutant_is_caught_by_each_expected_analysis`] there,
//! which finds the applied mutant and explores its programs.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use farmem_check::explore::{explore, ExploreBounds, Exploration};
use farmem_check::mutants::{all_mutants, number, Expect, Mutant};
use farmem_check::programs::main_programs;
use farmem_check::suite::{run_suite, SuiteConfig, SuiteResult, MUTANT_BUDGET};

const CFG: SuiteConfig = SuiteConfig { smoke: true, seed: 0xE16 };

/// The suite is expensive; run it once and share it across tests.
fn suite() -> &'static SuiteResult {
    static SUITE: OnceLock<SuiteResult> = OnceLock::new();
    SUITE.get_or_init(|| run_suite(&CFG))
}

/// The workspace this test was built from: the shipped tree, or the
/// patched copy the `mutants` task builds.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn mutants() -> Vec<Mutant> {
    all_mutants(&root()).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn main_programs_are_clean_under_smoke_bounds() {
    let suite = suite();
    for p in &suite.programs {
        assert!(
            p.clean(),
            "program {} not clean: races={:?} lin={:?} invariant={:?} panicked={}",
            p.name,
            p.races,
            p.first_lin,
            p.first_invariant,
            p.panicked,
        );
        assert!(p.lin_checked > 0 || p.races.is_empty());
    }
}

/// Bug classes judged as further programs of another mutant file's edit,
/// with the program each is judged under: m18 (the batched lookup) and
/// m23 (the table-hinted one) lose the same compare as m15, and m15's
/// file names their programs.
const FOLDED: [(u32, &str); 2] = [(18, "reclaim_hinted_get_many"), (23, "reclaim_hinted_table")];

/// The bug classes every run must judge: m1 to m27, each once.
const BUG_CLASSES: u32 = 27;

/// The mutants that edit `crates/check/`, each with why its bug lives in
/// a main program's own body: a client that *uses* a shipped API wrongly,
/// which no edit of that API's own code can express. Every other mutant
/// edits the code that ships.
const CHECK_EDITS: [(u32, &str); 3] = [
    (3, "the counter's clients update it without taking the FarMutex at all"),
    (4, "the counter's clients read it before taking the FarMutex"),
    (27, "the reader uses a batch's answers without settling the slot CAS the batch carried through Guard::settle"),
];

/// The staleness gate: a refactor that moves a mutant's site, renames its
/// program or empties its expectations fails here, in `cargo test`; so
/// does a mutant file that goes missing.
#[test]
fn every_mutant_file_matches_the_shipped_tree() {
    let mutants = mutants();
    assert!(!mutants.is_empty(), "no mutant files");
    let programs: Vec<&str> = main_programs().iter().map(|p| p.name).collect();
    for m in &mutants {
        assert!(!m.programs.is_empty(), "mutant {}: names no program", m.name);
        for p in &m.programs {
            assert!(programs.contains(&p.as_str()), "mutant {}: no main program {p}", m.name);
        }
        assert!(!m.expect.is_empty(), "mutant {}: expects no analysis", m.name);
        let sites = m.sites(&root()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sites, 1, "mutant {}: its `before` occurs {sites} times in {}", m.name, m.target);
        assert!(m.after.contains(&format!("MUTANT({})", m.name)), "mutant {}: `after` does not name it", m.name);
        assert!(!m.is_applied(&root()).unwrap(), "mutant {} is applied in the shipped tree", m.name);
        let n = number(&m.name).unwrap_or_else(|| panic!("mutant {}: no number", m.name));
        assert_eq!(
            m.target.starts_with("crates/check/"),
            CHECK_EDITS.iter().any(|&(k, _)| k == n),
            "mutant {}: edits {}; only the client bodies of CHECK_EDITS may edit crates/check/",
            m.name,
            m.target
        );
    }
    // Each analysis is shown to catch something on its own.
    for analysis in Expect::ALL {
        assert!(
            mutants.iter().any(|m| m.expect.contains(&analysis)),
            "no mutant exercises the {} analysis",
            analysis.label()
        );
    }
    // A floor on what is judged: every bug class is a mutant file or a
    // folded program of one — once.
    for (n, program) in FOLDED {
        assert!(
            mutants.iter().any(|m| m.programs.iter().any(|p| p == program)),
            "m{n} is folded, but no mutant file names its program {program}"
        );
    }
    let files = mutants.iter().filter_map(|m| number(&m.name));
    let mut judged: Vec<u32> = files.chain(FOLDED.map(|(n, _)| n)).collect();
    judged.sort_unstable();
    assert_eq!(judged, (1..=BUG_CLASSES).collect::<Vec<_>>(), "bug classes judged, by number");
}

/// Whether every analysis in `expect` fired in `x`.
fn caught(expect: &[Expect], x: &Exploration) -> bool {
    expect.iter().all(|e| match e {
        Expect::Races => !x.races.is_empty(),
        Expect::Lin => x.lin_violations > 0,
        Expect::Invariant => x.invariant_violations > 0,
    })
}

/// Judges the applied mutant in a patched copy: each program it names,
/// explored under [`MUTANT_BUDGET`], must trip every analysis it expects.
/// Prints one `mutant:` row per program, tab-separated and ending in its
/// verdict, for the `mutants` task. In the shipped tree no mutant is
/// applied, and there is nothing to judge.
#[test]
fn every_mutant_is_caught_by_each_expected_analysis() {
    let applied: Vec<Mutant> = mutants()
        .into_iter()
        .filter(|m| m.is_applied(&root()).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let m = match applied.as_slice() {
        [] => return,
        [m] => m,
        _ => panic!("more than one mutant applied: {:?}", applied.iter().map(|m| &m.name).collect::<Vec<_>>()),
    };
    let (max_schedules, random_schedules) = MUTANT_BUDGET;
    let expect: Vec<&str> = m.expect.iter().map(|e| e.label()).collect();
    let mut escaped = Vec::new();
    for name in &m.programs {
        let program = main_programs().into_iter().find(|p| p.name == name.as_str()).expect("a main program");
        let x = explore(&program, &ExploreBounds { max_schedules, random_schedules, seed: 0xE16 });
        let verdict = if caught(&m.expect, &x) { "yes" } else { "NO" };
        println!(
            "mutant:\t{}\t{name}\t{}\t{}\t{}\t{}\t{verdict}",
            m.name,
            expect.join("+"),
            x.races.len(),
            x.lin_violations,
            x.invariant_violations
        );
        if verdict == "NO" {
            escaped.push(format!(
                "{} under {name} expected {expect:?}, got races={:?} lin={} invariant={} panicked={}",
                m.name, x.races, x.lin_violations, x.invariant_violations, x.panicked
            ));
        }
    }
    assert!(escaped.is_empty(), "mutants escaped: {escaped:#?}");
}
