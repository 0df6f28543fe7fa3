//! Mutation self-tests. Every main (unbroken) program must come back
//! clean under the smoke bounds CI uses, and every mutant — a file under
//! `crates/check/mutants/`, one edit of the shipped code each — must
//! still describe the tree it edits.
//!
//! Whether each mutant is *caught* is judged in a patched copy of the
//! workspace: `cargo run -p xtask -- mutants` applies one mutant at a time
//! and runs [`every_mutant_is_caught_by_each_expected_analysis`] there,
//! which finds the applied mutant and explores its programs. In the
//! shipped tree that test judges the two bug classes kept in miniature
//! below instead, whose doc comments say why no edit of the shipped code
//! shows them to the analysis they are kept for.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_check::explore::{explore, ExploreBounds, Exploration, PreparedRun, Program};
use farmem_check::history::{History, Op, Ret};
use farmem_check::linz::Model;
use farmem_check::mutants::{all_mutants, number, Expect, Mutant};
use farmem_check::programs::main_programs;
use farmem_check::suite::{run_suite, SuiteConfig, SuiteResult, MUTANT_BUDGET};
use farmem_fabric::{BatchOp, FabricConfig, FarAddr};
use farmem_reclaim::{pin, ReclaimRegistry};

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
    }
    // Each analysis is shown to catch something on its own.
    for analysis in Expect::ALL {
        assert!(
            mutants.iter().any(|m| m.expect.contains(&analysis)),
            "no mutant exercises the {} analysis",
            analysis.label()
        );
    }
    // A floor on what is judged: every bug class is a mutant file, a
    // folded program of one, or a kept miniature — once.
    for (n, program) in FOLDED {
        assert!(
            mutants.iter().any(|m| m.programs.iter().any(|p| p == program)),
            "m{n} is folded, but no mutant file names its program {program}"
        );
    }
    let files = mutants.iter().map(|m| number(&m.name).unwrap_or_else(|| panic!("mutant {}: no number", m.name)));
    let kept = miniatures().into_iter().map(|j| number(&j.name).expect("a numbered miniature"));
    let mut judged: Vec<u32> = files.chain(kept).chain(FOLDED.map(|(n, _)| n)).collect();
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

/// One judgement: the mutant's name, a program that must catch it and
/// its label (`miniature` for a kept miniature), and the analyses that
/// must fire.
struct Judged {
    name: String,
    program: Program,
    label: String,
    expect: Vec<Expect>,
}

/// Judges the applied mutant in a patched copy, or the kept miniatures in
/// the shipped tree: each program — every one the applied mutant names —
/// explored under [`MUTANT_BUDGET`], must trip every analysis its mutant
/// expects. Prints one `mutant:` row per program, tab-separated and
/// ending in its verdict, for the `mutants` task.
#[test]
fn every_mutant_is_caught_by_each_expected_analysis() {
    let applied: Vec<Mutant> = mutants()
        .into_iter()
        .filter(|m| m.is_applied(&root()).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let judged = match applied.as_slice() {
        [] => miniatures(),
        [m] => m
            .programs
            .iter()
            .map(|name| Judged {
                name: m.name.clone(),
                program: main_programs().into_iter().find(|p| p.name == name.as_str()).expect("a main program"),
                label: name.clone(),
                expect: m.expect.clone(),
            })
            .collect(),
        _ => panic!("more than one mutant applied: {:?}", applied.iter().map(|m| &m.name).collect::<Vec<_>>()),
    };
    let (max_schedules, random_schedules) = MUTANT_BUDGET;
    let mut escaped = Vec::new();
    for j in &judged {
        let x = explore(&j.program, &ExploreBounds { max_schedules, random_schedules, seed: 0xE16 });
        let expect: Vec<&str> = j.expect.iter().map(|e| e.label()).collect();
        let verdict = if caught(&j.expect, &x) { "yes" } else { "NO" };
        println!(
            "mutant:\t{}\t{}\t{}\t{}\t{}\t{}\t{verdict}",
            j.name,
            j.label,
            expect.join("+"),
            x.races.len(),
            x.lin_violations,
            x.invariant_violations
        );
        if verdict == "NO" {
            escaped.push(format!(
                "{} expected {expect:?}, got races={:?} lin={} invariant={} panicked={}",
                j.name, x.races, x.lin_violations, x.invariant_violations, x.panicked
            ));
        }
    }
    assert!(escaped.is_empty(), "mutants escaped: {escaped:#?}");
}

/// The bug classes kept in miniature, in report order.
fn miniatures() -> Vec<Judged> {
    [restructure_sealed_as_record(), directory_published_by_blind_write()]
        .into_iter()
        .map(|program| Judged {
            name: program.name.to_string(),
            program,
            label: "miniature".into(),
            expect: vec![Expect::Lin],
        })
        .collect()
}

/// Poison a reclaimer writes into memory it freed, standing in for reuse.
const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

fn fabric() -> Arc<farmem_fabric::Fabric> {
    FabricConfig::count_only(64 << 20).build()
}

/// M17, kept in miniature — a restructure sealed as a record retire. A
/// directory word names a one-word table; a reader caches the table
/// pointer and re-reads the directory only when its pin reports a new
/// restructure generation. The splitter copies the table, swings the
/// directory and retires the old table through the *plain* `retire`, so
/// the seal moves the epoch but not the generation: the reader's pin
/// publishes the new epoch — which lets grace free the old table —
/// without refreshing, and its next get reads the block after the
/// splitter reused it. Correct code retires the table with
/// `retire_restructure`, whose seal bumps the generation and makes that
/// same pin refresh first.
///
/// Why a miniature: the same edit of the shipped code (`Records::
/// retire_restructure` retiring through `retire`) is seen by
/// `reclaim_split`'s race detector — the stale reader reads a block the
/// splitter reused — but never by its history: every header and block a
/// stale HT-tree cache reads carries a version the reused memory cannot
/// match, so the lookup refreshes (or its read of the poison fails)
/// instead of answering. The served stale value needs a structure
/// without per-block versions.
fn restructure_sealed_as_record() -> Program {
    Program {
        name: "m17_restructure_sealed_as_record",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            let [dir, old] = [(); 2].map(|()| alloc.alloc(8, AllocHint::Spread).unwrap());
            c0.write_u64(old, 1).unwrap();
            c0.write_u64(dir, old.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            // The reader attaches and caches the table before the split.
            let mut cr = f.client();
            let rid = cr.id();
            let sr = reg.attach(&mut cr, &alloc).unwrap();
            let mut seen = pin(&sr, &mut cr).unwrap().generation();
            let mut table = FarAddr(cr.read_u64(dir).unwrap());
            // The split, before the run starts: copy, swing, retire, seal.
            let mut cs = f.client();
            let sid = cs.id();
            let ss = reg.attach(&mut cs, &alloc).unwrap();
            let new = alloc.alloc(8, AllocHint::Spread).unwrap();
            cs.write_u64(new, 1).unwrap();
            assert_eq!(cs.cas(dir, old.0, new.0).unwrap(), old.0);
            {
                let mut r = ss.lock().unwrap();
                // MUTANT: the old table goes through the record retire.
                r.retire(&mut cs, old, 8).unwrap();
                r.seal(&mut cs).unwrap();
            }
            let splitter: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A few grace rounds (no lease eviction), then reuse.
                for _ in 0..3 {
                    if ss.lock().unwrap().reclaim(&mut cs).unwrap() > 0 {
                        cs.write_u64(old, POISON).unwrap();
                        return;
                    }
                }
            });
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let g = pin(&sr, &mut cr).unwrap();
                    if g.generation() != seen {
                        table = FarAddr(cr.read_u64(dir).unwrap());
                        seen = g.generation();
                    }
                    let v = cr.read_u64(table).unwrap();
                    drop(g);
                    hr.complete(t, Ret::Vals(vec![v]));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![sid, rid],
                bodies: vec![splitter, reader],
                history: h,
                finale: None,
            }
        }),
    }
}

/// M21, kept in miniature — a directory published by a plain write of
/// the anchor. Key `k` lives in table `k / 2`, a slot `[version, value of
/// key 2t, value of key 2t + 1]`; the anchor word is the directory, one
/// slot number per table byte. Each client restructures its own table
/// as `HtTreeHandle::split` does — takes it with a CAS of its version
/// 1 → 0 (fenced with a read of its values) and writes the new table
/// into a slot of its own — but publishes with a plain write of the
/// anchor from the directory it read, then gets the other client's key.
/// The second write erases the first's table, and a get invoked after
/// the first put completed returns the value it replaced. Correct code's
/// second CAS loses and splices into the first's directory.
///
/// Why a miniature: the same edit of the shipped code
/// (`HtTreeHandle::publish_directory` writing the anchor's pointer) fails
/// `httree_split_race`'s finale in every schedule — a fresh scan misses
/// the erased table's keys — but that program only puts, and no main
/// program gets a key while two restructures of different tables race,
/// so no history of shipped code shows it to the linearizability checker.
fn directory_published_by_blind_write() -> Program {
    Program {
        name: "m21_directory_published_by_blind_write",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = fabric();
            let mut c0 = f.client();
            // The anchor, then eight slots: the first two tables, three per client.
            let anchor = FarAlloc::new(f.clone()).alloc(8 + 8 * 24, AllocHint::Spread).unwrap();
            let slot = move |s: u64| anchor.offset(8 + 24 * s);
            let init = [1 << 8, 1, 100, 101, 1, 102, 103u64].map(u64::to_le_bytes).concat();
            c0.write(anchor, &init).unwrap();
            let h = Arc::new(History::new());
            for k in 0..4 {
                h.seed(c0.id(), Op::Put { k, v: 100 + k }, Ret::Unit);
            }
            let puts = [(0u64, 10u64), (2, 12)];
            let (mut participants, mut bodies) = (Vec::new(), Vec::<Box<dyn FnOnce() + Send>>::new());
            for (me, (k, v)) in puts.into_iter().enumerate() {
                let other = puts[1 - me].0;
                let mut c = f.client();
                let id = c.id();
                participants.push(id);
                let h = h.clone();
                bodies.push(Box::new(move || {
                    let t = h.invoke(id, Op::Put { k, v });
                    let stored = (0..3).any(|attempt| {
                        let dir = c.read_u64(anchor).unwrap();
                        let old = slot(dir >> (8 * (k / 2)) & 0xff);
                        let take = BatchOp::Cas { addr: old, expected: 1, new: 0 };
                        let out = c.batch(&[take, BatchOp::Read { addr: old.offset(8), len: 16 }]).unwrap();
                        if out[0].value() != 1 {
                            return false;
                        }
                        let mut table = [&1u64.to_le_bytes()[..], out[1].bytes()].concat();
                        table[8 + 8 * (k % 2) as usize..][..8].copy_from_slice(&v.to_le_bytes());
                        let new = 2 + 3 * me as u64 + attempt;
                        c.write(slot(new), &table).unwrap();
                        // MUTANT: the anchor is written, not CASed from `dir`.
                        c.write_u64(anchor, dir & !(0xff << (8 * (k / 2))) | new << (8 * (k / 2))).unwrap();
                        true
                    });
                    if stored {
                        h.complete(t, Ret::Unit);
                    } else {
                        h.fail(t);
                    }
                    let t = h.invoke(id, Op::Get { k: other });
                    let table = slot(c.read_u64(anchor).unwrap() >> (8 * (other / 2)) & 0xff);
                    let got = c.read_u64(table.offset(8 + 8 * (other % 2))).unwrap();
                    h.complete(t, Ret::OptVal(Some(got)));
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    }
}
