//! Mutation self-tests: deliberately broken variants of the shipped
//! code, which the analyses must flag.
//!
//! A mutant is a small edit of the code that ships, one file under
//! [`MUTANT_DIR`] each — not a copy of the protocol. Its file names the
//! source file it edits, the main programs (of
//! `programs::main_programs`) that must each catch it, and the
//! analyses that must fire; then the text it replaces and the text it
//! puts in its place:
//!
//! ```text
//! # What the edit breaks, and why the program notices.
//! target: crates/baselines/src/mutex.rs
//! program: mutex_counter
//! expect: races
//! --- before
//! <lines that occur exactly once in the target>
//! --- after
//! <the lines that replace them>
//! ```
//!
//! `program` lists one or more program names and `expect` one or more
//! of `races`, `linearizability` and `invariant`, separated by spaces;
//! one build of the edit is judged under every listed program, each
//! against every listed analysis. Each `after` carries a
//! `MUTANT(<name>)` comment, so no `after` occurs in the shipped tree
//! and two mutants of one site never read the same.
//!
//! The static analyzer `farmem-audit` is judged by mutants of the same
//! format under [`AUDIT_MUTANT_DIR`]: they name no `program`, and their
//! `expect` lists the [`AUDIT_PASSES`] that must fire on the edited
//! text. Its `analyzer` test audits each edit in memory; nothing is
//! copied or built.
//!
//! `cargo run -p xtask -- mutants` applies each mutant, one at a time, to
//! a copy of the workspace and runs the `farmem-check` test that finds
//! the applied mutant there ([`Mutant::is_applied`]) and explores its
//! programs. In the shipped tree the crate's tests check that every file
//! parses and every `before` still matches its target exactly once, so a
//! refactor that moves a mutant's site fails `cargo test`.
//!
//! This module uses nothing but `std`, so the `xtask` runner compiles the
//! same parser.

use std::path::Path;

/// The mutant files, relative to the workspace root.
pub const MUTANT_DIR: &str = "crates/check/mutants";

/// The mutant files of the static analyzer, relative to the workspace
/// root.
pub const AUDIT_MUTANT_DIR: &str = "crates/audit/mutants";

/// The static analyzer's passes, as `expect` labels: `farmem_audit::PASSES`,
/// which the analyzer's test holds this list to.
pub const AUDIT_PASSES: [&str; 10] = [
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

/// Which analysis is expected to flag a mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The happens-before race detector must report at least one race.
    Races,
    /// The linearizability checker must reject at least one history.
    Lin,
    /// A program invariant (explorer finale) must fail.
    Invariant,
    /// The static analyzer's pass of this name must report a finding.
    Audit(&'static str),
}

impl Expect {
    /// Every dynamic analysis, in report order.
    pub const ALL: [Expect; 3] = [Expect::Races, Expect::Lin, Expect::Invariant];

    /// Stable label used in reports and mutant files.
    pub fn label(self) -> &'static str {
        match self {
            Expect::Races => "races",
            Expect::Lin => "linearizability",
            Expect::Invariant => "invariant",
            Expect::Audit(pass) => pass,
        }
    }
}

/// One mutant file, parsed.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The file's stem, e.g. `m1_mutex_unfenced_release`.
    pub name: String,
    /// The edited source file, relative to the workspace root.
    pub target: String,
    /// The main programs that must each catch the edit (none for the
    /// analyzer's mutants).
    pub programs: Vec<String>,
    /// Every listed analysis must fire for the mutant to count as caught.
    pub expect: Vec<Expect>,
    /// The shipped text, which must occur exactly once in `target`.
    pub before: String,
    /// The text that replaces it.
    pub after: String,
}

impl Mutant {
    /// Parses the file `name` holding `text` (format in the module docs).
    pub fn parse(name: &str, text: &str) -> Result<Mutant, String> {
        let err = |what: &str| format!("mutant {name}: {what}");
        let (head, rest) = text.split_once("--- before\n").ok_or_else(|| err("no `--- before` line"))?;
        let (before, after) = rest.split_once("--- after\n").ok_or_else(|| err("no `--- after` line"))?;
        let (mut target, mut program, mut expect) = (None, None, None);
        for line in head.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (key, value) = line.split_once(": ").ok_or_else(|| err(&format!("bad line `{line}`")))?;
            let slot = match key {
                "target" => &mut target,
                "program" => &mut program,
                "expect" => &mut expect,
                _ => return Err(err(&format!("unknown key `{key}`"))),
            };
            *slot = Some(value.trim().to_string());
        }
        let programs: Vec<String> =
            program.iter().flat_map(|p| p.split_whitespace()).map(str::to_string).collect();
        let expect = expect
            .ok_or_else(|| err("no `expect`"))?
            .split_whitespace()
            .map(|label| {
                Expect::ALL
                    .into_iter()
                    .chain(AUDIT_PASSES.map(Expect::Audit))
                    .find(|e| e.label() == label)
                    .ok_or_else(|| err(&format!("unknown analysis `{label}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if before.is_empty() || before == after {
            return Err(err("`before` is empty or equals `after`"));
        }
        Ok(Mutant {
            name: name.to_string(),
            target: target.ok_or_else(|| err("no `target`"))?,
            programs,
            expect,
            before: before.to_string(),
            after: after.to_string(),
        })
    }

    /// The target's text under the workspace `root`.
    pub fn read_target(&self, root: &Path) -> Result<String, String> {
        std::fs::read_to_string(root.join(&self.target))
            .map_err(|e| format!("mutant {}: cannot read {}: {e}", self.name, self.target))
    }

    /// How often `before` occurs in the target under `root`.
    pub fn sites(&self, root: &Path) -> Result<usize, String> {
        Ok(self.read_target(root)?.matches(&self.before).count())
    }

    /// Whether the tree under `root` holds this mutant: its `after`,
    /// which names it in a `MUTANT` comment, is in the target.
    pub fn is_applied(&self, root: &Path) -> Result<bool, String> {
        Ok(self.read_target(root)?.contains(&self.after))
    }

    /// The target's text with the mutant applied.
    pub fn apply(&self, text: &str) -> String {
        text.replacen(&self.before, &self.after, 1)
    }
}

/// The report order of the mutant `name`: the number after its leading
/// letter (`m` for farmem-check's mutants, `a` for the analyzer's).
pub fn number(name: &str) -> Option<u32> {
    name.get(1..)?.split('_').next()?.parse().ok()
}

/// Every mutant in `dir` ([`MUTANT_DIR`] or [`AUDIT_MUTANT_DIR`]) under the
/// workspace `root`, in report order ([`number`]).
pub fn all_mutants(root: &Path, dir: &str) -> Result<Vec<Mutant>, String> {
    let dir = root.join(dir);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut mutants = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        mutants.push(Mutant::parse(&name, &text)?);
    }
    mutants.sort_by_key(|m| (number(&m.name), m.name.clone()));
    Ok(mutants)
}
