//! The deterministic check suite consumed by the `e16_check` driver and
//! the crate's own tests.
//!
//! [`run_suite`] explores every main program under seeded bounds and
//! returns a [`SuiteResult`] whose JSON rendering is a pure function of
//! `(smoke, seed)`: no timestamps, no wall-clock dependence, stable
//! ordering everywhere. Smoke bounds are a strict prefix of the full
//! bounds (smaller DFS budget, fewer random seeds of the same sequence),
//! so everything the smoke run finds, the full run finds too.
//!
//! The mutants (see [`crate::mutants`]) are not part of the suite: each
//! is an edit of the shipped code, explored under [`MUTANT_BUDGET`] in a
//! patched copy of the workspace by `cargo run -p xtask -- mutants`.

use crate::explore::{explore, ExploreBounds, Exploration, Program};
use crate::programs::main_programs;

/// Suite configuration.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Shrinks every bound (CI-sized); still asserts every invariant.
    pub smoke: bool,
    /// Seed for the random-schedule phases.
    pub seed: u64,
}

/// One exploration's budget: `(DFS schedules, random schedules)`.
type Budget = (usize, usize);

/// Every main program's budget, one `(name, full, smoke)` row each, in
/// report order. A main program without a row panics the suite, and a
/// row that names no main program fails this module's tests.
const PROGRAM_BUDGETS: &[(&str, Budget, Budget)] = &[
    ("mutex_counter", (150, 24), (50, 8)),
    ("queue_fifo", (120, 24), (40, 8)),
    ("httree_split", (60, 12), (20, 4)),
    ("httree_split_race", (60, 12), (20, 4)),
    ("httree_publish", (60, 12), (20, 4)),
    ("reclaim_hinted_get", (60, 12), (20, 4)),
    ("reclaim_hinted_get_many", (60, 12), (20, 4)),
    ("reclaim_hinted_table", (60, 12), (20, 4)),
    ("reclaim_take", (60, 12), (20, 4)),
    ("reclaim_split", (60, 12), (20, 4)),
    ("reclaim_trim", (60, 12), (20, 4)),
    ("reclaim_publish", (120, 24), (40, 8)),
    ("reclaim_evict", (80, 12), (30, 4)),
    ("reclaim_evicted_publish", (120, 24), (40, 8)),
    ("replica_failover", (120, 24), (40, 8)),
    ("serve_ttl_evict", (160, 24), (80, 12)),
    ("mutex_counter_chaos", (60, 24), (20, 8)),
    ("queue_wrap", (60, 24), (20, 8)),
    ("queue_wrap_chaos", (60, 24), (20, 8)),
];

/// Every mutant's `(DFS schedules, random schedules)`, at or above every
/// main program's full budget, so a mutant's program is explored at
/// least as deeply as the suite explores it clean.
pub const MUTANT_BUDGET: (usize, usize) = (160, 24);

/// The `(full, smoke)` budget of main program `name`.
fn program_budget(name: &str) -> (Budget, Budget) {
    PROGRAM_BUDGETS
        .iter()
        .find(|row| row.0 == name)
        .map(|&(_, full, smoke)| (full, smoke))
        .unwrap_or_else(|| panic!("main program {name} has no row in PROGRAM_BUDGETS"))
}

/// Explores `prog` under the full or smoke half of `budget`.
fn explore_within(
    prog: &Program,
    (full, smoke): (Budget, Budget),
    cfg: &SuiteConfig,
) -> Exploration {
    let (dfs, random) = if cfg.smoke { smoke } else { full };
    explore(prog, &ExploreBounds { max_schedules: dfs, random_schedules: random, seed: cfg.seed })
}

/// The whole suite's outcome.
pub struct SuiteResult {
    /// Configuration the suite ran under.
    pub config: SuiteConfig,
    /// Main-program outcomes, report order.
    pub programs: Vec<Exploration>,
}

impl SuiteResult {
    /// True when every main program came back clean.
    pub fn programs_clean(&self) -> bool {
        self.programs.iter().all(|p| p.clean())
    }

    /// Deterministic JSON rendering (see module docs).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n  \"schema_version\": 1,\n  \"suite\": \"e16_check\",\n");
        o.push_str(&format!("  \"smoke\": {},\n  \"seed\": {},\n", self.config.smoke, self.config.seed));
        o.push_str("  \"programs\": [\n");
        for (i, p) in self.programs.iter().enumerate() {
            o.push_str(&exploration_json(p, "    "));
            o.push_str(if i + 1 < self.programs.len() { ",\n" } else { "\n" });
        }
        o.push_str("  ],\n  \"summary\": {\n");
        o.push_str(&format!("    \"programs_clean\": {}\n", self.programs_clean()));
        o.push_str("  }\n}\n");
        o
    }
}

/// Renders one exploration as a JSON object (deterministic).
pub fn exploration_json(p: &Exploration, indent: &str) -> String {
    let mut o = format!("{indent}{{\n");
    let kv = |o: &mut String, k: &str, v: String, comma: bool| {
        o.push_str(&format!("{indent}  \"{k}\": {v}{}\n", if comma { "," } else { "" }));
    };
    kv(&mut o, "name", json_str(p.name), true);
    kv(&mut o, "schedules", p.schedules.to_string(), true);
    kv(&mut o, "random_schedules", p.random_schedules.to_string(), true);
    kv(&mut o, "exhausted", p.exhausted.to_string(), true);
    kv(&mut o, "truncated", p.truncated.to_string(), true);
    kv(&mut o, "panicked", p.panicked.to_string(), true);
    kv(&mut o, "steps", p.steps.to_string(), true);
    let races = p.races.iter().map(|r| json_str(&r.render())).collect::<Vec<_>>().join(", ");
    kv(&mut o, "races", format!("[{races}]"), true);
    kv(&mut o, "lin_checked", p.lin_checked.to_string(), true);
    kv(&mut o, "lin_violations", p.lin_violations.to_string(), true);
    kv(
        &mut o,
        "first_lin",
        p.first_lin.as_deref().map(json_str).unwrap_or_else(|| "null".into()),
        true,
    );
    kv(&mut o, "invariant_violations", p.invariant_violations.to_string(), true);
    kv(
        &mut o,
        "first_invariant",
        p.first_invariant.as_deref().map(json_str).unwrap_or_else(|| "null".into()),
        false,
    );
    o.push_str(&format!("{indent}}}"));
    o
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Runs the whole suite: every main program.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteResult {
    let programs: Vec<Exploration> =
        main_programs().iter().map(|p| explore_within(p, program_budget(p.name), cfg)).collect();
    SuiteResult { config: *cfg, programs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget table and the main-program list name the same
    /// programs, once each and in the same order.
    #[test]
    fn every_main_program_has_exactly_one_budget_row() {
        let programs: Vec<&str> = main_programs().iter().map(|p| p.name).collect();
        let rows: Vec<&str> = PROGRAM_BUDGETS.iter().map(|row| row.0).collect();
        assert_eq!(rows, programs);
    }
}
