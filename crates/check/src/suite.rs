//! The deterministic check suite consumed by the `e16_check` driver and
//! the crate's own tests.
//!
//! [`run_suite`] explores every main program and every mutant under
//! seeded bounds and returns a [`SuiteResult`] whose JSON rendering is a
//! pure function of `(smoke, seed)`: no timestamps, no wall-clock
//! dependence, stable ordering everywhere. Smoke bounds are a strict
//! prefix of the full bounds (smaller DFS budget, fewer random seeds of
//! the same sequence), so everything the smoke run finds, the full run
//! finds too.

use crate::explore::{explore, ExploreBounds, Exploration, Program};
use crate::mutants::{all_mutants, Expect, Mutant};
use crate::programs::main_programs;

/// Suite configuration.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Shrinks every bound (CI-sized); still asserts every invariant.
    pub smoke: bool,
    /// Seed for the random-schedule phases.
    pub seed: u64,
}

/// DFS/random budgets per program, `(full, smoke)` pairs.
fn bounds_for(name: &str, cfg: &SuiteConfig) -> ExploreBounds {
    let (dfs, rand) = match name {
        "mutex_counter" | "rwlock_pair" => ((150, 50), (24, 8)),
        "queue_fifo" | "reclaim_publish" => ((120, 40), (24, 8)),
        "httree_split" | "httree_split_race" | "httree_publish" | "reclaim_hinted_get"
        | "reclaim_hinted_get_many" | "reclaim_hinted_table" | "reclaim_take" | "reclaim_split"
        | "reclaim_trim" => {
            ((60, 20), (12, 4))
        }
        "reclaim_evict" => ((80, 30), (12, 4)),
        "replica_failover" => ((120, 40), (24, 8)),
        "mutex_counter_chaos" | "rwlock_pair_chaos" => ((60, 20), (24, 8)),
        "queue_wrap" | "queue_wrap_chaos" => ((60, 20), (24, 8)),
        // Mutants: enough DFS to exhaust (or deeply cover) their small
        // choice trees deterministically.
        _ => ((160, 80), (24, 12)),
    };
    ExploreBounds {
        max_schedules: if cfg.smoke { dfs.1 } else { dfs.0 },
        random_schedules: if cfg.smoke { rand.1 } else { rand.0 },
        seed: cfg.seed,
    }
}

/// One mutant's outcome.
pub struct MutantResult {
    /// The exploration outcome of the broken program.
    pub exploration: Exploration,
    /// Labels of the analyses that were required to fire.
    pub expect: Vec<&'static str>,
    /// Whether every expected analysis fired.
    pub caught: bool,
}

/// The whole suite's outcome.
pub struct SuiteResult {
    /// Configuration the suite ran under.
    pub config: SuiteConfig,
    /// Main-program outcomes, report order.
    pub programs: Vec<Exploration>,
    /// Mutant outcomes, report order.
    pub mutants: Vec<MutantResult>,
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
        o.push_str("  ],\n  \"mutants\": [\n");
        for (i, m) in self.mutants.iter().enumerate() {
            o.push_str("    {\n");
            o.push_str(&format!("      \"expect\": [{}],\n", m.expect.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", ")));
            o.push_str(&format!("      \"caught\": {},\n", m.caught));
            o.push_str("      \"exploration\":\n");
            o.push_str(&exploration_json(&m.exploration, "      "));
            o.push_str("\n    }");
            o.push_str(if i + 1 < self.mutants.len() { ",\n" } else { "\n" });
        }
        o.push_str("  ],\n  \"summary\": {\n");
        o.push_str(&format!("    \"programs_clean\": {},\n", self.programs_clean()));
        o.push_str(&format!("    \"mutants_total\": {},\n", self.mutants.len()));
        o.push_str(&format!(
            "    \"mutants_caught\": {}\n",
            self.mutants.iter().filter(|m| m.caught).count()
        ));
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

/// Explores one program under the suite's bounds for it.
pub fn explore_with_suite_bounds(prog: &Program, cfg: &SuiteConfig) -> Exploration {
    explore(prog, &bounds_for(prog.name, cfg))
}

fn judge(m: &Mutant, x: &Exploration) -> bool {
    m.expect.iter().all(|e| match e {
        Expect::Races => !x.races.is_empty(),
        Expect::Lin => x.lin_violations > 0,
        Expect::Invariant => x.invariant_violations > 0,
    })
}

/// Runs the whole suite: every main program, then every mutant.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteResult {
    let programs: Vec<Exploration> =
        main_programs().iter().map(|p| explore_with_suite_bounds(p, cfg)).collect();
    let mutants: Vec<MutantResult> = all_mutants()
        .iter()
        .map(|m| {
            let x = explore_with_suite_bounds(&m.program, cfg);
            let caught = judge(m, &x);
            MutantResult {
                expect: m.expect.iter().map(|e| e.label()).collect(),
                caught,
                exploration: x,
            }
        })
        .collect();
    SuiteResult { config: *cfg, programs, mutants }
}
