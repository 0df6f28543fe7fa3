//! Workspace automation.
//!
//! `cargo run -p xtask -- results [--record]` runs every experiment
//! driver fresh and compares its deterministic virtual-time tables with
//! the committed `results/` byte for byte — see [`results`].
//!
//! `cargo run -p xtask -- audit` runs the static analyzer
//! (`farmem-audit`): five repo-level disciplines that rustc cannot
//! enforce — `forbid-unsafe`, `far-addr`, `retire-guard`, `stats-mut`,
//! `block-async`, matched against a lexed token stream so multi-line
//! `/* */` comments and raw strings produce no false positives — *plus*
//! the dataflow passes (`rt-in-loop`, `lock-across-rt`, `guard-escape`,
//! `verb-in-drop`) over per-function control-flow sketches. It fails on
//! any finding, a waiver that waives nothing (`dead-waiver`) included.
//! See the `farmem_audit` crate docs for the full pass catalog; its
//! `analyzer` test judges the passes against seeded edits of the shipped
//! code.
//!
//! `cargo run -p xtask -- mutants` is `farmem-check`'s mutation
//! self-test: each mutant under `crates/check/mutants/` — one small edit
//! of the shipped code — is applied to a copy of the workspace under
//! `target/mutants/`, and each program it names must catch it with every
//! analysis it expects — see [`mutants`].
//!
//! `cargo run -p xtask -- lines` prints the non-test lines of each crate
//! under `crates/` and their total, by one rule: every `.rs` file under
//! `crates/*/src` counts up to the `#[cfg(test)]` the audit lexer finds
//! (all of it when there is none); `tests/` does not count.

#![forbid(unsafe_code)]

mod mutants;
mod results;

use std::collections::BTreeMap;
use std::process::ExitCode;

use farmem_audit::{rel, source_files, workspace_root, AuditConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(),
        Some("results") => results::results(&args[1..], &workspace_root()),
        Some("lines") => lines(),
        Some("mutants") if args.len() == 1 => mutants::mutants(&workspace_root()),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <audit | results [--record] | lines | mutants>");
            ExitCode::from(2)
        }
    }
}

/// Non-test lines per crate under `crates/` and their total (module docs).
fn lines() -> ExitCode {
    let root = workspace_root();
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for path in source_files(&root) {
        let rel = rel(&root, &path);
        let Some((krate, _)) = rel.strip_prefix("crates/").and_then(|r| r.split_once("/src/"))
        else {
            continue;
        };
        let src = std::fs::read_to_string(&path).expect("read workspace sources");
        let lines = match farmem_audit::lex::lex(&src).test_cutoff_line() {
            Some(line) => line as usize - 1,
            None => src.lines().count(),
        };
        *per_crate.entry(krate.to_string()).or_default() += lines;
    }
    for (krate, lines) in &per_crate {
        println!("{krate:<10} {lines:>6}");
    }
    println!("{:<10} {:>6}", "total", per_crate.values().sum::<usize>());
    ExitCode::SUCCESS
}

/// The analyzer over the tree: clean, and no dead waiver, or the
/// command fails.
fn audit() -> ExitCode {
    let report = farmem_audit::audit_tree(&workspace_root(), &AuditConfig::default())
        .expect("read workspace sources");
    if report.clean() {
        println!("xtask audit: tree clean ({} files)", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        print!("{}", report.render_text());
        eprintln!("xtask audit: FAILED");
        ExitCode::FAILURE
    }
}
