//! `cargo run -p xtask -- results [--record]` — the results gate.
//!
//! Every experiment driver runs in *virtual* time, so its tables are
//! deterministic: a moved cell is a real behavioural change, not noise.
//! The gate therefore compares exactly and keeps no baseline of its
//! own. It builds the drivers, runs every `crates/bench/src/bin/e*.rs`
//! at the one size the committed tables were produced at, each in a
//! scratch cwd under `target/results/<driver>/` (the committed
//! `results/` tree is never touched), and requires:
//!
//! * every driver to exit 0 — its `assert!`s *are* the verdicts;
//! * `results/<driver>.json` (written by the driver) and
//!   `results/<driver>.txt` (the driver's stdout, captured here — the
//!   one producer of every `.txt`) to equal the committed files byte
//!   for byte, and `results/` to hold no table that no driver produces.
//!
//! A difference prints the path and the first differing line. After a
//! deliberate change, `--record` copies the fresh files over the
//! committed ones instead of comparing, so the PR that moves a number
//! shows the moved table rows in its own diff.
//!
//! What else a driver writes (`e13_trace.perfetto.json`,
//! `e13_trace.jsonl`, `e18_flight.jsonl`) stays in its scratch
//! directory; CI uploads it from there.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

/// File name → contents of a set of gated result files.
type Files = BTreeMap<String, String>;

pub fn results(args: &[String], root: &Path) -> ExitCode {
    let record = match args {
        [] => false,
        [flag] if flag == "--record" => true,
        _ => {
            eprintln!("usage: cargo run -p xtask -- results [--record]");
            return ExitCode::from(2);
        }
    };
    match run(record, root) {
        Ok(summary) => {
            println!("results: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("results: FAILED — {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(record: bool, root: &Path) -> Result<String, String> {
    let drivers = drivers(root)?;
    println!("results: building {} drivers (release)...", drivers.len());
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let built = Command::new(&cargo)
        .args(["build", "--release", "-p", "farmem-bench", "--bins"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !built.success() {
        return Err(format!("driver build failed ({built})"));
    }

    let mut fresh = Files::new();
    for driver in &drivers {
        println!("results: running {driver}...");
        let scratch = root.join("target/results").join(driver);
        let out_dir = scratch.join("results");
        // Nothing a previous run left behind may pass for this run's.
        let _ = fs::remove_dir_all(&out_dir);
        fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;
        let bin = root.join("target/release").join(driver);
        let out = Command::new(&bin)
            .current_dir(&scratch)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "{driver} exited with {}:\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let txt = out_dir.join(format!("{driver}.txt"));
        fs::write(&txt, &out.stdout).map_err(|e| format!("write {}: {e}", txt.display()))?;
        for ext in ["json", "txt"] {
            let name = format!("{driver}.{ext}");
            let body = fs::read_to_string(out_dir.join(&name))
                .map_err(|e| format!("{driver} produced no results/{name}: {e}"))?;
            fresh.insert(name, body);
        }
    }

    let committed_dir = root.join("results");
    if record {
        for (name, body) in &fresh {
            fs::write(committed_dir.join(name), body)
                .map_err(|e| format!("write results/{name}: {e}"))?;
        }
        return Ok(format!(
            "recorded {} files from {} drivers into results/ — review the diff",
            fresh.len(),
            drivers.len()
        ));
    }

    let mut committed = Files::new();
    let entries = fs::read_dir(&committed_dir).map_err(|e| format!("read results/: {e}"))?;
    for entry in entries {
        let name = entry.map_err(|e| format!("read results/: {e}"))?.file_name();
        let name = name.to_string_lossy().into_owned();
        if is_gated(&name) {
            let body = fs::read_to_string(committed_dir.join(&name))
                .map_err(|e| format!("read results/{name}: {e}"))?;
            committed.insert(name, body);
        }
    }
    let diffs = compare(&committed, &fresh);
    if diffs.is_empty() {
        return Ok(format!(
            "ok — {} drivers, {} files byte-identical to results/",
            drivers.len(),
            fresh.len()
        ));
    }
    for d in &diffs {
        eprintln!("results: {d}");
    }
    Err(format!(
        "{} file(s) differ from the committed results/; if the change is intended, run \
         `cargo run -p xtask -- results --record` and commit the diff",
        diffs.len()
    ))
}

/// The experiment drivers: every `e<N>_*.rs` under the bench crate's
/// `src/bin/`, in experiment order. Listed from the tree, so a new
/// driver is gated the moment it exists.
fn drivers(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("crates/bench/src/bin");
    let mut found: Vec<(u32, String)> = Vec::new();
    for entry in fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let name = entry.map_err(|e| format!("read {}: {e}", dir.display()))?.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".rs")) else { continue };
        let number = stem.strip_prefix('e').and_then(|r| r.split('_').next()?.parse().ok());
        if let Some(n) = number {
            found.push((n, stem.to_string()));
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, stem)| stem).collect())
}

/// A gated table file is `<stem>.json` or `<stem>.txt`. The drivers'
/// bulky exports (`*.jsonl`, `*.perfetto.json`) are not.
fn is_gated(name: &str) -> bool {
    let mut parts = name.split('.');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some(stem), Some("json" | "txt"), None) if !stem.is_empty()
    )
}

/// Every way `fresh` differs from `committed`, one line per file: a
/// file on one side only, or `path:line` of the first differing line.
fn compare(committed: &Files, fresh: &Files) -> Vec<String> {
    let mut diffs = Vec::new();
    for (name, want) in committed {
        match fresh.get(name) {
            None => diffs.push(format!("results/{name}: committed, but no driver produces it")),
            Some(got) if got != want => {
                let (mut w, mut g) = (want.lines(), got.lines());
                let mut line = 1;
                let (w, g) = loop {
                    match (w.next(), g.next()) {
                        (a, b) if a != b => break (a, b),
                        (None, None) => break (None, None), // differ in the final newline only
                        _ => line += 1,
                    }
                };
                diffs.push(format!(
                    "results/{name}:{line}: committed {} vs fresh {}",
                    w.map_or("<end of file>".into(), |l| format!("{l:?}")),
                    g.map_or("<end of file>".into(), |l| format!("{l:?}")),
                ));
            }
            Some(_) => {}
        }
    }
    for name in fresh.keys().filter(|n| !committed.contains_key(*n)) {
        diffs.push(format!("results/{name}: produced, but not committed"));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = "{\n\"experiment\": \"e0\",\n\"rows\": [\n  [\"get\", \"1.00\"],\n  \
                        [\"put\", \"2.00\"]\n]\n}\n";
    const TXT: &str = "\n## e0\n\n| get | 1.00 |\n| put | 2.00 |\n\nwrote results/e0.json\n";

    fn files(pairs: &[(&str, &str)]) -> Files {
        pairs.iter().map(|(n, b)| (n.to_string(), b.to_string())).collect()
    }

    #[test]
    fn identical_files_pass() {
        let committed = files(&[("e0.json", JSON), ("e0.txt", TXT)]);
        assert_eq!(compare(&committed, &committed.clone()), Vec::<String>::new());
    }

    /// The gate's self-test: a committed cell perturbed by any amount —
    /// here 2.00 → 2.01, which the old ±10 % band admitted — fails, and
    /// the message names the file and the line.
    #[test]
    fn one_changed_cell_fails_naming_file_and_line() {
        let committed = files(&[("e0.json", &JSON.replace("2.00", "2.01")), ("e0.txt", TXT)]);
        let fresh = files(&[("e0.json", JSON), ("e0.txt", TXT)]);
        let diffs = compare(&committed, &fresh);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("results/e0.json:5: "), "{diffs:?}");
        assert!(diffs[0].contains("2.01") && diffs[0].contains("2.00"), "{diffs:?}");
    }

    #[test]
    fn txt_drift_alone_fails() {
        let committed = files(&[("e0.json", JSON), ("e0.txt", TXT)]);
        let fresh = files(&[("e0.json", JSON), ("e0.txt", &TXT.replace("| put |", "| put  |"))]);
        let diffs = compare(&committed, &fresh);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("results/e0.txt:5: "), "{diffs:?}");
    }

    #[test]
    fn truncated_or_extended_file_fails_at_the_first_absent_line() {
        let committed = files(&[("e0.txt", TXT)]);
        let fresh = files(&[("e0.txt", &format!("{TXT}one more line\n"))]);
        let diffs = compare(&committed, &fresh);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("results/e0.txt:8: committed <end of file>"), "{diffs:?}");
        assert_eq!(compare(&fresh, &committed).len(), 1);
        // A lost final newline is a byte difference too.
        let chopped = files(&[("e0.txt", TXT.trim_end_matches('\n'))]);
        assert_eq!(compare(&committed, &chopped).len(), 1);
    }

    #[test]
    fn missing_and_extra_files_fail() {
        let both = files(&[("e0.json", JSON), ("e0.txt", TXT)]);
        let json_only = files(&[("e0.json", JSON)]);
        // Produced but never committed (a new driver, or a `.txt` nobody recorded).
        let diffs = compare(&json_only, &both);
        assert_eq!(diffs, ["results/e0.txt: produced, but not committed"]);
        // Committed but produced by no driver (a second baseline, a deleted driver's table).
        let stale = files(&[("e0.json", JSON), ("e0.txt", TXT), ("perf_baseline.json", "{}")]);
        let diffs = compare(&stale, &both);
        assert_eq!(diffs, ["results/perf_baseline.json: committed, but no driver produces it"]);
    }

    #[test]
    fn only_tables_are_gated_not_bulky_exports() {
        assert!(is_gated("e13_trace.json") && is_gated("e13_trace.txt"));
        assert!(is_gated("perf_baseline.json"), "a stray table-shaped file must be seen");
        assert!(!is_gated("e13_trace.perfetto.json"));
        assert!(!is_gated("e13_trace.jsonl") && !is_gated("e18_flight.jsonl"));
        assert!(!is_gated(".json") && !is_gated("README"));
    }

    #[test]
    fn drivers_are_listed_from_the_tree_in_experiment_order() {
        let d = drivers(&farmem_audit::workspace_root()).unwrap();
        assert!(d.len() >= 20, "{d:?}");
        assert_eq!(d[0], "e1_primitives");
        assert_eq!(d[1], "e2_access_complexity");
        assert_eq!(d[19], "e20_serve");
        assert!(!d.iter().any(|n| n == "fsh"), "the shell is not an experiment");
    }
}
