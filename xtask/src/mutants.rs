//! `cargo run -p xtask -- mutants` — the mutation self-test of
//! `farmem-check`.
//!
//! Every mutant is a file under `crates/check/mutants/`: one edit of
//! the shipped code, the main programs that must each catch it and the
//! analyses that must fire (format in `farmem_check::mutants`, whose
//! parser this task compiles too). The task copies the workspace's
//! sources to `target/mutants/`, builds `farmem-check`'s `mutation` test
//! there in release and then, one mutant at a time, applies the edit,
//! rebuilds the test and runs its
//! `every_mutant_is_caught_by_each_expected_analysis`, which finds the
//! applied mutant, explores each program it names under the suite's
//! `MUTANT_BUDGET` and asserts the catch; then it restores the file. A
//! judging run that outlives [`DEADLINE`] is killed with the test binary
//! it started, and its rows read `NO (timed out)`. The task prints one
//! row per mutant and program (the table is deterministic: exploration
//! runs in virtual time under a fixed seed; progress goes to stderr) and
//! fails unless every mutant is caught and every analysis has a mutant
//! file of its own.

use std::fs;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

#[allow(dead_code)] // `Mutant::is_applied` serves the check crate's test.
#[path = "../../crates/check/src/mutants.rs"]
mod spec;

use spec::{all_mutants, number, Expect};

/// What the copy holds: everything a build of `farmem-check` reads.
const COPIED: [&str; 6] = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "xtask"];

/// The test that judges the applied mutant (`crates/check/tests/mutation.rs`).
const JUDGE: &str = "every_mutant_is_caught_by_each_expected_analysis";

/// How long one mutant's judging run — its rebuild and its explorations —
/// may take: four times the slowest (15 s on a 2-core host). A mutant
/// that hangs its program fails here instead of stalling the task.
const DEADLINE: Duration = Duration::from_secs(60);

pub fn mutants(root: &Path) -> ExitCode {
    match run(root) {
        Ok(summary) => {
            println!("mutants: {summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("mutants: FAILED — {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(root: &Path) -> Result<String, String> {
    let mutants = all_mutants(root)?;
    for m in &mutants {
        let sites = m.sites(root)?;
        if sites != 1 {
            return Err(format!("mutant {}: `before` occurs {sites} times in {}", m.name, m.target));
        }
    }
    let copy = root.join("target/mutants");
    for item in COPIED {
        let to = copy.join(item);
        if to.is_dir() {
            fs::remove_dir_all(&to).map_err(|e| format!("clear {}: {e}", to.display()))?;
        }
        copy_tree(&root.join(item), &to)?;
    }
    eprintln!("mutants: building the copy ...");
    let built = cargo(&copy).args(["--no-run"]).status().map_err(|e| format!("cannot run cargo: {e}"))?;
    if !built.success() {
        return Err("the copy of the shipped tree does not build".into());
    }
    let mut rows = Vec::new();
    for m in &mutants {
        eprint!("mutants: {} ...", m.name);
        let start = Instant::now();
        let target = copy.join(&m.target);
        let shipped = fs::read_to_string(&target).map_err(|e| format!("read {}: {e}", target.display()))?;
        fs::write(&target, m.apply(&shipped)).map_err(|e| format!("write {}: {e}", target.display()))?;
        let judged = judge(&copy);
        eprintln!(" {:.1?}", start.elapsed());
        fs::write(&target, &shipped).map_err(|e| format!("restore {}: {e}", target.display()))?;
        match judged {
            Ok(Judged::Rows(judged)) if judged.iter().any(|row| row.name == m.name) => rows.extend(judged),
            // It timed out, did not build, or the test did not find it applied.
            verdict => {
                let verdict = if matches!(verdict, Ok(Judged::TimedOut)) { "NO (timed out)" } else { "NO" };
                let expects = m.expect.iter().map(|e| e.label()).collect::<Vec<_>>().join("+");
                for program in &m.programs {
                    let fields =
                        [program.clone(), expects.clone(), "-".into(), "-".into(), "-".into(), verdict.into()];
                    rows.push(Row { name: m.name.clone(), fields });
                }
            }
        }
    }
    rows.sort_by_key(|row| (number(&row.name), row.name.clone()));
    println!(
        "{:<44} {:<24} {:<26} {:>5} {:>8} {:>8}  caught",
        "mutant", "program", "expects", "races", "lin viol", "inv viol"
    );
    for row in &rows {
        let [program, expects, races, lin, inv, verdict] = &row.fields;
        println!("{:<44} {program:<24} {expects:<26} {races:>5} {lin:>8} {inv:>8}  {verdict}", row.name);
    }
    let escaped: Vec<&str> = rows.iter().filter(|r| r.fields[5] != "yes").map(|r| r.name.as_str()).collect();
    let unexercised: Vec<&str> = Expect::ALL
        .into_iter()
        .filter(|e| !mutants.iter().any(|m| m.expect.contains(e)))
        .map(Expect::label)
        .collect();
    let caught = rows.len() - escaped.len();
    let summary = format!(
        "{caught}/{} caught ({}%) under {} edits",
        rows.len(),
        100 * caught / rows.len().max(1),
        mutants.len()
    );
    if !escaped.is_empty() {
        return Err(format!("{summary}; escaped: {}", escaped.join(", ")));
    }
    if !unexercised.is_empty() {
        return Err(format!("{summary}; no mutant exercises {}", unexercised.join(", ")));
    }
    Ok(format!("{summary}; every analysis exercised"))
}

/// One `mutant:` row of the judging test: the mutant's name, then its
/// program, expected analyses, races, linearizability violations,
/// invariant violations and verdict (`yes` or `NO`).
struct Row {
    name: String,
    fields: [String; 6],
}

/// What one judging run came to.
enum Judged {
    /// The run ended in time: the rows it printed.
    Rows(Vec<Row>),
    /// The run outlived [`DEADLINE`] and was killed.
    TimedOut,
}

/// `cargo test` of the judging test in the copy at `copy`, in release.
fn cargo(copy: &Path) -> Command {
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args(["test", "--release", "-q", "-p", "farmem-check", "--test", "mutation"]).current_dir(copy);
    cmd
}

/// Runs the judging test in the copy at `copy` under [`DEADLINE`]: its
/// rows, or `TimedOut` once cargo and the test binary it started are
/// killed.
fn judge(copy: &Path) -> Result<Judged, String> {
    let mut cmd = cargo(copy);
    cmd.args(["--", "--exact", JUDGE, "--nocapture"]).stdout(Stdio::piped()).stderr(Stdio::piped());
    // Its own process group, so one kill reaches the test binary too.
    #[cfg(unix)]
    std::os::unix::process::CommandExt::process_group(&mut cmd, 0);
    let mut child = cmd.spawn().map_err(|e| format!("cannot run cargo: {e}"))?;
    let (stdout, stderr) = (drain(child.stdout.take()), drain(child.stderr.take()));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait for cargo: {e}"))? {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            kill_group(&mut child);
            break None;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let (stdout, stderr) = (stdout.join().unwrap_or_default(), stderr.join().unwrap_or_default());
    let Some(status) = status else {
        eprint!(" killed at the deadline,");
        return Ok(Judged::TimedOut);
    };
    if !status.success() {
        eprintln!("{stdout}{stderr}");
    }
    let rows: Vec<Row> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("mutant:\t"))
        .map(|l| {
            let mut fields = l.split('\t').map(str::to_string);
            let name = fields.next().unwrap_or_default();
            let fields = std::array::from_fn(|_| fields.next().unwrap_or_default());
            Row { name, fields }
        })
        .collect();
    if !status.success() && !rows.iter().any(|row| row.fields[5] == "NO") {
        return Err("the judging test failed without a verdict (see above)".into());
    }
    Ok(Judged::Rows(rows))
}

/// Reads a child's pipe to its end on a thread of its own.
fn drain(pipe: Option<impl Read + Send + 'static>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_string(&mut text);
        }
        text
    })
}

/// Kills `child`'s process group — cargo and the test binary it runs —
/// and reaps `child`.
fn kill_group(child: &mut Child) {
    #[cfg(unix)]
    let _ = Command::new("kill").args(["-KILL", "--", &format!("-{}", child.id())]).status();
    let _ = child.kill();
    let _ = child.wait();
}

/// Copies the file or directory `from` to `to`, skipping `target/`.
fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    if from.is_file() {
        if let Some(dir) = to.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        return fs::copy(from, to).map(drop).map_err(|e| format!("copy {}: {e}", from.display()));
    }
    let entries = fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name() != "target" {
            copy_tree(&entry.path(), &to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
