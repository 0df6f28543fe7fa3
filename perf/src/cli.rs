//! Command line: one workload (the driver's form), `--all` (each
//! workload in its own child process), `--compare`, and the helpers.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host::Fingerprint;
use crate::registry::{benchmark_json, is_workload, RUN_SECONDS, WORKLOADS};
use crate::report::Results;
use crate::run::{out_dir, run, RunOpts};
use crate::{compare, workload};

const USAGE: &str = "\
farmem-perf — host-time benchmark of the farmem stack

  --workload <name>      run one workload (serve-get-small, serve-get-large,
                         serve-churn, serve-sessions, structures)
  --all                  run every workload, each in its own child process
  --seed <n>             request-generator seed (default 11)
  --seconds <s>          time to spend in timed rounds (default 10)
  --trace <0|1>          1 = traced run: per-layer metrics and span files
  --traced               same as --trace 1
  --smoke                shrink every size (tests)
  --repeat <n>           with --all: n runs per workload, seeds seed..seed+n
  --out <file>           with --all: result file (default perf/out/result.json)
  --compare <a> <b>      judge result file b against base a
  --emit-benchmark-json  print the BENCHMARK.json the metric registry implies
";

/// What the command line asked for.
#[derive(Clone, Debug, PartialEq)]
pub enum Cmd {
    /// Run one workload in this process.
    One(String),
    /// Run all workloads in child processes.
    All,
    /// Compare two result files.
    Compare(PathBuf, PathBuf),
    /// Print the generated `BENCHMARK.json`.
    EmitBenchmarkJson,
    /// Print usage.
    Help,
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The command.
    pub cmd: Cmd,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1` / `--traced`.
    pub traced: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--repeat`.
    pub repeat: u64,
    /// `--out`.
    pub out: Option<PathBuf>,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        cmd: Cmd::Help,
        seed: 11,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !is_workload(&w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{w}`; one of {}",
                        names.join(", ")
                    ));
                }
                a.cmd = Cmd::One(w);
            }
            "--all" => a.cmd = Cmd::All,
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                a.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--repeat" => {
                a.repeat = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&a.repeat) {
                    return Err("--repeat must be between 1 and 100".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => {
                let (x, y) = (value(&mut it, flag)?, value(&mut it, flag)?);
                a.cmd = Cmd::Compare(PathBuf::from(x), PathBuf::from(y));
            }
            "--emit-benchmark-json" => a.cmd = Cmd::EmitBenchmarkJson,
            "--help" | "-h" => a.cmd = Cmd::Help,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Runs the parsed command; returns the process exit code.
pub fn main_with(a: &Args) -> i32 {
    match &a.cmd {
        Cmd::Help => {
            print!("{USAGE}");
            0
        }
        Cmd::EmitBenchmarkJson => {
            print!("{}", benchmark_json(RUN_SECONDS));
            0
        }
        Cmd::One(name) => one(name, a),
        Cmd::All => all(a),
        Cmd::Compare(x, y) => compare_files(x, y),
    }
}

fn one(name: &str, a: &Args) -> i32 {
    println!("# fingerprint {}", Fingerprint::read().to_json());
    let w = workload(name, a.smoke).expect("workload names were checked while parsing");
    let opts = RunOpts {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        smoke: a.smoke,
    };
    match run(w.as_ref(), &opts) {
        Ok(r) => {
            print!("{}", r.rows());
            println!("{}", r.driver_line(a.traced));
            0
        }
        Err(f) => {
            if let Some(rate) = f.carved_per_op {
                println!("{name} far_carved_bytes_per_op {rate} B at-abort");
            }
            eprintln!("farmem-perf: {name}: {f}");
            2
        }
    }
}

/// Parses a child's `workload metric value unit …` rows back.
fn parse_rows(name: &str, seed: u64, stdout: &str) -> Results {
    let mut r = Results::new(name, seed);
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 4 || f[0] != name {
            continue;
        }
        if f[1] == "fail_ratio" {
            for kv in &f[4..] {
                if let Some(v) = kv.strip_prefix("failed=") {
                    r.failed = v.parse().unwrap_or(0);
                } else if let Some(v) = kv.strip_prefix("attempted=") {
                    r.attempted = v.parse().unwrap_or(0);
                }
            }
        } else if let (Some(_), Ok(v)) = (crate::registry::metric(f[1]), f[2].parse::<f64>()) {
            r.set(f[1], v);
        }
    }
    r
}

fn all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("farmem-perf: cannot find own executable: {e}");
            return 2;
        }
    };
    let fp = Fingerprint::read();
    println!("# fingerprint {}", fp.to_json());
    let mut runs = Vec::new();
    let mut code = 0;
    for rep in 0..a.repeat {
        let seed = a.seed + rep;
        for w in WORKLOADS {
            // Each workload gets its own process, so peak RSS and
            // allocator state are per workload.
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.traced { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if a.smoke {
                cmd.arg("--smoke");
            }
            match cmd.output() {
                Ok(out) => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    // Echo the rows and notes; the driver line and the
                    // child's fingerprint are for the driver's form only.
                    for line in text
                        .lines()
                        .filter(|l| !l.starts_with('{') && !l.starts_with("# fingerprint"))
                    {
                        println!("{line}");
                    }
                    if out.status.success() {
                        runs.push(parse_rows(w.name, seed, &text).to_json());
                    } else {
                        eprintln!("farmem-perf: {} exited with {}", w.name, out.status);
                        code = 2;
                    }
                }
                Err(e) => {
                    eprintln!("farmem-perf: cannot start {}: {e}", w.name);
                    code = 2;
                }
            }
        }
    }
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let body = format!(
        "{{\"schema\": 1, \"traced\": {}, \"seconds\": {}, \"fingerprint\": {}, \"runs\": [\n  {}\n]}}\n",
        a.traced,
        a.seconds,
        fp.to_json(),
        runs.join(",\n  ")
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, body));
    match written {
        Ok(()) => println!("# result file {}", path.display()),
        Err(e) => {
            eprintln!("farmem-perf: write {}: {e}", path.display());
            code = 2;
        }
    }
    code
}

fn compare_files(x: &PathBuf, y: &PathBuf) -> i32 {
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| compare::load(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    match (load(x), load(y)) {
        (Ok(base), Ok(new)) => {
            let rows = compare::compare(&base, &new);
            print!("{}", compare::render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            println!(
                "# {} ok, {} regressed, {} unresolved",
                count(compare::Verdict::Ok),
                count(compare::Verdict::Regressed),
                count(compare::Verdict::Unresolved)
            );
            i32::from(count(compare::Verdict::Regressed) > 0)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("farmem-perf: --compare: {e}");
            2
        }
    }
}
