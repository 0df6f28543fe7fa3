//! Shared command-line parsing for the `e*` experiment drivers.
//!
//! Every driver runs at one workload size — the size the committed
//! `results/` tables were produced at — and accepts the same two flags:
//!
//! - `--seed <n>` — override the driver's default RNG seed. Committed
//!   results are always generated with the default, so runs without the
//!   flag stay byte-reproducible.
//! - `--json` — suppress the human-readable tables on stdout and print
//!   the schema-versioned JSON document instead (the `results/*.json`
//!   file is written either way).
//!
//! Usage in a driver:
//!
//! ```no_run
//! use farmem_bench::{BenchArgs, Report};
//! let args = BenchArgs::parse();
//! let mut report: Report = args.report("e0_example");
//! let seed = args.seed_or(42);
//! # let _ = seed;
//! report.save();
//! ```

use crate::Report;

/// Parsed flags common to all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--seed <n>`: RNG seed override (`None` = driver default).
    pub seed: Option<u64>,
    /// `--json`: machine-readable stdout (tables suppressed).
    pub json: bool,
}

impl BenchArgs {
    /// Parses `std::env::args()`, exiting with a usage message on
    /// unknown flags so typos fail loudly instead of being ignored.
    pub fn parse() -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("usage: <driver> [--seed <n>] [--json]");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`parse`](Self::parse)).
    pub fn parse_from<I>(args: I) -> Result<BenchArgs, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = BenchArgs { seed: None, json: false };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => out.json = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed requires a value")?;
                    out.seed =
                        Some(v.parse().map_err(|_| format!("--seed: not a u64: {v:?}"))?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// The seed to use: the `--seed` override, else the driver default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// A [`Report`] whose stdout honours `--json` (tables suppressed,
    /// JSON document printed at [`Report::save`] time instead).
    pub fn report(&self, experiment: &str) -> Report {
        Report::new(experiment).with_stdout(!self.json)
    }

    /// True when the human-readable notes around the tables should print.
    pub fn verbose(&self) -> bool {
        !self.json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_the_committed_run() {
        let a = parse(&[]).unwrap();
        assert!(!a.json && a.seed.is_none());
        assert_eq!(a.seed_or(17), 17);
        assert!(a.verbose());
    }

    #[test]
    fn both_flags_parse_in_any_order() {
        for args in [["--json", "--seed", "99"], ["--seed", "99", "--json"]] {
            let a = parse(&args).unwrap();
            assert!(a.json);
            assert_eq!(a.seed_or(17), 99);
            assert!(!a.verbose());
        }
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert_eq!(parse(&["--jsno"]), Err("unknown flag \"--jsno\"".to_string()));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "banana"]).is_err());
    }
}
