//! # farmem-perf — the host-time benchmark
//!
//! Every number the repository recorded before this crate is *virtual*
//! time. This crate times the code itself: five workloads drive the
//! stack through public functions only, from outside, and a traced run
//! measures each layer — `MemoryNode` word access, `FabricClient` verb,
//! pipeline doorbell, runtime poll, structure op, `serve` request — on
//! its own. See `README.md` for the workload and metric tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod cli;
pub mod compare;
pub mod counts;
pub mod host;
pub mod json;
pub mod pctl;
pub mod registry;
pub mod report;
pub mod rng;
pub mod round;
pub mod run;
pub mod wl_serve;
pub mod wl_sessions;
pub mod wl_structures;
pub mod workload;

/// A failed run: what went wrong and, when the far-memory guard fired,
/// the carve rate that made it fire (printed even on abort, so the
/// allocator finding stays visible without taking the benchmark down).
#[derive(Clone, Debug, PartialEq)]
pub struct Fail {
    /// Named error, e.g. `FarMemoryGuard: …` or `NotRepeatable: …`.
    pub msg: String,
    /// `far_carved_bytes_per_op` at the abort, when known.
    pub carved_per_op: Option<f64>,
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail {
            msg,
            carved_per_op: None,
        }
    }
}

impl From<&str> for Fail {
    fn from(msg: &str) -> Fail {
        Fail::from(msg.to_string())
    }
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// `map_err` adapter: prefixes an error with what was being done.
pub(crate) fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Fail {
    move |e| Fail::from(format!("{what}: {e}"))
}

/// The workload called `name`, shrunk when `smoke`.
pub fn workload(name: &str, smoke: bool) -> Option<Box<dyn workload::Workload>> {
    if let Some(s) = wl_serve::ServeSpec::named(name, smoke) {
        return Some(Box::new(s));
    }
    match name {
        "serve-sessions" => Some(Box::new(wl_sessions::SessionsSpec::standard(smoke))),
        "structures" => Some(Box::new(wl_structures::StructSpec::standard(smoke))),
        _ => None,
    }
}
