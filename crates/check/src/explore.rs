//! Bounded deterministic exploration of client interleavings.
//!
//! One **run** executes a prepared program (fresh fabric, fresh
//! structures, one thread per simulated client) under the cooperative
//! [`Scheduler`]: every fabric verb attempt parks at a gate and the
//! driver grants exactly one client at a time, so the interleaving is a
//! pure function of the driver's choices. Exploration then enumerates
//! schedules two ways:
//!
//! * **DFS** over the tree of choice points (states where more than one
//!   client is runnable), depth-first with deterministic backtracking:
//!   re-run with the last choice incremented. Bounded by
//!   [`ExploreBounds::max_schedules`]; `exhausted` reports whether the
//!   whole tree fit.
//! * **Seeded random schedules**, which double as chaos runs when the
//!   program's fabric enables a fault plan: transient faults perturb the
//!   verb streams, and the histories still have to linearize.
//!
//! Runs that exceed the step bound (or wedge on the wall-clock watchdog)
//! are **truncated**: the scheduler is poisoned, the threads free-run to
//! completion, and everything observed is discarded — only the count is
//! kept. This is standard depth bounding; counted truncation keeps the
//! reported coverage honest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use farmem_fabric::{Access, CheckObserver, Fabric, FarAddr};

use crate::history::{History, OpRecord};
use crate::linz::{self, Model};
use crate::race::{Race, RaceDetector};
use crate::sched::{Quiesce, Scheduler};

/// Observer composing the scheduler gate with optional race detection.
struct Hub {
    sched: Arc<Scheduler>,
    det: Option<Arc<RaceDetector>>,
    muted: AtomicBool,
}

impl CheckObserver for Hub {
    fn gate(&self, client: u32) {
        self.sched.gate(client);
    }

    fn access(&self, a: &Access) {
        if self.muted.load(Ordering::Acquire) {
            return;
        }
        if let Some(d) = &self.det {
            d.on_access(a);
        }
    }

    fn notified(&self, client: u32, addr: FarAddr, len: u64) {
        if self.muted.load(Ordering::Acquire) {
            return;
        }
        if let Some(d) = &self.det {
            d.on_notified(client, addr, len);
        }
    }
}

/// One freshly-built instance of a program, ready to run once.
pub struct PreparedRun {
    /// The fabric all clients share (observer is installed on it).
    pub fabric: Arc<Fabric>,
    /// Participant client ids, one per body, same order.
    pub participants: Vec<u32>,
    /// One body per participant; runs on its own thread.
    pub bodies: Vec<Box<dyn FnOnce() + Send>>,
    /// The shared operation history the bodies record into.
    pub history: Arc<History>,
    /// Post-run invariant check (runs only for completed runs); returns
    /// a violation description or `None`.
    pub finale: Option<Box<dyn FnOnce() -> Option<String>>>,
}

/// A checkable program: a builder producing fresh [`PreparedRun`]s plus
/// the analyses to apply.
pub struct Program {
    /// Stable name used in reports.
    pub name: &'static str,
    /// Sequential model for linearizability checking, if any.
    pub model: Option<Model>,
    /// Whether to run the happens-before race detector.
    pub check_races: bool,
    /// Per-run step bound (grants before truncation).
    pub max_steps: u64,
    /// Builds a fresh instance (fresh fabric and structures) per run.
    pub build: Box<dyn Fn() -> PreparedRun>,
}

/// Exploration bounds; see module docs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreBounds {
    /// DFS schedule budget.
    pub max_schedules: usize,
    /// Seeded random schedules run after the DFS phase.
    pub random_schedules: usize,
    /// Seed for the random phase.
    pub seed: u64,
}

/// One choice point: which runnable client was picked, out of how many.
#[derive(Clone, Copy, Debug)]
struct Decision {
    chosen: usize,
    arity: usize,
}

struct RunRecord {
    decisions: Vec<Decision>,
    truncated: bool,
    panicked: bool,
    steps: u64,
    races: Vec<Race>,
    ops: Vec<OpRecord>,
    invariant: Option<String>,
}

/// Aggregated result of exploring one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exploration {
    /// Program name.
    pub name: &'static str,
    /// DFS schedules executed.
    pub schedules: usize,
    /// Random schedules executed.
    pub random_schedules: usize,
    /// True when DFS enumerated the whole choice tree within budget.
    pub exhausted: bool,
    /// Runs discarded for exceeding the step bound (or wedging).
    pub truncated: usize,
    /// Runs discarded because a body panicked.
    pub panicked: usize,
    /// Total granted steps across kept runs.
    pub steps: u64,
    /// Deduplicated races across kept runs, stable order.
    pub races: Vec<Race>,
    /// Completed runs whose history was checked against the model.
    pub lin_checked: usize,
    /// Runs whose history failed to linearize.
    pub lin_violations: usize,
    /// First linearizability violation, rendered.
    pub first_lin: Option<String>,
    /// Runs whose finale invariant failed.
    pub invariant_violations: usize,
    /// First invariant violation, rendered.
    pub first_invariant: Option<String>,
}

impl Exploration {
    /// True when no analysis found anything (races, linearizability,
    /// invariants, panics).
    pub fn clean(&self) -> bool {
        self.races.is_empty()
            && self.lin_violations == 0
            && self.invariant_violations == 0
            && self.panicked == 0
    }
}

/// Runs one schedule: `chooser(arity)` picks at each choice point.
fn run_one(prep: PreparedRun, chooser: &mut dyn FnMut(usize) -> usize, max_steps: u64, check_races: bool) -> RunRecord {
    let sched = Arc::new(Scheduler::new(&prep.participants));
    let det = check_races.then(|| Arc::new(RaceDetector::new()));
    let hub = Arc::new(Hub { sched: sched.clone(), det: det.clone(), muted: AtomicBool::new(false) });
    prep.fabric.install_check_observer(hub.clone());
    let panicked = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for (i, body) in prep.bodies.into_iter().enumerate() {
        let id = prep.participants[i];
        let s2 = sched.clone();
        let p2 = panicked.clone();
        handles.push(std::thread::spawn(move || {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
                p2.store(true, Ordering::SeqCst);
            }
            s2.finish(id);
        }));
        // One body at a time up to its first gate: a Stuck start is left
        // to the main loop's own watchdog.
        let _ = sched.wait_parked(i + 1);
    }
    let mut decisions = Vec::new();
    let mut steps = 0u64;
    let mut truncated = false;
    loop {
        match sched.wait_quiescent() {
            Quiesce::Stuck => {
                truncated = true;
                break;
            }
            Quiesce::Runnable(r) if r.is_empty() => break,
            Quiesce::Runnable(r) => {
                if steps >= max_steps {
                    truncated = true;
                    break;
                }
                let chosen = if r.len() == 1 {
                    0
                } else {
                    let c = chooser(r.len()).min(r.len() - 1);
                    decisions.push(Decision { chosen: c, arity: r.len() });
                    c
                };
                steps += 1;
                sched.grant(r[chosen]);
            }
        }
    }
    if truncated {
        hub.muted.store(true, Ordering::Release);
        sched.poison();
    }
    for h in handles {
        let _ = h.join();
    }
    prep.fabric.clear_check_observer();
    let was_panicked = panicked.load(Ordering::SeqCst);
    let keep = !truncated && !was_panicked;
    RunRecord {
        decisions,
        truncated,
        panicked: was_panicked,
        steps,
        races: if keep { det.map(|d| d.races()).unwrap_or_default() } else { Vec::new() },
        ops: if keep { prep.history.take() } else { Vec::new() },
        invariant: if keep { prep.finale.and_then(|f| f()) } else { None },
    }
}

/// DFS backtracking: the next schedule prefix, or `None` when the tree
/// is exhausted.
fn next_prefix(decisions: &[Decision]) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        if decisions[i].chosen + 1 < decisions[i].arity {
            let mut p: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
            p.push(decisions[i].chosen + 1);
            return Some(p);
        }
    }
    None
}

/// Deterministic splitmix64 generator for the random-schedule phase.
pub struct Lcg(u64);

impl Lcg {
    /// Seeded generator.
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let out = farmem_fabric::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }
}

/// Explores `prog` under `bounds` and aggregates every analysis.
pub fn explore(prog: &Program, bounds: &ExploreBounds) -> Exploration {
    let mut out = Exploration {
        name: prog.name,
        schedules: 0,
        random_schedules: 0,
        exhausted: false,
        truncated: 0,
        panicked: 0,
        steps: 0,
        races: Vec::new(),
        lin_checked: 0,
        lin_violations: 0,
        first_lin: None,
        invariant_violations: 0,
        first_invariant: None,
    };
    let absorb = |out: &mut Exploration, rec: &RunRecord| {
        if rec.truncated {
            out.truncated += 1;
            return;
        }
        if rec.panicked {
            out.panicked += 1;
            return;
        }
        out.steps += rec.steps;
        for r in &rec.races {
            if !out.races.contains(r) {
                out.races.push(r.clone());
            }
        }
        if let Some(model) = prog.model {
            out.lin_checked += 1;
            let rep = linz::check(model, &rec.ops);
            if let Some(v) = rep.violation {
                out.lin_violations += 1;
                out.first_lin.get_or_insert(v);
            }
        }
        if let Some(v) = &rec.invariant {
            out.invariant_violations += 1;
            out.first_invariant.get_or_insert(v.clone());
        }
    };
    // Phase 1: DFS over choice points.
    let mut prefix: Vec<usize> = Vec::new();
    loop {
        if out.schedules >= bounds.max_schedules {
            break;
        }
        let mut idx = 0usize;
        let p = prefix.clone();
        let mut chooser = move |_arity: usize| {
            let c = if idx < p.len() { p[idx] } else { 0 };
            idx += 1;
            c
        };
        let rec = run_one((prog.build)(), &mut chooser, prog.max_steps, prog.check_races);
        out.schedules += 1;
        absorb(&mut out, &rec);
        match next_prefix(&rec.decisions) {
            Some(p) => prefix = p,
            None => {
                out.exhausted = true;
                break;
            }
        }
    }
    // Phase 2: seeded random schedules (chaos runs when the program's
    // fabric carries a fault plan).
    for i in 0..bounds.random_schedules {
        let mut rng = Lcg::new(bounds.seed ^ (i as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
        let mut chooser = move |arity: usize| (rng.next_u64() % arity as u64) as usize;
        let rec = run_one((prog.build)(), &mut chooser, prog.max_steps, prog.check_races);
        out.random_schedules += 1;
        absorb(&mut out, &rec);
    }
    out.races.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_prefix_backtracks_depth_first() {
        let d = |chosen, arity| Decision { chosen, arity };
        assert_eq!(next_prefix(&[d(0, 2), d(1, 2)]), Some(vec![1]));
        assert_eq!(next_prefix(&[d(0, 2), d(0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[d(1, 2), d(1, 2)]), None);
        assert_eq!(next_prefix(&[]), None);
    }
}
