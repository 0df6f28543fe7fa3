//! # farmem-check — mechanical checking of far-memory protocols
//!
//! Every data structure in this workspace is a *protocol*: an agreement
//! between clients about which fabric verbs, in which order, keep shared
//! far memory consistent. This crate checks those protocols mechanically
//! instead of by inspection, with three cooperating analyses over the
//! simulated fabric (DESIGN.md §9):
//!
//! * **Race detection** ([`race`]) — a vector-clock happens-before
//!   detector fed every fabric access through the zero-cost-when-off
//!   [`farmem_fabric::CheckObserver`] hook. Synchronisation edges come
//!   only from what the fabric really orders: atomics (CAS/FAA/guarded
//!   RMW), reads of atomically-published words, and notifications.
//! * **Bounded interleaving exploration** ([`mod@explore`], [`sched`]) — a
//!   loom-style cooperative scheduler gates every verb attempt and
//!   enumerates client interleavings depth-first (plus seeded random
//!   schedules that double as chaos runs under a fault plan).
//! * **Linearizability checking** ([`linz`], [`history`]) — Wing–Gong
//!   search, partitioned by key/register, over the operation histories
//!   the explored programs record.
//!
//! The checked programs live in [`programs`]; the mutation self-tests —
//! small edits of the shipped code that the analyses must flag, one file
//! each — are described and parsed in [`mutants`]; and the deterministic
//! suite the `e16_check` driver and CI consume is in [`suite`].
//!
//! Everything here is **dev tooling**: nothing in this crate runs in a
//! measured benchmark path, and with no observer installed the fabric
//! hook costs one relaxed atomic load per verb.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod history;
pub mod linz;
pub mod mutants;
pub mod programs;
pub mod race;
pub mod sched;
pub mod suite;
pub mod vc;

pub use explore::{explore, ExploreBounds, Exploration, PreparedRun, Program};
pub use history::{History, Op, OpRecord, OpToken, Ret};
pub use linz::{check as check_linearizable, LinReport, Model};
pub use mutants::{all_mutants, Expect, Mutant};
pub use programs::main_programs;
pub use race::{Race, RaceDetector, RaceKind};
pub use sched::{Quiesce, Scheduler};
pub use suite::{run_suite, SuiteConfig, SuiteResult};
pub use vc::VectorClock;
