//! # farmem-runtime — multiplexing logical clients over few OS threads
//!
//! The paper's performance argument (§3–§5) bounds every operation by far
//! round trips; PR 3's pipelines overlap the round trips *within* one
//! client, but a simulated client still occupied a blocking OS thread
//! between doorbells, capping how many concurrent users one process can
//! model. This crate removes that cap: logical clients become futures,
//! and a completion-driven executor multiplexes tens of thousands of them
//! over a single OS thread (or shards them round-robin over a handful —
//! see [`Runtime`]).
//!
//! ## Model
//!
//! * [`AsyncClient`] wraps a [`farmem_fabric::FabricClient`] and exposes the leaf verbs
//!   (`read`, `write`, `read_u64`, `write_u64`, `cas`, `faa`) as `async fn`s. Awaiting one
//!   *posts a descriptor and parks at the doorbell* instead of blocking:
//!   the future returns `Pending` exactly once and is woken exactly once,
//!   when the reactor has drained its completion. There is no spin
//!   polling — a parked task is never re-polled until its completion is
//!   ready (asserted by [`TaskReport::wasted_polls`]).
//! * [`AsyncClient::ring`] is the pipelined form: it takes the same
//!   detached [`DescList`](farmem_fabric::DescList) a blocking
//!   `FabricClient::ring` takes and rings one doorbell for all of its
//!   descriptors.
//! * [`Doorbell`] is what a batched adopter is written against — `with`,
//!   `span`, `read_u64`, `ring`, `yield_now` — so `HtTree::get_many`,
//!   `FarVec::read_ranges` and `FarQueue::dequeue_batch` each have one
//!   body: given an [`AsyncClient`] it suspends at every doorbell, given
//!   an [`Inline`] (a borrowed blocking client) every doorbell completes
//!   on the spot and [`Inline::run`] drives the body with a single poll.
//! * The executor's **reactor** fires parked doorbells in virtual-time
//!   order — always the posted doorbell with the smallest (issue time,
//!   task id) — which generalises the discrete-event min-clock stepping
//!   the bench fleet uses, so multiplexed runs are deterministic.
//!
//! ## Accounting is sync-identical
//!
//! A serial verb awaited through the runtime books *byte-identical*
//! [`AccessStats`](farmem_fabric::AccessStats) and clock movement to the
//! same verb called synchronously, because the reactor executes the
//! descriptor through the very same verb implementation. A rung
//! `DescList` books exactly what the blocking `FabricClient::ring`
//! books (serial-identical counts, overlap-aware clock).
//! Tracing, sampling and `TraceReport::reconcile` therefore stay exact
//! under the executor — proven by the twin-run property test in
//! `tests/runtime_props.rs`.
//!
//! ## Guards across `await`
//!
//! The runtime knows nothing of reclamation. A task pins an epoch guard
//! through [`AsyncClient::with`] like any control-plane call, may hold
//! it across `.await`, and its reclamation slot moves at its own pins
//! exactly as a blocking client's does (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod exec;

pub use client::{AsyncClient, Doorbell, Inline};
pub use exec::{Executor, Runtime, TaskHandle, TaskReport, TaskResult};
