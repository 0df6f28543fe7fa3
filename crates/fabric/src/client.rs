//! The client adapter: the compute-node end of the fabric.
//!
//! A [`FabricClient`] models one compute node's fabric interface. It issues
//! one-sided verbs (loads, stores, atomics — §2 — plus the extended verbs
//! of Fig. 1 implemented in [`crate::ext`]), charges the cost model against
//! its own virtual clock, and accounts every far access in its
//! [`AccessStats`].
//!
//! # Fenced batches
//!
//! The memory fabric can enforce ordering constraints via request
//! completion queues (§2). [`FabricClient::batch`] models this: a batch of
//! independent verbs is issued back-to-back, the fabric applies them in
//! order, and the client observes a single round trip of latency. Batches
//! count one `round_trip` but one `message` per constituent verb, keeping
//! the accounting auditable. A batch's ops are [`BatchOp`]s — the one op
//! vocabulary, [`PipeOp`](crate::PipeOp), over borrowed bytes — which a
//! descriptor and [`FabricClient::issue`] take too, and each runs the one
//! executor, `exec_op`.

use std::sync::Arc;

use crate::addr::{FarAddr, NodeId, PAGE, WORD};
use crate::check::AccessKind;
use crate::cost::SimClock;
use crate::error::{FabricError, Result};
use crate::ext::indirect::ErrorCompletion;
use crate::fabric::Fabric;
use crate::fault::{FaultPlan, FaultRng, RetryPolicy};
use crate::node::MemoryNode;
use crate::notify::{Event, EventSink, SubId, SubKind};
use crate::pipeline::{BatchOp, PipeOut};
use crate::replica::{GroupView, FAILOVER_LEASE_NS};
use crate::sample::MetricSampler;
use crate::stats::AccessStats;
use crate::trace::{SpanGuard, TraceConfig, TraceReport, Tracer, VerbKind};

/// One compute node's far-memory adapter.
pub struct FabricClient {
    fabric: Arc<Fabric>,
    id: u32,
    clock: SimClock,
    stats: AccessStats,
    sink: Arc<EventSink>,
    /// Events drained from the sink but not yet claimed by a consumer —
    /// lets several data structures share one client without stealing each
    /// other's notifications (see [`FabricClient::take_events`]).
    pending: Vec<Event>,
    /// Fault plan copied from the config (the plan is evaluated per verb
    /// attempt by [`FabricClient::begin_attempt`]).
    faults: FaultPlan,
    /// Retry policy copied from the config.
    retry: RetryPolicy,
    /// Per-client deterministic fault/jitter stream.
    rng: FaultRng,
    /// Trace sink, when enabled ([`FabricClient::enable_tracing`]). A
    /// disabled tracer is a single `Option` branch per verb and adds zero
    /// fabric accesses either way.
    trace: Option<Tracer>,
    /// Metrics hook, when installed ([`FabricClient::install_sampler`]).
    /// Same cost discipline as the tracer: one `Option` branch per verb
    /// when absent, and never any fabric accesses (see [`crate::sample`]).
    sampler: Option<Arc<dyn MetricSampler>>,
    /// Reentrancy depth of [`FabricClient::traced`]: a verb that re-enters
    /// the traced layer (a retry, a doorbell's descriptors) records only
    /// at the outermost wrapper, so counter deltas are never attributed
    /// twice.
    trace_depth: u32,
    /// Sink-side coalesced count already folded into
    /// `stats.notifications_coalesced` (the sink counts cumulatively).
    seen_coalesced: u64,
    /// The sink's delivery counter as read before the last drain: while
    /// it has not moved, [`FabricClient::pump_events`] has nothing to do.
    seen_deliveries: u64,
    /// Cached per-group replication views (empty when the fabric is
    /// unreplicated). Deliberately *not* kept coherent: a client keeps
    /// routing through its cached view until a
    /// [`FabricError::FencedEpoch`] or failover forces a charged refresh
    /// — that staleness window is what the fencing epoch exists for.
    views: Vec<Option<GroupView>>,
    /// Round-robin cursor for replica-read spreading.
    read_rr: u64,
    /// Whether this client's reads round-robin over the replica group
    /// ([`set_spread_reads`](Self::set_spread_reads)).
    spread_reads: bool,
}

impl FabricClient {
    pub(crate) fn new(fabric: Arc<Fabric>, id: u32) -> FabricClient {
        let config = *fabric.config();
        let seed = config.seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let sink = EventSink::new(config.delivery, seed);
        let fault_seed =
            config.faults.seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let views = if fabric.replicated() {
            vec![None; config.nodes as usize]
        } else {
            Vec::new()
        };
        FabricClient {
            fabric,
            id,
            clock: SimClock::new(),
            stats: AccessStats::new(),
            sink,
            pending: Vec::new(),
            faults: config.faults,
            retry: config.retry,
            rng: FaultRng::new(fault_seed),
            trace: None,
            sampler: None,
            trace_depth: 0,
            seen_coalesced: 0,
            seen_deliveries: 0,
            views,
            read_rr: 0,
            spread_reads: false,
        }
    }

    /// This client's identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The fabric this client is attached to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Current virtual time at this client.
    pub fn now_ns(&self) -> u64 {
        self.clock.now()
    }

    /// Advances this client's clock by `ns` of local compute time.
    pub fn advance_time(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// The client's notification queue.
    pub fn sink(&self) -> &Arc<EventSink> {
        &self.sink
    }

    /// Charges one near (client-local) access — a cache hit.
    #[inline]
    pub fn near_access(&mut self) {
        self.near_accesses(1);
    }

    /// Charges `n` near accesses at once.
    pub fn near_accesses(&mut self, n: u64) {
        self.stats.near_accesses += n;
        self.clock.advance(self.fabric.cost().near_ns * n);
        if self.trace_depth == 0 {
            if let Some(t) = &self.trace {
                let mut delta = AccessStats::new();
                delta.near_accesses = n;
                t.charge(delta, self.clock.now());
            }
            self.sample_tick(0);
        }
    }

    /// Books reclamation accounting (see `farmem-reclaim`): bytes handed
    /// to a limbo list, bytes returned to the allocator after their grace
    /// period, and grace-detection rounds run. Pure bookkeeping — charges
    /// no far accesses and no virtual time (the registry reads/CASes that
    /// implement reclamation are issued as ordinary verbs and count
    /// themselves), but flows through tracing spans so
    /// [`TraceReport::reconcile`](crate::trace::TraceReport::reconcile)
    /// stays exact.
    pub fn book_reclaim(&mut self, retired_bytes: u64, reclaimed_bytes: u64, rounds: u64) {
        self.stats.retired_bytes += retired_bytes;
        self.stats.reclaimed_bytes += reclaimed_bytes;
        self.stats.reclaim_rounds += rounds;
        if self.trace_depth == 0 {
            if let Some(t) = &self.trace {
                let mut delta = AccessStats::new();
                delta.retired_bytes = retired_bytes;
                delta.reclaimed_bytes = reclaimed_bytes;
                delta.reclaim_rounds = rounds;
                t.charge(delta, self.clock.now());
            }
            self.sample_tick(0);
        }
    }

    // ----- metrics sampling (farmem-metrics; see `crate::sample`) -----

    /// Installs a metrics sampler: it observes every completed outermost
    /// verb (and bookkeeping ticks) until cleared. Replaces any previous
    /// sampler.
    pub fn install_sampler(&mut self, sampler: Arc<dyn MetricSampler>) {
        self.sampler = Some(sampler);
    }

    /// Removes the metrics sampler, returning the client to the
    /// one-branch-per-verb disabled path.
    pub fn clear_sampler(&mut self) -> Option<Arc<dyn MetricSampler>> {
        self.sampler.take()
    }

    /// Reports one activity boundary to the installed sampler (no-op
    /// branch when none is installed).
    #[inline]
    fn sample_tick(&mut self, verb_ns: u64) {
        if let Some(s) = &self.sampler {
            s.observe(self.id, self.clock.now(), verb_ns, &self.stats);
        }
    }

    // ----- tracing (farmem-trace; see `crate::trace`) -----

    /// Enables span-attributed tracing on this client and returns the
    /// tracer handle (also reachable via [`FabricClient::tracer`]). The
    /// report baseline is the current counters.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) -> Tracer {
        let t = Tracer::new(cfg, self.id, self.stats, self.clock.now());
        self.trace = Some(t.clone());
        t
    }

    /// Disables tracing, returning the tracer (whose buffers stay
    /// readable).
    pub fn disable_tracing(&mut self) -> Option<Tracer> {
        self.trace.take()
    }

    /// The active tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref()
    }

    /// Opens a named operation span; every verb issued while the returned
    /// guard is the innermost live span is attributed to it. With tracing
    /// disabled this returns an inert guard and costs one branch.
    pub fn span(&mut self, name: &'static str) -> SpanGuard {
        match &self.trace {
            Some(t) => {
                let id = t.open_span(name, self.clock.now());
                SpanGuard::new(t.clone(), id)
            }
            None => SpanGuard::disabled(),
        }
    }

    /// Builds the attribution report against this client's live counters
    /// (`None` if tracing was never enabled).
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.trace.as_ref().map(|t| t.report(self.stats))
    }

    /// Runs one public verb under the tracer: captures the exact counter
    /// delta and virtual start/end times of the *outermost* wrapper only
    /// (a doorbell's descriptors and a retry's attempts re-enter, and must
    /// not double-record).
    #[inline]
    pub(crate) fn traced<T>(
        &mut self,
        kind: VerbKind,
        f: impl FnOnce(&mut FabricClient) -> Result<T>,
    ) -> Result<T> {
        if self.trace_depth > 0 || (self.trace.is_none() && self.sampler.is_none()) {
            return f(self);
        }
        self.trace_depth = 1;
        let start = self.clock.now();
        let before = self.stats;
        let out = f(self);
        self.trace_depth = 0;
        let end = self.clock.now();
        if let Some(tracer) = self.trace.clone() {
            tracer.record_verb(kind, start, end, self.stats.since(&before), out.is_ok());
        }
        self.sample_tick(end - start);
        out
    }

    /// One attempt-wise verb: traced once, retried under the client's
    /// policy, each attempt rolled against the fault plan and handed its
    /// arrival time at the nodes. Every blocking verb is this wrapper
    /// around the `exec_*` function a posted descriptor runs.
    #[inline]
    pub(crate) fn attempt<T>(
        &mut self,
        kind: VerbKind,
        mut body: impl FnMut(&mut FabricClient, u64) -> Result<T>,
    ) -> Result<T> {
        self.traced(kind, |c| {
            c.retrying(|c| {
                c.begin_attempt()?;
                let arrival = c.arrival();
                body(c, arrival)
            })
        })
    }

    /// [`attempt`](Self::attempt) for a signaled verb: `exec` returns its
    /// output and the node-side finish time, and the client waits out the
    /// dependent round trip. An error the node *answered* with (see
    /// [`ErrorCompletion`]) was waited for too.
    #[inline]
    pub(crate) fn round_trip<T, E: Into<ErrorCompletion>>(
        &mut self,
        kind: VerbKind,
        mut exec: impl FnMut(&mut FabricClient, u64) -> std::result::Result<(T, u64), E>,
    ) -> Result<T> {
        self.attempt(kind, |c, arrival| match exec(c, arrival) {
            Ok((out, finish)) => {
                c.finish_rt(finish);
                Ok(out)
            }
            Err(e) => {
                let e: ErrorCompletion = e.into();
                if let Some(at) = e.answered_at {
                    c.finish_rt(at);
                }
                Err(e.err)
            }
        })
    }

    // ----- internal timing helpers (shared with `crate::ext`) -----

    /// Virtual time at which a message issued now arrives at a node.
    pub(crate) fn arrival(&self) -> u64 {
        self.clock.now() + self.fabric.cost().one_way_ns()
    }

    /// Completes one dependent round trip whose last node-side event
    /// happened at `node_finish`.
    pub(crate) fn finish_rt(&mut self, node_finish: u64) {
        self.clock
            .advance_to(node_finish + self.fabric.cost().one_way_ns());
        self.stats.round_trips += 1;
    }

    pub(crate) fn stats_mut(&mut self) -> &mut AccessStats {
        &mut self.stats
    }

    /// Moves the clock forward to `t` (used by the pipeline doorbell,
    /// which advances to the *max* completion across its descriptors
    /// instead of calling [`finish_rt`](Self::finish_rt) per descriptor).
    pub(crate) fn clock_advance_to(&mut self, t: u64) {
        self.clock.advance_to(t);
    }

    // ----- fault injection and transparent retry (crate::fault) -----

    /// Rolls the fault plan for one verb attempt. Called at the top of
    /// every attempt, so a retried verb re-rolls. Injected failures happen
    /// *before* any node-side execution (fail-before-execution), which is
    /// what makes blind retry safe even for atomics.
    pub(crate) fn begin_attempt(&mut self) -> Result<()> {
        // Verification gate (crate::check): a deterministic explorer
        // blocks here until this client is granted its next verb. Sits
        // before the fault roll so an injected failure is itself a
        // scheduled step.
        if let Some(h) = self.fabric.check_hook() {
            h.gate(self.id);
        }
        if !self.faults.enabled() {
            return Ok(());
        }
        let fail_ppm = (self.faults.transient_ppm + self.faults.timeout_ppm) as u64;
        if fail_ppm > 0 {
            let roll = self.rng.roll_ppm();
            if roll < self.faults.transient_ppm as u64 {
                // A NACKed/dropped request still burned a wire round trip
                // before the client learned of the failure; charge it so
                // fault sweeps show the retry cost in far accesses too.
                self.stats.faults_injected += 1;
                self.stats.messages += 1;
                self.stats.round_trips += 1;
                self.clock.advance(self.fabric.cost().far_rtt_ns);
                return Err(FabricError::Transient);
            }
            if roll < fail_ppm {
                // A timeout burns a round trip and virtual time before the
                // client notices.
                self.stats.faults_injected += 1;
                self.stats.messages += 1;
                self.stats.round_trips += 1;
                self.clock.advance(self.faults.timeout_ns);
                return Err(FabricError::Timeout);
            }
        }
        if self.faults.spike_ppm > 0 && self.rng.roll_ppm() < self.faults.spike_ppm as u64 {
            // A latency spike: the verb succeeds but costs extra.
            self.stats.faults_injected += 1;
            self.clock.advance(self.faults.spike_ns);
        }
        Ok(())
    }

    /// Re-routes (failovers + fence refreshes) allowed per verb before the
    /// client gives up: bounds pathological configuration churn while
    /// allowing several successive promotions (K crashes of one group).
    const MAX_REROUTES: u32 = 8;

    /// Runs `op` under the client's retry policy: transient errors
    /// ([`FabricError::is_transient`]) are retried with exponential backoff
    /// and seeded jitter, all charged to the *virtual* clock (the advancing
    /// clock is also what heals timed node crash windows and expires stale
    /// lock leases in `farmem-core`).
    ///
    /// Permanent faults are handled without touching the backoff budget:
    ///
    /// * [`FabricError::NodeLost`] — the node crash-stopped and can never
    ///   recover, so backing off is pointless. With a live replica the
    ///   client fails over ([`try_failover`](Self::try_failover)) and
    ///   re-issues against the promoted primary; the re-issue is a routing
    ///   change, **not** a fault retry, so `retries` is not charged.
    ///   Without one the verb is abandoned immediately, charging
    ///   `giveups` exactly once.
    /// * [`FabricError::FencedEpoch`] — the client routed through a stale
    ///   cached view to a deposed primary. It refreshes the view (one
    ///   charged round trip) and re-issues; again not a fault retry.
    pub(crate) fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut FabricClient) -> Result<T>,
    ) -> Result<T> {
        let policy = self.retry;
        let mut backoff = policy.base_backoff_ns;
        let mut attempt = 0u32;
        let mut reroutes = 0u32;
        loop {
            attempt += 1;
            match op(self) {
                Ok(v) => return Ok(v),
                Err(FabricError::NodeLost(n)) => {
                    reroutes += 1;
                    if reroutes > Self::MAX_REROUTES || !self.try_failover(n) {
                        self.stats.giveups += 1;
                        return Err(FabricError::NodeLost(n));
                    }
                    attempt -= 1; // re-issue, not a fault retry
                }
                Err(FabricError::FencedEpoch { node, epoch }) => {
                    reroutes += 1;
                    if reroutes > Self::MAX_REROUTES {
                        self.stats.giveups += 1;
                        return Err(FabricError::FencedEpoch { node, epoch });
                    }
                    let g = self.fabric.group_of(node);
                    self.stats.fence_refreshes += 1;
                    self.refresh_view(g);
                    attempt -= 1; // re-issue, not a fault retry
                }
                Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                    self.stats.retries += 1;
                    let mut delay = backoff;
                    if policy.jitter && delay > 1 {
                        delay += self.rng.next() % (delay / 2 + 1);
                    }
                    self.clock.advance(delay);
                    backoff = backoff.saturating_mul(2).min(policy.max_backoff_ns);
                }
                Err(e) => {
                    if e.is_transient() {
                        self.stats.giveups += 1;
                    }
                    return Err(e);
                }
            }
        }
    }

    // ----- replication routing and fenced failover (crate::replica) -----

    /// The one way a message enters a memory node: routes group `g` to
    /// the physical node this client's cached view names, and refuses
    /// that node if it is down at the message's `arrival`. Every executor
    /// of the client and of [`crate::ext`] reaches memory through here;
    /// occupancy stays with the caller, which knows the service time.
    ///
    /// A mutation (and an unspread `read`) goes to the view's primary. A
    /// stale view keeps routing to a deposed primary until its fence
    /// error forces a refresh — exactly the partitioned-stale-client
    /// scenario the fencing epoch protects against. A `read` with
    /// [`spread_reads`](Self::set_spread_reads) on round-robins over every
    /// cached member of the group.
    #[inline]
    pub(crate) fn enter(&mut self, g: NodeId, read: bool, arrival: u64) -> Result<&MemoryNode> {
        let phys = if !self.fabric.replicated() {
            g
        } else if read && self.spread_reads {
            self.read_rr = self.read_rr.wrapping_add(1);
            let rr = self.read_rr as usize;
            let v = self.cached_view(g);
            v.members[rr % v.members.len()]
        } else {
            self.cached_view(g).primary
        };
        let node = self.fabric.node(phys);
        node.check_alive_at(arrival)?;
        Ok(node)
    }

    /// Round-robins this client's reads over its cached replica group
    /// (`true`) or pins them to the primary (`false`, the initial state).
    /// Spreading serves hot-key load from every member at the cost of
    /// strict linearizability across concurrent readers (DESIGN.md §10).
    /// Purely client-local routing state — no far traffic. A serving
    /// layer turns this on around reads of keys it has detected as hot,
    /// so cold reads keep primary locality while hot-key load fans out
    /// over the replica group.
    pub fn set_spread_reads(&mut self, spread: bool) {
        self.spread_reads = spread;
    }

    /// The client's cached view of group `g`, fetched free of charge on
    /// first touch (part of the attach handshake, like the address map).
    fn cached_view(&mut self, g: NodeId) -> &GroupView {
        let slot = &mut self.views[g.0 as usize];
        if slot.is_none() {
            *slot = Some(self.fabric.group_view(g));
        }
        slot.as_ref().unwrap()
    }

    /// Re-fetches group `g`'s configuration from the fabric, charging one
    /// round trip (the configuration service lives across the fabric too).
    fn refresh_view(&mut self, g: NodeId) {
        self.stats.round_trips += 1;
        self.stats.messages += 1;
        self.clock.advance(self.fabric.cost().far_rtt_ns);
        let v = self.fabric.group_view(g);
        self.views[g.0 as usize] = Some(v);
    }

    /// Reacts to a permanent loss of physical node `lost`: evicts a dead
    /// replica, adopts a failover another client already completed, or —
    /// when the lost node is the group's current primary and this client
    /// is first — waits out the failover lease and promotes a replica.
    /// Returns whether the verb can be re-issued.
    fn try_failover(&mut self, lost: NodeId) -> bool {
        if !self.fabric.replicated() {
            return false;
        }
        let fabric = self.fabric.clone();
        let g = fabric.group_of(lost);
        let cached = self.cached_view(g);
        let (cached_epoch, cached_primary) = (cached.epoch, cached.primary);
        if lost != cached_primary {
            // A spread read hit a dead replica: drop it from the group and
            // fall back to the primary. No promotion involved.
            fabric.evict_replica(g, lost);
            self.refresh_view(g);
            return true;
        }
        if fabric.group_epoch(g) != cached_epoch {
            // Another client already promoted past our view: adopt the new
            // configuration without waiting out the lease again.
            self.stats.failovers += 1;
            self.refresh_view(g);
            return true;
        }
        // First suspector: wait one failover lease of virtual time, so
        // every lock lease held through the dead primary has expired
        // before its successor starts serving (DESIGN.md §10), then
        // promote. The epoch condition makes racing promotions idempotent.
        self.clock.advance(FAILOVER_LEASE_NS);
        match fabric.promote(g, cached_epoch, self.clock.now()) {
            Ok(_) => {
                self.stats.failovers += 1;
                self.refresh_view(g);
                true
            }
            Err(_) => false,
        }
    }

    /// Reports an executed memory access to the verification observer,
    /// if one is installed (crate::check). Never touches clock or stats.
    #[inline]
    pub(crate) fn observe(&self, kind: AccessKind, addr: FarAddr, len: u64) {
        if let Some(h) = self.fabric.check_hook() {
            h.access(&crate::check::Access { client: self.id, addr, len, kind });
        }
    }

    /// Executes a read of `[addr, addr + buf.len())` into `buf` arriving
    /// at `arrival`, returning the node-side finish time. Counts
    /// messages/bytes, not RTs. Every byte-range read of the client —
    /// serial, batched, pipelined or gathered — is this one segment walk,
    /// reported to the verification observer as `kind`
    /// ([`AccessKind::Read`] for all but a batch's speculative read).
    pub(crate) fn exec_read_into(
        &mut self,
        kind: AccessKind,
        addr: FarAddr,
        buf: &mut [u8],
        arrival: u64,
    ) -> Result<u64> {
        let cost = *self.fabric.cost();
        let len = buf.len() as u64;
        let mut finish = arrival;
        let mut done = 0usize;
        let mut messages = 0u64;
        for seg in self.fabric.segments(addr, len)? {
            let node = self.enter(seg.node, true, arrival)?;
            let service = cost.node_msg_ns + cost.bytes_ns(seg.len);
            let f = node.occupy(arrival, service);
            node.read_bytes(seg.offset, &mut buf[done..done + seg.len as usize])?;
            done += seg.len as usize;
            messages += 1;
            finish = finish.max(f);
        }
        self.stats.messages += messages;
        self.stats.bytes_read += len;
        self.observe(kind, addr, len);
        Ok(finish)
    }

    /// [`exec_read_into`](Self::exec_read_into) a fresh buffer; returns
    /// `(bytes, node_finish)`. The range is checked before the buffer is
    /// sized, so a bad length never drives an allocation.
    pub(crate) fn exec_read(
        &mut self,
        kind: AccessKind,
        addr: FarAddr,
        len: u64,
        arrival: u64,
    ) -> Result<(Vec<u8>, u64)> {
        self.fabric.map().check(addr, len)?;
        let mut buf = vec![0u8; len as usize];
        let finish = self.exec_read_into(kind, addr, &mut buf, arrival)?;
        Ok((buf, finish))
    }

    /// Executes a write of `data` at `addr` arriving at `arrival`,
    /// returning the node-side finish time. Fires notifications.
    pub(crate) fn exec_write(&mut self, addr: FarAddr, data: &[u8], arrival: u64) -> Result<u64> {
        let cost = *self.fabric.cost();
        let len = data.len() as u64;
        let mut finish = arrival;
        let mut done = 0usize;
        let mut messages = 0u64;
        for seg in self.fabric.segments(addr, len)? {
            let node = self.enter(seg.node, false, arrival)?;
            let service = cost.node_msg_ns + cost.bytes_ns(seg.len);
            let f = node.occupy(arrival, service);
            node.write_bytes(seg.offset, &data[done..done + seg.len as usize])?;
            let f = self.fabric.fire(&mut self.stats, seg.node, seg.offset, seg.len, f);
            done += seg.len as usize;
            messages += 1;
            finish = finish.max(f);
        }
        self.stats.messages += messages;
        self.stats.bytes_written += len;
        self.observe(AccessKind::Write, addr, len);
        Ok(finish)
    }

    /// Locates the single word at `addr` (words never span nodes because
    /// stripes are page multiples).
    pub(crate) fn word_home(&self, addr: FarAddr) -> Result<(crate::addr::NodeId, u64)> {
        if !addr.is_aligned(WORD) {
            return Err(FabricError::Unaligned { addr, required: WORD });
        }
        self.fabric.map().check(addr, WORD)?;
        Ok(self.fabric.map().locate(addr))
    }

    /// Executes a word read arriving at `arrival`; returns `(value, finish)`.
    pub(crate) fn exec_read_u64(&mut self, addr: FarAddr, arrival: u64) -> Result<(u64, u64)> {
        let cost = *self.fabric.cost();
        let (nid, off) = self.word_home(addr)?;
        let node = self.enter(nid, true, arrival)?;
        let f = node.occupy(arrival, cost.node_msg_ns + cost.bytes_ns(WORD));
        let v = node.read_u64(off)?;
        self.stats.messages += 1;
        self.stats.bytes_read += WORD;
        self.observe(AccessKind::Read, addr, WORD);
        Ok((v, f))
    }

    /// Executes a word write arriving at `arrival`; returns the finish time.
    pub(crate) fn exec_write_u64(&mut self, addr: FarAddr, value: u64, arrival: u64) -> Result<u64> {
        let cost = *self.fabric.cost();
        let (nid, off) = self.word_home(addr)?;
        let node = self.enter(nid, false, arrival)?;
        let f = node.occupy(arrival, cost.node_msg_ns + cost.bytes_ns(WORD));
        node.write_u64(off, value)?;
        let f = self.fabric.fire(&mut self.stats, nid, off, WORD, f);
        self.stats.messages += 1;
        self.stats.bytes_written += WORD;
        self.observe(AccessKind::Write, addr, WORD);
        Ok(f)
    }

    /// Executes a CAS arriving at `arrival`; returns `(previous, finish)`.
    pub(crate) fn exec_cas(
        &mut self,
        addr: FarAddr,
        expected: u64,
        new: u64,
        arrival: u64,
    ) -> Result<(u64, u64)> {
        let cost = *self.fabric.cost();
        let (nid, off) = self.word_home(addr)?;
        let node = self.enter(nid, false, arrival)?;
        let mut f = node.occupy(arrival, cost.node_msg_ns + cost.node_ext_ns);
        let prev = node.cas_u64(off, expected, new)?;
        if prev == expected {
            f = self.fabric.fire(&mut self.stats, nid, off, WORD, f);
        }
        self.stats.messages += 1;
        self.stats.atomics += 1;
        self.observe(
            if prev == expected {
                AccessKind::AtomicRmw
            } else {
                AccessKind::AtomicRead
            },
            addr,
            WORD,
        );
        Ok((prev, f))
    }

    /// Executes a fetch-and-add arriving at `arrival`; returns
    /// `(previous, finish)`.
    pub(crate) fn exec_faa(
        &mut self,
        addr: FarAddr,
        delta: u64,
        arrival: u64,
    ) -> Result<(u64, u64)> {
        let cost = *self.fabric.cost();
        let (nid, off) = self.word_home(addr)?;
        let node = self.enter(nid, false, arrival)?;
        let f = node.occupy(arrival, cost.node_msg_ns + cost.node_ext_ns);
        let prev = node.faa_u64(off, delta)?;
        let f = self.fabric.fire(&mut self.stats, nid, off, WORD, f);
        self.stats.messages += 1;
        self.stats.atomics += 1;
        self.observe(AccessKind::AtomicRmw, addr, WORD);
        Ok((prev, f))
    }

    // ----- public one-sided verbs (§2 baseline set) -----

    /// One-sided read of `len` bytes at `addr`. One far access.
    pub fn read(&mut self, addr: FarAddr, len: u64) -> Result<Vec<u8>> {
        self.round_trip(VerbKind::Read, |c, at| c.exec_read(AccessKind::Read, addr, len, at))
    }

    /// One-sided read of `buf.len()` bytes at `addr` into a buffer the
    /// caller owns. Charged exactly as [`read`](Self::read) of the same
    /// range (one far access); the verb itself allocates nothing, so a
    /// fixed-size header can land in a stack array and a large value
    /// straight in its final buffer. On error `buf` may be partly filled.
    pub fn read_into(&mut self, addr: FarAddr, buf: &mut [u8]) -> Result<()> {
        self.round_trip(VerbKind::Read, |c, at| {
            c.exec_read_into(AccessKind::Read, addr, buf, at).map(|f| ((), f))
        })
    }

    /// One-sided write of `data` at `addr`. One far access.
    pub fn write(&mut self, addr: FarAddr, data: &[u8]) -> Result<()> {
        self.round_trip(VerbKind::Write, |c, at| c.exec_write(addr, data, at).map(|f| ((), f)))
    }

    /// One-sided read of the aligned word at `addr`. One far access.
    pub fn read_u64(&mut self, addr: FarAddr) -> Result<u64> {
        self.round_trip(VerbKind::Read, |c, at| c.exec_read_u64(addr, at))
    }

    /// One-sided write of the aligned word at `addr`. One far access.
    pub fn write_u64(&mut self, addr: FarAddr, value: u64) -> Result<()> {
        self.round_trip(VerbKind::Write, |c, at| c.exec_write_u64(addr, value, at).map(|f| ((), f)))
    }

    /// Fabric-level compare-and-swap (§2); returns the previous value.
    /// One far access.
    pub fn cas(&mut self, addr: FarAddr, expected: u64, new: u64) -> Result<u64> {
        self.round_trip(VerbKind::Atomic, |c, at| c.exec_cas(addr, expected, new, at))
    }

    /// Fabric-level fetch-and-add (§2); returns the previous value.
    /// One far access.
    pub fn faa(&mut self, addr: FarAddr, delta: u64) -> Result<u64> {
        self.round_trip(VerbKind::Atomic, |c, at| c.exec_faa(addr, delta, at))
    }

    /// Issues a fenced batch: the verbs are applied in order (the fabric's
    /// completion queue enforces the barrier, §2) and the whole batch costs
    /// one dependent round trip.
    pub fn batch(&mut self, ops: &[BatchOp<'_>]) -> Result<Vec<PipeOut>> {
        self.round_trip(VerbKind::Batch, |c, arrival| c.exec_batch(ops, arrival))
    }

    /// The one executor of a fenced batch, blocking ([`batch`](Self::batch))
    /// or as a [`PipeOp::Fenced`](crate::PipeOp::Fenced) op: arriving at
    /// `arrival`, pre-flights every target, then runs the ops in order
    /// through [`exec_op`](Self::exec_op). Returns the outputs and the
    /// node-side finish time; books messages, bytes and atomics, never
    /// round trips or the clock.
    pub(crate) fn exec_batch(
        &mut self,
        ops: &[BatchOp<'_>],
        arrival: u64,
    ) -> std::result::Result<(Vec<PipeOut>, u64), ErrorCompletion> {
        // Pre-flight every target node before executing any op: a batch
        // should fail atomically for blind retry to be safe. The timed
        // crash windows are evaluated against the same `arrival` here
        // and during execution, so they can never tear a batch; only a
        // concurrent `MemoryNode::fail` landing between this pre-flight
        // and a later op can — that case is caught below and surfaced
        // as the non-retryable `BatchTorn`.
        for op in ops {
            op.preflight(&mut |addr, len| {
                for seg in self.fabric.segments(addr, len)? {
                    self.enter(seg.node, false, arrival)?;
                }
                Ok(())
            })?;
        }
        let mut out = Vec::with_capacity(ops.len());
        let mut finish = arrival;
        // Whether any side-effecting verb has executed in *this*
        // attempt. Once it has, a mid-batch node failure must not be
        // blindly retried: the retry would duplicate the FAA / flip an
        // already-won CAS to "failed". Reads and not-yet-applied writes
        // leave the batch safely retryable.
        let mut mutated = false;
        for op in ops {
            match self.exec_op(op, arrival) {
                Ok((o, f)) => {
                    out.push(o);
                    finish = finish.max(f);
                }
                Err(ErrorCompletion { err: FabricError::NodeFailed(node), .. }) if mutated => {
                    return Err(FabricError::BatchTorn { node, executed: out.len() }.into());
                }
                // The client waited for whatever a node answered, as the
                // blocking verb does, and for every op before it.
                Err(e) => {
                    let answered_at = e.answered_at.map(|at| finish.max(at));
                    return Err(ErrorCompletion { answered_at, ..e });
                }
            }
            mutated |= op.has_side_effect();
        }
        Ok((out, finish))
    }

    /// Posts an *unsignaled* fetch-and-add (result discarded): used for
    /// background statistics counters (e.g. the HT-tree's collision and
    /// item counts, §5.2) that must not cost a dependent round trip.
    pub fn post_faa_u64(&mut self, addr: FarAddr, delta: u64) -> Result<()> {
        self.attempt(VerbKind::Posted, |c, arrival| {
            c.exec_faa(addr, delta, arrival)?;
            c.posted();
            Ok(())
        })
    }

    /// Books one unsignaled message: issue overhead only, the client does
    /// not wait for a completion.
    fn posted(&mut self) {
        self.stats.posted_messages += 1;
        self.clock.advance(self.fabric.cost().near_ns);
    }

    // ----- notification verbs (Fig. 1, §4.3) -----

    fn subscribe(&mut self, addr: FarAddr, len: u64, kind: SubKind) -> Result<SubId> {
        self.round_trip(VerbKind::Notify, |c, arrival| {
            crate::notify::SubscriptionTable::validate_range(addr, len)?;
            let mut segs = c.fabric.segments(addr, len)?;
            let seg = segs.next().expect("validated ranges are non-empty");
            debug_assert!(segs.next().is_none(), "a page never spans nodes");
            // Subscriptions live on the current primary only; they do not
            // survive failover (best-effort, DESIGN.md §10).
            let (cost, sink) = (*c.fabric.cost(), c.sink.clone());
            let node = c.enter(seg.node, false, arrival)?;
            let finish = node.occupy(arrival, cost.node_msg_ns + cost.node_ext_ns);
            let id = node.subs.register(addr, seg.offset, len, kind, sink)?;
            let phys = node.id();
            c.fabric.register_sub(id, phys, seg.offset / PAGE);
            c.stats.messages += 1;
            Ok::<_, FabricError>((id, finish))
        })
    }

    /// `notify0(ad, ℓ)`: signal any change in `[ad, ad+ℓ)` (Fig. 1).
    ///
    /// The range must be word-aligned and must not cross a page boundary.
    pub fn notify0(&mut self, addr: FarAddr, len: u64) -> Result<SubId> {
        self.subscribe(addr, len, SubKind::Changed)
    }

    /// `notifye(ad, v)`: signal when the word at `ad` becomes `v` (Fig. 1).
    pub fn notifye(&mut self, addr: FarAddr, value: u64) -> Result<SubId> {
        self.subscribe(addr, WORD, SubKind::Equal { value })
    }

    /// `notify0d(ad, ℓ)`: signal a change in `[ad, ad+ℓ)` and return the
    /// changed data (Fig. 1).
    pub fn notify0d(&mut self, addr: FarAddr, len: u64) -> Result<SubId> {
        self.subscribe(addr, len, SubKind::ChangedData)
    }

    /// Cancels a subscription created by this or any other client.
    pub fn unsubscribe(&mut self, id: SubId) -> Result<()> {
        self.attempt(VerbKind::Notify, |c, arrival| {
            c.fabric.unregister_sub(id)?;
            c.stats.messages += 1;
            c.finish_rt(arrival);
            Ok(())
        })
    }

    /// Moves newly delivered events from the sink into the local pending
    /// buffer, advancing the clock and the notification counters. When
    /// the fabric fired nothing at this client since the last call — the
    /// steady state of every epoch pin and directory check — it costs one
    /// atomic load.
    fn pump_events(&mut self) {
        let deliveries = self.sink.deliveries();
        if deliveries == self.seen_deliveries {
            return;
        }
        self.seen_deliveries = deliveries;
        let events = self.sink.drain();
        let one_way = self.fabric.cost().one_way_ns();
        let hook = self.fabric.check_hook();
        let mut delta = AccessStats::new();
        for e in &events {
            match e {
                Event::Lost { count } => delta.notifications_lost += count,
                _ => {
                    delta.notifications += 1;
                    self.clock.advance_to(e.fired_at_ns() + one_way);
                    if let Some(h) = &hook {
                        let (addr, len) = match e {
                            Event::Changed { addr, len, .. } => (*addr, *len),
                            Event::Equal { addr, .. } => (*addr, WORD),
                            Event::ChangedData { addr, data, .. } => (*addr, data.len() as u64),
                            Event::Lost { .. } => unreachable!("handled above"),
                        };
                        h.notified(self.id, addr, len);
                    }
                }
            }
        }
        // The sink counts coalesced merges cumulatively; fold the unseen
        // portion into the client's books so `notifications +
        // notifications_coalesced` matches the number of times the fabric
        // fired at this subscriber (cross-checked in tests against
        // `SinkStats`).
        let coalesced = self.sink.stats().coalesced;
        delta.notifications_coalesced = coalesced - self.seen_coalesced;
        self.seen_coalesced = coalesced;
        self.stats.merge(&delta);
        if delta != AccessStats::new() && self.trace_depth == 0 {
            if let Some(t) = &self.trace {
                t.charge(delta, self.clock.now());
            }
            self.sample_tick(0);
        }
        self.pending.extend(events);
    }

    /// Drains *all* pending notifications (previously buffered plus newly
    /// delivered). Prefer [`FabricClient::take_events`] when several data
    /// structures share this client.
    pub fn recv_events(&mut self) -> Vec<Event> {
        self.pump_events();
        std::mem::take(&mut self.pending)
    }

    /// Removes and returns the pending events matching `filter`, leaving
    /// the rest buffered for other consumers. [`Event::Lost`] warnings are
    /// global: pass a filter that accepts them if the caller must react to
    /// loss (the first taker claims each warning).
    pub fn take_events(&mut self, filter: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.pump_events();
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(self.pending.len());
        for e in self.pending.drain(..) {
            if filter(&e) {
                taken.push(e);
            } else {
                kept.push(e);
            }
        }
        self.pending = kept;
        taken
    }

    /// Number of locally buffered (unclaimed) events.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    fn client() -> FabricClient {
        FabricConfig::single_node(1 << 20).build().client()
    }

    #[test]
    fn word_round_trip_counts_one_access() {
        let mut c = client();
        c.write_u64(FarAddr(64), 11).unwrap();
        assert_eq!(c.read_u64(FarAddr(64)).unwrap(), 11);
        let s = c.stats();
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.bytes_read, 8);
    }

    #[test]
    fn bulk_round_trip_and_latency_regime() {
        let mut c = client();
        let data = vec![0xabu8; 1024];
        let t0 = c.now_ns();
        c.write(FarAddr(4096), &data).unwrap();
        let elapsed = c.now_ns() - t0;
        // 1 KiB costs about 1 µs of payload plus the RTT (§2).
        assert!(elapsed >= 2_000 + 1_000, "elapsed {elapsed}");
        assert_eq!(c.read(FarAddr(4096), 1024).unwrap(), data);
    }

    #[test]
    fn cas_and_faa_return_previous() {
        let mut c = client();
        c.write_u64(FarAddr(8), 5).unwrap();
        assert_eq!(c.cas(FarAddr(8), 5, 9).unwrap(), 5);
        assert_eq!(c.cas(FarAddr(8), 5, 1).unwrap(), 9);
        assert_eq!(c.faa(FarAddr(8), 2).unwrap(), 9);
        assert_eq!(c.read_u64(FarAddr(8)).unwrap(), 11);
        assert_eq!(c.stats().atomics, 3);
    }

    #[test]
    fn batch_costs_one_round_trip() {
        let mut c = client();
        let data = [7u8; 8];
        let out = c
            .batch(&[
                BatchOp::Write { addr: FarAddr(128), data: &data },
                BatchOp::Cas { addr: FarAddr(136), expected: 0, new: 3 },
                BatchOp::Read { addr: FarAddr(128), len: 8 },
            ])
            .unwrap();
        assert_eq!(out[1].value(), 0);
        assert_eq!(out[2].bytes(), &data);
        let s = c.stats();
        assert_eq!(s.round_trips, 1);
        assert_eq!(s.messages, 3);
    }

    /// `[Load2, ReadSpeculative]`, the hinted lookup's batch: one round
    /// trip, two messages, and a null pointer is the first op's *answer* —
    /// charged its round trip like the blocking verb's `NullDeref`, with
    /// the second op still executed.
    #[test]
    fn batched_load0_answers_a_null_pointer_instead_of_failing() {
        let mut c = client();
        let (bucket, item) = (FarAddr(64), FarAddr(4096));
        c.write(item, &[5u8; 32]).unwrap();
        let ops = [
            BatchOp::Load2 { ptr: bucket, index: 0, len: 32 },
            BatchOp::ReadSpeculative { addr: item, len: 16 },
        ];
        let loaded = PipeOut::Loaded { ptr: item.0, bytes: vec![5u8; 32] };
        for (pointer, answer) in [(0, PipeOut::Null), (item.0, loaded)] {
            c.write_u64(bucket, pointer).unwrap();
            let before = c.stats();
            let out = c.batch(&ops).unwrap();
            assert_eq!(out, [answer, PipeOut::Bytes(vec![5u8; 16])]);
            let d = c.stats().since(&before);
            let target_bytes = if pointer == 0 { 0 } else { 32 };
            assert_eq!((d.round_trips, d.messages, d.bytes_read), (1, 2, target_bytes + 16));
        }
        // The blocking verb books the same round trip for its `NullDeref`.
        c.write_u64(bucket, 0).unwrap();
        let before = c.stats();
        assert!(matches!(c.load0(bucket, 32), Err(FabricError::NullDeref { .. })));
        assert_eq!(c.stats().since(&before).round_trips, 1);
    }

    #[test]
    fn batched_load0_fails_whole_and_retries_whole() {
        use crate::addr::{NodeId, Striping, PAGE};
        use crate::fabric::IndirectionMode;
        // Pointer word on node 0, its target and the guessed address on
        // node 1.
        let two_nodes = |indirection, faults| {
            FabricConfig {
                nodes: 2,
                striping: Striping::Striped { stripe: PAGE },
                indirection,
                faults,
                ..FabricConfig::count_only(1 << 20)
            }
            .build()
        };
        let (bucket, item) = (FarAddr(64), FarAddr(PAGE));
        let ops = [
            BatchOp::Load2 { ptr: bucket, index: 0, len: 32 },
            BatchOp::ReadSpeculative { addr: item.offset(64), len: 16 },
        ];
        // A dead node under any op fails the batch before the first runs.
        let f = two_nodes(IndirectionMode::Forward, crate::fault::FaultPlan::NONE);
        let mut c = f.client();
        c.write_u64(bucket, item.0).unwrap();
        f.node(NodeId(1)).fail();
        let before = c.stats();
        assert!(matches!(c.batch(&ops), Err(FabricError::NodeFailed(NodeId(1)))));
        let d = c.stats().since(&before);
        assert_eq!((d.messages, d.bytes_read, d.round_trips), (0, 0, 0), "nothing executed");
        // A refused cross-node dereference is no failure: the `Load2`
        // reissues its target, one round trip after the home node's
        // answer, and the rest of the batch runs.
        let f = two_nodes(IndirectionMode::Error, crate::fault::FaultPlan::NONE);
        let mut c = f.client();
        c.write_u64(bucket, item.0).unwrap();
        c.write(item, &[4u8; 32]).unwrap();
        let before = c.stats();
        let loaded = PipeOut::Loaded { ptr: item.0, bytes: vec![4u8; 32] };
        assert_eq!(c.batch(&ops).unwrap()[0], loaded);
        let d = c.stats().since(&before);
        assert_eq!((d.messages, d.round_trips, d.reissues), (3, 2, 1), "refused, then reissued");
        // Read-only, so a transient fault re-issues the whole batch.
        let f = two_nodes(IndirectionMode::Forward, crate::fault::FaultPlan::transient(300_000));
        let mut c = f.client();
        c.write_u64(bucket, item.0).unwrap();
        c.write(item, &[9u8; 32]).unwrap();
        for _ in 0..100 {
            assert_eq!(c.batch(&ops).unwrap()[0], PipeOut::Loaded { ptr: item.0, bytes: vec![9u8; 32] });
        }
        assert!(c.stats().retries > 0 && c.stats().giveups == 0, "{:?}", c.stats());
    }

    #[test]
    fn notify0_delivers_on_write() {
        let f = FabricConfig::single_node(1 << 20).build();
        let mut writer = f.client();
        let mut watcher = f.client();
        watcher.notify0(FarAddr(4096), 64).unwrap();
        writer.write_u64(FarAddr(4096 + 8), 1).unwrap();
        let events = watcher.recv_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Changed { .. }));
        assert_eq!(watcher.stats().notifications, 1);
    }

    #[test]
    fn notifye_wakes_on_value() {
        let f = FabricConfig::single_node(1 << 20).build();
        let mut writer = f.client();
        let mut watcher = f.client();
        watcher.notifye(FarAddr(4096), 0).unwrap();
        writer.write_u64(FarAddr(4096), 3).unwrap();
        assert!(watcher.recv_events().is_empty());
        writer.write_u64(FarAddr(4096), 0).unwrap();
        assert_eq!(watcher.recv_events().len(), 1);
    }

    #[test]
    fn unsubscribe_is_effective_and_idempotent_errors() {
        let f = FabricConfig::single_node(1 << 20).build();
        let mut writer = f.client();
        let mut watcher = f.client();
        let id = watcher.notify0(FarAddr(4096), 8).unwrap();
        watcher.unsubscribe(id).unwrap();
        assert!(watcher.unsubscribe(id).is_err());
        writer.write_u64(FarAddr(4096), 1).unwrap();
        assert!(watcher.recv_events().is_empty());
    }

    #[test]
    fn failed_node_surfaces_errors() {
        let f = FabricConfig::single_node(1 << 20).build();
        let mut c = f.client();
        f.node(crate::addr::NodeId(0)).fail();
        assert!(matches!(
            c.read_u64(FarAddr(8)),
            Err(FabricError::NodeFailed(_))
        ));
        f.node(crate::addr::NodeId(0)).recover();
        assert!(c.read_u64(FarAddr(8)).is_ok());
    }

    /// A node that is down by a message's arrival refuses every shape of
    /// message at the one way in: nothing is written or registered, no
    /// occupancy is booked, and the verb books no message of its own.
    #[test]
    fn a_node_down_at_arrival_refuses_every_message_before_touching_it() {
        use crate::addr::NodeId;
        const PTR: FarAddr = FarAddr(64);
        const GUARD: FarAddr = FarAddr(72);
        const TAGGED: FarAddr = FarAddr(80);
        const DATA: FarAddr = FarAddr(4096);
        type Verb = fn(&mut FabricClient) -> Result<()>;
        let shapes: [(&str, Verb); 11] = [
            ("word read", |c| c.read_u64(DATA).map(drop)),
            ("word write", |c| c.write_u64(DATA, 1)),
            ("word cas", |c| c.cas(DATA, 0, 1).map(drop)),
            ("word faa", |c| c.faa(DATA, 1).map(drop)),
            ("range read", |c| c.read(DATA, 64).map(drop)),
            ("range write", |c| c.write(DATA, &[1; 64])),
            ("fenced batch", |c| {
                let ops = [BatchOp::Read { addr: DATA, len: 8 }, BatchOp::Faa { addr: DATA, delta: 1 }];
                c.batch(&ops).map(drop)
            }),
            ("plain indirect", |c| c.store0(PTR, &[1; 8])),
            ("tagged indirect", |c| c.load0_tagged(TAGGED).map(drop)),
            ("guarded indirect", |c| c.saai_guarded(PTR, 8, &[1; 8], GUARD, 0).map(drop)),
            ("subscription", |c| c.notify0(DATA, 64).map(drop)),
        ];
        for (name, verb) in shapes {
            let f = FabricConfig::single_node(1 << 20).build();
            let mut c = f.client();
            c.write_u64(PTR, DATA.0).unwrap();
            c.write_u64(TAGGED, DATA.0 | 1).unwrap();
            let node = f.node(NodeId(0));
            let memory = || {
                let mut bytes = vec![0u8; 8192];
                node.read_bytes(0, &mut bytes).unwrap();
                bytes
            };
            let (before, occupancy, stats) = (memory(), node.occupancy(), c.stats());
            node.schedule_crash_permanent(c.now_ns() + f.cost().one_way_ns());
            assert!(matches!(verb(&mut c), Err(FabricError::NodeLost(NodeId(0)))), "{name}");
            assert!(memory() == before, "{name}: memory untouched");
            assert_eq!(node.occupancy(), occupancy, "{name}: no occupancy booked");
            assert_eq!(node.subs.len(), 0, "{name}: nothing registered");
            let d = c.stats().since(&stats);
            let booked = (d.messages, d.round_trips, d.bytes_read, d.bytes_written, d.atomics);
            assert_eq!(booked, (0, 0, 0, 0, 0), "{name}");
            assert_eq!(d.giveups, 1, "{name}");
        }
    }

    #[test]
    fn transient_faults_are_retried_transparently() {
        let f = FabricConfig {
            faults: crate::fault::FaultPlan::transient(200_000), // 20 % per attempt
            ..FabricConfig::count_only(1 << 20)
        }
        .build();
        let mut c = f.client();
        for i in 0..200u64 {
            c.write_u64(FarAddr(8 * (i + 1)), i).unwrap();
            assert_eq!(c.read_u64(FarAddr(8 * (i + 1))).unwrap(), i);
        }
        let s = c.stats();
        assert!(s.faults_injected > 0, "plan must have injected faults");
        assert!(s.retries > 0, "faults must have been retried");
        assert_eq!(s.giveups, 0, "20 % faults with 8 attempts should never give up");
    }

    #[test]
    fn fault_free_config_rolls_nothing() {
        let mut c = client();
        c.write_u64(FarAddr(8), 1).unwrap();
        let s = c.stats();
        assert_eq!((s.retries, s.giveups, s.faults_injected), (0, 0, 0));
    }

    #[test]
    fn torn_batches_are_never_blindly_retried() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // A node failing *during* a batch (after its FAA executed) must
        // surface as the non-transient BatchTorn rather than being
        // retried — a blind retry would apply the FAA twice. The flipper
        // thread races fail()/recover() against a client issuing
        // [Faa, Write] batches; exactly-once holds in every interleaving:
        // Ok and BatchTorn{executed>=1} mean the FAA applied once,
        // NodeFailed means it never applied.
        let f = FabricConfig::count_only(1 << 20).build();
        let fp = f.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let flipper = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                fp.node(crate::addr::NodeId(0)).fail();
                std::thread::yield_now();
                fp.node(crate::addr::NodeId(0)).recover();
                std::thread::yield_now();
            }
        });
        let mut c = f.client();
        let ctr = FarAddr(64);
        let mut applied = 0u64;
        for i in 0..2000u64 {
            let payload = i.to_le_bytes();
            // A long read tail after the FAA stretches batch execution so
            // a racing fail() has a realistic chance of landing between
            // the FAA and a later op's liveness check (the torn window).
            let mut ops = vec![BatchOp::Faa { addr: ctr, delta: 1 }];
            for _ in 0..64 {
                ops.push(BatchOp::Read { addr: FarAddr(4096), len: 4096 });
            }
            ops.push(BatchOp::Write { addr: FarAddr(128), data: &payload });
            match c.batch(&ops) {
                Ok(_) => applied += 1,
                Err(FabricError::BatchTorn { executed, .. }) => {
                    assert!(executed >= 1, "a torn batch executed its prefix");
                    applied += 1; // op 0 (the FAA) landed before the tear
                }
                Err(FabricError::NodeFailed(_)) => {} // nothing executed
                Err(e) => panic!("unexpected batch error: {e}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        flipper.join().unwrap();
        f.node(crate::addr::NodeId(0)).recover();
        assert_eq!(
            c.read_u64(ctr).unwrap(),
            applied,
            "every batch applied its FAA exactly once or not at all"
        );
    }

    #[test]
    fn tracing_adds_zero_fabric_accesses_and_identical_time() {
        // The same workload with and without tracing must produce
        // byte-identical counters and virtual clocks: observability is
        // pure observation.
        let run = |traced: bool| -> (AccessStats, u64) {
            let f = FabricConfig {
                faults: crate::fault::FaultPlan::transient(50_000),
                ..FabricConfig::single_node(1 << 20)
            }
            .build();
            let mut c = f.client();
            if traced {
                c.enable_tracing(crate::trace::TraceConfig::default());
            }
            let _outer = if traced { Some(c.span("workload")) } else { None };
            for i in 0..50u64 {
                c.write_u64(FarAddr(8 * (i + 1)), i).unwrap();
                c.read_u64(FarAddr(8 * (i + 1))).unwrap();
            }
            c.write_u64(FarAddr(64), 4096).unwrap();
            c.load0(FarAddr(64), 8).unwrap();
            c.batch(&[
                BatchOp::Faa { addr: FarAddr(8), delta: 1 },
                BatchOp::Read { addr: FarAddr(8), len: 8 },
            ])
            .unwrap();
            c.near_accesses(3);
            (c.stats(), c.now_ns())
        };
        let (plain, plain_ns) = run(false);
        let (traced, traced_ns) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb any counter");
        assert_eq!(plain_ns, traced_ns, "tracing must not perturb the clock");
    }

    #[test]
    fn check_hooks_add_zero_accesses_and_time() {
        // Same discipline as tracing: a verification observer must be
        // pure observation — identical counters and virtual clock with
        // and without one installed, while actually seeing the traffic.
        use crate::check::{Access, CheckObserver};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Counting {
            gates: AtomicU64,
            accesses: AtomicU64,
            notified: AtomicU64,
        }
        impl CheckObserver for Counting {
            fn gate(&self, _client: u32) {
                self.gates.fetch_add(1, Ordering::Relaxed);
            }
            fn access(&self, _a: &Access) {
                self.accesses.fetch_add(1, Ordering::Relaxed);
            }
            fn notified(&self, _client: u32, _addr: FarAddr, _len: u64) {
                self.notified.fetch_add(1, Ordering::Relaxed);
            }
        }

        let run = |hooked: bool| -> (AccessStats, u64) {
            let f = FabricConfig {
                faults: crate::fault::FaultPlan::transient(50_000),
                ..FabricConfig::single_node(1 << 20)
            }
            .build();
            let obs = std::sync::Arc::new(Counting::default());
            if hooked {
                f.install_check_observer(obs.clone());
            }
            let mut c = f.client();
            let sub = c.notify0(FarAddr(128), 8).unwrap();
            for i in 0..50u64 {
                c.write_u64(FarAddr(8 * (i + 1)), i).unwrap();
                c.read_u64(FarAddr(8 * (i + 1))).unwrap();
            }
            c.cas(FarAddr(8), 0, 1).unwrap();
            c.faa(FarAddr(16), 2).unwrap();
            c.write_u64(FarAddr(64), 4096).unwrap();
            c.load0(FarAddr(64), 8).unwrap();
            c.batch(&[
                BatchOp::Faa { addr: FarAddr(8), delta: 1 },
                BatchOp::Read { addr: FarAddr(8), len: 8 },
            ])
            .unwrap();
            let _ = c.recv_events();
            c.unsubscribe(sub).unwrap();
            if hooked {
                assert!(obs.gates.load(Ordering::Relaxed) > 0, "gate saw attempts");
                assert!(obs.accesses.load(Ordering::Relaxed) > 0, "observer saw accesses");
                assert!(obs.notified.load(Ordering::Relaxed) > 0, "observer saw receipts");
                f.clear_check_observer();
            }
            (c.stats(), c.now_ns())
        };
        let (plain, plain_ns) = run(false);
        let (hooked, hooked_ns) = run(true);
        assert_eq!(plain, hooked, "check hooks must not perturb any counter");
        assert_eq!(plain_ns, hooked_ns, "check hooks must not perturb the clock");
    }

    #[test]
    fn trace_report_reconciles_exactly_and_attributes_spans() {
        let f = FabricConfig {
            faults: crate::fault::FaultPlan::transient(100_000),
            ..FabricConfig::single_node(1 << 20)
        }
        .build();
        let mut c = f.client();
        c.write_u64(FarAddr(64), 4096).unwrap(); // before enable: not counted
        c.enable_tracing(crate::trace::TraceConfig::default());
        {
            let _s = c.span("phase.write");
            for i in 0..20u64 {
                c.write_u64(FarAddr(4096 + 8 * i), i).unwrap();
            }
        }
        {
            let _s = c.span("phase.read");
            for i in 0..20u64 {
                c.read_u64(FarAddr(4096 + 8 * i)).unwrap();
            }
            let _inner = c.span("phase.read.indirect");
            c.load0(FarAddr(64), 8).unwrap();
        }
        c.faa(FarAddr(8), 1).unwrap(); // outside any span
        let r = c.trace_report().unwrap();
        assert_eq!(r.open_spans, 0);
        r.reconcile().unwrap_or_else(|field| {
            panic!("span sums diverge from flat stats on `{field}`: {r:?}")
        });
        assert!(r.attribution_ratio() > 0.9, "ratio {}", r.attribution_ratio());
        assert_eq!(r.unattributed.atomics, 1, "the bare faa is unattributed");
        let names: Vec<_> = r.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"phase.write") && names.contains(&"phase.read.indirect"));
        // Retries from injected faults are attributed too.
        assert_eq!(
            r.attributed().retries + r.unattributed.retries + r.open_stats.retries,
            r.total.retries
        );
        // Virtual-time latencies are present for the verbs we issued.
        assert!(r.verbs.iter().any(|v| v.kind == crate::trace::VerbKind::Read
            && v.count == 20
            && v.mean_ns >= 2_000));
        // Exports parse-ably mention the spans.
        let t = c.tracer().unwrap();
        assert!(t.jsonl().contains("phase.read.indirect"));
        assert!(t.chrome_trace().contains("\"name\":\"phase.write\""));
    }

    #[test]
    fn pump_events_books_coalesced_notifications() {
        let f = FabricConfig {
            delivery: crate::notify::DeliveryPolicy::COALESCING,
            ..FabricConfig::single_node(1 << 20)
        }
        .build();
        let mut writer = f.client();
        let mut watcher = f.client();
        watcher.notify0(FarAddr(4096), 8).unwrap();
        for i in 0..10u64 {
            writer.write_u64(FarAddr(4096), i).unwrap();
        }
        // All ten fires merged into one pending event + nine coalesces.
        let events = watcher.recv_events();
        assert_eq!(events.len(), 1);
        let s = watcher.stats();
        assert_eq!(s.notifications, 1);
        assert_eq!(s.notifications_coalesced, 9);
        let sink = watcher.sink().stats();
        assert_eq!(s.notifications, sink.delivered);
        assert_eq!(s.notifications_coalesced, sink.coalesced);
    }

    #[test]
    fn pump_events_books_spike_suppressed_notifications() {
        // Uncoalesced delivery with a 4-deep queue: a 12-write burst to
        // distinct subscribed words overflows it, so the sink suppresses
        // the excess and surfaces one Lost warning carrying the count.
        let f = FabricConfig {
            delivery: crate::notify::DeliveryPolicy {
                drop_ppm: 0,
                coalesce: false,
                max_queue: 4,
            },
            ..FabricConfig::single_node(1 << 20)
        }
        .build();
        let mut writer = f.client();
        let mut watcher = f.client();
        for i in 0..12u64 {
            watcher.notify0(FarAddr(4096 + i * 8), 8).unwrap();
        }
        for i in 0..12u64 {
            writer.write_u64(FarAddr(4096 + i * 8), i + 1).unwrap();
        }
        let events = watcher.recv_events();
        let lost: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Lost { count } => Some(*count),
                _ => None,
            })
            .sum();
        assert_eq!(lost, 8, "12 fires into a 4-deep queue drop 8");
        let s = watcher.stats();
        assert_eq!(s.notifications, 4);
        assert_eq!(s.notifications_lost, 8);
        assert_eq!(s.notifications_coalesced, 0);
        // Client books reconcile with the sink's own counters: every fire
        // is either delivered or spike-suppressed, none coalesced.
        let sink = watcher.sink().stats();
        assert_eq!(s.notifications, sink.delivered);
        assert_eq!(sink.coalesced, 0);
        assert_eq!(sink.silent_dropped, 0);
        assert_eq!(s.notifications + s.notifications_lost, 12);
    }

    #[test]
    fn contention_queues_in_virtual_time() {
        // Two clients hammering one node serialize behind its interface.
        let f = FabricConfig::single_node(1 << 20).build();
        let mut a = f.client();
        let mut b = f.client();
        for _ in 0..100 {
            a.read_u64(FarAddr(8)).unwrap();
            b.read_u64(FarAddr(8)).unwrap();
        }
        // Each client saw at least its own service times queueing.
        assert!(a.now_ns() > 100 * 2_000);
    }
}
