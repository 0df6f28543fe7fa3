//! The serving front end: shared server state, per-worker shards, and
//! the runtime-driven session multiplexer.
//!
//! Threading follows the Dragonfly shared-nothing design (SNIPPETS.md
//! Snippet 3): compute-side metadata (LRU order, hot-key sketch, slab
//! accounting) is sharded by key hash over workers, so no per-key lock
//! exists anywhere — a key's owning worker is the only mutator it ever
//! has. Far-memory state (the record tree, the reclaim registry) is
//! shared by construction; cross-worker *reads* are safe under epoch
//! guards. One piece of compute-side state is shared too, without a
//! lock: the server's [`HintTable`], eight atomic words per 64-B set,
//! which every worker's puts and removes write and every get reads after
//! its owner's index — a racy or stale hint costs a message, never an
//! answer, because the tree validates it. The listener role is
//! [`CacheServer::run_sessions`]: it lays
//! logical sessions onto [`Runtime`] workers and lends session `s` the
//! server's own shard `s % n_workers`, on worker `s % n_workers` (the
//! runtime's sharding), so a request generator that routes by
//! [`CacheServer::owner_of`] gets single-writer-per-key for free.

use std::sync::{Arc, Mutex, OnceLock};

use farmem_alloc::FarAlloc;
use farmem_core::{HintTable, HintWord, HtTree, HtTreeConfig, RecordHint};
use farmem_fabric::{Fabric, FabricClient};
use farmem_reclaim::ReclaimRegistry;
use farmem_runtime::{AsyncClient, Runtime, TaskResult};

use crate::hotkey::HotKeyDetector;
use crate::recency::{KeyMeta, RecencyIndex};
use crate::store::{charged_bytes, GetOutcome, RecordStore};
use crate::tenant::{Reject, RemoveKind, TenantId, TenantSpec, TenantStats, TenantTable};
use crate::{splitmix64, Result, ServeError, MAX_RAW_KEY};

/// Largest accepted value payload; a longer put is rejected with
/// [`Reject::ValueTooLarge`] before either quota is charged.
const MAX_VALUE_LEN: u64 = 64 << 10;

/// Per-worker hot-key detector shape: count-min sketch width per row,
/// top-k list size, and the sketch aging period in observations.
const HOT_SKETCH_WIDTH: usize = 1024;
const HOT_TOPK: usize = 16;
const HOT_DECAY_EVERY: u64 = 1 << 16;

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Configuration of the shared record tree.
    pub ht: HtTreeConfig,
    /// Epoch slots in the reclaim registry: one per worker shard and per
    /// [`CacheServer::worker`] (held for good) and per concurrent session.
    pub reclaim_slots: u64,
    /// Worker shards the server owns: the OS threads of
    /// [`CacheServer::run_sessions`] and the count keys are owned by.
    pub n_workers: usize,
    /// Per-worker live-byte watermark: a put that leaves the worker's
    /// charged bytes above it evicts LRU records until back under.
    /// `u64::MAX` disables eviction.
    pub worker_byte_budget: u64,
    /// Hot-key threshold in parts-per-million of a worker's observed
    /// traffic (e.g. `50_000` = keys drawing ≥ 5% of ops are hot).
    pub hot_ppm: u32,
    /// Observations before hotness can trigger (warmup).
    pub hot_min_ops: u64,
    /// Spread reads of detected hot keys over the replica group (only
    /// effective on a replicated fabric).
    pub spread_hot_reads: bool,
    /// Run a seal + reclaim pass every this many mutations per worker
    /// (amortizes the epoch FAA over many retires).
    pub reclaim_every: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ht: HtTreeConfig::default(),
            reclaim_slots: 64,
            n_workers: 1,
            worker_byte_budget: u64::MAX,
            hot_ppm: 50_000,
            hot_min_ops: 256,
            spread_hot_reads: true,
            reclaim_every: 64,
        }
    }
}

/// A client request, as the listener would decode it off the wire.
#[derive(Clone, Debug)]
pub enum Request {
    /// Read `key`.
    Get {
        /// Issuing tenant.
        tenant: TenantId,
        /// Raw (un-namespaced) key.
        key: u64,
    },
    /// Store `value` under `key`.
    Put {
        /// Issuing tenant.
        tenant: TenantId,
        /// Raw key.
        key: u64,
        /// Value payload.
        value: Vec<u8>,
        /// TTL override (`None` = the tenant's default).
        ttl_ns: Option<u64>,
    },
    /// Remove `key`.
    Delete {
        /// Issuing tenant.
        tenant: TenantId,
        /// Raw key.
        key: u64,
    },
}

impl Request {
    /// The namespaced tree key this request addresses.
    pub fn nskey(&self) -> u64 {
        match *self {
            Request::Get { tenant, key }
            | Request::Put { tenant, key, .. }
            | Request::Delete { tenant, key } => tenant.namespaced(key & MAX_RAW_KEY),
        }
    }
}

/// A request's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Get hit.
    Value(Vec<u8>),
    /// Get miss (including TTL-expired records, which are never served).
    Miss,
    /// Put accepted and durable.
    Stored,
    /// Delete processed; `true` when a record existed.
    Deleted(bool),
    /// Turned away at admission — no far access was issued.
    Rejected(Reject),
}

/// Per-worker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker id.
    pub wid: usize,
    /// Requests processed (admitted or rejected).
    pub ops: u64,
    /// Gets that returned a value.
    pub hits: u64,
    /// Gets that found nothing live.
    pub misses: u64,
    /// Expired records this worker unlinked and retired.
    pub expired_unlinked: u64,
    /// Records evicted by the byte watermark.
    pub evicted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Gets of keys that were hot at access time.
    pub hot_gets: u64,
    /// Hot gets actually spread over the replica group.
    pub spread_gets: u64,
    /// Seal + reclaim passes run.
    pub reclaim_passes: u64,
    /// Bytes returned to the allocator by this worker's passes.
    pub freed_bytes: u64,
    /// Currently charged (slab-rounded) bytes across this worker's keys.
    pub charged_bytes: u64,
    /// High-water mark of `charged_bytes`.
    pub peak_charged_bytes: u64,
}

/// The shared serving state: one per cache deployment.
///
/// Cheap to share (`Arc`); all far-memory handles inside are attach-on-
/// demand. See the module docs for the threading model.
pub struct CacheServer {
    fabric: Arc<Fabric>,
    alloc: Arc<FarAlloc>,
    tree: HtTree,
    registry: ReclaimRegistry,
    tenants: Arc<Mutex<TenantTable>>,
    /// Every record's hint, written by every worker's puts and removes
    /// and read by every get.
    hints: Arc<HintTable>,
    cfg: ServeConfig,
    /// The `n_workers` shards, each attached by its first session.
    shards: Vec<OnceLock<Mutex<ServeWorker>>>,
}

/// Deterministic owner shard of a namespaced key.
fn owner_shard(nskey: u64, n_workers: usize) -> usize {
    // Decorrelates owner from tenant prefix bits.
    (splitmix64(nskey) % n_workers.max(1) as u64) as usize
}

impl CacheServer {
    /// Creates the far-memory side of a cache deployment: the shared
    /// record tree and the reclaim registry.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: ServeConfig,
    ) -> Result<CacheServer> {
        let tree = HtTree::create(client, alloc, cfg.ht)?;
        let registry = ReclaimRegistry::create(client, alloc, cfg.reclaim_slots)?;
        Ok(CacheServer {
            fabric: alloc.fabric().clone(),
            alloc: alloc.clone(),
            tree,
            registry,
            tenants: Arc::new(Mutex::new(TenantTable::new())),
            hints: Arc::new(HintTable::new()),
            cfg,
            shards: (0..cfg.n_workers.max(1)).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The hint table every worker shares (DESIGN §13).
    pub fn hints(&self) -> &HintTable {
        &self.hints
    }

    /// Registers a tenant; ids are assigned densely from 0.
    pub fn add_tenant(&self, spec: TenantSpec) -> Result<TenantId> {
        self.tenants.lock().unwrap().add(spec).ok_or(ServeError::TooManyTenants)
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The fabric the cache serves from.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The allocator records live in (its
    /// [`class_stats`](FarAlloc::class_stats) audit slab occupancy).
    pub fn alloc(&self) -> &Arc<FarAlloc> {
        &self.alloc
    }

    /// The worker count keys are owned by: `n_workers` (at least one) in
    /// every call, whatever its session count. Generators route with it.
    pub fn effective_workers(&self, _n_sessions: usize) -> usize {
        self.shards.len()
    }

    /// The worker that owns `nskey` among `n_workers` shards.
    pub fn owner_of(&self, nskey: u64, n_workers: usize) -> usize {
        owner_shard(nskey, n_workers)
    }

    /// Attaches a worker shard: its own tree handle, reclaim slot,
    /// hot-key sketch, and LRU metadata, and the server's hint table.
    /// `wid` must be below the worker count the deployment shards by.
    pub fn worker(&self, wid: usize, n_workers: usize, client: &mut FabricClient) -> Result<ServeWorker> {
        let shared = self.registry.attach(client, &self.alloc)?;
        let store = RecordStore::attach(client, &self.alloc, self.tree, self.cfg.ht, shared)?;
        Ok(ServeWorker {
            wid,
            n_workers: n_workers.max(1),
            store,
            tenants: self.tenants.clone(),
            hot: HotKeyDetector::new(HOT_SKETCH_WIDTH, HOT_TOPK, HOT_DECAY_EVERY),
            index: RecencyIndex::new(),
            hints: self.hints.clone(),
            replicated: self.fabric.replicated(),
            cfg: self.cfg,
            mutations_since_reclaim: 0,
            stats: WorkerStats { wid, ..WorkerStats::default() },
        })
    }

    /// Per-tenant accounting snapshot.
    pub fn tenant_stats(&self) -> Vec<(TenantSpec, TenantStats)> {
        self.tenants.lock().unwrap().stats()
    }

    /// The listener, callable any number of times: runs `n_sessions` (at
    /// least `n_workers`) logical sessions over a [`Runtime`] of
    /// `n_workers` OS threads. Session `s` runs on worker `s % n_workers`
    /// and is lent the server's shard of that index (LRU, sketch,
    /// accounting, kept across calls); its far accesses run on its own
    /// client, and batched gets overlap through the async doorbell. The
    /// generator is called once per session and must route mutations to
    /// sessions of the owning worker ([`owner_of`](Self::owner_of) with
    /// [`effective_workers`](Self::effective_workers)); gets may go
    /// anywhere.
    pub fn run_sessions<G>(
        self: &Arc<CacheServer>,
        n_sessions: usize,
        gen: G,
    ) -> Vec<TaskResult<SessionSummary>>
    where
        G: Fn(usize) -> Vec<Request> + Send + Sync + 'static,
    {
        let workers = self.shards.len();
        assert!(n_sessions >= workers, "{n_sessions} sessions cannot drive {workers} worker shards");
        let server = self.clone();
        Runtime::new(workers).run(&self.fabric, n_sessions, move |index, ac| {
            let server = server.clone();
            let reqs = gen(index);
            Box::pin(session_body(server, index, ac, reqs))
        })
    }

    /// Runs `f` on shard `wid`, lent for one synchronous section.
    /// `try_lock`: a shard held across a suspension point panics, where
    /// `lock` would deadlock the thread's executor.
    fn with_shard<R>(&self, wid: usize, f: impl FnOnce(&mut ServeWorker) -> R) -> R {
        let shard = self.shards[wid].get().expect("attached by its first session");
        f(&mut shard.try_lock().expect("a shard held across a suspension point"))
    }
}

/// One shard of the serving layer: used by one worker thread at a time.
pub struct ServeWorker {
    wid: usize,
    n_workers: usize,
    store: RecordStore,
    tenants: Arc<Mutex<TenantTable>>,
    hot: HotKeyDetector,
    /// Owned-key metadata in recency order (exact, client-side — the
    /// worker sees every access to its shard, so no far traffic is spent
    /// on recency).
    index: RecencyIndex,
    /// The server's hint table, for keys `index` does not hold.
    hints: Arc<HintTable>,
    replicated: bool,
    cfg: ServeConfig,
    mutations_since_reclaim: u64,
    stats: WorkerStats,
}

/// An admitted get: its namespaced key, whether its read spreads over
/// the replica group, and where it speculates (see
/// [`ServeWorker::hint_of`]).
struct AdmittedGet {
    nskey: u64,
    spread: bool,
    hint: Option<RecordHint>,
    seen: Option<HintWord>,
}

impl ServeWorker {
    /// This worker's shard id.
    pub fn wid(&self) -> usize {
        self.wid
    }

    /// Whether this worker owns (may mutate) `nskey`.
    pub fn owns(&self, nskey: u64) -> bool {
        owner_shard(nskey, self.n_workers) == self.wid
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }

    /// The record store's tree-handle stats.
    pub fn tree_stats(&self) -> farmem_core::HtTreeStats {
        self.store.tree_stats()
    }

    /// Executes one request on this worker.
    pub fn execute(&mut self, client: &mut FabricClient, req: &Request) -> Result<Response> {
        match req {
            Request::Get { tenant, key } => self.get(client, *tenant, *key),
            Request::Put { tenant, key, value, ttl_ns } => {
                self.put(client, *tenant, *key, value, *ttl_ns)
            }
            Request::Delete { tenant, key } => self.delete(client, *tenant, *key),
        }
    }

    /// Serves a get: admission, hot-key accounting, TTL enforcement.
    pub fn get(&mut self, client: &mut FabricClient, tenant: TenantId, key: u64) -> Result<Response> {
        let mut admitted = None;
        self.admit_gets(client, &[(tenant, key)], |_, a| admitted = Some(a))?;
        let AdmittedGet { nskey, spread, mut hint, seen } =
            match admitted.expect("a batch of one has one verdict") {
                Ok(admitted) => admitted,
                Err(reject) => return Ok(Response::Rejected(reject)),
            };
        let _span = client.span(tenant.span_name());
        if spread {
            client.set_spread_reads(true);
        }
        let now = client.now_ns();
        let out = self.store.get_hinted(client, nskey, &mut hint, now);
        if spread {
            client.set_spread_reads(false);
        }
        let out = out?;
        self.finish_gets(client, &[(tenant, nskey)], std::slice::from_ref(&out), &[hint], &[seen])?;
        Ok(match out {
            GetOutcome::Hit(v) => Response::Value(v),
            GetOutcome::Expired | GetOutcome::Miss => Response::Miss,
        })
    }

    /// Serves a put: byte + op quotas at admission, slab-class storage,
    /// TTL stamping, watermark eviction.
    pub fn put(
        &mut self,
        client: &mut FabricClient,
        tenant: TenantId,
        key: u64,
        value: &[u8],
        ttl_ns: Option<u64>,
    ) -> Result<Response> {
        let charged = charged_bytes(value.len() as u64);
        let mut verdict = [Ok(0)];
        self.admit(client, &[(tenant, key)], value.len() as u64, Some(charged), &mut verdict)?;
        let nskey = match verdict[0] {
            Ok(nskey) => nskey,
            Err(reject) => return Ok(Response::Rejected(reject)),
        };
        if !self.owns(nskey) {
            return Err(ServeError::NotOwner);
        }
        let _span = client.span(tenant.span_name());
        let now = client.now_ns();
        let ttl = ttl_ns.unwrap_or_else(|| self.tenants.lock().unwrap().spec(tenant).default_ttl_ns);
        let expiry = if ttl == 0 { 0 } else { now + ttl };
        let (_, hint) = self.store.put(client, nskey, value, expiry)?;
        self.hints.put(nskey, hint);
        let old_charged = self.index_put(nskey, KeyMeta { tenant, charged, hint });
        self.tenants.lock().unwrap().stored(tenant, charged, old_charged);
        while self.stats.charged_bytes > self.cfg.worker_byte_budget {
            if !self.evict_one(client)? {
                break;
            }
        }
        self.maybe_reclaim(client)?;
        Ok(Response::Stored)
    }

    /// Serves a delete.
    pub fn delete(&mut self, client: &mut FabricClient, tenant: TenantId, key: u64) -> Result<Response> {
        let mut verdict = [Ok(0)];
        self.admit(client, &[(tenant, key)], 0, None, &mut verdict)?;
        let nskey = match verdict[0] {
            Ok(nskey) => nskey,
            Err(reject) => return Ok(Response::Rejected(reject)),
        };
        if !self.owns(nskey) {
            return Err(ServeError::NotOwner);
        }
        let _span = client.span(tenant.span_name());
        let existed = self.unlink(client, nskey)?;
        if let Some(m) = self.index.remove(nskey) {
            self.stats.charged_bytes -= m.charged;
            self.tenants.lock().unwrap().removed(m.tenant, m.charged, RemoveKind::Deleted);
        }
        self.maybe_reclaim(client)?;
        Ok(Response::Deleted(existed))
    }

    /// Current charged (slab-rounded) bytes across this worker's keys.
    pub fn footprint(&self) -> u64 {
        self.stats.charged_bytes
    }

    /// Seals the epoch and runs one reclaim pass now.
    pub fn reclaim_pass(&mut self, client: &mut FabricClient) -> Result<u64> {
        let freed = self.store.reclaim_pass(client)?;
        self.stats.reclaim_passes += 1;
        self.stats.freed_bytes += freed;
        Ok(freed)
    }

    // ----- internals -----

    /// Admission of a batch of requests under one tenant-table lock: for
    /// each in turn, counts the op, then checks tenant validity, key
    /// range, value size, op quota, byte quota, in that order, and writes
    /// to its slot of `verdicts` the namespaced key or the first check
    /// that failed — the one whose counter moved. Pure compute — no far
    /// access is issued before all checks pass. A put or a delete is a
    /// batch of one.
    fn admit(
        &mut self,
        client: &FabricClient,
        reqs: &[(TenantId, u64)],
        value_len: u64,
        put_charged: Option<u64>,
        verdicts: &mut [std::result::Result<u64, Reject>],
    ) -> Result<()> {
        let now = client.now_ns();
        let mut tt = self.tenants.lock().unwrap();
        for (&(tenant, key), verdict) in reqs.iter().zip(verdicts) {
            self.stats.ops += 1;
            if !tt.contains(tenant) {
                return Err(ServeError::UnknownTenant);
            }
            *verdict = if key > MAX_RAW_KEY {
                Err(Reject::KeyTooLarge)
            } else if value_len > MAX_VALUE_LEN {
                Err(Reject::ValueTooLarge)
            } else if !tt.admit_op(tenant, now) {
                Err(Reject::OpQuota)
            } else {
                let nskey = tenant.namespaced(key);
                let replaced = || self.index.get(nskey).map_or(0, |m| m.charged);
                match put_charged {
                    Some(charged) if !tt.admit_bytes(tenant, charged, replaced()) => {
                        Err(Reject::ByteQuota)
                    }
                    _ => Ok(nskey),
                }
            };
            self.stats.rejected += u64::from(verdict.is_err());
        }
        Ok(())
    }

    /// A batch of at most [`GET_BATCH`] gets' admission, the one body of
    /// the sync path (a batch of one) and the session path:
    /// [`admit`](Self::admit), then each admitted key's sketch and hint.
    /// Calls `each` with every request's tenant and verdict, in order.
    fn admit_gets(
        &mut self,
        client: &FabricClient,
        batch: &[(TenantId, u64)],
        mut each: impl FnMut(TenantId, std::result::Result<AdmittedGet, Reject>),
    ) -> Result<()> {
        let mut verdicts = [Ok(0); GET_BATCH];
        let verdicts = &mut verdicts[..batch.len()];
        self.admit(client, batch, 0, None, verdicts)?;
        for (&(tenant, _), &verdict) in batch.iter().zip(&*verdicts) {
            each(
                tenant,
                verdict.map(|nskey| {
                    let spread = self.classify_hot(nskey);
                    self.stats.spread_gets += u64::from(spread);
                    let (hint, seen) = self.hint_of(nskey);
                    AdmittedGet { nskey, spread, hint, seen }
                }),
            );
        }
        Ok(())
    }

    /// Where a get of `nskey` speculates: the index's hint of a key this
    /// shard stored, else the server table's, with the way and word read
    /// there for the get to [learn](HintTable::learn) against.
    fn hint_of(&self, nskey: u64) -> (Option<RecordHint>, Option<HintWord>) {
        match self.index.get(nskey) {
            Some(m) => (Some(m.hint), None),
            None => {
                let (hint, seen) = self.hints.get(nskey);
                (hint, Some(seen))
            }
        }
    }

    /// Records the access in the sketch; returns whether the read
    /// should spread over the replica group.
    fn classify_hot(&mut self, nskey: u64) -> bool {
        self.hot.observe(nskey);
        if !self.cfg.spread_hot_reads
            || !self.hot.is_hot(nskey, self.cfg.hot_ppm, self.cfg.hot_min_ops)
        {
            return false;
        }
        self.stats.hot_gets += 1;
        self.replicated
    }

    /// The one get epilogue, shared by the sync and the session path:
    /// books each outcome — recency touch on a hit, tenant and worker
    /// counters, the expired record's ledger — under one tenant-table
    /// lock, then (lock released: no far access is issued under it)
    /// unlinks and retires the expired records this worker owns; a
    /// non-owner observation is counted but left for the owner to
    /// collect. A get whose hint came from the server's table (`seen`, one
    /// per key, the word it read) teaches the table the hint its lookup
    /// handed back (`hints`). Returns the number of hits.
    fn finish_gets(
        &mut self,
        client: &mut FabricClient,
        keys: &[(TenantId, u64)],
        outcomes: &[GetOutcome],
        hints: &[Option<RecordHint>],
        seen: &[Option<HintWord>],
    ) -> Result<u64> {
        let mut hits = 0;
        let mut unlink = Vec::new();
        {
            let mut tt = self.tenants.lock().unwrap();
            for (((&(tenant, nskey), out), &hint), &seen) in
                keys.iter().zip(outcomes).zip(hints).zip(seen)
            {
                if let Some(seen) = seen {
                    self.hints.learn(nskey, seen, hint);
                }
                match out {
                    GetOutcome::Hit(_) => {
                        self.index.touch(nskey);
                        tt.hit(tenant);
                        hits += 1;
                    }
                    GetOutcome::Miss => tt.miss(tenant),
                    GetOutcome::Expired => {
                        let owned = if self.owns(nskey) { self.index.remove(nskey) } else { None };
                        match owned {
                            Some(m) => {
                                self.stats.charged_bytes -= m.charged;
                                tt.removed(m.tenant, m.charged, RemoveKind::Expired);
                                unlink.push(nskey);
                            }
                            None => tt.expired_observed(tenant),
                        }
                        tt.miss(tenant);
                    }
                }
            }
        }
        self.stats.hits += hits;
        self.stats.misses += keys.len() as u64 - hits;
        for nskey in unlink {
            // Rare (a get that finds its record past
            // the TTL), and each unlink is a tree remove plus a retire — a
            // dependent chain per key, not one verb to batch.
            self.unlink(client, nskey)?;
            self.stats.expired_unlinked += 1;
            self.maybe_reclaim(client)?;
        }
        Ok(hits)
    }

    /// Indexes a stored record; returns the charged bytes of the record
    /// it replaced (for tenant accounting).
    fn index_put(&mut self, nskey: u64, meta: KeyMeta) -> Option<u64> {
        let old_charged = self.index.insert(nskey, meta).map(|m| {
            self.stats.charged_bytes -= m.charged;
            m.charged
        });
        self.stats.charged_bytes += meta.charged;
        self.stats.peak_charged_bytes = self.stats.peak_charged_bytes.max(self.stats.charged_bytes);
        old_charged
    }

    /// Evicts the least-recently-used record.
    fn evict_one(&mut self, client: &mut FabricClient) -> Result<bool> {
        let Some(nskey) = self.index.oldest() else {
            return Ok(false);
        };
        let m = self.index.remove(nskey).expect("the oldest key is indexed");
        self.unlink(client, nskey)?;
        self.stats.charged_bytes -= m.charged;
        self.tenants.lock().unwrap().removed(m.tenant, m.charged, RemoveKind::Evicted);
        self.stats.evicted += 1;
        Ok(true)
    }

    /// Unlinks `nskey`'s record — delete, eviction, expiry — and clears
    /// its hint; returns whether a record existed.
    fn unlink(&mut self, client: &mut FabricClient, nskey: u64) -> Result<bool> {
        let existed = self.store.remove(client, nskey)?;
        self.hints.clear(nskey);
        Ok(existed)
    }

    fn maybe_reclaim(&mut self, client: &mut FabricClient) -> Result<()> {
        self.mutations_since_reclaim += 1;
        if self.mutations_since_reclaim >= self.cfg.reclaim_every {
            self.mutations_since_reclaim = 0;
            self.reclaim_pass(client)?;
        }
        Ok(())
    }
}

/// What one logical session did (see
/// [`CacheServer::run_sessions`]); `worker` is the owning shard's
/// cumulative counters at session end.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Worker shard the session ran on.
    pub wid: usize,
    /// Requests this session issued.
    pub ops: u64,
    /// Get hits.
    pub hits: u64,
    /// Get misses.
    pub misses: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Gets whose lookup speculated a hinted record (the session's tree
    /// handle's [`HtTreeStats::hinted_gets`](farmem_core::HtTreeStats)).
    pub hinted_gets: u64,
    /// Of those, the ones whose hint the tree did not confirm: each paid
    /// the unhinted price.
    pub stale_hints: u64,
    /// Shard counters at session end, cumulative across thread-mates and
    /// earlier calls (per worker, take the snapshot with the most ops).
    pub worker: WorkerStats,
}

/// Consecutive gets batched through one async doorbell.
const GET_BATCH: usize = 8;

/// One logical session: admission and metadata go through the lent
/// worker shard (brief synchronous sections — never held across a
/// suspension point); far accesses run on the session's own client,
/// with runs of gets overlapped through the async batch path.
async fn session_body(
    server: Arc<CacheServer>,
    index: usize,
    ac: AsyncClient,
    reqs: Vec<Request>,
) -> SessionSummary {
    let wid = index % server.shards.len();
    // A shard's first session attaches it (control plane).
    let attach = || ac.with(|c| server.worker(wid, server.shards.len(), c)).expect("worker attach");
    server.shards[wid].get_or_init(|| Mutex::new(attach()));
    // Per-session store handle: own reclaim slot (guard pins must not be
    // shared between interleaved sessions), own tree directory cache.
    // One-time session attach (control plane).
    let mut store = ac
        .with(|c| -> Result<RecordStore> {
            let shared = server.registry.attach(c, &server.alloc)?;
            RecordStore::attach(c, &server.alloc, server.tree, server.cfg.ht, shared)
        })
        .expect("session attach");
    let mut sum = SessionSummary {
        wid,
        ops: 0,
        hits: 0,
        misses: 0,
        rejected: 0,
        hinted_gets: 0,
        stale_hints: 0,
        worker: WorkerStats::default(),
    };
    let mut i = 0usize;
    while i < reqs.len() {
        match &reqs[i] {
            Request::Get { .. } => {
                // Gather a run of gets and serve them as one overlapped
                // batch.
                let mut batch: Vec<(TenantId, u64)> = Vec::with_capacity(GET_BATCH);
                while i < reqs.len() && batch.len() < GET_BATCH {
                    if let Request::Get { tenant, key } = reqs[i] {
                        batch.push((tenant, key));
                        i += 1;
                    } else {
                        break;
                    }
                }
                sum.ops += batch.len() as u64;
                serve_get_batch(&server, wid, &mut store, &ac, &batch, &mut sum).await;
            }
            req => {
                sum.ops += 1;
                // Mutations are worker-serialized sync
                // sections (single-writer-per-key).
                let resp = ac.with(|c| server.with_shard(wid, |w| w.execute(c, req)));
                match resp {
                    Ok(Response::Rejected(_)) => sum.rejected += 1,
                    Ok(_) => {}
                    Err(e) => panic!("session {index}: {e}"),
                }
                i += 1;
            }
        }
    }
    // The session's slot goes back to the registry: left registered it
    // would hold grace back until the lease evicted it, and fill the
    // registry over consecutive runs. A failed release leaves exactly
    // that to the lease.
    let tree = store.tree_stats();
    (sum.hinted_gets, sum.stale_hints) = (tree.hinted_gets, tree.stale_hints);
    // One-time session detach (control plane).
    let _ = ac.with(|c| store.release(c));
    // The shard's seal + reclaim pass (control plane).
    let _ = ac.with(|c| server.with_shard(wid, |w| w.reclaim_pass(c)));
    sum.worker = server.with_shard(wid, |w| w.stats());
    sum
}

/// Serves one admitted batch of gets: hot keys spread over the replica
/// group, cold keys keep primary reads; both halves overlap through the
/// async store path.
async fn serve_get_batch(
    server: &CacheServer,
    wid: usize,
    store: &mut RecordStore,
    ac: &AsyncClient,
    batch: &[(TenantId, u64)],
    sum: &mut SessionSummary,
) {
    // Admission, hot classification and each key's hint: one brief sync
    // section.
    let now = ac.with(|c| c.now_ns());
    let mut cold: Vec<(TenantId, u64)> = Vec::new();
    let mut hot: Vec<(TenantId, u64)> = Vec::new();
    let (mut cold_hints, mut hot_hints) = (Vec::new(), Vec::new());
    // Admission is pure compute.
    ac.with(|c| {
        server.with_shard(wid, |w| {
            w.admit_gets(c, batch, |tenant, admitted| match admitted {
                Ok(AdmittedGet { nskey, spread, hint, seen }) => {
                    let (keys, hints) =
                        if spread { (&mut hot, &mut hot_hints) } else { (&mut cold, &mut cold_hints) };
                    keys.push((tenant, nskey));
                    hints.push((hint, seen));
                }
                Err(_) => sum.rejected += 1,
            })
        })
    })
    .expect("admit");
    for (keys, hints, spread) in [(cold, cold_hints, false), (hot, hot_hints, true)] {
        if keys.is_empty() {
            continue;
        }
        if spread {
            ac.with(|c| c.set_spread_reads(true));
        }
        let nskeys: Vec<u64> = keys.iter().map(|&(_, k)| k).collect();
        let (mut hints, seen): (Vec<_>, Vec<_>) = hints.into_iter().unzip();
        let outcomes =
            store.get_many_async(ac, &nskeys, &mut hints, now).await.expect("get batch");
        if spread {
            ac.with(|c| c.set_spread_reads(false));
        }
        // Outcome booking is pure compute; an expiry
        // unlink is a worker-serialized sync mutation.
        let hits = ac
            .with(|c| server.with_shard(wid, |w| w.finish_gets(c, &keys, &outcomes, &hints, &seen)))
            .expect("get epilogue");
        sum.hits += hits;
        sum.misses += keys.len() as u64 - hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECORD_HEADER;
    use farmem_fabric::{FabricConfig, ReplicaConfig};

    fn deploy(
        fabric: Arc<Fabric>,
        cfg: ServeConfig,
    ) -> (Arc<Fabric>, Arc<FarAlloc>, Arc<CacheServer>) {
        let alloc = FarAlloc::new(fabric.clone());
        let mut c = fabric.client();
        let server = Arc::new(CacheServer::create(&mut c, &alloc, cfg).unwrap());
        (fabric, alloc, server)
    }

    #[test]
    fn tenants_with_colliding_raw_keys_stay_isolated() {
        let (f, _a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        let ta = server.add_tenant(TenantSpec::unlimited("a")).unwrap();
        let tb = server.add_tenant(TenantSpec::unlimited("b")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        w.put(&mut c, ta, 7, b"alpha", None).unwrap();
        w.put(&mut c, tb, 7, b"bravo", None).unwrap();
        assert_eq!(w.get(&mut c, ta, 7).unwrap(), Response::Value(b"alpha".to_vec()));
        assert_eq!(w.get(&mut c, tb, 7).unwrap(), Response::Value(b"bravo".to_vec()));
        // Deleting a's key must not disturb b's record under the same raw key.
        assert_eq!(w.delete(&mut c, ta, 7).unwrap(), Response::Deleted(true));
        assert_eq!(w.get(&mut c, ta, 7).unwrap(), Response::Miss);
        assert_eq!(w.get(&mut c, tb, 7).unwrap(), Response::Value(b"bravo".to_vec()));
        let stats = server.tenant_stats();
        assert_eq!(stats[ta.0 as usize].1.live_records, 0);
        assert_eq!(stats[tb.0 as usize].1.live_records, 1);
    }

    #[test]
    fn op_quota_rejects_deterministically() {
        // Count-only fabric: the virtual clock stays at 0, so every op
        // lands in window 0 and the quota never resets.
        let (f, _a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        let t = server
            .add_tenant(TenantSpec { op_quota: 5, ..TenantSpec::unlimited("capped") })
            .unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        let mut rejected = 0;
        for i in 0..10u64 {
            match w.put(&mut c, t, i, b"x", None).unwrap() {
                Response::Stored => {}
                Response::Rejected(Reject::OpQuota) => rejected += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(rejected, 5);
        let (_, st) = server.tenant_stats()[t.0 as usize];
        assert_eq!((st.admitted_ops, st.rejected_ops), (5, 5));
    }

    #[test]
    fn byte_quota_rejects_before_any_far_write() {
        let (f, a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        // Two 128-byte-class records fit; a third must bounce.
        let t = server
            .add_tenant(TenantSpec { byte_quota: 256, ..TenantSpec::unlimited("tiny") })
            .unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        assert_eq!(w.put(&mut c, t, 0, &[7u8; 100], None).unwrap(), Response::Stored);
        assert_eq!(w.put(&mut c, t, 1, &[7u8; 100], None).unwrap(), Response::Stored);
        let live_before = a.stats().live_bytes;
        assert_eq!(
            w.put(&mut c, t, 2, &[7u8; 100], None).unwrap(),
            Response::Rejected(Reject::ByteQuota)
        );
        assert_eq!(a.stats().live_bytes, live_before, "rejected put must not allocate");
        // Overwriting an existing record stays within quota (net charge 0).
        assert_eq!(w.put(&mut c, t, 0, &[9u8; 100], None).unwrap(), Response::Stored);
        let (_, st) = server.tenant_stats()[t.0 as usize];
        assert_eq!(st.live_bytes, 256);
        assert_eq!(st.rejected_bytes, 1);
    }

    #[test]
    fn a_rejection_names_the_counter_that_moved() {
        let (f, _a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        // One op per window and room for one 128-byte-class record: the
        // second put below is over BOTH quotas. Admission checks ops
        // first, so that is the counter charged and the reason returned.
        let t = server
            .add_tenant(TenantSpec { op_quota: 1, byte_quota: 128, ..TenantSpec::unlimited("both") })
            .unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        let ledger = |server: &CacheServer| {
            let (_, st) = server.tenant_stats()[t.0 as usize];
            (st.rejected_ops, st.rejected_bytes)
        };
        let requests: [(u64, usize); 4] = [(0, 100), (1, 100), (MAX_RAW_KEY + 1, 100), (2, 1 << 20)];
        let mut responses = Vec::new();
        for (key, len) in requests {
            let before = ledger(&server);
            let resp = w.put(&mut c, t, key, &vec![7u8; len], None).unwrap();
            let after = ledger(&server);
            let moved = (after.0 - before.0, after.1 - before.1);
            match resp {
                Response::Stored => assert_eq!(moved, (0, 0)),
                Response::Rejected(Reject::OpQuota) => assert_eq!(moved, (1, 0)),
                Response::Rejected(Reject::ByteQuota) => assert_eq!(moved, (0, 1)),
                // Malformed requests are turned away before either quota.
                Response::Rejected(_) => assert_eq!(moved, (0, 0)),
                other => panic!("unexpected response {other:?}"),
            }
            responses.push(resp);
        }
        assert_eq!(
            responses,
            [
                Response::Stored,
                Response::Rejected(Reject::OpQuota),
                Response::Rejected(Reject::KeyTooLarge),
                Response::Rejected(Reject::ValueTooLarge),
            ]
        );
        assert_eq!(w.stats().rejected, 3);
    }

    #[test]
    fn expired_records_are_never_served_and_come_back_as_bytes() {
        // Default cost model: the virtual clock advances with every far
        // access, so TTLs actually elapse.
        let (f, a, server) =
            deploy(FabricConfig::single_node(256 << 20).build(), ServeConfig::default());
        let t = server.add_tenant(TenantSpec::unlimited("ttl")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        w.put(&mut c, t, 1, &[1u8; 64], Some(10_000)).unwrap();
        w.put(&mut c, t, 2, &[2u8; 64], None).unwrap(); // no TTL
        // Burn virtual time well past the 10 µs TTL.
        while c.now_ns() < 50_000 {
            c.read_u64(farmem_fabric::FarAddr(4096)).unwrap();
        }
        assert_eq!(w.get(&mut c, t, 1).unwrap(), Response::Miss, "expired key served");
        assert_eq!(w.get(&mut c, t, 2).unwrap(), Response::Value(vec![2u8; 64]));
        let (_, st) = server.tenant_stats()[t.0 as usize];
        assert_eq!(st.expired, 1);
        assert_eq!(st.live_records, 1);
        // The sole attached handle seals and frees immediately: the
        // expired record's bytes return to the allocator.
        let freed_before = a.stats().freed_bytes;
        w.reclaim_pass(&mut c).unwrap();
        assert!(
            a.stats().freed_bytes >= freed_before + RECORD_HEADER + 64,
            "expired record bytes not reclaimed"
        );
    }

    /// The owner's hint is the key's current record or nothing: a put
    /// sets it, an overwrite replaces it, and a delete, an eviction and an
    /// expiry take it away with the entry — so an owned key's get is one
    /// far access (two messages) while the key lives and the plain
    /// one-message miss afterwards, never a stale speculation. The same
    /// holds on another shard, which reads the server's table: the unlink
    /// clears the key's slot with the entry.
    #[test]
    fn the_hint_lives_and_dies_with_the_index_entry() {
        let cfg = ServeConfig { worker_byte_budget: 3 * 128, ..ServeConfig::default() };
        let (f, _a, server) = deploy(FabricConfig::single_node(256 << 20).build(), cfg);
        let t = server.add_tenant(TenantSpec::unlimited("hints")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 2, &mut c).unwrap();
        let mut other = server.worker(1, 2, &mut c).unwrap();
        let k: Vec<u64> = (0u64..).filter(|&k| w.owns(t.namespaced(k))).take(6).collect();
        let get = |c: &mut FabricClient, w: &mut ServeWorker, key| {
            let before = c.stats();
            let resp = w.get(c, t, key).unwrap();
            let d = c.stats().since(&before);
            (resp, d.round_trips, d.messages, d.bytes_read)
        };
        const ITEM: u64 = 32;
        let hit = |v: &[u8]| (Response::Value(v.to_vec()), 1, 2, ITEM + RECORD_HEADER + v.len() as u64);
        // The key's bucket holds no other key: once its item is unlinked
        // the `load0` finds the bucket empty and reads nothing behind it.
        let miss = (Response::Miss, 1, 1, 0);

        w.put(&mut c, t, k[0], &[1u8; 100], None).unwrap();
        assert_eq!(get(&mut c, &mut w, k[0]), hit(&[1u8; 100]));
        // Overwrite: the new record's hint, not a wasted read of the old.
        w.put(&mut c, t, k[0], &[2u8; 90], None).unwrap();
        assert_eq!(get(&mut c, &mut w, k[0]), hit(&[2u8; 90]));
        assert_eq!(get(&mut c, &mut other, k[0]), hit(&[2u8; 90]), "the other shard");
        // Delete: the item leaves the chain, nothing is speculated.
        assert_eq!(w.delete(&mut c, t, k[0]).unwrap(), Response::Deleted(true));
        assert_eq!(get(&mut c, &mut w, k[0]), miss);
        assert_eq!(get(&mut c, &mut other, k[0]), miss, "the other shard");
        // Eviction: a fourth 128-byte-class record pushes out the oldest.
        for &key in &k[1..5] {
            w.put(&mut c, t, key, &[key as u8; 100], None).unwrap();
        }
        assert_eq!(w.stats().evicted, 1);
        assert_eq!(get(&mut c, &mut other, k[1]), miss, "the other shard");
        assert_eq!(get(&mut c, &mut w, k[1]), miss);
        assert_eq!(get(&mut c, &mut w, k[4]), hit(&[k[4] as u8; 100]));
        // Expiry: found through the hint, judged on the speculated header,
        // unlinked and retired as through the plain path (the tree's take:
        // 1 + 2 accesses) — and then it is a plain miss.
        w.put(&mut c, t, k[5], &[6u8; 100], Some(10_000)).unwrap();
        let past_ttl = c.now_ns() + 20_000;
        while c.now_ns() < past_ttl {
            c.read_u64(farmem_fabric::FarAddr(4096)).unwrap();
        }
        let (resp, round_trips, ..) = get(&mut c, &mut w, k[5]);
        assert_eq!((resp, round_trips), (Response::Miss, 3));
        assert_eq!(w.stats().expired_unlinked, 1);
        assert_eq!(server.tenant_stats()[t.0 as usize].1.expired, 1);
        assert_eq!(get(&mut c, &mut w, k[5]), miss);
        assert_eq!(get(&mut c, &mut other, k[5]), miss, "the other shard");
    }

    /// Every shard's put fills the server's table and every shard's get
    /// reads it, so another shard's put makes this shard's first get of
    /// the key one far access (two messages), and so does the get after
    /// the owner's overwrite. A record stored past the table — what a put
    /// landing between a get's read of the slot and its lookup looks like
    /// — leaves the key's way stale: one wasted message, the unhinted
    /// price, and the get learns the new record back. The owner's delete
    /// clears the way: a plain one-message miss.
    #[test]
    fn another_shards_put_hints_this_shards_first_get() {
        let (f, _a, server) =
            deploy(FabricConfig::single_node(256 << 20).build(), ServeConfig::default());
        let t = server.add_tenant(TenantSpec::unlimited("shared")).unwrap();
        let mut c = f.client();
        let mut owner = server.worker(0, 2, &mut c).unwrap();
        let mut other = server.worker(1, 2, &mut c).unwrap();
        let key = (0u64..).find(|&k| owner.owns(t.namespaced(k))).unwrap();
        let mut get = |c: &mut FabricClient| {
            let before = c.stats();
            let resp = other.get(c, t, key).unwrap();
            let d = c.stats().since(&before);
            (resp, d.round_trips, d.messages, d.bytes_read)
        };
        const ITEM: u64 = 32;
        let hinted = |len: u64| ITEM + RECORD_HEADER + len;
        let value = |v: &[u8]| Response::Value(v.to_vec());
        owner.put(&mut c, t, key, &[1u8; 100], None).unwrap();
        assert_eq!(get(&mut c), (value(&[1u8; 100]), 1, 2, hinted(100)), "first get");
        owner.put(&mut c, t, key, &[2u8; 90], None).unwrap();
        assert_eq!(get(&mut c), (value(&[2u8; 90]), 1, 2, hinted(90)), "overwritten");
        let shared = server.registry.attach(&mut c, &server.alloc).unwrap();
        let mut past = RecordStore::attach(&mut c, &server.alloc, server.tree, server.cfg.ht, shared).unwrap();
        past.put(&mut c, t.namespaced(key), &[3u8; 80], 0).unwrap();
        let stale = hinted(90) + RecordStore::PREFETCH;
        assert_eq!(get(&mut c), (value(&[3u8; 80]), 2, 3, stale), "stale");
        assert_eq!(get(&mut c), (value(&[3u8; 80]), 1, 2, hinted(80)), "learned");
        owner.delete(&mut c, t, key).unwrap();
        // The item left the chain, and with it the bucket's only key.
        assert_eq!(get(&mut c), (Response::Miss, 1, 1, 0), "deleted");
    }

    /// The session path reads the same table, and the preload fills it:
    /// a session's first get of each of sixteen keys preloaded through a
    /// dropped `worker()` is one far access fewer than when the same
    /// records were stored past the table (chain hops cost both alike).
    #[test]
    fn a_sessions_first_get_of_a_preloaded_key_is_one_far_access() {
        let run = |through_worker: bool| {
            let (f, _a, server) =
                deploy(FabricConfig::single_node(256 << 20).build(), ServeConfig::default());
            let t = server.add_tenant(TenantSpec::unlimited("sessions")).unwrap();
            let mut c = f.client();
            if through_worker {
                let mut w = server.worker(0, 1, &mut c).unwrap();
                for k in 0..16u64 {
                    w.put(&mut c, t, k, &[k as u8; 32], None).unwrap();
                }
            } else {
                let shared = server.registry.attach(&mut c, &server.alloc).unwrap();
                let mut s =
                    RecordStore::attach(&mut c, &server.alloc, server.tree, server.cfg.ht, shared).unwrap();
                for k in 0..16u64 {
                    s.put(&mut c, t.namespaced(k), &[k as u8; 32], 0).unwrap();
                }
            }
            let results = server.run_sessions(1, move |_| {
                (0..16).map(|key| Request::Get { tenant: t, key }).collect()
            });
            let out = &results[0].output;
            assert_eq!(out.hits, 16);
            (results[0].stats.round_trips, out.hinted_gets, out.stale_hints)
        };
        let ((hinted, gets, stale), (unhinted, no_gets, _)) = (run(true), run(false));
        assert_eq!(unhinted - hinted, 16, "one far access saved per get");
        assert_eq!((gets, stale, no_gets), (16, 0, 0), "every get hinted and fresh");
    }

    /// The server's table keeps the hint of every preloaded key: a
    /// one-worker run whose sessions get each of 4 × 8,000 keys once,
    /// preloaded tenant by tenant through a dropped `worker()`, so every
    /// get reads the table. No get goes unhinted; a direct-mapped table of
    /// the same 2^18 words, which loses a key's hint to every later put or
    /// learn into its slot, left 3,646 of these 32,000 gets unhinted.
    #[test]
    fn a_session_finds_the_hint_of_every_preloaded_key() {
        const KEYS: u64 = 8_000;
        const SESSIONS: usize = 8;
        let cfg = ServeConfig { reclaim_slots: SESSIONS as u64 + 4, ..ServeConfig::default() };
        let (f, _a, server) = deploy(FabricConfig::single_node(256 << 20).build(), cfg);
        let tenant = |name| server.add_tenant(TenantSpec::unlimited(name)).unwrap();
        let tenants = ["a", "b", "c", "d"].map(tenant);
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        for t in tenants {
            for k in 0..KEYS {
                w.put(&mut c, t, k, &[k as u8; 32], None).unwrap();
            }
        }
        drop(w);
        let results = server.run_sessions(SESSIONS, move |s| {
            let gets = |t| (0..KEYS).map(move |key| Request::Get { tenant: t, key });
            tenants.into_iter().flat_map(gets).skip(s).step_by(SESSIONS).collect()
        });
        let sum = |f: fn(&SessionSummary) -> u64| results.iter().map(|r| f(&r.output)).sum::<u64>();
        assert_eq!(sum(|o| o.hits), 4 * KEYS, "every get a hit");
        assert_eq!(sum(|o| o.hinted_gets), 4 * KEYS, "every get hinted");
    }

    #[test]
    fn eviction_keeps_worker_footprint_under_budget() {
        let cfg = ServeConfig {
            worker_byte_budget: 8 << 10,
            reclaim_every: 16,
            ..ServeConfig::default()
        };
        let (f, a, server) = deploy(FabricConfig::count_only(256 << 20).build(), cfg);
        let t = server.add_tenant(TenantSpec::unlimited("churn")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        for i in 0..200u64 {
            w.put(&mut c, t, i, &[i as u8; 240], None).unwrap();
            assert!(w.footprint() <= 8 << 10, "watermark breached at insert {i}");
        }
        let st = w.stats();
        assert!(st.evicted >= 150, "only {} evictions", st.evicted);
        w.reclaim_pass(&mut c).unwrap();
        // Record bytes (the 256-byte slab class here: 16 B header + 240 B
        // payload) plateau at the watermark — 32 records — not at the 200
        // inserted. Tree entry metadata is excluded: it lives in other
        // classes and compacts on bucket splits, not per-remove.
        let records = a
            .class_stats()
            .into_iter()
            .find(|cs| cs.class == 256)
            .expect("record class populated");
        assert!(
            records.live <= 34,
            "{} records live: eviction is not freeing the plateau",
            records.live
        );
        // And the evicted records' bytes really returned to the allocator.
        assert!(
            a.stats().freed_bytes >= st.evicted * 256,
            "freed {} < evicted {} × 256",
            a.stats().freed_bytes,
            st.evicted
        );
        // LRU order: the most recent keys survive.
        assert_eq!(w.get(&mut c, t, 199).unwrap(), Response::Value(vec![199u8; 240]));
        assert_eq!(w.get(&mut c, t, 0).unwrap(), Response::Miss);
    }

    #[test]
    fn hot_reads_spread_over_the_replica_group() {
        let fabric = FabricConfig {
            replication: ReplicaConfig::mirrored(3),
            ..FabricConfig::single_node(256 << 20)
        }
        .build();
        let cfg = ServeConfig { hot_min_ops: 64, hot_ppm: 100_000, ..ServeConfig::default() };
        let (f, _a, server) = deploy(fabric, cfg);
        let t = server.add_tenant(TenantSpec::unlimited("hot")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        w.put(&mut c, t, 42, &[7u8; 64], None).unwrap();
        for _ in 0..512 {
            assert_eq!(w.get(&mut c, t, 42).unwrap(), Response::Value(vec![7u8; 64]));
        }
        let st = w.stats();
        assert!(st.hot_gets > 300, "hot key not detected: {} hot gets", st.hot_gets);
        assert_eq!(st.spread_gets, st.hot_gets, "replicated fabric must spread hot gets");
        // All three mirrors served read traffic.
        let msgs: Vec<u64> = f.nodes().iter().map(|n| n.occupancy().messages).collect();
        assert!(
            msgs.iter().all(|&m| m > 50),
            "replica read spread uneven: {msgs:?}"
        );
    }

    #[test]
    fn mutations_routed_to_the_wrong_worker_are_refused() {
        let (f, _a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        let t = server.add_tenant(TenantSpec::unlimited("routed")).unwrap();
        let mut c = f.client();
        let workers = 4;
        let mut w0 = server.worker(0, workers, &mut c).unwrap();
        // Find a key w0 does not own.
        let foreign = (0..100u64)
            .find(|&k| server.owner_of(t.namespaced(k), workers) != 0)
            .unwrap();
        assert_eq!(w0.put(&mut c, t, foreign, b"x", None), Err(ServeError::NotOwner));
        // Gets may be served by any worker.
        assert_eq!(w0.get(&mut c, t, foreign).unwrap(), Response::Miss);
    }

    #[test]
    fn run_sessions_multiplexes_and_is_deterministic() {
        let run = || {
            let (f, _a, server) =
                deploy(FabricConfig::single_node(256 << 20).build(), ServeConfig::default());
            let t = server.add_tenant(TenantSpec::unlimited("mux")).unwrap();
            // Preload through a sync worker so sessions read real data.
            let mut c = f.client();
            let mut w = server.worker(0, 1, &mut c).unwrap();
            for k in 0..64u64 {
                w.put(&mut c, t, k, &[k as u8; 32], None).unwrap();
            }
            drop(w);
            let results = server.run_sessions(8, move |s| {
                (0..32u64)
                    .map(|i| Request::Get { tenant: t, key: (s as u64 * 7 + i) % 64 })
                    .collect()
            });
            assert_eq!(results.len(), 8);
            let mut hits = 0;
            for r in &results {
                assert_eq!(r.output.ops, 32);
                hits += r.output.hits;
            }
            assert_eq!(hits, 8 * 32, "preloaded keys must all hit");
            results.iter().map(|r| (r.index, r.output.hits, r.clock_ns)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "session runs must be deterministic");
    }

    /// A session gives its epoch slot back when it ends and the server's
    /// shards attach once, so any number of `run_sessions` calls through
    /// one server fit in `n + workers + 1` slots: one per session of a
    /// call, one per shard, and the preloading worker's. Six calls of `n`
    /// run more than four times that many sessions.
    #[test]
    fn consecutive_session_runs_reuse_the_sessions_slots() {
        let (n, workers) = (8usize, 2usize);
        let slots = n + workers + 1;
        let cfg = ServeConfig {
            reclaim_slots: slots as u64,
            n_workers: workers,
            ..ServeConfig::default()
        };
        let (f, _a, server) = deploy(FabricConfig::count_only(256 << 20).build(), cfg);
        let t = server.add_tenant(TenantSpec::unlimited("runs")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        for k in 0..16u64 {
            w.put(&mut c, t, k, &[k as u8; 16], None).unwrap();
        }
        let calls = (4 * slots).div_ceil(n);
        assert!(calls >= 4);
        for run in 0..calls {
            let results = server.run_sessions(n, move |s| {
                (0..16u64).map(|i| Request::Get { tenant: t, key: (s as u64 + i) % 16 }).collect()
            });
            let hits: u64 = results.iter().map(|r| r.output.hits).sum();
            assert_eq!(hits, (n * 16) as u64, "run {run}");
        }
    }

    /// The shards outlive a call, so the byte budget holds across calls:
    /// the second call's puts evict what the first call stored, and the
    /// record class ends at one budget per shard, not one per call.
    #[test]
    fn the_byte_budget_holds_across_calls() {
        const RECORD: u64 = 256; // 16-B header + 240-B value
        let (workers, budget) = (2usize, 32 * RECORD);
        let cfg = ServeConfig {
            worker_byte_budget: budget,
            n_workers: workers,
            ..ServeConfig::default()
        };
        let (_f, a, server) = deploy(FabricConfig::count_only(256 << 20).build(), cfg);
        let t = server.add_tenant(TenantSpec::unlimited("budget")).unwrap();
        // Each call stores 32 keys per shard on average — about a budget
        // — each through a session of its owning shard.
        let call = |keys: std::ops::Range<u64>| {
            server.run_sessions(workers, move |s| {
                keys.clone()
                    .filter(|&k| owner_shard(t.namespaced(k), workers) == s)
                    .map(|k| Request::Put { tenant: t, key: k, value: vec![k as u8; 240], ttl_ns: None })
                    .collect()
            })
        };
        call(0..64);
        let (mut indexed, mut evicted) = (0, 0);
        for r in call(64..128) {
            let w = r.output.worker;
            assert!(w.charged_bytes <= budget, "shard {}: {} B charged", w.wid, w.charged_bytes);
            indexed += w.charged_bytes / RECORD;
            evicted += w.evicted;
        }
        // The evicted records wait in the shards' limbo: a shard's slot
        // moves only in its own reclaim pass (DESIGN §8), so the one that
        // finished last waits for the other's next pass. Two calls of
        // empty sessions run two more passes per shard, enough in either
        // order.
        for _ in 0..2 {
            call(0..0);
        }
        let records = a.class_stats().into_iter().find(|cs| cs.class == RECORD).unwrap();
        let bound = workers as u64 * (budget + RECORD);
        assert!(records.live_bytes <= bound, "{} B of records live, bound {bound}", records.live_bytes);
        assert_eq!(indexed + evicted, 128, "every record stored is indexed or evicted");
    }
}
