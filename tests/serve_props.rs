//! Properties of the serving front end (DESIGN.md §13).
//!
//! The serving layer's contracts are stated here as properties over
//! arbitrary request streams: tenant namespaces never leak into each
//! other no matter how raw keys collide, admission control is a pure
//! function of the request sequence and the virtual clock (two runs of
//! the same stream reject identically), a record past its TTL is never
//! served, and the LRU watermark bounds a worker's footprint while its
//! unbounded twin grows without limit (the E15 twin-run pattern). The
//! worker's recency index is held to the structure it replaced (a map
//! plus a `(tick, key)` set), and a whole worker under a binding budget
//! and TTLs to a straight-line reference LRU, eviction for eviction.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use farmem::prelude::*;
use farmem::serve::{charged_bytes, KeyMeta, RecencyIndex, Reject, TenantStats, WorkerStats};
use farmem_fabric::Fabric;
use proptest::prelude::*;

fn deploy(fabric: Arc<Fabric>, cfg: ServeConfig) -> (Arc<Fabric>, Arc<FarAlloc>, Arc<CacheServer>) {
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let server = Arc::new(CacheServer::create(&mut c, &alloc, cfg).unwrap());
    (fabric, alloc, server)
}

// --- tenant isolation ----------------------------------------------------

/// One request against a small raw-key space shared by every tenant, so
/// cross-tenant collisions are the common case, not the corner case.
#[derive(Debug, Clone)]
enum TOp {
    Put(usize, u64, u8),
    Get(usize, u64),
    Delete(usize, u64),
}

const TENANTS: usize = 3;

fn tenant_op() -> impl Strategy<Value = TOp> {
    prop_oneof![
        ((0..TENANTS), (0u64..8), (1u8..32)).prop_map(|(t, k, l)| TOp::Put(t, k, l)),
        ((0..TENANTS), (0u64..8)).prop_map(|(t, k)| TOp::Get(t, k)),
        ((0..TENANTS), (0u64..8)).prop_map(|(t, k)| TOp::Delete(t, k)),
    ]
}

// --- TTL -----------------------------------------------------------------

/// A TTL-program step: store a key with a bounded TTL, advance the
/// virtual clock, or probe a key.
#[derive(Debug, Clone)]
enum TtlOp {
    Put(u64, u64),
    Advance(u64),
    Get(u64),
}

fn ttl_op() -> impl Strategy<Value = TtlOp> {
    prop_oneof![
        ((0u64..6), (1_000u64..50_000)).prop_map(|(k, ttl)| TtlOp::Put(k, ttl)),
        (1_000u64..30_000).prop_map(TtlOp::Advance),
        (0u64..6).prop_map(TtlOp::Get),
    ]
}

// --- recency index vs the structure it replaced ---------------------------

/// One step against the recency index, over a 16-key space so touches,
/// overwrites and removals of present keys are common and freed slab
/// slots are reused all the time.
#[derive(Debug, Clone)]
enum IxOp {
    Insert(u64, u16, u64),
    Touch(u64),
    Remove(u64),
    PopOldest,
}

fn ix_op() -> impl Strategy<Value = IxOp> {
    prop_oneof![
        ((0u64..16), (0u16..4), (1u64..5000)).prop_map(|(k, t, c)| IxOp::Insert(k, t, c)),
        ((0u64..16), (0u16..4), (1u64..5000)).prop_map(|(k, t, c)| IxOp::Insert(k, t, c)),
        (0u64..16).prop_map(IxOp::Touch),
        (0u64..16).prop_map(IxOp::Touch),
        (0u64..16).prop_map(IxOp::Remove),
        Just(IxOp::PopOldest),
    ]
}

/// What `ServeWorker` kept before the recency index: metadata by key,
/// and recency as a set of `(tick, key)` with a fresh tick per access.
#[derive(Default)]
struct TickLru {
    meta: HashMap<u64, (u64, KeyMeta)>,
    lru: BTreeSet<(u64, u64)>,
    tick: u64,
}

impl TickLru {
    fn insert(&mut self, key: u64, meta: KeyMeta) -> Option<KeyMeta> {
        self.tick += 1;
        let old = self.meta.insert(key, (self.tick, meta));
        if let Some((tick, _)) = old {
            self.lru.remove(&(tick, key));
        }
        self.lru.insert((self.tick, key));
        old.map(|(_, o)| o)
    }

    fn touch(&mut self, key: u64) -> bool {
        let Some((tick, _)) = self.meta.get_mut(&key) else { return false };
        self.lru.remove(&(*tick, key));
        self.tick += 1;
        *tick = self.tick;
        self.lru.insert((self.tick, key));
        true
    }

    fn remove(&mut self, key: u64) -> Option<KeyMeta> {
        let (tick, meta) = self.meta.remove(&key)?;
        self.lru.remove(&(tick, key));
        Some(meta)
    }

    fn oldest(&self) -> Option<u64> {
        self.lru.iter().next().map(|&(_, key)| key)
    }
}

// --- a whole worker vs a straight-line reference LRU ----------------------

/// One step of the budget + TTL program: two tenants over an 8-key raw
/// space, three slab classes, TTLs a few dozen operations long.
#[derive(Debug, Clone)]
enum LruOp {
    /// `(tenant, key, value length, ttl override; 0 = tenant default)`.
    Put(usize, u64, usize, u64),
    Get(usize, u64),
    Delete(usize, u64),
    Advance(u64),
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    let put = || {
        ((0usize..2), (0u64..8), (0usize..3), prop_oneof![Just(0u64), 30_000u64..300_000])
            .prop_map(|(t, k, class, ttl)| LruOp::Put(t, k, [40, 100, 230][class], ttl))
    };
    prop_oneof![
        put(),
        put(),
        put(),
        ((0usize..2), (0u64..8)).prop_map(|(t, k)| LruOp::Get(t, k)),
        ((0usize..2), (0u64..8)).prop_map(|(t, k)| LruOp::Get(t, k)),
        ((0usize..2), (0u64..8)).prop_map(|(t, k)| LruOp::Get(t, k)),
        ((0usize..2), (0u64..8)).prop_map(|(t, k)| LruOp::Delete(t, k)),
        (5_000u64..60_000).prop_map(LruOp::Advance),
    ]
}

/// The reference: recency as a plain `Vec` (front = oldest), every rule
/// of `ServeWorker` written out in program order.
struct RefWorker {
    budget: u64,
    reclaim_every: u64,
    /// `(tenant, key)` oldest first.
    order: Vec<(usize, u64)>,
    /// `(charged, expiry_ns, value)`.
    records: HashMap<(usize, u64), (u64, u64, Vec<u8>)>,
    stats: WorkerStats,
    ledgers: [TenantStats; 2],
    mutations: u64,
}

impl RefWorker {
    fn admitted(&mut self, t: usize) {
        self.stats.ops += 1;
        self.ledgers[t].admitted_ops += 1;
    }

    fn mutated(&mut self) {
        self.mutations += 1;
        if self.mutations >= self.reclaim_every {
            self.mutations = 0;
            self.stats.reclaim_passes += 1;
        }
    }

    /// Drops a record from the books; the caller says why.
    fn unindex(&mut self, id: (usize, u64)) -> Option<u64> {
        let (charged, ..) = self.records.remove(&id)?;
        self.order.retain(|&o| o != id);
        self.stats.charged_bytes -= charged;
        self.ledgers[id.0].live_bytes -= charged;
        self.ledgers[id.0].live_records -= 1;
        Some(charged)
    }

    /// Returns the keys the put evicted, in eviction order.
    fn put(&mut self, t: usize, key: u64, value: Vec<u8>, expiry: u64) -> Vec<(usize, u64)> {
        self.admitted(t);
        if self.unindex((t, key)).is_some() {
            self.ledgers[t].overwritten += 1;
        }
        let charged = charged_bytes(value.len() as u64);
        self.records.insert((t, key), (charged, expiry, value));
        self.order.push((t, key));
        self.stats.charged_bytes += charged;
        self.stats.peak_charged_bytes = self.stats.peak_charged_bytes.max(self.stats.charged_bytes);
        self.ledgers[t].live_bytes += charged;
        self.ledgers[t].live_records += 1;
        self.ledgers[t].stored += 1;
        let mut evicted = Vec::new();
        while self.stats.charged_bytes > self.budget && !self.order.is_empty() {
            let victim = self.order[0];
            self.unindex(victim);
            self.ledgers[victim.0].evicted += 1;
            self.stats.evicted += 1;
            evicted.push(victim);
        }
        self.mutated();
        evicted
    }

    fn get(&mut self, t: usize, key: u64, now: u64) -> Response {
        self.admitted(t);
        match self.records.get(&(t, key)) {
            Some(&(_, expiry, ref value)) if expiry == 0 || now < expiry => {
                let value = value.clone();
                self.order.retain(|&o| o != (t, key));
                self.order.push((t, key));
                self.stats.hits += 1;
                self.ledgers[t].hits += 1;
                return Response::Value(value);
            }
            Some(_) => {
                self.unindex((t, key));
                self.ledgers[t].expired += 1;
                self.stats.expired_unlinked += 1;
                self.mutated();
            }
            None => {}
        }
        self.stats.misses += 1;
        self.ledgers[t].misses += 1;
        Response::Miss
    }

    fn delete(&mut self, t: usize, key: u64) -> Response {
        self.admitted(t);
        let existed = self.unindex((t, key)).is_some();
        self.ledgers[t].deleted += u64::from(existed);
        self.mutated();
        Response::Deleted(existed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The recency index is the `HashMap` + `BTreeSet<(tick, key)>` pair
    /// it replaced, operation for operation: same returned metadata, same
    /// oldest key after every step (so the same eviction order), and the
    /// linked list always threads exactly the indexed keys — also right
    /// after removals, when new keys land in reused slab slots.
    #[test]
    fn recency_index_matches_the_tick_ordered_set(ops in prop::collection::vec(ix_op(), 1..200)) {
        // Hints are minted by puts only: a pool of distinct ones, so an
        // entry handing back another entry's hint is a mismatch.
        let hints: Vec<RecordHint> = {
            let f = FabricConfig::count_only(1 << 20).build();
            let alloc = FarAlloc::new(f.clone());
            let mut c = f.client();
            let mut m: FarBlobMap =
                FarBlobMap::create(&mut c, &alloc, HtTreeConfig::default()).unwrap();
            (0..16).map(|len| m.put(&mut c, len, [], &vec![0; len as usize]).unwrap().1).collect()
        };
        let mut ix = RecencyIndex::new();
        let mut model = TickLru::default();
        for op in &ops {
            match *op {
                IxOp::Insert(k, t, charged) => {
                    let hint = hints[charged as usize % hints.len()];
                    let meta = KeyMeta { tenant: TenantId(t), charged, hint };
                    prop_assert_eq!(ix.insert(k, meta), model.insert(k, meta));
                }
                IxOp::Touch(k) => prop_assert_eq!(ix.touch(k), model.touch(k)),
                IxOp::Remove(k) => prop_assert_eq!(ix.remove(k), model.remove(k)),
                IxOp::PopOldest => {
                    let oldest = ix.oldest();
                    prop_assert_eq!(oldest, model.oldest());
                    if let Some(k) = oldest {
                        prop_assert_eq!(ix.remove(k), model.remove(k));
                    }
                }
            }
            prop_assert_eq!(ix.oldest(), model.oldest());
            prop_assert_eq!(ix.len(), model.meta.len());
            let listed: Vec<u64> = ix.iter().collect();
            let ticked: Vec<u64> = model.lru.iter().map(|&(_, k)| k).collect();
            prop_assert_eq!(listed, ticked, "list order must be tick order");
            for (k, (_, meta)) in &model.meta {
                prop_assert_eq!(ix.get(*k), Some(*meta));
            }
        }
    }

    /// A worker under a binding byte budget and TTLs is a straight-line
    /// LRU: over an arbitrary put/get/delete stream with clock advances,
    /// every response, the key of every eviction (probed right after the
    /// put that caused it — an evicted key must miss), the worker's
    /// counters and both tenants' ledgers equal the reference's.
    #[test]
    fn a_budgeted_worker_with_ttls_is_a_straight_line_lru(
        ops in prop::collection::vec(lru_op(), 1..120),
    ) {
        const BUDGET: u64 = 768;
        const DEFAULT_TTL: u64 = 150_000;
        let cfg = ServeConfig {
            worker_byte_budget: BUDGET,
            reclaim_every: 8,
            spread_hot_reads: false,
            ..ServeConfig::default()
        };
        // Default cost model: far accesses move the virtual clock.
        let (f, _a, server) = deploy(FabricConfig::single_node(64 << 20).build(), cfg);
        let ids: Vec<TenantId> = ["a", "b"]
            .iter()
            .map(|n| {
                let spec = TenantSpec { default_ttl_ns: DEFAULT_TTL, ..TenantSpec::unlimited(n) };
                server.add_tenant(spec).unwrap()
            })
            .collect();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        let mut model = RefWorker {
            budget: BUDGET,
            reclaim_every: cfg.reclaim_every,
            order: Vec::new(),
            records: HashMap::new(),
            stats: WorkerStats::default(),
            ledgers: [TenantStats::default(); 2],
            mutations: 0,
        };
        for op in &ops {
            // The worker reads the clock before its first far access.
            let now = c.now_ns();
            match *op {
                LruOp::Put(t, k, len, ttl) => {
                    let value = vec![0xB0 + t as u8; len];
                    let ttl_arg = (ttl != 0).then_some(ttl);
                    prop_assert_eq!(
                        w.put(&mut c, ids[t], k, &value, ttl_arg).unwrap(),
                        Response::Stored
                    );
                    let expiry = now + if ttl == 0 { DEFAULT_TTL } else { ttl };
                    let evicted = model.put(t, k, value, expiry);
                    // The same keys, in the same number, left the worker.
                    prop_assert_eq!(w.stats().evicted, model.stats.evicted);
                    for (et, ek) in evicted {
                        let now = c.now_ns();
                        prop_assert_eq!(
                            w.get(&mut c, ids[et], ek).unwrap(),
                            model.get(et, ek, now),
                            "tenant {} key {} should have been evicted", et, ek
                        );
                    }
                }
                LruOp::Get(t, k) => {
                    prop_assert_eq!(w.get(&mut c, ids[t], k).unwrap(), model.get(t, k, now));
                }
                LruOp::Delete(t, k) => {
                    prop_assert_eq!(w.delete(&mut c, ids[t], k).unwrap(), model.delete(t, k));
                }
                LruOp::Advance(ns) => c.advance_time(ns),
            }
            prop_assert!(w.footprint() <= BUDGET);
        }
        // Freed bytes depend on grace detection, which the reference does
        // not model; every other counter must agree.
        let got = w.stats();
        prop_assert_eq!(got, WorkerStats { freed_bytes: got.freed_bytes, ..model.stats });
        for (t, id) in ids.iter().enumerate() {
            let (_, ledger) = server.tenant_stats()[id.0 as usize];
            prop_assert_eq!(ledger, model.ledgers[t], "tenant {} ledger", t);
        }
    }

    /// Tenant isolation as a property: run an arbitrary interleaving of
    /// puts/gets/deletes from three tenants over one colliding 8-key raw
    /// keyspace against a per-(tenant, key) model. Every value carries
    /// its tenant's marker byte, so any namespace leak — serving another
    /// tenant's record, a delete crossing namespaces — shows up as a
    /// model mismatch. The per-tenant ledger must close exactly at the
    /// end.
    #[test]
    fn colliding_raw_keys_never_leak_across_tenants(ops in prop::collection::vec(tenant_op(), 1..48)) {
        let (f, _a, server) =
            deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
        let ids: Vec<TenantId> = ["a", "b", "c"]
            .iter()
            .map(|n| server.add_tenant(TenantSpec::unlimited(n)).unwrap())
            .collect();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        let mut model: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                TOp::Put(t, k, len) => {
                    let v = vec![0xA0 + t as u8; len as usize];
                    prop_assert_eq!(
                        w.put(&mut c, ids[t], k, &v, None).unwrap(),
                        Response::Stored
                    );
                    model.insert((t, k), v);
                }
                TOp::Get(t, k) => {
                    let want = match model.get(&(t, k)) {
                        Some(v) => Response::Value(v.clone()),
                        None => Response::Miss,
                    };
                    prop_assert_eq!(w.get(&mut c, ids[t], k).unwrap(), want);
                }
                TOp::Delete(t, k) => {
                    let want = Response::Deleted(model.remove(&(t, k)).is_some());
                    prop_assert_eq!(w.delete(&mut c, ids[t], k).unwrap(), want);
                }
            }
        }
        for (t, id) in ids.iter().enumerate() {
            let (_, st) = server.tenant_stats()[id.0 as usize];
            let live = model.keys().filter(|(mt, _)| *mt == t).count() as u64;
            prop_assert_eq!(st.live_records, live, "tenant {} record count", t);
            prop_assert_eq!(
                st.stored - st.overwritten - st.deleted - st.expired - st.evicted,
                st.live_records,
                "tenant {} ledger must close", t
            );
        }
    }

    /// Admission control is deterministic: the same request stream
    /// against the same quotas on a fresh deployment produces the same
    /// response sequence, byte for byte — rejections included. On a
    /// count-only fabric the clock never moves, so the op-quota window
    /// never resets and the property is exact. Live bytes never exceed
    /// the quota at any point.
    #[test]
    fn quota_rejection_is_a_pure_function_of_the_stream(
        ops in prop::collection::vec(((0u64..12), (1u8..64)), 1..32),
        op_quota in 1u64..16,
        byte_quota in prop_oneof![Just(256u64), Just(512), Just(1024)],
    ) {
        let run = || {
            let (f, _a, server) =
                deploy(FabricConfig::count_only(256 << 20).build(), ServeConfig::default());
            let t = server
                .add_tenant(TenantSpec { op_quota, byte_quota, ..TenantSpec::unlimited("q") })
                .unwrap();
            let mut c = f.client();
            let mut w = server.worker(0, 1, &mut c).unwrap();
            let mut out = Vec::new();
            for &(k, len) in &ops {
                let r = w.put(&mut c, t, k, &vec![7u8; len as usize], None).unwrap();
                let (_, st) = server.tenant_stats()[t.0 as usize];
                assert!(st.live_bytes <= byte_quota, "quota overshot: {}", st.live_bytes);
                out.push(r);
            }
            out
        };
        let (first, second) = (run(), run());
        prop_assert_eq!(&first, &second, "identical streams must reject identically");
        for r in &first {
            prop_assert!(
                matches!(
                    r,
                    Response::Stored
                        | Response::Rejected(Reject::ByteQuota)
                        | Response::Rejected(Reject::OpQuota)
                ),
                "unexpected response {:?}", r
            );
        }
    }

    /// A record past its TTL is never served, under arbitrary
    /// interleavings of stores, virtual-clock advances, and probes. The
    /// model tracks a conservative deadline (clock *after* the put plus
    /// the TTL): once the clock passes it the record is expired for
    /// certain and every probe must miss. The serving direction is
    /// one-sided by design — a get's own far accesses advance the clock,
    /// so a value observed close to its deadline may legally expire
    /// mid-probe, but a hit after the deadline is a contract violation.
    #[test]
    fn expired_records_are_never_served(ops in prop::collection::vec(ttl_op(), 1..40)) {
        let (f, _a, server) =
            deploy(FabricConfig::single_node(64 << 20).build(), ServeConfig::default());
        let t = server.add_tenant(TenantSpec::unlimited("ttl")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        // Upper bound on each key's expiry deadline (absent = not stored).
        let mut deadline: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                TtlOp::Put(k, ttl) => {
                    prop_assert_eq!(
                        w.put(&mut c, t, k, &[k as u8; 16], Some(ttl)).unwrap(),
                        Response::Stored
                    );
                    deadline.insert(k, c.now_ns() + ttl);
                }
                TtlOp::Advance(ns) => c.advance_time(ns),
                TtlOp::Get(k) => {
                    let now = c.now_ns();
                    let r = w.get(&mut c, t, k).unwrap();
                    match deadline.get(&k) {
                        Some(&d) if now >= d => {
                            prop_assert_eq!(r, Response::Miss, "served {} past its TTL", k);
                            deadline.remove(&k);
                        }
                        Some(_) => prop_assert!(
                            matches!(r, Response::Value(_) | Response::Miss),
                            "stored key {} answered {:?}", k, r
                        ),
                        None => prop_assert_eq!(r, Response::Miss),
                    }
                }
            }
        }
        let (_, st) = server.tenant_stats()[t.0 as usize];
        prop_assert_eq!(
            st.stored - st.overwritten - st.deleted - st.expired - st.evicted,
            st.live_records
        );
    }
}

// --- bounded footprint (twin run) ----------------------------------------

/// The E15 twin-run pattern, applied to the LRU watermark: one worker
/// runs an all-distinct-key churn stream under an 8 KiB budget, its twin
/// runs the identical stream unbounded. The budgeted worker's charged
/// footprint must never exceed the budget (a plateau), the twin must
/// grow past double that plateau (proving the stream really applies
/// pressure), and every evicted record's bytes must reach the allocator.
#[test]
fn lru_watermark_bounds_footprint_where_the_twin_grows() {
    const BUDGET: u64 = 8 << 10;
    const CHURN: u64 = 600;
    let run = |budget: u64| {
        let cfg = ServeConfig { worker_byte_budget: budget, ..ServeConfig::default() };
        let (f, a, server) = deploy(FabricConfig::count_only(256 << 20).build(), cfg);
        let t = server.add_tenant(TenantSpec::unlimited("churn")).unwrap();
        let mut c = f.client();
        let mut w = server.worker(0, 1, &mut c).unwrap();
        let mut peak = 0u64;
        for i in 0..CHURN {
            w.put(&mut c, t, i, &[i as u8; 240], None).unwrap();
            if i % 64 == 63 {
                w.reclaim_pass(&mut c).unwrap();
                peak = peak.max(w.footprint());
                if budget != u64::MAX {
                    assert!(
                        w.footprint() <= budget,
                        "budgeted footprint {} exceeded {}",
                        w.footprint(),
                        budget
                    );
                }
            }
        }
        w.reclaim_pass(&mut c).unwrap();
        let st = w.stats();
        (peak, st, a.stats().freed_bytes)
    };

    let (bounded_peak, bounded_stats, freed) = run(BUDGET);
    let (unbounded_peak, unbounded_stats, _) = run(u64::MAX);

    assert!(bounded_stats.evicted > 0, "the churn stream never forced an eviction");
    assert_eq!(unbounded_stats.evicted, 0, "the unbounded twin must never evict");
    assert!(
        unbounded_peak >= 2 * bounded_peak,
        "twin peak {unbounded_peak} vs bounded plateau {bounded_peak}: no real pressure"
    );
    // Every evicted 240-byte record is charged at the 256-byte class and
    // its bytes must come back through reclamation.
    assert!(
        freed >= bounded_stats.evicted * 256,
        "freed {} B for {} evictions",
        freed,
        bounded_stats.evicted
    );
}
