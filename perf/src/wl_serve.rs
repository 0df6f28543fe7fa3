//! The three synchronous `serve` workloads: one thread calling
//! `ServeWorker::execute` in a closed loop (a request is a function
//! call that returns its reply, so the next one cannot start early).

use std::collections::HashMap;
use std::sync::Arc;

use farmem_alloc::FarAlloc;
use farmem_core::{HtTree, HtTreeConfig};
use farmem_fabric::{Fabric, FabricClient, FarAddr, NodeId};
use farmem_reclaim::ReclaimRegistry;
use farmem_serve::{
    charged_bytes, CacheServer, GetOutcome, RecordStore, Request, Response, ServeConfig,
    ServeWorker, TenantId, TenantSpec, RECORD_HEADER,
};

use crate::counts::Counters;
use crate::pctl;
use crate::report::Results;
use crate::rng::{Rng, Zipf};
use crate::round::{drive, drive_spanned, Mode, RoundOut, SpanLog, SpannedOut};
use crate::workload::{fabric_of, fnv, Instance, Workload, NODE_CAPACITY};
use crate::{ctx, Fail};

/// Share of the fabric `FarAlloc::new` gives to per-node page pools
/// (the rest backs the striped region, which slab classes never use).
const NODE_POOL_SHARE: f64 = 0.75;
/// Carved bytes an epoch may plan to reach, as a share of the pools.
const CARVE_PLAN_SHARE: f64 = 0.5;
/// Carved share past which a run aborts instead of running out.
const CARVE_ABORT_SHARE: f64 = 0.75;

/// Parameters of one sync serve workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Tenants; each stores the same raw keys (colliding on purpose).
    pub tenants: u16,
    /// Raw keys per tenant (records = tenants × raw keys).
    pub raw_keys: u64,
    /// Value payload bytes.
    pub value_len: usize,
    /// Percent of requests that are gets.
    pub get_pct: u64,
    /// Percent that are puts (the rest are deletes).
    pub put_pct: u64,
    /// `ServeConfig::worker_byte_budget`.
    pub byte_budget: u64,
    /// Tenant default TTL in virtual ns (0 = none).
    pub ttl_ns: u64,
    /// Requests in the vector = ops per round.
    pub ops_per_round: usize,
    /// Timed rounds per epoch (an upper bound on `serve-churn`).
    pub rounds_per_epoch: usize,
    /// Bytes of far memory per node.
    pub node_capacity: u64,
}

impl ServeSpec {
    /// The spec of the named workload, shrunk when `smoke`.
    pub fn named(name: &str, smoke: bool) -> Option<ServeSpec> {
        let unlimited = u64::MAX;
        let full = match name {
            "serve-get-small" => ServeSpec {
                name: "serve-get-small",
                tenants: 4,
                raw_keys: 50_000,
                value_len: 64,
                get_pct: 100,
                put_pct: 0,
                byte_budget: unlimited,
                ttl_ns: 0,
                ops_per_round: 250_000,
                rounds_per_epoch: 6,
                node_capacity: NODE_CAPACITY,
            },
            "serve-get-large" => ServeSpec {
                name: "serve-get-large",
                tenants: 4,
                raw_keys: 12_500,
                value_len: 4096,
                get_pct: 100,
                put_pct: 0,
                byte_budget: unlimited,
                ttl_ns: 0,
                ops_per_round: 75_000,
                rounds_per_epoch: 6,
                node_capacity: NODE_CAPACITY,
            },
            "serve-churn" => ServeSpec {
                name: "serve-churn",
                tenants: 4,
                raw_keys: 25_000,
                value_len: 200,
                get_pct: 40,
                put_pct: 50,
                // Five puts per delete settle the resident set at 5/6
                // of the key mass, about 16 k records (4 MiB charged):
                // a budget above that never binds after the preload
                // (16 MiB evicted 0 records in 4.2 M timed ops). 3 MiB
                // (12 k records) keeps the LRU evicting, and 0.5 s of
                // virtual time (~45 k ops) is short enough that gets
                // still find resident records past their TTL.
                byte_budget: 3 << 20,
                ttl_ns: 500_000_000,
                ops_per_round: 100_000,
                rounds_per_epoch: 6,
                node_capacity: NODE_CAPACITY,
            },
            _ => return None,
        };
        Some(if smoke {
            ServeSpec {
                raw_keys: full.raw_keys / 25,
                ops_per_round: full.ops_per_round / 25,
                rounds_per_epoch: 3,
                byte_budget: if full.byte_budget == unlimited {
                    unlimited
                } else {
                    full.byte_budget / 25
                },
                // Keep expiry reachable: a smoke round is ~20 ms of
                // virtual time.
                ttl_ns: full.ttl_ns / 50,
                ..full
            }
        } else {
            full
        })
    }

    /// Whether a get may legitimately miss (deleted, evicted, expired).
    fn may_miss(&self) -> bool {
        self.get_pct < 100 || self.byte_budget != u64::MAX || self.ttl_ns != 0
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            ht: HtTreeConfig {
                initial_buckets: 1024,
                ..HtTreeConfig::default()
            },
            worker_byte_budget: self.byte_budget,
            ..ServeConfig::default()
        }
    }
}

impl Workload for ServeSpec {
    fn name(&self) -> &'static str {
        self.name
    }
    fn has_latency_rounds(&self) -> bool {
        true
    }
    fn exact(&self) -> bool {
        true
    }
    fn threads(&self) -> usize {
        1
    }
    fn must_fire(&self) -> &'static [&'static str] {
        if self.byte_budget != u64::MAX && self.ttl_ns != 0 {
            &["serve.evicted_per_kop", "serve.expired_per_kop"]
        } else {
            &[]
        }
    }
    fn setup(&self, seed: u64) -> Result<Box<dyn Instance>, Fail> {
        Ok(Box::new(ServeInstance::build(*self, seed)?))
    }
}

/// The value stored under `(tenant, key)`: bytes 0..8 are the raw key,
/// 8..10 the tenant id, the rest a key-dependent filler — so any hit
/// can be verified without a model of what is resident.
pub fn payload(key: u64, tenant: u16, len: usize) -> Vec<u8> {
    assert!(len >= 10, "payload carries a 10-byte identity");
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&tenant.to_le_bytes());
    v.extend((10..len).map(|i| (i as u8).wrapping_mul(31) ^ key as u8));
    v
}

/// The cheap identity check run on every timed reply.
#[inline]
fn identity_ok(v: &[u8], key: u64, tenant: u16, len: usize) -> bool {
    v.len() == len && v[0..8] == key.to_le_bytes() && v[8..10] == tenant.to_le_bytes()
}

/// Whether `resp` is a correct reply to `req`.
#[inline]
fn reply_ok(
    resp: &farmem_serve::Result<Response>,
    req: &Request,
    len: usize,
    may_miss: bool,
) -> bool {
    match (req, resp) {
        (Request::Get { tenant, key }, Ok(Response::Value(v))) => {
            identity_ok(v, *key, tenant.0, len)
        }
        (Request::Get { .. }, Ok(Response::Miss)) => may_miss,
        (Request::Put { .. }, Ok(Response::Stored)) => true,
        (Request::Delete { .. }, Ok(Response::Deleted(_))) => true,
        _ => false,
    }
}

/// Generates the request vector for `spec` from `seed`.
pub fn requests(spec: &ServeSpec, tenants: &[TenantId], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut zipf = Zipf::new(spec.raw_keys, 0.99, rng.next_u64());
    (0..spec.ops_per_round)
        .map(|_| {
            let tenant = tenants[rng.below(tenants.len() as u64) as usize];
            let key = zipf.key();
            let kind = rng.below(100);
            if kind < spec.get_pct {
                Request::Get { tenant, key }
            } else if kind < spec.get_pct + spec.put_pct {
                Request::Put {
                    tenant,
                    key,
                    value: payload(key, tenant.0, spec.value_len),
                    ttl_ns: None,
                }
            } else {
                Request::Delete { tenant, key }
            }
        })
        .collect()
}

fn request_words(reqs: &[Request]) -> impl Iterator<Item = u64> + '_ {
    reqs.iter().map(|r| {
        let tag = match r {
            Request::Get { .. } => 1u64,
            Request::Put { .. } => 2,
            Request::Delete { .. } => 3,
        };
        r.nskey() ^ (tag << 62)
    })
}

struct ServeInstance {
    spec: ServeSpec,
    fabric: Arc<Fabric>,
    alloc: Arc<FarAlloc>,
    client: FabricClient,
    /// Keeps the deployment's shared state alive for the worker.
    _server: CacheServer,
    worker: ServeWorker,
    reqs: Vec<Request>,
    verified: RoundOut,
    rounds: usize,
    digest: u64,
    /// Carved bytes and ops at the end of set-up (the guard reports the
    /// rate since then).
    carved0: u64,
    timed_ops: u64,
}

/// Registers `n` unlimited tenants with default TTL `ttl_ns`.
pub(crate) fn add_tenants(
    server: &CacheServer,
    n: u16,
    ttl_ns: u64,
) -> Result<Vec<TenantId>, Fail> {
    const NAMES: [&str; farmem_serve::MAX_TENANTS] =
        ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
    NAMES
        .iter()
        .take(n as usize)
        .map(|name| {
            let spec = TenantSpec {
                default_ttl_ns: ttl_ns,
                ..TenantSpec::unlimited(name)
            };
            server.add_tenant(spec).map_err(ctx("add tenant"))
        })
        .collect()
}

impl ServeInstance {
    fn build(spec: ServeSpec, seed: u64) -> Result<ServeInstance, Fail> {
        let fabric = fabric_of(spec.node_capacity);
        let alloc = FarAlloc::new(fabric.clone());
        let mut client = fabric.client();
        let server = CacheServer::create(&mut client, &alloc, spec.serve_config())
            .map_err(ctx("create server"))?;
        let tenants = add_tenants(&server, spec.tenants, spec.ttl_ns)?;
        let mut worker = server
            .worker(0, 1, &mut client)
            .map_err(ctx("attach worker"))?;
        // Tenant by tenant: the tree checks a table's load only on every
        // 64th put of a handle, and interleaving four tenants key by key
        // lands every check in the last tenant's range — the other three
        // never split and a get walks a 30-item chain.
        for &t in &tenants {
            for key in 0..spec.raw_keys {
                let v = payload(key, t.0, spec.value_len);
                match worker.put(&mut client, t, key, &v, None) {
                    Ok(Response::Stored) => {}
                    other => return Err(format!("preload put of key {key}: {other:?}").into()),
                }
            }
        }
        let reqs = requests(&spec, &tenants, seed);
        let digest = fnv(request_words(&reqs));
        let mut inst = ServeInstance {
            spec,
            fabric,
            alloc,
            client,
            _server: server,
            worker,
            reqs,
            verified: RoundOut::default(),
            rounds: spec.rounds_per_epoch,
            digest,
            carved0: 0,
            timed_ops: 0,
        };
        let carved_before = inst.carved_bytes();
        inst.verified = inst.verification_round();
        inst.plan_rounds(carved_before)?;
        inst.carved0 = inst.carved_bytes();
        Ok(inst)
    }

    fn carved_bytes(&self) -> u64 {
        self.alloc.stats().pages_carved * farmem_fabric::PAGE
    }

    fn pool_bytes(&self) -> f64 {
        self.fabric.map().total_capacity() as f64 * NODE_POOL_SHARE
    }

    /// Caps the epoch's rounds so carving stays under half the node
    /// pools at the rate the verification round just measured.
    fn plan_rounds(&mut self, carved_before: u64) -> Result<(), Fail> {
        let carved = self.carved_bytes();
        let per_round = (carved - carved_before) as f64;
        if per_round == 0.0 {
            return Ok(());
        }
        let room = self.pool_bytes() * CARVE_PLAN_SHARE - carved as f64;
        let fit = (room / per_round).floor().max(0.0) as usize;
        self.rounds = self.rounds.min(fit);
        if self.rounds < 2 {
            let per_op = per_round / self.reqs.len() as f64;
            return Err(Fail {
                msg: format!(
                    "FarMemoryGuard: {} carves {per_op:.0} B/op; {} ops per round leave room for \
                     {fit} round(s) under {:.0}% of the node pools",
                    self.spec.name,
                    self.reqs.len(),
                    CARVE_PLAN_SHARE * 100.0
                ),
                carved_per_op: Some(per_op),
            });
        }
        Ok(())
    }

    /// The untimed round that checks every reply in full: a hit must
    /// carry the whole expected payload, and a key this round deleted
    /// and has not stored since must miss.
    fn verification_round(&mut self) -> RoundOut {
        let (len, may_miss) = (self.spec.value_len, self.spec.may_miss());
        let mut absent: HashMap<u64, bool> = HashMap::new();
        let mut failed = 0u64;
        for req in &self.reqs {
            let resp = self.worker.execute(&mut self.client, req);
            let mut ok = reply_ok(&resp, req, len, may_miss);
            match (req, &resp) {
                (Request::Get { tenant, key }, Ok(Response::Value(v))) => {
                    ok &= *v == payload(*key, tenant.0, len);
                    ok &= !absent.get(&req.nskey()).copied().unwrap_or(false);
                }
                (Request::Put { .. }, _) => {
                    absent.insert(req.nskey(), false);
                }
                (Request::Delete { .. }, _) => {
                    absent.insert(req.nskey(), true);
                }
                _ => {}
            }
            failed += u64::from(!ok);
        }
        RoundOut {
            wall_ns: 0,
            ops: self.reqs.len() as u64,
            failed,
        }
    }

    fn guard(&self) -> Result<(), Fail> {
        let carved = self.carved_bytes() as f64;
        if carved > self.pool_bytes() * CARVE_ABORT_SHARE {
            return Err(Fail {
                msg: format!(
                    "FarMemoryGuard: {} carved {:.0} MB, past {:.0}% of the node pools",
                    self.spec.name,
                    carved / 1e6,
                    CARVE_ABORT_SHARE * 100.0
                ),
                carved_per_op: (self.timed_ops > 0)
                    .then(|| (carved - self.carved0 as f64) / self.timed_ops as f64),
            });
        }
        Ok(())
    }

    /// Ladder replay: the same get sequence one public layer down at a
    /// time, on a second record store built from the same records in
    /// the same order (`CacheServer` does not expose its tree, and the
    /// rungs below `ServeWorker` need one they can attach to).
    fn ladder(&mut self, log: &mut SpanLog, r: &mut Results) -> Result<(), Fail> {
        let c = &mut self.client;
        let cfg = self.spec.serve_config().ht;
        let tree = HtTree::create(c, &self.alloc, cfg).map_err(ctx("ladder tree"))?;
        let registry =
            ReclaimRegistry::create(c, &self.alloc, 8).map_err(ctx("ladder registry"))?;
        let shared = registry
            .attach(c, &self.alloc)
            .map_err(ctx("ladder attach"))?;
        let mut store = RecordStore::attach(c, &self.alloc, tree, cfg, shared.clone())
            .map_err(ctx("ladder store"))?;
        let len = self.spec.value_len;
        for t in 0..self.spec.tenants {
            for key in 0..self.spec.raw_keys {
                let nskey = TenantId(t).namespaced(key);
                store
                    .put(c, nskey, &payload(key, t, len), 0)
                    .map_err(ctx("ladder preload"))?;
            }
        }
        let mut handle = tree
            .attach_reclaimed(c, &self.alloc, cfg, shared)
            .map_err(ctx("ladder handle"))?;
        let gets: Vec<(u64, u16, u64)> = self
            .reqs
            .iter()
            .filter_map(|q| match q {
                Request::Get { tenant, key } => Some((*key, tenant.0, q.nskey())),
                _ => None,
            })
            .take(log.cap_ops)
            .collect();

        // Rung 1: RecordStore::get.
        let (top, id_store) = (log.name("serve.execute"), log.name("store.get"));
        let mut failed = 0u64;
        let mut prev = log.now();
        for (i, &(key, tenant, nskey)) in gets.iter().enumerate() {
            let now_ns = c.now_ns();
            let out = store.get(c, nskey, now_ns);
            let now = log.now();
            log.push(id_store, top, i, prev, now);
            prev = now;
            failed += u64::from(
                !matches!(&out, Ok(GetOutcome::Hit(v)) if identity_ok(v, key, tenant, len)),
            );
        }

        // Rung 2: HtTreeHandle::get, then FabricClient::read of the
        // record exactly as RecordStore::get issues it.
        let (id_ht, id_read) = (log.name("core.httree_get"), log.name("client.record_read"));
        let have = (RecordStore::PREFETCH - RECORD_HEADER).min(len as u64);
        let mut ptrs = Vec::with_capacity(gets.len());
        let mut prev = log.now();
        for (i, &(key, _, nskey)) in gets.iter().enumerate() {
            let ptr = handle.get(c, nskey).map_err(ctx("ladder httree get"))?;
            let mid = log.now();
            let Some(ptr) = ptr else {
                return Err(format!("ladder: key {key} missing from the replayed tree").into());
            };
            let first = c
                .read(FarAddr(ptr), RecordStore::PREFETCH)
                .map_err(ctx("ladder read"))?;
            let mut ok = first[0..8] == (len as u64).to_le_bytes();
            if len as u64 > have {
                let tail = c
                    .read(FarAddr(ptr).offset(RECORD_HEADER + have), len as u64 - have)
                    .map_err(ctx("ladder tail read"))?;
                ok &= tail.len() as u64 == len as u64 - have;
            }
            let now = log.now();
            log.push(id_ht, id_store, i, prev, mid);
            log.push(id_read, id_store, i, mid, now);
            prev = now;
            ptrs.push(ptr);
            failed += u64::from(!ok);
        }

        // Rung 3: MemoryNode::read_bytes at the same offsets.
        let id_node = log.name("node.record_read");
        let map = self.fabric.map();
        let located: Vec<(NodeId, u64)> = ptrs.iter().map(|&p| map.locate(FarAddr(p))).collect();
        let mut first = vec![0u8; RecordStore::PREFETCH as usize];
        let mut tail = vec![0u8; (len as u64).saturating_sub(have) as usize];
        let mut prev = log.now();
        for (i, &(node, off)) in located.iter().enumerate() {
            let n = self.fabric.node(node);
            let mut ok = n.read_bytes(off, &mut first).is_ok();
            if !tail.is_empty() {
                ok &= n.read_bytes(off + RECORD_HEADER + have, &mut tail).is_ok();
            }
            ok &= first[0..8] == (len as u64).to_le_bytes();
            let now = log.now();
            log.push(id_node, id_read, i, prev, now);
            prev = now;
            failed += u64::from(!ok);
        }
        if failed > 0 {
            return Err(format!("ladder: {failed} replayed reads returned the wrong bytes").into());
        }

        let med = |name: &str| -> Result<(f64, usize), Fail> {
            let mut d = log.durations(name);
            pctl::summarize(&mut d)
                .map(|s| (s.p50, s.n))
                .ok_or_else(|| format!("ladder: no `{name}` spans").into())
        };
        let (exec, n) = med("serve.execute")?;
        let (sget, _) = med("store.get")?;
        let (ht, _) = med("core.httree_get")?;
        let (rr, _) = med("client.record_read")?;
        let (node, _) = med("node.record_read")?;
        let note = format!("n={n}");
        r.set_noted("serve.execute_ns", exec, &note);
        r.set_noted("serve.get_ns", exec, &note);
        r.set_noted("store.get_ns", sget, &note);
        r.set_noted("core.httree_get_ns", ht, &note);
        r.set_noted("client.record_read_ns", rr, &note);
        r.set_noted("node.record_read_ns", node, &note);
        r.set("serve.self_ns", (exec - sget).max(0.0));
        r.set("store.self_ns", (sget - ht - rr).max(0.0));
        r.set("client.self_ns", (rr - node).max(0.0));
        Ok(())
    }
}

impl Instance for ServeInstance {
    fn verified(&self) -> RoundOut {
        self.verified
    }

    fn rounds_per_epoch(&self) -> usize {
        self.rounds
    }

    fn request_digest(&self) -> u64 {
        self.digest
    }

    fn round(&mut self, mode: Mode<'_>) -> Result<RoundOut, Fail> {
        let (len, may_miss) = (self.spec.value_len, self.spec.may_miss());
        let (w, c, reqs) = (&mut self.worker, &mut self.client, &self.reqs);
        let out = drive(reqs.len(), mode, |i| {
            let resp = w.execute(c, &reqs[i]);
            reply_ok(&resp, &reqs[i], len, may_miss)
        });
        self.timed_ops += out.ops;
        self.guard()?;
        Ok(out)
    }

    fn counters(&self) -> Counters {
        Counters {
            worker: Some(self.worker.stats()),
            tree: Some(self.worker.tree_stats()),
            ..Counters::base(
                self.client.stats(),
                self.client.now_ns(),
                self.alloc.stats(),
                &self.fabric,
            )
        }
    }

    fn user_bytes(&self) -> u64 {
        let len = self.spec.value_len as u64;
        self.worker.footprint() / charged_bytes(len) * len
    }

    fn spanned_round(&mut self, log: &mut SpanLog) -> Result<SpannedOut, Fail> {
        // One root span per op: `serve.execute` on the get workloads
        // (the ladder's top rung), the request type on `serve-churn`.
        let ids = if self.spec.get_pct == 100 {
            [log.name("serve.execute"); 3]
        } else {
            [
                log.name("serve.get"),
                log.name("serve.put"),
                log.name("serve.delete"),
            ]
        };
        let (len, may_miss) = (self.spec.value_len, self.spec.may_miss());
        let (w, c, reqs) = (&mut self.worker, &mut self.client, &self.reqs);
        let out = drive_spanned(
            reqs.len(),
            log,
            |i| match reqs[i] {
                Request::Get { .. } => ids[0],
                Request::Put { .. } => ids[1],
                Request::Delete { .. } => ids[2],
            },
            |i| {
                let resp = w.execute(c, &reqs[i]);
                reply_ok(&resp, &reqs[i], len, may_miss)
            },
        );
        self.timed_ops += out.round.ops;
        self.guard()?;
        Ok(out)
    }

    fn layers(&mut self, log: &mut SpanLog, r: &mut Results) -> Result<(), Fail> {
        if self.spec.get_pct == 100 {
            return self.ladder(log, r);
        }
        for (span, metric) in [
            ("serve.get", "serve.get_ns"),
            ("serve.put", "serve.put_ns"),
            ("serve.delete", "serve.delete_ns"),
        ] {
            if let Some(s) = pctl::summarize(&mut log.durations(span)) {
                r.set_noted(metric, s.p50, &format!("n={}", s.n));
            }
        }
        Ok(())
    }
}

/// `spec`'s throughput with the program's own tracer on ÷ off: the
/// best of eight rounds each way on one deployment, off and on taking
/// turns so a slow stretch of the host falls on both (the observer cell).
pub fn program_trace_ratio(spec: ServeSpec, seed: u64) -> Result<f64, Fail> {
    let mut inst = ServeInstance::build(spec, seed)?;
    let (mut off, mut on) = (0.0f64, 0.0f64);
    for _ in 0..8 {
        for (best, traced) in [(&mut off, false), (&mut on, true)] {
            if traced {
                inst.client
                    .enable_tracing(farmem_fabric::TraceConfig::default());
            }
            let out = inst.round(Mode::Throughput)?;
            inst.client.disable_tracing();
            *best = best.max(out.ops as f64 * 1e9 / out.wall_ns as f64);
        }
    }
    Ok(on / off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_carries_key_and_tenant() {
        let v = payload(0x0102_0304_0506_0708, 3, 64);
        assert_eq!(v.len(), 64);
        assert!(identity_ok(&v, 0x0102_0304_0506_0708, 3, 64));
        assert!(
            !identity_ok(&v, 0x0102_0304_0506_0709, 3, 64),
            "another key"
        );
        assert!(
            !identity_ok(&v, 0x0102_0304_0506_0708, 2, 64),
            "another tenant"
        );
        assert_ne!(payload(1, 0, 64), payload(2, 0, 64));
    }

    #[test]
    fn requests_follow_the_seed_and_the_mix() {
        let spec = ServeSpec::named("serve-churn", true).unwrap();
        let tenants: Vec<TenantId> = (0..4).map(TenantId).collect();
        let (a, b, c) = (
            requests(&spec, &tenants, 5),
            requests(&spec, &tenants, 5),
            requests(&spec, &tenants, 6),
        );
        assert_eq!(fnv(request_words(&a)), fnv(request_words(&b)));
        assert_ne!(fnv(request_words(&a)), fnv(request_words(&c)));
        let gets = a
            .iter()
            .filter(|r| matches!(r, Request::Get { .. }))
            .count()
            * 100
            / a.len();
        let puts = a
            .iter()
            .filter(|r| matches!(r, Request::Put { .. }))
            .count()
            * 100
            / a.len();
        assert!(
            (35..=45).contains(&gets) && (45..=55).contains(&puts),
            "{gets}% gets, {puts}% puts"
        );
    }

    #[test]
    fn far_memory_guard_aborts_by_name_with_the_carve_rate() {
        // 4 × 1 MiB of far memory cannot hold the churn working set.
        let spec = ServeSpec {
            node_capacity: 1 << 20,
            byte_budget: u64::MAX,
            ..ServeSpec::named("serve-churn", true).unwrap()
        };
        let fail = match spec.setup(1) {
            Err(f) => f,
            Ok(mut inst) => loop {
                // Set-up fitted: the guard must then fire before the
                // allocator does.
                if let Err(f) = inst.round(Mode::Throughput) {
                    break f;
                }
            },
        };
        assert!(
            fail.msg.starts_with("FarMemoryGuard:"),
            "unexpected failure: {}",
            fail.msg
        );
        assert!(
            fail.carved_per_op.is_some_and(|rate| rate > 0.0),
            "abort must carry the carve rate"
        );
    }
}
