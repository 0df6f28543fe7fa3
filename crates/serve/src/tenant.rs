//! Tenant namespaces, quotas, and accounting.
//!
//! The tenant table is the only cross-worker shared compute-side state:
//! a mutex-protected registry the admission path touches briefly (pure
//! local bookkeeping — no far access is ever issued under the lock).
//! Everything else (LRU metadata, hot-key sketches) is worker-local.

/// Highest raw key a tenant may store: keys are namespaced by packing
/// the tenant id into the top 16 bits of the shared `HtTree` keyspace,
/// leaving 48 bits of per-tenant key space.
pub const MAX_RAW_KEY: u64 = (1 << 48) - 1;

/// Maximum registered tenants. Small and static so per-tenant trace
/// spans can use static names (`AccessStats` attribution requires
/// `&'static str` span labels).
pub const MAX_TENANTS: usize = 8;

/// Static span names, one per tenant slot: every far access a worker
/// issues on behalf of tenant `t` runs under span `TENANT_SPANS[t]`, so
/// a traced run attributes the fabric counters back to tenants exactly
/// (`TraceReport::reconcile`).
pub(crate) const TENANT_SPANS: [&str; MAX_TENANTS] = [
    "serve.tenant0",
    "serve.tenant1",
    "serve.tenant2",
    "serve.tenant3",
    "serve.tenant4",
    "serve.tenant5",
    "serve.tenant6",
    "serve.tenant7",
];

/// A registered tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The namespaced key this tenant's `raw` key maps to in the shared
    /// tree: tenant id in the top 16 bits.
    pub fn namespaced(self, raw: u64) -> u64 {
        debug_assert!(raw <= MAX_RAW_KEY);
        (u64::from(self.0) << 48) | raw
    }

    /// The span name all of this tenant's far accesses run under.
    pub fn span_name(self) -> &'static str {
        TENANT_SPANS[self.0 as usize]
    }
}

/// Admission-time configuration of one tenant.
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Human-readable label (reports only).
    pub name: &'static str,
    /// Maximum live far-memory bytes, charged at slab-class-rounded
    /// record size ([`crate::charged_bytes`]). A put that would exceed
    /// it is rejected at admission.
    pub byte_quota: u64,
    /// Maximum admitted operations per quota window. `u64::MAX`
    /// disables the op quota.
    pub op_quota: u64,
    /// Default record TTL in virtual ns (`0` = no expiry) applied when
    /// a put does not carry its own.
    pub default_ttl_ns: u64,
}

impl TenantSpec {
    /// An unlimited tenant (no quotas, no TTL).
    pub fn unlimited(name: &'static str) -> TenantSpec {
        TenantSpec { name, byte_quota: u64::MAX, op_quota: u64::MAX, default_ttl_ns: 0 }
    }
}

/// Why a request was turned away at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The tenant's live-byte quota would be exceeded.
    ByteQuota,
    /// The tenant's per-window operation quota is exhausted.
    OpQuota,
    /// The raw key is above [`MAX_RAW_KEY`].
    KeyTooLarge,
    /// The value is longer than the 64 KiB the serving layer accepts.
    ValueTooLarge,
}

impl Reject {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Reject::ByteQuota => "byte-quota",
            Reject::OpQuota => "op-quota",
            Reject::KeyTooLarge => "key-too-large",
            Reject::ValueTooLarge => "value-too-large",
        }
    }
}

/// Per-tenant accounting, visible through
/// [`CacheServer::tenant_stats`](crate::CacheServer::tenant_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Operations admitted (passed both quotas).
    pub admitted_ops: u64,
    /// Operations rejected by the op quota.
    pub rejected_ops: u64,
    /// Puts rejected by the byte quota.
    pub rejected_bytes: u64,
    /// Gets that returned a live value.
    pub hits: u64,
    /// Gets that found nothing.
    pub misses: u64,
    /// Gets that found a record past its TTL (served as misses).
    pub expired: u64,
    /// Values stored (every successful put, including overwrites).
    pub stored: u64,
    /// Puts that replaced an existing record (so
    /// `stored - overwritten - deleted - expired - evicted == live_records`).
    pub overwritten: u64,
    /// Values deleted by the tenant.
    pub deleted: u64,
    /// Values evicted by the LRU watermark.
    pub evicted: u64,
    /// Live far-memory bytes, charged at slab-class rounding. Always
    /// `≤ byte_quota`.
    pub live_bytes: u64,
    /// Live record count.
    pub live_records: u64,
}

/// One tenant's registry slot.
struct TenantState {
    spec: TenantSpec,
    stats: TenantStats,
    /// Quota window the op counter belongs to.
    window: u64,
    /// Admission-attempted ops in the current window.
    window_ops: u64,
}

/// The shared tenant registry (behind `Arc<Mutex<…>>` in the server).
pub(crate) struct TenantTable {
    tenants: Vec<TenantState>,
}

/// Tenant op-quota window length: 1 ms of virtual time.
const QUOTA_WINDOW_NS: u64 = 1_000_000;

impl TenantTable {
    pub(crate) fn new() -> TenantTable {
        TenantTable { tenants: Vec::new() }
    }

    pub(crate) fn add(&mut self, spec: TenantSpec) -> Option<TenantId> {
        if self.tenants.len() >= MAX_TENANTS {
            return None;
        }
        let id = TenantId(self.tenants.len() as u16);
        self.tenants.push(TenantState {
            spec,
            stats: TenantStats::default(),
            window: 0,
            window_ops: 0,
        });
        Some(id)
    }

    pub(crate) fn contains(&self, t: TenantId) -> bool {
        (t.0 as usize) < self.tenants.len()
    }

    pub(crate) fn spec(&self, t: TenantId) -> TenantSpec {
        self.tenants[t.0 as usize].spec
    }

    /// Charges one operation against the tenant's window quota.
    /// Deterministic: depends only on the virtual clock and the
    /// admission sequence, never on wall time.
    pub(crate) fn admit_op(&mut self, t: TenantId, now_ns: u64) -> bool {
        let s = &mut self.tenants[t.0 as usize];
        let w = now_ns / QUOTA_WINDOW_NS;
        if w != s.window {
            s.window = w;
            s.window_ops = 0;
        }
        if s.window_ops >= s.spec.op_quota {
            s.stats.rejected_ops += 1;
            return false;
        }
        s.window_ops += 1;
        s.stats.admitted_ops += 1;
        true
    }

    /// Charges a put's rounded bytes against the byte quota, net of the
    /// `old_charged` bytes the put replaces. Rejects without mutating.
    pub(crate) fn admit_bytes(&mut self, t: TenantId, charged: u64, old_charged: u64) -> bool {
        let s = &mut self.tenants[t.0 as usize];
        let after = s.stats.live_bytes - old_charged + charged;
        if after > s.spec.byte_quota {
            s.stats.rejected_bytes += 1;
            return false;
        }
        true
    }

    /// Commits a stored record's accounting (after the far write).
    pub(crate) fn stored(&mut self, t: TenantId, charged: u64, old_charged: Option<u64>) {
        let s = &mut self.tenants[t.0 as usize];
        if let Some(old) = old_charged {
            s.stats.live_bytes -= old;
            s.stats.live_records -= 1;
            s.stats.overwritten += 1;
        }
        s.stats.live_bytes += charged;
        s.stats.live_records += 1;
        s.stats.stored += 1;
    }

    /// Credits a removed record back to the tenant.
    pub(crate) fn removed(&mut self, t: TenantId, charged: u64, kind: RemoveKind) {
        let s = &mut self.tenants[t.0 as usize];
        s.stats.live_bytes -= charged;
        s.stats.live_records -= 1;
        match kind {
            RemoveKind::Deleted => s.stats.deleted += 1,
            RemoveKind::Expired => s.stats.expired += 1,
            RemoveKind::Evicted => s.stats.evicted += 1,
        }
    }

    pub(crate) fn hit(&mut self, t: TenantId) {
        self.tenants[t.0 as usize].stats.hits += 1;
    }

    pub(crate) fn miss(&mut self, t: TenantId) {
        self.tenants[t.0 as usize].stats.misses += 1;
    }

    /// A non-owner worker observed an expired record (it cannot unlink
    /// it; the owner will). Count the expired miss without accounting.
    pub(crate) fn expired_observed(&mut self, t: TenantId) {
        self.tenants[t.0 as usize].stats.expired += 1;
    }

    pub(crate) fn stats(&self) -> Vec<(TenantSpec, TenantStats)> {
        self.tenants.iter().map(|s| (s.spec, s.stats)).collect()
    }
}

/// How a record left the map (accounting bucket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RemoveKind {
    Deleted,
    Expired,
    Evicted,
}
