//! The fabric: memory nodes behind a shared interconnect.
//!
//! A [`Fabric`] owns the memory nodes, the address map, the cost model and
//! the notification machinery. Clients (compute-side adapters) are created
//! with [`Fabric::client`] and issue one-sided verbs; no application
//! processor ever mediates access to far memory (§2).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use std::collections::HashMap;

use crate::addr::{AddressMap, FarAddr, NodeId, Segments, Striping};
use crate::check::CheckObserver;
use crate::cost::CostModel;
use crate::error::{FabricError, Result};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::node::MemoryNode;
use crate::notify::{DeliveryPolicy, SubId};
use crate::replica::{GroupTable, GroupView, ReplicaConfig};
use crate::stats::AccessStats;

/// What a memory node does when an indirect verb dereferences a pointer
/// whose target lives on a different node (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndirectionMode {
    /// The home node forwards the request to the owning node (memory-side
    /// hop, cheaper than a client round trip).
    Forward,
    /// The home node refuses the access, and the compute node completes
    /// it with a second round trip of its own: the indirect verb reissues
    /// a plain read, write or fetch-and-add at the target, booked in
    /// [`AccessStats::reissues`](crate::AccessStats). Guarded verbs never
    /// leave their pointer's node, in either mode.
    Error,
}

/// Static configuration of a fabric instance.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Number of memory nodes.
    pub nodes: u32,
    /// Bytes of far memory per node (multiple of the page size).
    pub node_capacity: u64,
    /// Address-space mapping policy.
    pub striping: Striping,
    /// Latency model.
    pub cost: CostModel,
    /// Cross-node indirection handling.
    pub indirection: IndirectionMode,
    /// Default notification delivery policy for new clients.
    pub delivery: DeliveryPolicy,
    /// Whether `Changed` events carry the triggering write range (§7.2).
    pub carry_trigger: bool,
    /// Seed for deterministic best-effort notification drops.
    pub seed: u64,
    /// Deterministic fault-injection plan (defaults to no faults).
    pub faults: FaultPlan,
    /// Client-side retry policy for transient verb failures.
    pub retry: RetryPolicy,
    /// Replication policy: replicas per logical node, read spreading and
    /// the failover lease (defaults to no replication).
    pub replication: ReplicaConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes: 1,
            node_capacity: 64 << 20,
            striping: Striping::Blocked,
            cost: CostModel::DEFAULT,
            indirection: IndirectionMode::Forward,
            delivery: DeliveryPolicy::COALESCING,
            carry_trigger: true,
            seed: 0x5eed,
            faults: FaultPlan::NONE,
            retry: RetryPolicy::DEFAULT,
            replication: ReplicaConfig::NONE,
        }
    }
}

impl FabricConfig {
    /// Single-node fabric of `capacity` bytes with default costs.
    pub fn single_node(capacity: u64) -> FabricConfig {
        FabricConfig { nodes: 1, node_capacity: capacity, ..FabricConfig::default() }
    }

    /// Single-node fabric with the zero-latency counting model, for tests
    /// that assert far-access counts.
    pub fn count_only(capacity: u64) -> FabricConfig {
        FabricConfig {
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::single_node(capacity)
        }
    }

    /// Builds the fabric.
    pub fn build(self) -> Arc<Fabric> {
        Fabric::new(self)
    }
}

/// A simulated far-memory fabric.
pub struct Fabric {
    config: FabricConfig,
    map: AddressMap,
    /// All physical nodes: the `config.nodes` logical primaries first,
    /// then `config.nodes * K` replicas (group `g`'s replicas sit at
    /// `config.nodes + g*K .. +K`). The address map spans only the
    /// logical nodes; replicas are reached through their group.
    nodes: Vec<MemoryNode>,
    /// Replication groups (`None` when `replication.replicas == 0`: the
    /// unreplicated fabric carries zero extra state on the verb path).
    groups: Option<GroupTable>,
    next_client: AtomicU32,
    /// Subscription registry: id → owning node and node-local page, for
    /// unsubscribe routing.
    subs: Mutex<HashMap<SubId, (NodeId, u64)>>,
    /// Verification observer (`farmem-check`); see [`crate::check`].
    hooks: RwLock<Option<Arc<dyn CheckObserver>>>,
    /// Fast-path flag: with no observer installed, every verb pays one
    /// relaxed load here and nothing else (the `fabric::trace` discipline).
    hooked: AtomicBool,
}

impl Fabric {
    /// Creates a fabric from `config`.
    pub fn new(config: FabricConfig) -> Arc<Fabric> {
        let map = AddressMap::new(config.nodes, config.node_capacity, config.striping);
        let k = config.replication.replicas;
        let physical = config.nodes * (1 + k);
        let nodes: Vec<MemoryNode> = (0..physical)
            .map(|i| {
                let n = MemoryNode::new(NodeId(i), config.node_capacity);
                n.subs.set_carry_trigger(config.carry_trigger);
                n
            })
            .collect();
        if config.faults.crash_at_ns != u64::MAX {
            nodes[config.faults.crash_node as usize]
                .schedule_crash_permanent(config.faults.crash_at_ns);
        }
        let groups = (k > 0).then(|| GroupTable::new(config.nodes, k));
        Arc::new(Fabric {
            config,
            map,
            nodes,
            groups,
            next_client: AtomicU32::new(0),
            subs: Mutex::new(HashMap::new()),
            hooks: RwLock::new(None),
            hooked: AtomicBool::new(false),
        })
    }

    /// Installs a verification observer ([`crate::check`]): it will see
    /// every verb attempt (gate), memory access, and notification receipt
    /// on this fabric until [`Fabric::clear_check_observer`]. Observers
    /// must not perturb virtual time or stats; installing one changes no
    /// accounting.
    pub fn install_check_observer(&self, obs: Arc<dyn CheckObserver>) {
        *self.hooks.write().unwrap() = Some(obs);
        self.hooked.store(true, Ordering::Release);
    }

    /// Removes the installed verification observer, if any.
    pub fn clear_check_observer(&self) {
        self.hooked.store(false, Ordering::Release);
        *self.hooks.write().unwrap() = None;
    }

    /// The installed observer, or `None` (the common fast path: one
    /// relaxed-ish atomic load).
    #[inline]
    pub(crate) fn check_hook(&self) -> Option<Arc<dyn CheckObserver>> {
        if !self.hooked.load(Ordering::Acquire) {
            return None;
        }
        self.hooks.read().unwrap().clone()
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The address map in force.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// Creates a new client adapter attached to this fabric.
    pub fn client(self: &Arc<Self>) -> crate::client::FabricClient {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        crate::client::FabricClient::new(self.clone(), id)
    }

    /// Immutable access to a *physical* memory node (fault injection,
    /// inspection). With replication, ids `< config.nodes` are the
    /// original primaries and the rest are replicas; use
    /// [`Fabric::primary`] for where a group's traffic currently lands.
    pub fn node(&self, id: NodeId) -> &MemoryNode {
        &self.nodes[id.0 as usize]
    }

    /// All physical memory nodes (logical primaries first, then replicas).
    pub fn nodes(&self) -> &[MemoryNode] {
        &self.nodes
    }

    // ----- replication groups (crate::replica) -----

    /// Whether this fabric replicates its logical nodes.
    #[inline]
    pub fn replicated(&self) -> bool {
        self.groups.is_some()
    }

    /// The replication policy in force.
    pub fn replication(&self) -> &ReplicaConfig {
        &self.config.replication
    }

    /// The current primary node of logical group `g` (the group's sole
    /// member when replication is off).
    pub fn primary(&self, g: NodeId) -> &MemoryNode {
        match &self.groups {
            Some(t) => self.node(t.primary(g)),
            None => self.node(g),
        }
    }

    /// Snapshot of group `g`'s configuration (epoch, primary, members).
    pub fn group_view(&self, g: NodeId) -> GroupView {
        match &self.groups {
            Some(t) => t.view(g),
            None => GroupView { epoch: 0, primary: g, members: vec![g] },
        }
    }

    /// Current configuration epoch of group `g` (0 when unreplicated).
    pub fn group_epoch(&self, g: NodeId) -> u64 {
        self.groups.as_ref().map_or(0, |t| t.epoch(g))
    }

    /// The logical group a physical node belongs to.
    pub fn group_of(&self, phys: NodeId) -> NodeId {
        if phys.0 < self.config.nodes {
            phys
        } else {
            NodeId((phys.0 - self.config.nodes) / self.config.replication.replicas)
        }
    }

    /// Promotes a live replica of group `g`, conditioned on the caller's
    /// observed epoch (see `GroupTable::promote` semantics in
    /// `crate::replica`): idempotent under races, fences the deposed
    /// primary at the new epoch, errors with
    /// [`FabricError::NodeLost`] when no live member remains.
    pub fn promote(&self, g: NodeId, observed_epoch: u64, now_ns: u64) -> Result<GroupView> {
        match &self.groups {
            Some(t) => t.promote(self, g, observed_epoch, now_ns),
            None => Err(FabricError::NodeLost(g)),
        }
    }

    /// Drops a replica from group `g`'s membership (it missed a mirror or
    /// crash-stopped; it can never be promoted).
    pub(crate) fn evict_replica(&self, g: NodeId, phys: NodeId) {
        if let Some(t) = &self.groups {
            t.evict(g, phys);
        }
    }

    pub(crate) fn register_sub(&self, id: SubId, node: NodeId, page: u64) {
        self.subs.lock().unwrap().insert(id, (node, page));
    }

    pub(crate) fn unregister_sub(&self, id: SubId) -> Result<()> {
        let (node, page) = self
            .subs
            .lock()
            .unwrap()
            .remove(&id)
            .ok_or(FabricError::NoSuchSubscription)?;
        self.node(node).subs.unregister(id, page)
    }

    /// Splits a global range into per-node segments.
    pub(crate) fn segments(&self, addr: FarAddr, len: u64) -> Result<Segments> {
        self.map.segments(addr, len)
    }

    /// Commits a node-local mutation of `[offset, offset+len)` on group
    /// `node`'s primary: mirrors the mutated range to the group's live
    /// replicas and fires notification subscriptions. Returns the finish
    /// time of the slowest mirror (== `fired_at_ns` when unreplicated) —
    /// the verb's acknowledgement must fold it in, so a write is acked
    /// only once every live replica is durable
    /// (ack-after-replica-durable; see `crate::replica`).
    ///
    /// Every mutation path of the fabric — serial verbs, fenced batches,
    /// posted writes, pipelined descriptors and the indirect/guarded verb
    /// family — funnels through here, which is what keeps every replica
    /// byte-identical to its primary without per-verb replication code.
    pub(crate) fn fire(
        &self,
        stats: &mut AccessStats,
        node: NodeId,
        offset: u64,
        len: u64,
        fired_at_ns: u64,
    ) -> u64 {
        let mut finish = fired_at_ns;
        if let Some(groups) = &self.groups {
            finish = self.mirror(groups, stats, node, offset, len, fired_at_ns);
        }
        let n = self.primary(node);
        n.subs.fire(
            offset,
            len,
            fired_at_ns,
            &|off| n.read_u64(off).unwrap_or(0),
            &|off, l| {
                let mut buf = vec![0u8; l as usize];
                let _ = n.read_bytes(off, &mut buf);
                buf
            },
        );
        finish
    }

    /// Mirrors a committed mutation from group `g`'s primary to its live
    /// replicas. The mirror messages leave the primary together after the
    /// mutation commits (one memory-side hop) and occupy the replica
    /// interfaces *in parallel*, so the durability cost is the slowest
    /// single replica, not K round trips. A replica that is failed or
    /// lost at mirror time misses the write and is evicted from the group
    /// — membership only shrinks, every surviving member stays
    /// byte-identical, and any of them is safe to promote.
    fn mirror(
        &self,
        groups: &GroupTable,
        stats: &mut AccessStats,
        g: NodeId,
        offset: u64,
        len: u64,
        fired_at_ns: u64,
    ) -> u64 {
        let replicas = groups.replicas_of(g);
        if replicas.is_empty() {
            return fired_at_ns;
        }
        let cost = &self.config.cost;
        let primary = self.primary(g);
        let mut buf = vec![0u8; len as usize];
        if primary.read_bytes(offset, &mut buf).is_err() {
            return fired_at_ns;
        }
        let arrival = fired_at_ns + cost.mem_hop_ns;
        let service = cost.node_msg_ns + cost.bytes_ns(len);
        let mut finish = fired_at_ns;
        for r in replicas {
            let node = self.node(r);
            if node.check_alive_at(arrival).is_err() {
                // Missed mirror: the replica is no longer byte-identical
                // and must never be promoted.
                groups.evict(g, r);
                continue;
            }
            let _ = node.write_bytes(offset, &buf);
            stats.messages += 1;
            stats.replica_messages += 1;
            finish = finish.max(node.occupy(arrival, service));
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let f = FabricConfig::default().build();
        assert_eq!(f.map().node_count(), 1);
        assert_eq!(f.map().total_capacity(), 64 << 20);
    }

    #[test]
    fn client_ids_are_unique() {
        let f = FabricConfig::default().build();
        let c1 = f.client();
        let c2 = f.client();
        assert_ne!(c1.id(), c2.id());
    }
}
