//! Replication groups and fenced failover (`farmem-replica`).
//!
//! Far memory sits in its own fault domain (§2): a memory node can
//! crash-stop and take its data with it. This module gives every *logical*
//! node a replication group — the original primary plus `K` replica
//! [`MemoryNode`](crate::node::MemoryNode)s — so permanent node loss
//! becomes survivable:
//!
//! * **Writes/CAS/FAA fan out**: every mutation a verb commits on the
//!   primary is synchronously mirrored to the group's live replicas before
//!   the verb is acknowledged (ack-after-replica-durable). The mirror
//!   messages occupy the replica interfaces *in parallel* — replication
//!   costs roughly one extra memory-side hop, not K round trips — while
//!   each mirror still counts as a fabric message
//!   ([`AccessStats::replica_messages`](crate::stats::AccessStats)).
//! * **Reads** are served by the primary, or round-robined over the whole
//!   group by a client that turned
//!   [`spread_reads`](crate::client::FabricClient::set_spread_reads) on
//!   (hot-key spreading; see DESIGN.md §10 for the consistency caveat).
//! * **Fenced failover**: a verb hitting a crash-stopped primary surfaces
//!   [`FabricError::NodeLost`]. The
//!   client waits one [`FAILOVER_LEASE_NS`] of virtual time
//!   (so every lease the deposed primary's clients held has expired),
//!   then promotes a live replica: promotion bumps the group's
//!   *configuration epoch* — the fencing token — and fences the deposed
//!   node, whose every later verb fails with
//!   [`FabricError::FencedEpoch`]
//!   instead of silently serving stale data. Clients cache a per-group
//!   view `{epoch, primary, members}`; a stale client keeps routing to
//!   the fenced node until the fence error forces a (charged) view
//!   refresh.
//!
//! Promotion is epoch-conditional and therefore idempotent: concurrent
//! clients that suspect the same primary race to
//! [`Fabric::promote`](crate::fabric::Fabric::promote) with the epoch they
//! observed; exactly one bump happens, the losers adopt the winner's view.
//! A replica that misses a mirror (it was failed or lost at mirror time)
//! is evicted from the group — membership only shrinks, so every member
//! is always byte-identical to the primary and *any* member is safe to
//! promote. There is no resync/rejoin protocol (out of scope; DESIGN.md
//! §10).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::addr::NodeId;
use crate::error::{FabricError, Result};

/// Virtual time a client waits between suspecting a primary (first
/// [`NodeLost`](crate::error::FabricError::NodeLost)) and promoting a
/// replica. Bounds unavailability: one failover costs at most this plus a
/// view refresh. Matches `farmem_baselines::mutex::LEASE_NS`, so by the
/// time a replica is promoted, every lock lease a client of the dead
/// primary could have held has expired (fencing + leases interaction,
/// DESIGN.md §10).
pub const FAILOVER_LEASE_NS: u64 = 100_000_000;

/// Replication policy of a fabric, attached to a
/// [`FabricConfig`](crate::fabric::FabricConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Replicas per logical node (`K`); 0 disables replication entirely
    /// (bit-identical to the unreplicated fabric).
    pub replicas: u32,
}

impl ReplicaConfig {
    /// Replication disabled — the default.
    pub const NONE: ReplicaConfig = ReplicaConfig { replicas: 0 };

    /// `k` replicas per logical node.
    pub fn mirrored(k: u32) -> ReplicaConfig {
        ReplicaConfig { replicas: k }
    }

    /// Whether any replication state exists at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.replicas > 0
    }
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig::NONE
    }
}

/// A client's (or inspector's) snapshot of one replication group's
/// configuration. Clients cache these and only refresh when a fence or
/// failover forces them to — that staleness window is the whole point of
/// the fencing epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupView {
    /// Configuration epoch (the fencing token). Bumped by every promotion.
    pub epoch: u64,
    /// Physical node currently serving as primary.
    pub primary: NodeId,
    /// All live members (primary first at epoch 0; order is stable
    /// afterwards). Reads may be spread over these.
    pub members: Vec<NodeId>,
}

/// One group's authoritative state (the fabric-side "configuration
/// service"; in a real deployment this is a metadata service or the
/// interconnect's routing table).
struct GroupState {
    epoch: u64,
    primary: NodeId,
    members: Vec<NodeId>,
}

/// Authoritative replication state of a fabric: one group per logical
/// node, plus lock-free mirrors of each group's epoch and primary for the
/// verb hot path.
pub(crate) struct GroupTable {
    groups: Vec<Mutex<GroupState>>,
    /// Current primary of each group (physical node id), readable without
    /// the group lock on every mirrored mutation.
    primaries: Vec<AtomicU32>,
    /// Current epoch of each group, ditto.
    epochs: Vec<AtomicU64>,
}

impl GroupTable {
    /// Builds the initial configuration: group `g`'s primary is physical
    /// node `g`, its replicas are physical nodes `logical + g*k + r`.
    pub(crate) fn new(logical: u32, k: u32) -> GroupTable {
        let mut groups = Vec::with_capacity(logical as usize);
        let mut primaries = Vec::with_capacity(logical as usize);
        let mut epochs = Vec::with_capacity(logical as usize);
        for g in 0..logical {
            let mut members = vec![NodeId(g)];
            for r in 0..k {
                members.push(NodeId(logical + g * k + r));
            }
            groups.push(Mutex::new(GroupState {
                epoch: 0,
                primary: NodeId(g),
                members,
            }));
            primaries.push(AtomicU32::new(g));
            epochs.push(AtomicU64::new(0));
        }
        GroupTable { groups, primaries, epochs }
    }

    /// Current primary (physical) of group `g`, without the group lock.
    #[inline]
    pub(crate) fn primary(&self, g: NodeId) -> NodeId {
        NodeId(self.primaries[g.0 as usize].load(Ordering::SeqCst))
    }

    /// Current configuration epoch of group `g`, without the group lock.
    #[inline]
    pub(crate) fn epoch(&self, g: NodeId) -> u64 {
        self.epochs[g.0 as usize].load(Ordering::SeqCst)
    }

    /// Snapshot of group `g`'s configuration.
    pub(crate) fn view(&self, g: NodeId) -> GroupView {
        let s = self.groups[g.0 as usize].lock().unwrap();
        GroupView { epoch: s.epoch, primary: s.primary, members: s.members.clone() }
    }

    /// Members of group `g` other than its primary (the mirror targets).
    pub(crate) fn replicas_of(&self, g: NodeId) -> Vec<NodeId> {
        let s = self.groups[g.0 as usize].lock().unwrap();
        s.members.iter().copied().filter(|&m| m != s.primary).collect()
    }

    /// Drops `phys` from group `g`'s membership (a replica that missed a
    /// mirror or crash-stopped; it can never be promoted). The primary
    /// cannot be evicted — deposing the primary is [`promote`]'s job.
    ///
    /// [`promote`]: GroupTable::promote
    pub(crate) fn evict(&self, g: NodeId, phys: NodeId) {
        let mut s = self.groups[g.0 as usize].lock().unwrap();
        if phys != s.primary {
            s.members.retain(|&m| m != phys);
        }
    }

    /// Promotes a live replica of group `g`, conditioned on the caller
    /// having observed configuration epoch `observed_epoch`.
    ///
    /// Exactly one of the racing suspectors wins: if the epoch already
    /// moved past `observed_epoch`, promotion already happened and the
    /// current view is returned unchanged (idempotent adoption). On a win
    /// the deposed primary is fenced at the *new* epoch, dropped from the
    /// membership, and the first promotable member (not lost, not failed
    /// at `now_ns`) becomes primary. With no promotable member left the
    /// group is dead and the caller gets the loss back.
    pub(crate) fn promote(
        &self,
        fabric: &crate::fabric::Fabric,
        g: NodeId,
        observed_epoch: u64,
        now_ns: u64,
    ) -> Result<GroupView> {
        let mut s = self.groups[g.0 as usize].lock().unwrap();
        if s.epoch != observed_epoch {
            return Ok(GroupView {
                epoch: s.epoch,
                primary: s.primary,
                members: s.members.clone(),
            });
        }
        let deposed = s.primary;
        let candidate = s
            .members
            .iter()
            .copied()
            .find(|&m| {
                m != deposed && {
                    let n = fabric.node(m);
                    !n.is_lost_at(now_ns) && n.check_alive().is_ok() && !n.is_fenced()
                }
            })
            .ok_or(FabricError::NodeLost(deposed))?;
        let epoch = s.epoch + 1;
        // Fence first, then publish the new configuration: no window where
        // both the old and the new primary would accept writes.
        fabric.node(deposed).fence(epoch);
        s.members.retain(|&m| m != deposed);
        s.primary = candidate;
        s.epoch = epoch;
        self.primaries[g.0 as usize].store(candidate.0, Ordering::SeqCst);
        self.epochs[g.0 as usize].store(epoch, Ordering::SeqCst);
        Ok(GroupView { epoch, primary: candidate, members: s.members.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    fn replicated(k: u32) -> std::sync::Arc<crate::fabric::Fabric> {
        FabricConfig {
            replication: ReplicaConfig::mirrored(k),
            ..FabricConfig::count_only(1 << 20)
        }
        .build()
    }

    #[test]
    fn initial_groups_map_logical_to_primary() {
        let f = replicated(2);
        let v = f.group_view(NodeId(0));
        assert_eq!(v.epoch, 0);
        assert_eq!(v.primary, NodeId(0));
        assert_eq!(v.members, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(f.nodes().len(), 3, "1 logical x (1 + K) physical");
    }

    #[test]
    fn promote_bumps_epoch_fences_and_is_idempotent() {
        let f = replicated(2);
        f.node(NodeId(0)).crash_permanent();
        let v = f.promote(NodeId(0), 0, 0).unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.primary, NodeId(1));
        assert!(!v.members.contains(&NodeId(0)));
        assert!(f.node(NodeId(0)).is_fenced());
        // A racing suspector with the stale epoch adopts, not re-promotes.
        let v2 = f.promote(NodeId(0), 0, 0).unwrap();
        assert_eq!(v2, v);
        // The fenced node refuses verbs with the fencing error.
        assert!(matches!(
            f.node(NodeId(0)).check_alive_at(5),
            Err(FabricError::FencedEpoch { epoch: 1, .. })
        ));
    }

    #[test]
    fn promotion_skips_dead_replicas_and_reports_group_death() {
        let f = replicated(2);
        f.node(NodeId(0)).crash_permanent();
        f.node(NodeId(1)).crash_permanent();
        let v = f.promote(NodeId(0), 0, 0).unwrap();
        assert_eq!(v.primary, NodeId(2), "first live member wins");
        f.node(NodeId(2)).crash_permanent();
        assert!(matches!(
            f.promote(NodeId(0), 1, 0),
            Err(FabricError::NodeLost(_))
        ));
    }
}
