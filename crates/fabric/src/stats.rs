//! Far-access accounting.
//!
//! The number of far-memory accesses is the paper's key performance metric
//! (§3.1). Every client tracks the round trips, messages and bytes of each
//! verb it issues, so experiments can report exact per-operation access
//! counts instead of noisy timings.

/// Defines [`AccessStats`] plus every piece of code that must enumerate
/// its fields (`since`, `merge`, `to_array`, `from_array`, `to_json`,
/// `FIELD_NAMES`) from a single field list, so a newly added counter can
/// never be silently skipped in delta, aggregation or export code.
macro_rules! access_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Counters accumulated by one client.
        ///
        /// `round_trips` counts *dependent* round trips on the critical
        /// path: a fenced batch of ops issued together costs one round trip
        /// of latency and is counted once, while each constituent fabric
        /// message still increments `messages`. Reporting both keeps the
        /// "one far access" claims auditable (see DESIGN.md §2).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct AccessStats {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl AccessStats {
            /// Number of counters (generated from the field list).
            pub const COUNT: usize = [$(stringify!($field)),+].len();

            /// Field names, in declaration order (for generic reporting).
            pub const FIELD_NAMES: [&'static str; Self::COUNT] =
                [$(stringify!($field)),+];

            /// A zeroed counter set.
            pub fn new() -> AccessStats {
                AccessStats::default()
            }

            /// Total bytes moved over the fabric in either direction.
            #[inline]
            pub fn bytes_total(&self) -> u64 {
                self.bytes_read + self.bytes_written
            }

            /// Component-wise difference `self - earlier`, for measuring
            /// one operation or one experiment phase. Counters are
            /// monotone, so `earlier` must be the *older* snapshot;
            /// swapping the arguments trips a debug assertion naming the
            /// offending field (and saturates to zero in release builds)
            /// instead of underflow-panicking mid-experiment.
            pub fn since(&self, earlier: &AccessStats) -> AccessStats {
                AccessStats {
                    $($field: {
                        debug_assert!(
                            self.$field >= earlier.$field,
                            concat!(
                                "AccessStats::since: `",
                                stringify!($field),
                                "` is smaller than in `earlier` — \
                                 snapshots passed in the wrong order?"
                            ),
                        );
                        self.$field.saturating_sub(earlier.$field)
                    },)+
                }
            }

            /// Component-wise sum, for aggregating over clients.
            pub fn merge(&mut self, other: &AccessStats) {
                $(self.$field += other.$field;)+
            }

            /// All counters, in [`FIELD_NAMES`](Self::FIELD_NAMES) order.
            pub fn to_array(&self) -> [u64; Self::COUNT] {
                [$(self.$field),+]
            }

            /// Builds a counter set from [`to_array`](Self::to_array)'s
            /// layout.
            pub fn from_array(values: [u64; Self::COUNT]) -> AccessStats {
                let mut it = values.into_iter();
                AccessStats {
                    $($field: it.next().expect("array length matches"),)+
                }
            }

            /// The counters as one JSON object, `{"round_trips":…,…}` in
            /// declaration order: what the trace and flight exporters
            /// write for a stats delta.
            pub fn to_json(&self) -> String {
                let members =
                    [$(format!(concat!("\"", stringify!($field), "\":{}"), self.$field)),+];
                format!("{{{}}}", members.join(","))
            }
        }
    };
}

access_stats! {
    /// Dependent far round trips (the paper's "far accesses").
    round_trips,
    /// Individual fabric messages issued (≥ `round_trips`).
    messages,
    /// Unsignaled posted writes: issued without waiting for completion
    /// (not a dependent round trip; e.g. the HT-tree's statistics
    /// counters).
    posted_messages,
    /// Payload bytes read from far memory.
    bytes_read,
    /// Payload bytes written to far memory.
    bytes_written,
    /// Atomic fabric operations (CAS / fetch-add and indirect variants).
    atomics,
    /// Memory-side forwarding hops for cross-node indirections (§7.1).
    forward_hops,
    /// Client re-issues of an indirect verb's target that the pointer's
    /// node refused (§7.1 error mode): each adds one round trip.
    reissues,
    /// Notifications received (including coalesced representatives).
    notifications,
    /// Notifications that were coalesced into an already-pending event.
    notifications_coalesced,
    /// Notifications dropped by best-effort delivery or spike suppression.
    notifications_lost,
    /// Near (client-local cache) accesses — cheap, shown for contrast.
    near_accesses,
    /// Verb attempts reissued after a transient fault (retry policy).
    retries,
    /// Verbs abandoned after exhausting the retry budget.
    giveups,
    /// Faults injected into this client's verbs (transient failures,
    /// timeouts and latency spikes; see [`FaultPlan`](crate::fault::FaultPlan)).
    faults_injected,
    /// Descriptors executed through a pipeline doorbell (each also counts
    /// its round trips / messages / bytes exactly as the serial verb would).
    pipelined_ops,
    /// Pipeline doorbells rung (one per `IssueQueue::commit`).
    doorbells,
    /// Virtual nanoseconds saved by overlapping pipelined descriptors
    /// across nodes, versus issuing the same verbs serially.
    overlap_saved_ns,
    /// Bytes this client handed to a reclamation limbo (deferred frees
    /// awaiting an epoch grace period; booked by `farmem-reclaim`).
    retired_bytes,
    /// Bytes actually returned to the allocator after their grace period
    /// elapsed. `retired_bytes - reclaimed_bytes` is the limbo footprint.
    reclaimed_bytes,
    /// Grace-period detection rounds run (each is one scan of the epoch
    /// registry; its round trips are also counted in `round_trips`).
    reclaim_rounds,
    /// Mirror messages fanned out to replicas by mutating verbs (each also
    /// counts in `messages`; see `crate::replica`). `messages -
    /// replica_messages` is the unreplicated message count, so the fan-out
    /// overhead of a K-replica fabric stays auditable.
    replica_messages,
    /// Failovers this client completed (or adopted): a permanent primary
    /// loss it survived by re-issuing against a promoted replica.
    failovers,
    /// Group-view refreshes forced by `FabricError::FencedEpoch`: the
    /// client was routing to a deposed primary and paid one round trip
    /// to fetch the new configuration.
    fence_refreshes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_merge_are_inverses() {
        let mut a = AccessStats::new();
        a.round_trips = 5;
        a.messages = 9;
        a.bytes_read = 128;
        let mut b = a;
        b.round_trips = 7;
        b.messages = 12;
        b.bytes_read = 160;
        let d = b.since(&a);
        assert_eq!(d.round_trips, 2);
        assert_eq!(d.messages, 3);
        let mut sum = a;
        sum.merge(&d);
        assert_eq!(sum, b);
    }

    /// Regression test for the `since` underflow hazard: a caller that
    /// passes a *later* snapshot as `earlier` must hit a descriptive
    /// debug assertion (release builds saturate to zero instead), not a
    /// bare `attempt to subtract with overflow` panic deep in a report.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "snapshots passed in the wrong order")]
    fn since_with_swapped_snapshots_trips_the_debug_assertion() {
        let mut later = AccessStats::new();
        later.round_trips = 3;
        let earlier = AccessStats::new();
        let _ = earlier.since(&later);
    }

    /// Every field participates in `since` and `merge` — the macro makes
    /// drift impossible, and this test proves it for the current list by
    /// exercising each counter with a distinct value.
    #[test]
    fn no_field_is_skipped_in_delta_or_aggregation() {
        let mut lo = [0u64; AccessStats::COUNT];
        let mut hi = [0u64; AccessStats::COUNT];
        for i in 0..AccessStats::COUNT {
            lo[i] = (i as u64 + 1) * 3;
            hi[i] = (i as u64 + 1) * 10;
        }
        let a = AccessStats::from_array(lo);
        let b = AccessStats::from_array(hi);
        let d = b.since(&a);
        for (i, v) in d.to_array().into_iter().enumerate() {
            assert_eq!(v, hi[i] - lo[i], "field {} skipped in since", AccessStats::FIELD_NAMES[i]);
        }
        let mut sum = a;
        sum.merge(&d);
        assert_eq!(sum, b, "merge must restore every field");
        // The name list stays in sync with the struct.
        assert_eq!(AccessStats::FIELD_NAMES.len(), AccessStats::COUNT);
        let members: Vec<String> = AccessStats::FIELD_NAMES
            .iter()
            .zip(hi)
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        assert_eq!(b.to_json(), format!("{{{}}}", members.join(",")));
    }
}
