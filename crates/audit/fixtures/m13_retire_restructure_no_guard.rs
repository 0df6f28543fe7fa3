// fixture-path: crates/core/src/seeded_m13.rs
// fixture-expect: retire-guard
// Seeded violation (legacy lint): the restructure retire — the one that
// also bumps the generation — with no epoch discipline in sight. A
// table retired this way is freed while stale directories still point
// into it, exactly like a plain retire outside a guard scope.

/// Retires a replaced table's buckets without pinning an epoch.
pub fn drop_table(
    handle: &mut ReclaimHandle,
    client: &mut FabricClient,
    buckets: FarAddr,
    len: u64,
) -> Result<()> {
    handle.retire_restructure(client, buckets, len)?;
    Ok(())
}
