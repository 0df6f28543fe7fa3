// fixture-path: crates/baselines/src/seeded_m03.rs
// fixture-expect: lock-across-rt
// Seeded violation: a lease lock held across a verb-per-element drain.
// Four dependent round trips inside the critical section is enough for
// the 100 ms virtual lease to expire under a slow holder.

/// Moves four counters behind the far mutex, one verb at a time.
pub fn drain_counters(
    lock: &FarMutex,
    client: &mut FabricClient,
    src: FarAddr,
    dst: FarAddr,
) -> Result<()> {
    lock.lock(client, 1_000_000)?;
    let a = client.read_u64(src)?;
    let b = client.read_u64(src.offset(WORD))?;
    client.write_u64(dst, a)?;
    client.write_u64(dst.offset(WORD), b)?;
    lock.unlock(client)?;
    Ok(())
}
