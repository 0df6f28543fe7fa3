// fixture-path: crates/baselines/src/seeded_m07.rs
// fixture-expect: verb-in-drop
// Seeded violation: an RAII lock guard that releases the far lease in
// Drop. The unlock is a fabric round trip; in a destructor its error
// is unreportable, and a drop during failover can double-release a
// lease another client already stole.

pub struct LeaseGuard<'a> {
    lock: &'a FarMutex,
    client: &'a mut FabricClient,
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        let client = &mut *self.client;
        let _ = self.lock.unlock(client);
    }
}
