//! Reclamation properties: epoch-based grace-period reclamation must be
//! invisible to structure semantics.
//!
//! * **Twin-fabric equivalence**: a random insert/delete/overwrite
//!   program, run once with reclamation on and once with it off, yields
//!   identical structure contents — and the reclaim run's limbo always
//!   drains to empty once every client pins past the last seal.
//! * **Publish conservation**: every `HtTreeHandle::publish` returns
//!   exactly the model's previous value for its key — across long chains
//!   and forced restructures — so each record is retired once
//!   and the allocator ends where the empty map began.
//! * **Guard safety**: while any client holds an epoch guard pinned
//!   before a restructure, no grace-detection round frees a single byte;
//!   the pinned client's view stays exact throughout.
//! * **Crash eviction**: a client that stops participating (simulated
//!   crash, under seeded fault injection) is evicted from the epoch
//!   registry after its lease, reclamation resumes, and the survivor's
//!   data is intact.

use farmem::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn fabric(seed: u64, fault_ppm: u32) -> Arc<Fabric> {
    let mut cfg = FabricConfig::count_only(256 << 20);
    if fault_ppm > 0 {
        cfg.faults = FaultPlan::transient(fault_ppm).with_seed(seed);
    }
    cfg.build()
}

#[derive(Debug, Clone)]
enum ChurnOp {
    /// `(client, key, value)` — insert or overwrite.
    Put(usize, u64, u64),
    /// `(client, key)` — delete.
    Remove(usize, u64),
    /// `(client, key)` — lookup (pins a guard; value checked vs model).
    Get(usize, u64),
    /// `(client)` — run one grace-detection round mid-program.
    Reclaim(usize),
}

fn churn_ops(max_key: u64) -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        prop_oneof![
            // Put twice: bias churn toward inserts/overwrites.
            (0..2usize, 0..max_key, any::<u64>()).prop_map(|(c, k, v)| ChurnOp::Put(c, k, v)),
            (0..2usize, 0..max_key, any::<u64>()).prop_map(|(c, k, v)| ChurnOp::Put(c, k, v)),
            (0..2usize, 0..max_key).prop_map(|(c, k)| ChurnOp::Remove(c, k)),
            (0..2usize, 0..max_key).prop_map(|(c, k)| ChurnOp::Get(c, k)),
            (0..2usize).prop_map(ChurnOp::Reclaim),
        ],
        1..250,
    )
}

/// Runs `ops` on one fabric, with or without reclamation, through two
/// interleaved clients; returns the final `(contents, live_bytes)`.
fn run_program(
    ops: &[ChurnOp],
    reclaim_on: bool,
) -> (HashMap<u64, u64>, u64) {
    let f = fabric(0, 0);
    let alloc = FarAlloc::new(f.clone());
    let mut c = [f.client(), f.client()];
    let cfg = HtTreeConfig { initial_buckets: 4, ..HtTreeConfig::default() };
    let shared = if reclaim_on {
        let reg = ReclaimRegistry::create(&mut c[0], &alloc, 4).unwrap();
        Some([
            reg.attach(&mut c[0], &alloc).unwrap(),
            reg.attach(&mut c[1], &alloc).unwrap(),
        ])
    } else {
        None
    };
    let tree = HtTree::create(&mut c[0], &alloc, cfg).unwrap();
    let mut h: Vec<_> = (0..2)
        .map(|i| match &shared {
            Some(s) => tree
                .attach_reclaimed(&mut c[i], &alloc, cfg, s[i].clone())
                .unwrap(),
            None => tree.attach(&mut c[i], &alloc, cfg).unwrap(),
        })
        .collect();
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            ChurnOp::Put(i, k, v) => {
                h[i].put(&mut c[i], k, v).unwrap();
                model.insert(k, v);
            }
            ChurnOp::Remove(i, k) => {
                h[i].remove(&mut c[i], k).unwrap();
                model.remove(&k);
            }
            ChurnOp::Get(i, k) => {
                assert_eq!(h[i].get(&mut c[i], k).unwrap(), model.get(&k).copied());
            }
            ChurnOp::Reclaim(i) => {
                if let Some(s) = &shared {
                    s[i].lock().unwrap().reclaim(&mut c[i]).unwrap();
                }
            }
        }
    }
    // Read the final contents through BOTH handles: if reclamation ever
    // freed (and allowed reuse of) memory a handle could still reach,
    // one of these reads would see foreign or torn data.
    let mut contents = HashMap::new();
    for (k, v) in &model {
        for i in 0..2 {
            assert_eq!(h[i].get(&mut c[i], *k).unwrap(), Some(*v), "client {i} key {k}");
        }
        contents.insert(*k, *v);
    }
    if let Some(s) = &shared {
        // Seal anything pending, let both clients pin past it, and run a
        // final round per client: every limbo must drain to empty.
        for i in 0..2 {
            s[i].lock().unwrap().seal(&mut c[i]).unwrap();
        }
        for i in 0..2 {
            let _ = h[i].get(&mut c[i], 0).unwrap(); // pins past the seals
        }
        for i in 0..2 {
            let mut r = s[i].lock().unwrap();
            r.reclaim(&mut c[i]).unwrap();
            assert_eq!(
                r.stats().limbo_entries(),
                0,
                "client {i}: all retired memory eventually frees"
            );
        }
    }
    (contents, alloc.stats().live_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Reclamation on vs off: identical contents for arbitrary churn
    /// programs, and the reclaim twin never ends with a larger far-memory
    /// footprint.
    #[test]
    fn reclaim_twin_runs_agree(ops in churn_ops(48)) {
        let (on_contents, on_live) = run_program(&ops, true);
        let (off_contents, off_live) = run_program(&ops, false);
        prop_assert_eq!(on_contents, off_contents);
        prop_assert!(
            on_live <= off_live,
            "reclamation must not grow the footprint: on={on_live} off={off_live}"
        );
    }
}

#[derive(Debug, Clone)]
enum RecordOp {
    /// `(key, record length)` — store a fresh far record under the key.
    Publish(u64, u64),
    /// `(key)` — lookup, remove if found, retire what was found.
    Remove(u64),
    /// `(key)` — lookup, dereference, compare with the model.
    Get(u64),
    /// Restructure the (only) table.
    Split,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// 64 keys in a 4-bucket table that only ever compacts: chains run
    /// sixteen keys deep.
    #[test]
    fn publish_returns_the_model_value_and_every_record_retires_once(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..64, 1u64..300).prop_map(|(k, len)| RecordOp::Publish(k, len)),
                (0u64..64, 1u64..300).prop_map(|(k, len)| RecordOp::Publish(k, len)),
                (0u64..64).prop_map(RecordOp::Remove),
                (0u64..64).prop_map(RecordOp::Get),
                Just(RecordOp::Split),
            ],
            1..200,
        ),
    ) {
        let f = fabric(0, 0);
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
        let shared = reg.attach(&mut c, &alloc).unwrap();
        // `u64::MAX`: no put restructures, and a forced split finds the
        // table sparse whatever it holds — it compacts at the
        // same four buckets, so the tree's own footprint never grows.
        let cfg = HtTreeConfig {
            initial_buckets: 4,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = tree.attach_reclaimed(&mut c, &alloc, cfg, shared.clone()).unwrap();
        let empty_map = alloc.stats().live_bytes;
        let mut model: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
        let retire = |c: &mut FabricClient, ptr: u64| {
            let len = alloc.size_of(FarAddr(ptr)).expect("a superseded record is still allocated");
            shared.lock().unwrap().retire(c, FarAddr(ptr), len).unwrap();
        };
        let remove = |c: &mut FabricClient, h: &mut farmem_core::HtTreeHandle, k: u64| {
            let found = h.get(c, k).unwrap();
            if let Some(ptr) = found {
                h.remove(c, k).unwrap();
                retire(c, ptr);
            }
            found
        };
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                RecordOp::Publish(k, len) => {
                    let bytes = vec![i as u8; len as usize];
                    let rec = alloc.alloc(len, AllocHint::Spread).unwrap();
                    let old = h.publish(&mut c, k, rec, &bytes).unwrap();
                    let was = model.insert(k, (rec.0, bytes)).map(|(ptr, _)| ptr);
                    prop_assert_eq!(old, was, "op {}: publish over key {}", i, k);
                    if let Some(ptr) = old {
                        retire(&mut c, ptr);
                    }
                }
                RecordOp::Remove(k) => {
                    let found = remove(&mut c, &mut h, k);
                    prop_assert_eq!(found, model.remove(&k).map(|(ptr, _)| ptr));
                }
                RecordOp::Get(k) => {
                    let found = h.get(&mut c, k).unwrap();
                    prop_assert_eq!(found, model.get(&k).map(|(ptr, _)| *ptr));
                    if let Some((ptr, bytes)) = model.get(&k) {
                        prop_assert_eq!(&c.read(FarAddr(*ptr), bytes.len() as u64).unwrap(), bytes);
                    }
                }
                RecordOp::Split => h.split(&mut c, 0).unwrap(),
            }
        }
        // Empty the map; a last compaction drops every chain. One sealed
        // grace round (sole client) then returns each retired block — a
        // record retired twice would surface here as `BadFree`.
        for k in 0..64 {
            prop_assert_eq!(remove(&mut c, &mut h, k).is_some(), model.contains_key(&k));
        }
        h.split(&mut c, 0).unwrap();
        let mut r = shared.lock().unwrap();
        r.seal(&mut c).unwrap();
        r.reclaim(&mut c).unwrap();
        prop_assert_eq!(r.stats().limbo_entries(), 0);
        prop_assert_eq!(alloc.stats().live_bytes, empty_map);
    }
}

/// While a guard pinned before a restructure is alive, not one byte is
/// freed; the pinned client's reads stay exact; dropping the guard and
/// pinning again releases the grace period.
#[test]
fn no_free_while_a_guard_can_still_reach_the_memory() {
    let f = fabric(0, 0);
    let alloc = FarAlloc::new(f.clone());
    let mut c1 = f.client();
    let mut c2 = f.client();
    let reg = ReclaimRegistry::create(&mut c1, &alloc, 4).unwrap();
    let s1 = reg.attach(&mut c1, &alloc).unwrap();
    let s2 = reg.attach(&mut c2, &alloc).unwrap();
    let cfg = HtTreeConfig {
        initial_buckets: 8,
        max_load_percent: u64::MAX,
        ..HtTreeConfig::default()
    };
    let tree = HtTree::create(&mut c1, &alloc, cfg).unwrap();
    let mut h1 = tree.attach_reclaimed(&mut c1, &alloc, cfg, s1.clone()).unwrap();
    let mut h2 = tree.attach_reclaimed(&mut c2, &alloc, cfg, s2.clone()).unwrap();
    for k in 0..100u64 {
        h1.put(&mut c1, k, k * 3 + 1).unwrap();
    }
    // The bucket blocks the puts replaced go first: sealed, and freed
    // once c2 has pinned past them.
    s1.lock().unwrap().seal(&mut c1).unwrap();
    drop(pin(&s2, &mut c2).unwrap());
    assert!(s1.lock().unwrap().reclaim(&mut c1).unwrap() > 0, "the replaced blocks");
    // c2 pins and HOLDS the guard: it may dereference its cached tree at
    // any time until the drop.
    let guard = pin(&s2, &mut c2).unwrap();
    let freed_baseline = alloc.stats().freed_bytes;
    // c1 restructures twice and churns; everything lands in limbo.
    h1.split(&mut c1, 0).unwrap();
    for k in 0..100u64 {
        h1.put(&mut c1, k, k * 5 + 2).unwrap();
    }
    h1.split(&mut c1, 0).unwrap();
    // Six blocked rounds charge 1+2+4+8+16+16 = 47 ms of detector time —
    // well inside the holder's LEASE_NS (100 ms). Within its lease, a
    // guard pins every retired byte; a guard held PAST its lease is
    // indistinguishable from a crash and gets evicted (see the eviction
    // test below), which is the price of crash tolerance.
    for _ in 0..6 {
        let freed = s1.lock().unwrap().reclaim(&mut c1).unwrap();
        assert_eq!(freed, 0, "a guard within its lease pins every retired byte");
    }
    assert_eq!(s1.lock().unwrap().stats().evictions, 0, "the holder keeps its lease");
    assert_eq!(
        alloc.stats().freed_bytes,
        freed_baseline,
        "no allocator free at all while the guard is held"
    );
    assert!(
        s1.lock().unwrap().stats().limbo_bytes() > 0,
        "the restructures really did retire memory"
    );
    drop(guard);
    // c2 pins again (observing the new epoch); grace elapses.
    let _ = h2.get(&mut c2, 0).unwrap();
    let freed = s1.lock().unwrap().reclaim(&mut c1).unwrap();
    assert!(freed > 0, "guard released: the grace period elapses");
    for k in 0..100u64 {
        assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k * 5 + 2), "key {k}");
    }
}

/// One pin serves a whole operation: a lookup under a guard its caller
/// already holds — `get`'s own pin, nested in the held one — sees that
/// guard's restructure generation. An epoch advance
/// that retired records only costs a lookup no refresh at all — just the
/// next depth-0 pin's slot CAS, alone for a blocking `pin` and riding the
/// lookup's own batch for the lookup's pin — whether it lands before the
/// guard is pinned or while it is held. Another client's split costs each handle
/// exactly one directory refresh, at its first lookup after the next
/// depth-0 pin has observed the new generation.
#[test]
fn lookups_under_a_held_guard_refresh_the_directory_once_per_observed_restructure() {
    let f = fabric(0, 0);
    let alloc = FarAlloc::new(f.clone());
    let mut c1 = f.client();
    let mut c2 = f.client();
    let reg = ReclaimRegistry::create(&mut c1, &alloc, 4).unwrap();
    let s1 = reg.attach(&mut c1, &alloc).unwrap();
    let s2 = reg.attach(&mut c2, &alloc).unwrap();
    // Splits happen only when asked for.
    let cfg = HtTreeConfig { max_load_percent: u64::MAX, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c1, &alloc, cfg).unwrap();
    let mut h1 = tree.attach_reclaimed(&mut c1, &alloc, cfg, s1.clone()).unwrap();
    // Two handles of one client share its reclaim state; `under` looks up
    // only while the test holds a guard, `nested` also without one.
    let mut nested = tree.attach_reclaimed(&mut c2, &alloc, cfg, s2.clone()).unwrap();
    let mut under = tree.attach_reclaimed(&mut c2, &alloc, cfg, s2.clone()).unwrap();
    h1.put(&mut c1, 7, 70).unwrap();

    // Moves the global epoch over a retired record: no restructure.
    let seal = |c1: &mut FabricClient| {
        let junk = alloc.alloc(64, AllocHint::Spread).unwrap();
        let mut r = s1.lock().unwrap();
        r.retire(c1, junk, 64).unwrap();
        r.seal(c1).unwrap();
    };
    /// Round trips of `op`.
    fn rts<T>(c: &mut FabricClient, op: impl FnOnce(&mut FabricClient) -> T) -> (T, u64) {
        let before = c.stats();
        let out = op(c);
        (out, c.stats().since(&before).round_trips)
    }
    let get7 = |h: &mut farmem::core::HtTreeHandle, c: &mut FabricClient| {
        let (v, rt) = rts(c, |c| h.get(c, 7).unwrap());
        assert_eq!(v, Some(70));
        rt
    };
    let plain = get7(&mut nested, &mut c2);
    let ((), refresh) = rts(&mut c2, |c| under.refresh_directory(c).unwrap());
    assert_eq!(refresh, 3, "anchor, entry count, entries");
    let slot_cas = 1;

    // A seal before the pin: the pin moves the slot, nobody refreshes.
    seal(&mut c1);
    let (guard, rt) = rts(&mut c2, |c| pin(&s2, c).unwrap());
    assert_eq!(rt, slot_cas);
    assert_eq!(get7(&mut nested, &mut c2), plain);
    assert_eq!(get7(&mut under, &mut c2), plain);

    // A seal while the guard is held: nothing moves until it drops, and
    // then the next depth-0 pin's CAS rides the lookup's own batch.
    seal(&mut c1);
    assert_eq!(get7(&mut nested, &mut c2), plain);
    assert_eq!(get7(&mut under, &mut c2), plain);
    drop(guard);
    assert_eq!(get7(&mut nested, &mut c2), plain);
    assert_eq!(nested.stats().stale_refreshes + under.stats().stale_refreshes, 0);

    // Another client's split: one refresh per handle, at the first lookup
    // after a depth-0 pin saw the new generation — and only then.
    let before = s2.lock().unwrap().generation();
    h1.split(&mut c1, 0).unwrap();
    assert_eq!(get7(&mut nested, &mut c2), refresh + plain);
    assert_ne!(s2.lock().unwrap().generation(), before);
    let _held = pin(&s2, &mut c2).unwrap();
    assert_eq!(get7(&mut under, &mut c2), refresh + plain);
    assert_eq!(get7(&mut under, &mut c2), plain);
    assert_eq!(get7(&mut nested, &mut c2), plain);
    assert_eq!(nested.stats().stale_refreshes + under.stats().stale_refreshes, 0);
}

/// A client that stops participating is evicted via the lease rule —
/// under seeded fault injection, for several seeds — and reclamation then
/// proceeds without it. Its own next pin detects the eviction and
/// re-registers.
#[test]
fn crashed_client_is_evicted_and_reclamation_resumes() {
    for seed in [0xA11CEu64, 0xB0B, 0xC0FFEE] {
        let f = fabric(seed, 20_000);
        let alloc = FarAlloc::new(f.clone());
        let mut c1 = f.client();
        let mut c2 = f.client();
        let reg = ReclaimRegistry::create(&mut c1, &alloc, 4).unwrap();
        let s1 = reg.attach(&mut c1, &alloc).unwrap();
        let s2 = reg.attach(&mut c2, &alloc).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 8,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let tree = HtTree::create(&mut c1, &alloc, cfg).unwrap();
        let mut h1 = tree.attach_reclaimed(&mut c1, &alloc, cfg, s1.clone()).unwrap();
        let mut h2 = tree.attach_reclaimed(&mut c2, &alloc, cfg, s2.clone()).unwrap();
        for k in 0..80u64 {
            h1.put(&mut c1, k, k + 9).unwrap();
        }
        // The bucket blocks the puts replaced: sealed now, and freed below
        // once c2's get has pinned past them.
        s1.lock().unwrap().seal(&mut c1).unwrap();
        // c2 participates once, then "crashes" (never pins again).
        assert_eq!(h2.get(&mut c2, 5).unwrap(), Some(14), "seed {seed:#x}");
        assert!(s1.lock().unwrap().reclaim(&mut c1).unwrap() > 0, "seed {seed:#x}");
        h1.split(&mut c1, 0).unwrap();
        // The grace detector waits out c2's lease, evicts it, and frees.
        let mut freed = 0u64;
        let mut rounds = 0u32;
        while freed == 0 {
            rounds += 1;
            assert!(rounds < 200, "seed {seed:#x}: eviction must unblock reclamation");
            freed = s1.lock().unwrap().reclaim(&mut c1).unwrap();
        }
        let st = s1.lock().unwrap().stats();
        assert_eq!(st.evictions, 1, "seed {seed:#x}: exactly one eviction");
        assert!(rounds > 1, "seed {seed:#x}: the lease is not instant");
        // The survivor's data is intact.
        for k in 0..80u64 {
            assert_eq!(h1.get(&mut c1, k).unwrap(), Some(k + 9), "seed {seed:#x} key {k}");
        }
        // The "crashed" client comes back: the slot CAS its first get
        // carries fails against the evicted slot, it re-registers,
        // refreshes and starts the get over, and reads exact data again.
        for k in 0..80u64 {
            assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k + 9), "seed {seed:#x} key {k}");
        }
        assert_eq!(s2.lock().unwrap().stats().evicted, 1, "seed {seed:#x}");
        assert!(c1.stats().faults_injected > 0, "seed {seed:#x}: chaos fired");
    }
}
