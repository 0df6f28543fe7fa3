//! Second property-test battery: the extended structure set against
//! in-memory models.

use farmem::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn fabric() -> std::sync::Arc<Fabric> {
    FabricConfig::count_only(128 << 20).build()
}

/// One `blob_map_matches_model` run: `ops` against a `FarBlobMap<H>` in
/// one mode, over a table that splits as it fills. Every record carries
/// its payload length in each header word, and every get is handed a
/// hint picked by its selector — none, the key's current one, any earlier
/// one of the key, or any hint of any key — which must never change what
/// it returns; the selector's top bit sends the get to a second handle,
/// attached before the first store, whose cached tree every later split
/// makes stale. In reclaim mode every mutation is followed by a grace
/// round, so superseded hints name blocks that were freed and, soon,
/// reused — retired tables included, once the second handle's pin has
/// moved past them.
fn blob_map_run<const H: usize>(
    ops: &[(u8, u64, Vec<u8>, u16)],
    reclaimed: bool,
) -> Result<(), TestCaseError> {
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let (mut c, mut c2) = (f.client(), f.client());
    let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
    let shared = reg.attach(&mut c, &alloc).unwrap();
    let reader_shared = reg.attach(&mut c2, &alloc).unwrap();
    let cfg = HtTreeConfig { initial_buckets: 4, ..HtTreeConfig::default() };
    let (mut m, mut reader): (FarBlobMap<H>, FarBlobMap<H>) = if reclaimed {
        let m = FarBlobMap::create_reclaimed(&mut c, &alloc, cfg, shared.clone()).unwrap();
        let r = FarBlobMap::attach_reclaimed(&mut c2, &alloc, m.tree(), cfg, reader_shared.clone());
        (m, r.unwrap())
    } else {
        let m = FarBlobMap::create(&mut c, &alloc, cfg).unwrap();
        let r = FarBlobMap::attach(&mut c2, &alloc, m.tree(), cfg).unwrap();
        (m, r)
    };
    // The same mutations on a bare reclaim-mode tree of another fabric:
    // it splits exactly where the map's tree does, so once every record
    // is gone the two footprints above their empty starts must agree —
    // any byte of difference is a leaked record.
    let twin_f = fabric();
    let twin_alloc = FarAlloc::new(twin_f.clone());
    let mut tc = twin_f.client();
    let twin_reg = ReclaimRegistry::create(&mut tc, &twin_alloc, 4).unwrap();
    let twin_shared = twin_reg.attach(&mut tc, &twin_alloc).unwrap();
    let twin_tree = HtTree::create(&mut tc, &twin_alloc, cfg).unwrap();
    let mut twin = twin_tree.attach_reclaimed(&mut tc, &twin_alloc, cfg, twin_shared.clone()).unwrap();
    let (empty_map, empty_twin) = (alloc.stats().live_bytes, twin_alloc.stats().live_bytes);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    // Every hint each key was ever handed, oldest first.
    let mut hints: HashMap<u64, Vec<RecordHint>> = HashMap::new();
    let mut all_hints: Vec<RecordHint> = Vec::new();
    let grace = |c: &mut FabricClient, shared: &SharedReclaim| {
        let mut r = shared.lock().unwrap();
        r.seal(c).unwrap();
        r.reclaim(c).unwrap();
    };
    // A get, and the hint it hands back: the one the key's last put
    // returned while the key holds a record, whatever hint went in.
    let get = |c: &mut FabricClient, m: &mut FarBlobMap<H>, k: u64, mut hint| {
        let header = std::cell::Cell::new(None);
        let live = |h: &[u64; H]| {
            header.set(Some(*h));
            true
        };
        let got = m.get_if(c, k, &mut hint, live).unwrap().flatten();
        assert_eq!(header.get(), got.as_ref().map(|v| [v.len() as u64; H]), "header of key {k}");
        (got, hint)
    };
    for (op, k, v, pick) in ops.iter().cloned() {
        match op {
            0 => {
                let (_, hint) = m.put(&mut c, k, [v.len() as u64; H], &v).unwrap();
                twin.put(&mut tc, k, 1).unwrap();
                hints.entry(k).or_default().push(hint);
                all_hints.push(hint);
                model.insert(k, v);
            }
            1 => {
                let held = m.remove(&mut c, k).unwrap();
                twin.remove(&mut tc, k).unwrap();
                prop_assert_eq!(held, model.remove(&k).is_some());
            }
            _ => {
                let (kind, nth) = (pick % 4, (pick & 0x7fff) as usize / 4);
                let own = hints.get(&k).map_or(&[][..], |h| h);
                let hint = match kind {
                    0 => None,
                    1 => own.last().copied(),
                    2 => own.get(nth % own.len().max(1)).copied(),
                    _ => all_hints.get(nth % all_hints.len().max(1)).copied(),
                };
                let (got, learned) = if pick & 0x8000 == 0 {
                    get(&mut c, &mut m, k, hint)
                } else {
                    get(&mut c2, &mut reader, k, hint)
                };
                prop_assert_eq!(got, model.get(&k).cloned());
                let current =
                    hints.get(&k).and_then(|h| h.last()).filter(|_| model.contains_key(&k));
                prop_assert_eq!(learned.as_ref(), current);
            }
        }
        if reclaimed && op != 2 {
            grace(&mut c, &shared);
            grace(&mut tc, &twin_shared);
        }
    }
    for (k, v) in &model {
        let current = hints[k].last().copied();
        prop_assert_eq!(get(&mut c, &mut m, *k, current).0.as_ref(), Some(v));
        prop_assert_eq!(get(&mut c2, &mut reader, *k, current).0.as_ref(), Some(v));
    }
    if reclaimed {
        // Drain; the reader gives its slot back, so the one grace round
        // a sole client needs returns each retired record and table.
        for k in 0..48 {
            prop_assert_eq!(m.remove(&mut c, k).unwrap(), model.contains_key(&k));
            twin.remove(&mut tc, k).unwrap();
        }
        reader_shared.lock().unwrap().release(&mut c2).unwrap();
        grace(&mut c, &shared);
        grace(&mut tc, &twin_shared);
        prop_assert_eq!(shared.lock().unwrap().stats().limbo_entries(), 0);
        prop_assert_eq!(m.stats().splits + m.stats().grows, twin.stats().splits + twin.stats().grows);
        prop_assert_eq!(
            alloc.stats().live_bytes - empty_map,
            twin_alloc.stats().live_bytes - empty_twin
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn blob_map_matches_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..48, prop::collection::vec(any::<u8>(), 0..600))
                    .prop_map(|(k, v)| (0u8, k, v, 0u16)),
                (0u64..48).prop_map(|k| (1u8, k, Vec::new(), 0u16)),
                (0u64..48, any::<u16>()).prop_map(|(k, pick)| (2u8, k, Vec::new(), pick)),
            ],
            1..60,
        ),
    ) {
        for reclaimed in [false, true] {
            blob_map_run::<0>(&ops, reclaimed)?;
            blob_map_run::<1>(&ops, reclaimed)?;
        }
    }

    #[test]
    fn write_combiner_equals_direct_writes(
        writes in prop::collection::vec((1u64..400, any::<u64>()), 1..80),
        capacity in 1usize..32,
    ) {
        let f = fabric();
        let mut c = f.client();
        let mut wc = WriteCombiner::new(capacity);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(slot, v) in &writes {
            let addr = FarAddr(4096 + slot * 8);
            if wc.write(&mut c, addr, v).unwrap() {
                wc.flush(&mut c).unwrap();
            }
            model.insert(addr.0, v);
        }
        wc.flush(&mut c).unwrap();
        for (&a, &v) in &model {
            prop_assert_eq!(c.read_u64(FarAddr(a)).unwrap(), v);
        }
    }

    #[test]
    fn cached_vec_update_mode_tracks_writes(
        writes in prop::collection::vec((0u64..64, any::<u64>()), 1..100),
    ) {
        let f = fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut w = f.client();
        let mut r = f.client();
        let v = FarVec::create(&mut w, &alloc, 64, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::with_mode(&mut r, v, CacheMode::Update).unwrap();
        let mut model = vec![0u64; 64];
        for &(i, val) in &writes {
            v.set(&mut w, i, val).unwrap();
            model[i as usize] = val;
            // Interleave reads: the cache must track every write through
            // event payloads alone.
            prop_assert_eq!(cached.get(&mut r, i).unwrap(), val);
        }
        let before = r.stats();
        for i in 0..64u64 {
            prop_assert_eq!(cached.get(&mut r, i).unwrap(), model[i as usize]);
        }
        prop_assert_eq!(r.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn hopscotch_matches_model_when_it_accepts(
        keys in prop::collection::vec(0u64..10_000, 1..120),
    ) {
        let f = fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut t = HopscotchHash::create(&mut c, &alloc, 512).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            match t.insert(&mut c, k, i as u64) {
                Ok(()) => {
                    model.insert(k, i as u64);
                }
                Err(farmem::baselines::BaselineError::TableFull) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(t.get(&mut c, *k).unwrap(), Some(*v));
        }
    }

    #[test]
    fn btree_lookup_matches_btreemap(
        mut keys in prop::collection::vec(0u64..100_000, 2..300),
        probes in prop::collection::vec(0u64..100_000, 1..64),
    ) {
        keys.sort_unstable();
        keys.dedup();
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 3)).collect();
        let model: std::collections::BTreeMap<u64, u64> = items.iter().copied().collect();
        let f = fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let t = OneSidedBTree::build(&mut c, &alloc, &items, 0).unwrap();
        for p in probes {
            prop_assert_eq!(t.get(&mut c, p).unwrap(), model.get(&p).copied());
        }
    }

    #[test]
    fn skiplist_matches_btreemap(
        pairs in prop::collection::vec((0u64..500, any::<u64>()), 1..150),
        probes in prop::collection::vec(0u64..500, 1..64),
    ) {
        let f = fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut s = OneSidedSkipList::create(&mut c, &alloc).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for &(k, v) in &pairs {
            s.insert(&mut c, k, v).unwrap();
            model.insert(k, v);
        }
        for p in probes {
            prop_assert_eq!(s.get(&mut c, p).unwrap(), model.get(&p).copied());
        }
    }

    #[test]
    fn guarded_faai_never_applies_on_mismatch(
        guard_value in any::<u64>(),
        expect in any::<u64>(),
        delta in 1u64..1000,
    ) {
        let f = fabric();
        let mut c = f.client();
        let ptr = FarAddr(64);
        let guard = FarAddr(72);
        c.write_u64(ptr, 4096).unwrap();
        c.write_u64(guard, guard_value).unwrap();
        c.write_u64(FarAddr(4096), 7).unwrap();
        let r = c.faai_guarded(ptr, delta, 8, guard, expect);
        if guard_value == expect {
            let (old, data) = r.unwrap();
            prop_assert_eq!(old, 4096);
            prop_assert_eq!(data, 7u64.to_le_bytes().to_vec());
            prop_assert_eq!(c.read_u64(ptr).unwrap(), 4096 + delta);
        } else {
            let mismatch = matches!(
                r,
                Err(farmem::fabric::FabricError::GuardMismatch { observed }) if observed == guard_value
            );
            prop_assert!(mismatch);
            prop_assert_eq!(c.read_u64(ptr).unwrap(), 4096);
        }
    }
}
