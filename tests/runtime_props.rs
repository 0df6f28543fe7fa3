//! Twin-run properties of the async runtime (DESIGN.md §12).
//!
//! The executor's contract is an *identity*: a program run through the
//! async verbs and adopters must produce the same answers, the same far
//! memory, and the same access counters as the blocking run — latency
//! hiding is never work skipping. Since PR 14 each batched adopter has
//! one body, so the two runs no longer compare two copies of the code:
//! they compare the two *doorbells* that body can be given — the inline
//! one (a borrowed `FabricClient`, every ring completes on the spot) and
//! the reactor's (park, fire in virtual-time order, wake). These tests
//! pin the identity down with an arbitrary mixed-verb program (proptest),
//! the three structure adopters end to end, the record layer's batched
//! gets under reclamation, and the guard-across-suspension reclaim rules.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use farmem::prelude::*;
use farmem_runtime::TaskHandle;
use proptest::prelude::*;

// --- mixed-verb twin programs -------------------------------------------

/// One verb against a small set of word-aligned slots (the PR-3 pipeline
/// vocabulary); ops may collide on a slot, so execution order is
/// semantically load-bearing.
#[derive(Debug, Clone)]
enum VerbOp {
    WriteWord(usize, u64),
    ReadWord(usize),
    Cas(usize, u64, u64),
    Faa(usize, u64),
    WriteBytes(usize, Vec<u8>),
    ReadBytes(usize, u64),
}

/// A program step: one suspending serial verb, or one batch committed
/// behind a single doorbell.
#[derive(Debug, Clone)]
enum Step {
    Serial(VerbOp),
    Batch(Vec<VerbOp>),
}

const VERB_SLOTS: usize = 8;

/// Slot i's address: 64-byte-spaced words alternating between two stripe
/// pages, so programs exercise both nodes of the striped fabric.
fn verb_slot_addr(i: usize) -> FarAddr {
    FarAddr(4096 * (1 + (i as u64 % 2)) + (i as u64 / 2) * 64)
}

fn one_verb() -> impl Strategy<Value = VerbOp> {
    prop_oneof![
        ((0..VERB_SLOTS), any::<u64>()).prop_map(|(s, v)| VerbOp::WriteWord(s, v)),
        (0..VERB_SLOTS).prop_map(VerbOp::ReadWord),
        ((0..VERB_SLOTS), (0u64..4), (1u64..1000)).prop_map(|(s, e, n)| VerbOp::Cas(s, e, n)),
        ((0..VERB_SLOTS), (1u64..100)).prop_map(|(s, d)| VerbOp::Faa(s, d)),
        ((0..VERB_SLOTS), prop::collection::vec(any::<u8>(), 8..33))
            .prop_map(|(s, b)| VerbOp::WriteBytes(s, b)),
        ((0..VERB_SLOTS), (8u64..33)).prop_map(|(s, l)| VerbOp::ReadBytes(s, l)),
    ]
}

fn program() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            one_verb().prop_map(Step::Serial),
            prop::collection::vec(one_verb(), 2..8).prop_map(Step::Batch),
        ],
        1..24,
    )
}

fn twin_fabric() -> Arc<Fabric> {
    FabricConfig {
        nodes: 2,
        node_capacity: 1 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::DEFAULT,
        ..FabricConfig::default()
    }
    .build()
}

/// The blocking twin: serial verbs plus synchronous pipeline commits.
fn run_sync(c: &mut FabricClient, prog: &[Step]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for step in prog {
        match step {
            Step::Serial(op) => match op {
                VerbOp::WriteWord(s, v) => c.write_u64(verb_slot_addr(*s), *v).unwrap(),
                VerbOp::ReadWord(s) => {
                    out.push(c.read_u64(verb_slot_addr(*s)).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::Cas(s, e, n) => {
                    out.push(c.cas(verb_slot_addr(*s), *e, *n).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::Faa(s, d) => {
                    out.push(c.faa(verb_slot_addr(*s), *d).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::WriteBytes(s, b) => c.write(verb_slot_addr(*s), b).unwrap(),
                VerbOp::ReadBytes(s, l) => out.push(c.read(verb_slot_addr(*s), *l).unwrap()),
            },
            Step::Batch(ops) => {
                let mut q = c.pipeline();
                for op in ops {
                    match op {
                        VerbOp::WriteWord(s, v) => {
                            q.write_u64(verb_slot_addr(*s), *v);
                        }
                        VerbOp::ReadWord(s) => {
                            q.read_u64(verb_slot_addr(*s));
                        }
                        VerbOp::Cas(s, e, n) => {
                            q.cas(verb_slot_addr(*s), *e, *n);
                        }
                        VerbOp::Faa(s, d) => {
                            q.faa(verb_slot_addr(*s), *d);
                        }
                        VerbOp::WriteBytes(s, b) => {
                            q.write(verb_slot_addr(*s), b);
                        }
                        VerbOp::ReadBytes(s, l) => {
                            q.read(verb_slot_addr(*s), *l);
                        }
                    }
                }
                let cq = q.commit();
                assert!(cq.status().is_ok());
                for (op, o) in ops.iter().zip(cq.into_outputs().unwrap()) {
                    match op {
                        VerbOp::ReadWord(_) | VerbOp::Cas(..) | VerbOp::Faa(..) => {
                            out.push(o.value().to_le_bytes().to_vec())
                        }
                        VerbOp::ReadBytes(..) => out.push(o.into_bytes()),
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

/// The suspending twin: the same program through [`AsyncClient`] verbs
/// and [`AsyncClient::ring`] doorbells.
async fn run_async(ac: AsyncClient, prog: Vec<Step>) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for step in &prog {
        match step {
            Step::Serial(op) => match op {
                VerbOp::WriteWord(s, v) => ac.write_u64(verb_slot_addr(*s), *v).await.unwrap(),
                VerbOp::ReadWord(s) => out.push(
                    ac.read_u64(verb_slot_addr(*s)).await.unwrap().to_le_bytes().to_vec(),
                ),
                VerbOp::Cas(s, e, n) => out.push(
                    ac.cas(verb_slot_addr(*s), *e, *n).await.unwrap().to_le_bytes().to_vec(),
                ),
                VerbOp::Faa(s, d) => out.push(
                    ac.faa(verb_slot_addr(*s), *d).await.unwrap().to_le_bytes().to_vec(),
                ),
                VerbOp::WriteBytes(s, b) => ac.write(verb_slot_addr(*s), b.clone()).await.unwrap(),
                VerbOp::ReadBytes(s, l) => {
                    out.push(ac.read(verb_slot_addr(*s), *l).await.unwrap())
                }
            },
            Step::Batch(ops) => {
                let mut b = DescList::new();
                for op in ops {
                    match op {
                        VerbOp::WriteWord(s, v) => {
                            b.write_u64(verb_slot_addr(*s), *v);
                        }
                        VerbOp::ReadWord(s) => {
                            b.read_u64(verb_slot_addr(*s));
                        }
                        VerbOp::Cas(s, e, n) => {
                            b.cas(verb_slot_addr(*s), *e, *n);
                        }
                        VerbOp::Faa(s, d) => {
                            b.faa(verb_slot_addr(*s), *d);
                        }
                        VerbOp::WriteBytes(s, bytes) => {
                            b.write(verb_slot_addr(*s), bytes);
                        }
                        VerbOp::ReadBytes(s, l) => {
                            b.read(verb_slot_addr(*s), *l);
                        }
                    }
                }
                let cq = ac.ring(b).await;
                assert!(cq.status().is_ok());
                for (op, o) in ops.iter().zip(cq.into_outputs().unwrap()) {
                    match op {
                        VerbOp::ReadWord(_) | VerbOp::Cas(..) | VerbOp::Faa(..) => {
                            out.push(o.value().to_le_bytes().to_vec())
                        }
                        VerbOp::ReadBytes(..) => out.push(o.into_bytes()),
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The runtime's core identity, as a property over arbitrary mixed
    /// serial/batch programs on twin fabrics — blocking verbs and
    /// `FabricClient::ring` on one side, the reactor firing the same
    /// descriptors and lists on the other: same answers, same final
    /// far memory, every access counter identical (including
    /// `overlap_saved_ns` — the twins see identical node occupancy),
    /// identical virtual clocks, and a completion-driven poll discipline
    /// (2 polls per doorbell, 0 wasted).
    #[test]
    fn async_programs_are_equivalent_to_blocking_twins(prog in program()) {
        // Blocking twin.
        let f = twin_fabric();
        let mut c = f.client();
        let sync_out = run_sync(&mut c, &prog);
        let sync_stats = c.stats();
        let sync_ns = c.now_ns();
        let sync_mem: Vec<Vec<u8>> =
            (0..VERB_SLOTS).map(|s| c.read(verb_slot_addr(s), 64).unwrap()).collect();

        // Suspending twin.
        let f = twin_fabric();
        let mut ex = Executor::new();
        let p = prog.clone();
        let h = ex.spawn(f.client(), move |ac| run_async(ac, p));
        ex.run();
        let async_out = h.take().unwrap();
        let mut probe = f.client();
        let async_mem: Vec<Vec<u8>> =
            (0..VERB_SLOTS).map(|s| probe.read(verb_slot_addr(s), 64).unwrap()).collect();

        prop_assert_eq!(async_out, sync_out, "answers must match the blocking order");
        prop_assert_eq!(async_mem, sync_mem, "final far memory must be identical");
        prop_assert_eq!(
            h.stats().to_array(),
            sync_stats.to_array(),
            "every access counter must be byte-identical"
        );
        prop_assert_eq!(h.now_ns(), sync_ns, "virtual clocks must agree on a twin fabric");
        let r = h.report();
        prop_assert_eq!(r.verb_polls, 2 * r.doorbells_fired, "one park + one consume per doorbell");
        prop_assert_eq!(r.wasted_polls, 0, "completion-driven, never spin-polled");
    }
}

// --- structure adopters -------------------------------------------------

/// The three `crates/core` adopters, each one body, run over an inline
/// doorbell (the blocking public functions) and over the reactor's (the
/// `_async` ones) on identically prepared fabrics: same answers, same
/// counters, same clock. What this pins is inline-doorbell versus reactor
/// accounting — serial doorbells, firing order — not the agreement of two
/// copies of the adopter.
#[test]
fn structure_adopters_match_blocking_twins() {
    let build = || {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 64 << 20,
            striping: Striping::Striped { stripe: 4096 },
            cost: CostModel::DEFAULT,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let vec = FarVec::create(&mut c, &alloc, 64 * 16, AllocHint::Striped).unwrap();
        for r in 0..64u64 {
            let vals: Vec<u64> = (0..16).map(|j| r * 16 + j + 1).collect();
            vec.write_range(&mut c, r * 16, &vals).unwrap();
        }
        let cfg = HtTreeConfig { initial_buckets: 32, ..Default::default() };
        let map = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = map.attach(&mut c, &alloc, cfg).unwrap();
        for k in 0..64u64 {
            h.put(&mut c, k, k * 5 + 2).unwrap();
        }
        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(64, 2)).unwrap();
        let mut qh = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for j in 0..12u64 {
            qh.enqueue(&mut c, 100 + j).unwrap();
        }
        (f, alloc, vec, map, cfg, q.hdr())
    };
    let ranges: Vec<(u64, u64)> = (0..8u64).map(|r| (r * 16 * 2, 16)).collect();
    let keys: Vec<u64> = (0..24u64).map(|j| (j * 13) % 64).collect();

    // Blocking twin.
    let (f, alloc, vec, map, cfg, q_hdr) = build();
    let mut c = f.client();
    let sync_ranges = vec.read_ranges(&mut c, &ranges).unwrap();
    let mut h = map.attach(&mut c, &alloc, cfg).unwrap();
    let sync_gets = h.get_many(&mut c, &keys).unwrap();
    let mut qh = FarQueue::attach(&mut c, q_hdr).unwrap();
    let sync_deqs = qh.dequeue_batch(&mut c, 12).unwrap();
    let sync_stats = c.stats();
    let sync_ns = c.now_ns();

    // Suspending twin.
    let (f, alloc, vec, map, cfg, q_hdr) = build();
    let mut ex = Executor::new();
    let (r2, k2) = (ranges.clone(), keys.clone());
    let handle = ex.spawn(f.client(), move |ac| async move {
        let rr = vec.read_ranges_async(&ac, &r2).await.unwrap();
        let mut h = ac.with(|c| map.attach(c, &alloc, cfg)).unwrap();
        let gg = h.get_many_async(&ac, &k2).await.unwrap();
        let mut qh = ac.with(|c| FarQueue::attach(c, q_hdr)).unwrap();
        let dd = qh.dequeue_batch_async(&ac, 12).await.unwrap();
        (rr, gg, dd)
    });
    ex.run();
    let (async_ranges, async_gets, async_deqs) = handle.take().unwrap();

    assert_eq!(async_ranges, sync_ranges);
    assert_eq!(async_gets, sync_gets);
    assert_eq!(sync_gets.iter().filter(|g| g.is_some()).count(), keys.len(), "all keys present");
    assert_eq!(async_deqs, sync_deqs);
    assert_eq!(async_deqs, (0..12u64).map(|j| 100 + j).collect::<Vec<_>>(), "FIFO preserved");
    assert_eq!(handle.stats().to_array(), sync_stats.to_array(), "adopter counters identical");
    assert_eq!(handle.now_ns(), sync_ns, "adopter clocks identical on twin fabrics");
    assert_eq!(handle.report().wasted_polls, 0);
}

/// `key`'s value once written in `round`: every fourth key's is longer
/// than the record prefetch, so its get reads a tail.
fn record_value(key: u64, round: u64) -> Vec<u8> {
    vec![(key + 7 * round) as u8; if key.is_multiple_of(4) { 600 } else { 64 }]
}

/// The writer's move after the reader's `round`-th batch, identical on
/// both twins: round 1 overwrites every third key (retiring the records
/// it supersedes) and seals — a plain seal; round 2 retires a block as a
/// restructure and seals. Every round ends in one grace round, whose
/// freed bytes the twins compare.
fn writer_step(
    round: u64,
    w: &mut FabricClient,
    map: &mut FarBlobMap,
    shared: &SharedReclaim,
    alloc: &Arc<FarAlloc>,
) -> u64 {
    match round {
        1 => {
            for k in (0..24).step_by(3) {
                map.put(w, k, [], &record_value(k, 1)).unwrap();
            }
            shared.lock().unwrap().seal(w).unwrap();
        }
        2 => {
            let block = alloc.alloc(64, AllocHint::Spread).unwrap();
            let mut h = shared.lock().unwrap();
            h.retire_restructure(w, block, 64).unwrap();
            h.seal(w).unwrap();
        }
        _ => {}
    }
    shared.lock().unwrap().reclaim(w).unwrap()
}

/// A reclaim handle's (published epoch, restructure generation).
fn epoch_and_generation(shared: &SharedReclaim) -> (u64, u64) {
    let h = shared.lock().unwrap();
    (h.observed_epoch(), h.generation())
}

/// The product's async shape with reclamation on: serve's batched record
/// get (`FarBlobMap::get_many_async`, reclaim mode, hints in and out) run
/// by the reactor on one fabric and as the blocking `get_many` on a twin,
/// while a second client retires and seals between batches. Each batch
/// pins its guard and holds it across the lookup doorbell, the record
/// doorbell and the long values' tail reads. After the plain seal the
/// next pin's slot CAS rides the lookup doorbell's first descriptor;
/// after the restructure seal the pin also re-reads the directory. Answers, hints, the whole counter array and the clock
/// match: the reactor moves no slot at a wake.
#[test]
fn reclaimed_record_gets_match_blocking_twins_across_seals() {
    // Per batch: answers, hints after it, (epoch, generation) its pin saw,
    // bytes the writer's next grace round freed, and the batch's cost.
    type Round =
        (Vec<Option<Option<Vec<u8>>>>, Vec<Option<RecordHint>>, (u64, u64), u64, AccessStats);
    let build = || {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 64 << 20,
            striping: Striping::Striped { stripe: 4096 },
            cost: CostModel::DEFAULT,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
        // Roomy enough that no put splits or compacts: the one
        // restructure is the writer's.
        let cfg = HtTreeConfig { initial_buckets: 128, ..Default::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut w = f.client();
        let ws = reg.attach(&mut w, &alloc).unwrap();
        let mut wm = FarBlobMap::<0>::attach_reclaimed(&mut w, &alloc, tree, cfg, ws.clone()).unwrap();
        for k in 0..24u64 {
            wm.put(&mut w, k, [], &record_value(k, 0)).unwrap();
        }
        (f, alloc, reg, tree, cfg, (w, wm, ws))
    };
    // Every stored key, and one never stored.
    let keys: Vec<u64> = (0..24u64).chain([1000]).collect();

    // Blocking twin.
    let (f, alloc, reg, tree, cfg, (mut w, mut wm, ws)) = build();
    let mut r = f.client();
    let rs = reg.attach(&mut r, &alloc).unwrap();
    let mut rm = FarBlobMap::<0>::attach_reclaimed(&mut r, &alloc, tree, cfg, rs.clone()).unwrap();
    let at_attach = epoch_and_generation(&rs);
    let mut hints = vec![None; keys.len()];
    let mut sync_rounds: Vec<Round> = Vec::new();
    for round in 1..=3 {
        let before = r.stats();
        let got = rm.get_many(&mut r, &keys, &mut hints, |_| true).unwrap();
        let cost = r.stats().since(&before);
        let seen = epoch_and_generation(&rs);
        let freed = writer_step(round, &mut w, &mut wm, &ws, &alloc);
        sync_rounds.push((got, hints.clone(), seen, freed, cost));
    }
    let sync_stats = r.stats();
    let sync_ns = r.now_ns();

    // Suspending twin.
    let (f, alloc, reg, tree, cfg, (mut w, mut wm, ws)) = build();
    let mut ex = Executor::new();
    let k2 = keys.clone();
    let handle = ex.spawn(f.client(), move |ac| async move {
        let rs = ac.with(|c| reg.attach(c, &alloc)).unwrap();
        let mut rm = ac
            .with(|c| FarBlobMap::<0>::attach_reclaimed(c, &alloc, tree, cfg, rs.clone()))
            .unwrap();
        let mut hints = vec![None; k2.len()];
        let mut rounds: Vec<Round> = Vec::new();
        for round in 1..=3 {
            let before = ac.stats();
            let got = rm.get_many_async(&ac, &k2, &mut hints, |_| true).await.unwrap();
            let cost = ac.stats().since(&before);
            let seen = epoch_and_generation(&rs);
            let freed = writer_step(round, &mut w, &mut wm, &ws, &alloc);
            rounds.push((got, hints.clone(), seen, freed, cost));
        }
        rounds
    });
    ex.run();
    let async_rounds = handle.take().unwrap();

    assert_eq!(async_rounds, sync_rounds, "answers, hints, epochs and frees per batch");
    assert_eq!(handle.stats().to_array(), sync_stats.to_array(), "every counter identical");
    assert_eq!(handle.now_ns(), sync_ns, "clocks identical on twin fabrics");
    assert_eq!(handle.report().wasted_polls, 0);

    // The run is the one described: values as written, one seal seen per
    // batch, one restructure, and grace moved by the reader's pins alone.
    for (round, (got, ..)) in sync_rounds.iter().enumerate() {
        let written = |k: u64| u64::from(round > 0 && k.is_multiple_of(3));
        let want: Vec<_> = (0..24u64).map(|k| Some(Some(record_value(k, written(k))))).collect();
        assert_eq!(got[..24], want[..], "batch {}", round + 1);
        assert_eq!(got[24], None, "the never-stored key");
    }
    let seen: Vec<_> =
        sync_rounds.iter().map(|&(_, _, (e, g), ..)| (e - at_attach.0, g - at_attach.1)).collect();
    assert_eq!(seen, [(0, 0), (1, 0), (2, 1)], "(seals, restructures) seen by each batch's pin");
    let pins: Vec<_> = sync_rounds.iter().map(|(.., cost)| cost.atomics).collect();
    assert_eq!(pins, [0, 1, 1], "a pin past a seal is the batch's one atomic");
    // 25 lookups each, one far access per key (the never-stored key's
    // empty bucket answers its descriptor, a round trip as for `get`);
    // batch 1 reads 24 records and 6 tails, batch 2 its 8 stale records
    // and 2 tails, batch 3 only the directory re-read (anchor, entry
    // count, entries). The CAS of batches 2 and 3 rides their first
    // descriptor: a message and an atomic, no round trip.
    let far: Vec<_> = sync_rounds.iter().map(|(.., cost)| cost.round_trips).collect();
    assert_eq!(far, [25 + 24 + 6, 25 + 8 + 2, 25 + 3]);
    let freed: Vec<_> = sync_rounds.iter().map(|&(.., freed, _)| freed).collect();
    assert_eq!(freed[0], 0, "the reader's slot still covers the overwritten records");
    assert!(freed[1] > 0, "the reader's next pin let their grace complete");
    assert_eq!(freed[2], 64, "and the restructure's block after the next");
}

// --- guards across suspension -------------------------------------------

/// The reclaim contract for a parked task is the blocking one:
///
/// * a [`Guard`] pinned through `ac.with` and held across doorbells
///   *pins* — a concurrent reclaimer frees nothing and, within the lease,
///   evicts nothing;
/// * the runtime touches no slot — across the wakes where the task takes
///   no pin, guard held or dropped, its published epoch stays where its
///   last pin put it;
/// * dropping the guard does not *leak* — the task's next pin moves its
///   slot in one CAS and the reclaimer's grace period completes.
#[test]
fn guard_across_suspension_neither_leaks_nor_evicts() {
    let f = FabricConfig::count_only(16 << 20).build();
    let a = FarAlloc::new(f.clone());
    let mut setup = f.client();
    let reg = ReclaimRegistry::create(&mut setup, &a, 4).unwrap();
    let block = a.alloc(256, AllocHint::Spread).unwrap();
    let addr = a.alloc(8, AllocHint::Spread).unwrap();

    let sealed = Rc::new(Cell::new(false));
    let repinned = Rc::new(Cell::new(false));
    let guarded_zero_rounds = Rc::new(Cell::new(0u32));

    let mut ex = Executor::new();

    // Task P: pins, parks at three doorbells holding the guard, drops it,
    // parks at three more, then pins again. It runs first, so it pins
    // before the reclaimer retires.
    let (reg_p, a_p) = (reg, a.clone());
    let (sealed_p, repinned_p) = (sealed.clone(), repinned.clone());
    let parked: TaskHandle<()> = ex.spawn(f.client(), move |ac| async move {
        let shared = ac.with(|c| reg_p.attach(c, &a_p)).unwrap();
        let g = ac.with(|c| pin(&shared, c)).unwrap();
        let epoch = || shared.lock().unwrap().observed_epoch();
        let pinned_at = epoch();
        for _ in 0..3 {
            ac.read_u64(addr).await.unwrap();
            assert_eq!(epoch(), pinned_at, "a wake inside the guard moved the slot");
        }
        assert!(sealed_p.get(), "the reclaimer sealed while the guard was held");
        drop(g);
        for _ in 0..3 {
            ac.read_u64(addr).await.unwrap();
            assert_eq!(epoch(), pinned_at, "a wake with no pin moved the slot");
        }
        let before = ac.stats();
        drop(ac.with(|c| pin(&shared, c)).unwrap());
        let cost = ac.stats().since(&before);
        assert_eq!((cost.round_trips, cost.atomics), (1, 1), "the next pin is one CAS");
        assert_eq!(epoch(), pinned_at + 1);
        repinned_p.set(true);
    });

    // Task R: retires a block, then runs grace rounds until P re-pins.
    let (reg_r, a_r) = (reg, a.clone());
    let (sealed_r, repinned_r, zeros) = (sealed.clone(), repinned.clone(), guarded_zero_rounds.clone());
    let reclaimer = ex.spawn(f.client(), move |ac| async move {
        let shared = ac.with(|c| reg_r.attach(c, &a_r)).unwrap();
        ac.with(|c| {
            let mut h = shared.lock().unwrap();
            h.retire(c, block, 256).unwrap();
            h.seal(c).unwrap();
        });
        sealed_r.set(true);
        // Until P pins again every round frees nothing — and does NOT
        // lease-evict the parked (but live) client to force the free.
        while !repinned_r.get() {
            let freed = ac.with(|c| shared.lock().unwrap().reclaim(c)).unwrap();
            assert_eq!(freed, 0, "freed far memory a parked task's slot still covers");
            zeros.set(zeros.get() + 1);
            ac.yield_now().await;
        }
        let freed = ac.with(|c| shared.lock().unwrap().reclaim(c)).unwrap();
        let evictions = shared.lock().unwrap().stats().evictions;
        (freed, evictions)
    });

    ex.run();
    parked.take().unwrap();
    assert_eq!(reclaimer.take().unwrap(), (256, 0), "grace completed at the pin, no eviction");
    assert!(
        guarded_zero_rounds.get() >= 1,
        "the reclaimer must have observed the guard blocking at least once"
    );
    assert_eq!(parked.report().wasted_polls, 0);
}
