//! Property-based tests on the core invariants, using proptest.
//!
//! Each property drives a far-memory structure with an arbitrary operation
//! sequence and compares against the obvious in-memory model; shrinking
//! then produces minimal counterexamples if an invariant ever breaks.

use farmem::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn small_fabric() -> std::sync::Arc<Fabric> {
    FabricConfig::count_only(32 << 20).build()
}

fn striped_fabric() -> std::sync::Arc<Fabric> {
    FabricConfig {
        nodes: 3,
        node_capacity: 16 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build()
}

#[derive(Debug, Clone)]
enum MapOp {
    Put(u64, u64),
    Get(u64),
    Remove(u64),
}

fn map_ops(max_key: u64) -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..max_key, any::<u64>()).prop_map(|(k, v)| MapOp::Put(k, v)),
            (0..max_key).prop_map(MapOp::Get),
            (0..max_key).prop_map(MapOp::Remove),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn httree_matches_hashmap(ops in map_ops(64)) {
        let f = striped_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
        let mut model = HashMap::new();
        for op in ops {
            match op {
                MapOp::Put(k, v) => {
                    h.put(&mut c, k, v).unwrap();
                    model.insert(k, v);
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(h.get(&mut c, k).unwrap(), model.get(&k).copied());
                }
                MapOp::Remove(k) => {
                    h.remove(&mut c, k).unwrap();
                    model.remove(&k);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(h.get(&mut c, *k).unwrap(), Some(*v));
        }
    }

    #[test]
    fn queue_matches_vecdeque(ops in prop::collection::vec(
        prop_oneof![
            (0u64..1_000_000).prop_map(Some),
            Just(None),
        ],
        1..300,
    )) {
        // Tiny queue so wrap repairs fire constantly under shrinking.
        let f = small_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(12, 2)).unwrap();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => match h.enqueue(&mut c, v) {
                    Ok(()) => model.push_back(v),
                    Err(CoreError::QueueFull) => {
                        // The far queue's usable capacity is n_slots - 2n.
                        prop_assert!(model.len() >= 8, "spurious full at {}", model.len());
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                None => match h.dequeue(&mut c) {
                    Ok(v) => prop_assert_eq!(Some(v), model.pop_front()),
                    Err(CoreError::QueueEmpty) => prop_assert!(model.is_empty()),
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
            }
        }
        // Drain and compare the tail.
        loop {
            match h.dequeue(&mut c) {
                Ok(v) => prop_assert_eq!(Some(v), model.pop_front()),
                Err(CoreError::QueueEmpty) => break,
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn refreshable_vec_converges_to_writer_state(
        writes in prop::collection::vec((0u64..128, any::<u64>()), 1..100),
        group in 1u64..16,
    ) {
        let f = small_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut w = f.client();
        let mut r = f.client();
        let v = RefreshableVec::create(&mut w, &alloc, 128, group, AllocHint::Spread).unwrap();
        let writer = VecWriter::new(v);
        let mut reader = VecReader::new(
            &mut r,
            v,
            RefreshPolicy { dynamic: false, ..RefreshPolicy::default() },
        ).unwrap();
        let mut model = vec![0u64; 128];
        for (i, val) in writes {
            writer.write(&mut w, i, val).unwrap();
            model[i as usize] = val;
        }
        reader.refresh(&mut r).unwrap();
        for i in 0..128u64 {
            prop_assert_eq!(reader.get(&mut r, i).unwrap(), model[i as usize]);
        }
    }

    #[test]
    fn fabric_byte_ranges_round_trip(
        offset in 8u64..5000,
        data in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        let f = small_fabric();
        let mut c = f.client();
        c.write(FarAddr(offset), &data).unwrap();
        prop_assert_eq!(c.read(FarAddr(offset), data.len() as u64).unwrap(), data);
    }

    #[test]
    fn striped_fabric_byte_ranges_round_trip(
        offset in 8u64..100_000,
        data in prop::collection::vec(any::<u8>(), 1..9000),
    ) {
        // Ranges crossing stripe (and therefore node) boundaries.
        let f = striped_fabric();
        let mut c = f.client();
        c.write(FarAddr(offset), &data).unwrap();
        prop_assert_eq!(c.read(FarAddr(offset), data.len() as u64).unwrap(), data);
    }

    #[test]
    fn allocator_never_hands_out_overlaps(
        sizes in prop::collection::vec(1u64..20 << 10, 1..60),
    ) {
        // Multi-page slabs must stay inside one stripe of a striped map,
        // and must not run into the striped reserve of a blocked one.
        let blocked = FabricConfig {
            nodes: 3,
            node_capacity: 16 << 20,
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
        .build();
        for f in [striped_fabric(), blocked] {
            let alloc = FarAlloc::new(f);
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for (i, len) in sizes.iter().enumerate() {
                let hint = match i % 4 {
                    0 => AllocHint::Spread,
                    1 => AllocHint::Localize(NodeId((i % 3) as u32)),
                    2 => AllocHint::Striped,
                    _ => AllocHint::AntiLocal(NodeId(0)),
                };
                let addr = alloc.alloc(*len, hint).unwrap();
                // Compare against every prior span.
                for &(a, l) in &spans {
                    let overlap = addr.0 < a + l && a < addr.0 + *len;
                    prop_assert!(!overlap, "[{},{}) overlaps [{},{})", addr.0, addr.0 + len, a, a + l);
                }
                spans.push((addr.0, *len));
            }
        }
    }

    #[test]
    fn scatter_gather_is_equivalent_to_loops(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 8..64), 2..8),
    ) {
        let f = small_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        // Scatter chunks to disjoint far buffers, then gather them back.
        let iov: Vec<FarIov> = chunks
            .iter()
            .map(|ch| FarIov::new(alloc.alloc(ch.len() as u64, AllocHint::Spread).unwrap(), ch.len() as u64))
            .collect();
        let flat: Vec<u8> = chunks.concat();
        c.wscatter(&iov, &flat).unwrap();
        let back = c.rgather(&iov).unwrap();
        prop_assert_eq!(&back, &flat);
        // And piecewise reads agree.
        for (e, ch) in iov.iter().zip(&chunks) {
            prop_assert_eq!(&c.read(e.addr, e.len).unwrap(), ch);
        }
    }
}

// --- pipelined vs serial verb equivalence -------------------------------

/// One verb against a small set of word-aligned slots; ops may collide on
/// a slot, so posting order is semantically load-bearing.
#[derive(Debug, Clone)]
enum VerbOp {
    WriteWord(usize, u64),
    ReadWord(usize),
    Cas(usize, u64, u64),
    Faa(usize, u64),
    WriteBytes(usize, Vec<u8>),
    ReadBytes(usize, u64),
}

const VERB_SLOTS: usize = 8;

fn verb_ops() -> impl Strategy<Value = Vec<VerbOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0..VERB_SLOTS), any::<u64>()).prop_map(|(s, v)| VerbOp::WriteWord(s, v)),
            (0..VERB_SLOTS).prop_map(VerbOp::ReadWord),
            ((0..VERB_SLOTS), (0u64..4), (1u64..1000)).prop_map(|(s, e, n)| VerbOp::Cas(s, e, n)),
            ((0..VERB_SLOTS), (1u64..100)).prop_map(|(s, d)| VerbOp::Faa(s, d)),
            ((0..VERB_SLOTS), prop::collection::vec(any::<u8>(), 8..33))
                .prop_map(|(s, b)| VerbOp::WriteBytes(s, b)),
            ((0..VERB_SLOTS), (8u64..33)).prop_map(|(s, l)| VerbOp::ReadBytes(s, l)),
        ],
        1..40,
    )
}

/// Slot i's address: 64-byte-spaced words alternating between two stripe
/// pages, so the sequence exercises both nodes of the striped fabric.
fn verb_slot_addr(i: usize) -> FarAddr {
    FarAddr(4096 * (1 + (i as u64 % 2)) + (i as u64 / 2) * 64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pipelined_ops_are_equivalent_to_serial_verbs(ops in verb_ops()) {
        // The same op sequence through one pipelined doorbell and through
        // serial verbs, on twin fabrics: identical memory, identical read
        // values, identical access accounting — and the pipelined virtual
        // time can only be shorter (overlap hides latency, never work).
        let build = || FabricConfig {
            nodes: 2,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: 4096 },
            cost: CostModel::DEFAULT,
            ..FabricConfig::default()
        }
        .build();

        // Serial reference.
        let f = build();
        let mut c = f.client();
        let before = c.stats();
        let t0 = c.now_ns();
        let mut serial_out: Vec<Vec<u8>> = Vec::new();
        for op in &ops {
            match op {
                VerbOp::WriteWord(s, v) => c.write_u64(verb_slot_addr(*s), *v).unwrap(),
                VerbOp::ReadWord(s) => {
                    serial_out.push(c.read_u64(verb_slot_addr(*s)).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::Cas(s, e, n) => {
                    serial_out.push(c.cas(verb_slot_addr(*s), *e, *n).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::Faa(s, d) => {
                    serial_out.push(c.faa(verb_slot_addr(*s), *d).unwrap().to_le_bytes().to_vec())
                }
                VerbOp::WriteBytes(s, b) => c.write(verb_slot_addr(*s), b).unwrap(),
                VerbOp::ReadBytes(s, l) => serial_out.push(c.read(verb_slot_addr(*s), *l).unwrap()),
            }
        }
        let serial_ns = c.now_ns() - t0;
        let serial = c.stats().since(&before);
        let serial_mem: Vec<Vec<u8>> =
            (0..VERB_SLOTS).map(|s| c.read(verb_slot_addr(s), 64).unwrap()).collect();

        // Pipelined run: the whole sequence behind one doorbell.
        let f = build();
        let mut c = f.client();
        let before = c.stats();
        let t0 = c.now_ns();
        let mut q = c.pipeline();
        for op in &ops {
            match op {
                VerbOp::WriteWord(s, v) => { q.write_u64(verb_slot_addr(*s), *v); }
                VerbOp::ReadWord(s) => { q.read_u64(verb_slot_addr(*s)); }
                VerbOp::Cas(s, e, n) => { q.cas(verb_slot_addr(*s), *e, *n); }
                VerbOp::Faa(s, d) => { q.faa(verb_slot_addr(*s), *d); }
                VerbOp::WriteBytes(s, b) => { q.write(verb_slot_addr(*s), b); }
                VerbOp::ReadBytes(s, l) => { q.read(verb_slot_addr(*s), *l); }
            }
        }
        let cq = q.commit();
        prop_assert!(cq.status().is_ok());
        let mut pipe_out: Vec<Vec<u8>> = Vec::new();
        for (op, out) in ops.iter().zip(cq.into_outputs().unwrap()) {
            match op {
                VerbOp::ReadWord(_) | VerbOp::Cas(..) | VerbOp::Faa(..) => {
                    pipe_out.push(out.value().to_le_bytes().to_vec())
                }
                VerbOp::ReadBytes(..) => pipe_out.push(out.into_bytes()),
                _ => {}
            }
        }
        let pipe_ns = c.now_ns() - t0;
        let pipe = c.stats().since(&before);
        let pipe_mem: Vec<Vec<u8>> =
            (0..VERB_SLOTS).map(|s| c.read(verb_slot_addr(s), 64).unwrap()).collect();

        prop_assert_eq!(pipe_out, serial_out, "read values must match serially-executed order");
        prop_assert_eq!(pipe_mem, serial_mem, "final far memory must be identical");
        prop_assert_eq!(pipe.round_trips, serial.round_trips, "latency hiding is not work skipping");
        prop_assert_eq!(pipe.messages, serial.messages);
        prop_assert_eq!(pipe.bytes_read, serial.bytes_read);
        prop_assert_eq!(pipe.bytes_written, serial.bytes_written);
        prop_assert_eq!(pipe.atomics, serial.atomics);
        prop_assert_eq!(pipe.pipelined_ops, ops.len() as u64);
        prop_assert_eq!(pipe.doorbells, 1);
        prop_assert!(pipe_ns <= serial_ns, "overlap can only shorten virtual time");
    }
}
