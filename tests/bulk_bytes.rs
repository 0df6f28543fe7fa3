//! The bulk byte path (ISSUE 12): `MemoryNode::read_bytes` /
//! `write_bytes` split a range once into a partial head word, a run of
//! whole words and a partial tail word, and `FabricClient::read_into`
//! reads through the same segment walk as `read`.
//!
//! * the node's byte transfers agree with a plain `Vec<u8>` over every
//!   alignment and length, and never disturb a neighbouring byte;
//! * under a concurrent writer no aligned word is ever seen torn, and
//!   bytes the writer never touches survive its edge-word merges;
//! * `read_into` is `read` with the caller's buffer: same bytes, same 24
//!   counters, same virtual clock — blocked and striped, across a stripe
//!   boundary, under injected faults with retry, and with the tracer and
//!   a sampler watching (one `Read` record per call on both sides).

use farmem::fabric::{MemoryNode, MetricSampler, VerbKind};
use farmem::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const CAP: usize = 4096;

/// Writes `data` at `off` into node and model, then checks the whole
/// image — so a byte disturbed anywhere outside the range is caught.
fn write_both(node: &MemoryNode, model: &mut [u8], off: usize, data: &[u8]) {
    node.write_bytes(off as u64, data).unwrap();
    model[off..off + data.len()].copy_from_slice(data);
    let mut image = vec![0u8; CAP];
    node.read_bytes(0, &mut image).unwrap();
    assert_eq!(
        image,
        model,
        "image after write of {} B at {off}",
        data.len()
    );
}

fn read_checked(node: &MemoryNode, model: &[u8], off: usize, len: usize) {
    // A canary-filled buffer: the read must overwrite exactly `len` bytes.
    let mut buf = vec![0xA5u8; len];
    node.read_bytes(off as u64, &mut buf).unwrap();
    assert_eq!(buf, model[off..off + len], "read of {len} B at {off}");
}

/// Every start alignment against every short length: empty ranges, 1–7
/// bytes inside one word, head-only (unaligned start ending on a word
/// boundary), tail-only (aligned start, partial end), and head + body +
/// tail.
#[test]
fn every_alignment_and_short_length_matches_the_model() {
    let node = MemoryNode::new(NodeId(0), CAP as u64);
    let mut model = vec![0u8; CAP];
    let mut stamp = 1u8;
    for off in 0..24 {
        for len in 0..=41 {
            let data: Vec<u8> = (0..len).map(|i| stamp.wrapping_add(i as u8) | 1).collect();
            stamp = stamp.wrapping_add(37);
            write_both(&node, &mut model, 64 + off, &data);
            read_checked(&node, &model, 64 + off, len);
            // A read overlapping the write on both sides.
            read_checked(&node, &model, 56 + off, len + 16);
        }
    }
}

#[derive(Debug, Clone)]
enum ByteOp {
    Write(usize, Vec<u8>),
    Read(usize, usize),
}

fn byte_ops() -> impl Strategy<Value = Vec<ByteOp>> {
    // Lengths cluster where the split changes shape: empty, inside one
    // word, a few words, and long runs.
    let len = || prop_oneof![0usize..1, 1usize..8, 8usize..40, 40usize..700];
    let clip = |off: usize, len: usize| len.min(CAP - off);
    prop::collection::vec(
        prop_oneof![
            ((0..CAP), len(), any::<u8>()).prop_map(move |(off, len, seed)| {
                let data = (0..clip(off, len))
                    .map(|i| seed.wrapping_add(i as u8))
                    .collect();
                ByteOp::Write(off, data)
            }),
            ((0..CAP), len()).prop_map(move |(off, len)| ByteOp::Read(off, clip(off, len))),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn node_byte_transfers_match_a_vec_model(ops in byte_ops()) {
        let node = MemoryNode::new(NodeId(0), CAP as u64);
        let mut model = vec![0u8; CAP];
        for op in &ops {
            match op {
                ByteOp::Write(off, data) => write_both(&node, &mut model, *off, data),
                ByteOp::Read(off, len) => read_checked(&node, &model, *off, *len),
            }
        }
    }
}

/// One writer, one bulk reader, no lock between them. The writer only
/// ever stores bytes of one value per pass, so a word whose written bytes
/// disagree was torn *inside* the word — which the per-word atomics must
/// make impossible, while tearing *between* words stays allowed.
#[test]
fn concurrent_bulk_reads_never_tear_a_word_or_lose_a_neighbour() {
    const WORDS: usize = 96; // whole-word region: words 0..96
    const EDGE: usize = WORDS * 8; // unaligned region: four words after it
    const SENTINEL: u8 = 0xEE;
    const PASSES: u64 = 20_000;

    let node = MemoryNode::new(NodeId(0), CAP as u64);
    node.write_bytes(EDGE as u64, &[SENTINEL; 32]).unwrap();
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);

    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for pass in 1..=PASSES {
                let k = (pass % 251) as u8 + 1; // never 0, never the sentinel
                node.write_bytes(0, &[k; WORDS * 8]).unwrap();
                // Inside one word: bytes 3..6 of edge word 0.
                node.write_bytes(EDGE as u64 + 3, &[k; 3]).unwrap();
                // Head + whole word + tail: bytes 5..8 of edge word 1, all
                // of word 2, bytes 0..3 of word 3.
                node.write_bytes(EDGE as u64 + 13, &[k; 14]).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        s.spawn(|| {
            start.wait();
            let mut buf = vec![0u8; EDGE + 32];
            let all_same = |bytes: &[u8]| bytes.iter().all(|&b| b == bytes[0]);
            loop {
                // Sample `done` first: the last snapshot then still races
                // nothing and sees the writer's final pass.
                let last = done.load(Ordering::SeqCst);
                node.read_bytes(0, &mut buf).unwrap();
                for (i, word) in buf[..EDGE].chunks_exact(8).enumerate() {
                    assert!(all_same(word), "word {i} torn: {word:02x?}");
                }
                let edge = &buf[EDGE..];
                for i in [0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 27, 28, 29, 30, 31] {
                    assert_eq!(
                        edge[i], SENTINEL,
                        "untouched edge byte {i} lost: {edge:02x?}"
                    );
                }
                for written in [&edge[3..6], &edge[13..16], &edge[16..24], &edge[24..27]] {
                    assert!(all_same(written), "edge word torn: {edge:02x?}");
                }
                reads.fetch_add(1, Ordering::Relaxed);
                if last {
                    break;
                }
            }
        });
    });
    assert!(
        reads.load(Ordering::Relaxed) > 1,
        "the reader overlapped the writer"
    );
    let mut last = [0u8; 8];
    node.read_bytes(0, &mut last).unwrap();
    assert_eq!(last, [(PASSES % 251) as u8 + 1; 8]);
}

// ----- read_into ≡ read ------------------------------------------------

/// Counts sampler callbacks that carried a completed verb.
#[derive(Default)]
struct VerbTicks(AtomicU64);

impl MetricSampler for VerbTicks {
    fn observe(&self, _client: u32, _now_ns: u64, verb_ns: u64, _stats: &AccessStats) {
        if verb_ns > 0 {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

const STRIPE: u64 = 4096;

fn twin(striping: Striping, faults: FaultPlan) -> Arc<Fabric> {
    let fabric = FabricConfig {
        nodes: 2,
        node_capacity: 1 << 20,
        striping,
        faults,
        ..FabricConfig::default()
    }
    .build();
    // Identical far contents on both twins, written fault-free through
    // the nodes themselves so the clients start with clean counters.
    for (n, node) in fabric.nodes().iter().enumerate() {
        let fill: Vec<u8> = (0..4 * STRIPE)
            .map(|i| (i as u8) ^ (n as u8 * 0x55))
            .collect();
        node.write_bytes(0, &fill).unwrap();
    }
    fabric
}

/// Ranges to read: inside one word, a header-sized prefix, a whole page,
/// and one straddling the first stripe boundary at an odd offset.
const RANGES: [(u64, u64); 5] = [
    (4099, 3),
    (8192, 256),
    (8, 4088),
    (STRIPE - 13, 4000),
    (2 * STRIPE - 1, 2),
];

/// Reads every range `rounds` times with `read` on one twin and
/// `read_into` on the other, comparing bytes as it goes; returns each
/// side's final counters and clock.
fn run_twins(
    a: &mut FabricClient,
    b: &mut FabricClient,
    rounds: usize,
) -> (
    [u64; AccessStats::COUNT],
    [u64; AccessStats::COUNT],
    u64,
    u64,
) {
    for _ in 0..rounds {
        for (addr, len) in RANGES {
            let got = a.read(FarAddr(addr), len).unwrap();
            let mut buf = vec![0xA5u8; len as usize];
            b.read_into(FarAddr(addr), &mut buf).unwrap();
            assert_eq!(buf, got, "bytes of [{addr}, +{len})");
        }
    }
    (
        a.stats().to_array(),
        b.stats().to_array(),
        a.now_ns(),
        b.now_ns(),
    )
}

#[test]
fn read_into_equals_read_on_blocked_and_striped_maps() {
    for striping in [Striping::Blocked, Striping::Striped { stripe: STRIPE }] {
        let (fa, fb) = (
            twin(striping, FaultPlan::NONE),
            twin(striping, FaultPlan::NONE),
        );
        let (mut a, mut b) = (fa.client(), fb.client());
        let (sa, sb, ta, tb) = run_twins(&mut a, &mut b, 3);
        assert_eq!(sa, sb, "all 24 counters, {striping:?}");
        assert_eq!(ta, tb, "virtual clock, {striping:?}");
        // The two straddling ranges really were two messages when striped.
        let per_round = if striping == Striping::Blocked { 5 } else { 7 };
        assert_eq!(b.stats().messages, 3 * per_round, "{striping:?}");
        assert_eq!(
            b.stats().round_trips,
            3 * RANGES.len() as u64,
            "{striping:?}"
        );
    }
}

#[test]
fn read_into_equals_read_under_faults_with_retry() {
    let striping = Striping::Striped { stripe: STRIPE };
    let plan = FaultPlan::transient(150_000).with_seed(12);
    let (fa, fb) = (twin(striping, plan), twin(striping, plan));
    let (mut a, mut b) = (fa.client(), fb.client());
    let (sa, sb, ta, tb) = run_twins(&mut a, &mut b, 40);
    assert_eq!(sa, sb, "all 24 counters under faults");
    assert_eq!(ta, tb, "virtual clock under faults");
    assert!(
        a.stats().retries > 0 && a.stats().faults_injected > 0,
        "faults really fired"
    );
}

#[test]
fn read_into_equals_read_with_tracer_and_sampler_on() {
    let striping = Striping::Striped { stripe: STRIPE };
    let (fa, fb) = (
        twin(striping, FaultPlan::NONE),
        twin(striping, FaultPlan::NONE),
    );
    let (mut a, mut b) = (fa.client(), fb.client());
    let (ticks_a, ticks_b) = (
        Arc::new(VerbTicks::default()),
        Arc::new(VerbTicks::default()),
    );
    a.install_sampler(ticks_a.clone());
    b.install_sampler(ticks_b.clone());
    a.enable_tracing(TraceConfig::default());
    b.enable_tracing(TraceConfig::default());

    let (sa, sb, ta, tb) = run_twins(&mut a, &mut b, 1);
    assert_eq!(sa, sb);
    assert_eq!(ta, tb);
    for (client, ticks) in [(&a, &ticks_a), (&b, &ticks_b)] {
        let report = client.trace_report().expect("tracing on");
        report.reconcile().expect("trace reconciles");
        assert_eq!(
            report.events_recorded,
            RANGES.len() as u64,
            "one record per call"
        );
        assert_eq!(report.verbs.len(), 1);
        assert_eq!(report.verbs[0].kind, VerbKind::Read);
        assert_eq!(report.verbs[0].count, RANGES.len() as u64);
        assert_eq!(ticks.0.load(Ordering::Relaxed), RANGES.len() as u64);
    }
}
