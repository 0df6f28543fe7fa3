//! `structures`: the paper's own contribution driven directly — one
//! thread, no `serve`. A fixed interleave of nine structure calls (an
//! op is one call): `FarQueue` enqueue + dequeue, `FarVec::add` +
//! `read_ranges`(8), `HtTreeHandle::get` + `get_many`(16),
//! `VecWriter::write` + `VecReader::refresh` in notification mode, and
//! `FarCounter::add`.

use std::collections::VecDeque;
use std::sync::Arc;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_core::{
    FarCounter, FarQueue, FarVec, HtTree, HtTreeConfig, HtTreeHandle, QueueConfig, QueueHandle,
    RefreshMode, RefreshPolicy, RefreshableVec, VecReader, VecWriter,
};
use farmem_fabric::{Fabric, FabricClient};

use crate::counts::Counters;
use crate::report::Results;
use crate::rng::Rng;
use crate::round::{drive, drive_spanned, Mode, RoundOut, SpanLog, SpannedOut};
use crate::workload::{fnv, standard_fabric, Instance, Workload};
use crate::{ctx, Fail};

/// Structure calls per cycle of the interleave.
pub const CALLS: usize = 9;
/// Span names of the nine calls, in interleave order.
const CALL_NAMES: [&str; CALLS] = [
    "core.queue_enq",
    "core.queue_deq",
    "core.vec_add",
    "core.vec_read_ranges_8",
    "core.httree_get",
    "core.httree_get_many_16",
    "core.refvec_write",
    "core.refvec_refresh",
    "core.counter_add",
];
/// Items the queue holds between cycles (each cycle adds and takes one).
const QUEUE_DEPTH: usize = 64;
/// Elements per `read_ranges` range.
const RANGE_LEN: u64 = 4;

/// Sizes of the structures workload.
#[derive(Clone, Copy, Debug)]
pub struct StructSpec {
    /// Keys preloaded into the HT-tree.
    pub keys: u64,
    /// Cycles in the request vector (ops per round = 9 × cycles).
    pub cycles: usize,
    /// `FarVec` and `RefreshableVec` length.
    pub vec_len: u64,
    /// Queue slots.
    pub queue_slots: u64,
    /// Timed rounds per epoch.
    pub rounds_per_epoch: usize,
}

impl StructSpec {
    /// The workload's own sizes.
    pub fn standard(smoke: bool) -> StructSpec {
        if smoke {
            StructSpec {
                keys: 4_000,
                cycles: 2_000,
                vec_len: 4_096,
                queue_slots: 1 << 10,
                rounds_per_epoch: 3,
            }
        } else {
            StructSpec {
                keys: 100_000,
                cycles: 60_000,
                vec_len: 1 << 16,
                queue_slots: 1 << 14,
                rounds_per_epoch: 6,
            }
        }
    }
}

impl Workload for StructSpec {
    fn name(&self) -> &'static str {
        "structures"
    }
    fn has_latency_rounds(&self) -> bool {
        true
    }
    fn exact(&self) -> bool {
        true
    }
    fn threads(&self) -> usize {
        1
    }
    fn setup(&self, seed: u64) -> Result<Box<dyn Instance>, Fail> {
        Ok(Box::new(StructInstance::build(*self, seed)?))
    }
}

/// The value the tree holds under `key`.
fn tree_value(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

/// Parameters of one cycle of the interleave.
#[derive(Clone, Debug)]
struct Cycle {
    enq: u64,
    vec_i: u32,
    vec_delta: u32,
    ranges: [u32; 8],
    key: u32,
    keys16: [u32; 16],
    rv_i: u32,
    rv_value: u32,
    ctr_delta: u32,
}

struct StructInstance {
    spec: StructSpec,
    fabric: Arc<Fabric>,
    alloc: Arc<FarAlloc>,
    client: FabricClient,
    /// The `VecReader`'s own client: notifications go to the subscriber.
    reader_client: FabricClient,
    qh: QueueHandle,
    vec: FarVec,
    tree: HtTreeHandle,
    writer: VecWriter,
    reader: VecReader,
    counter: FarCounter,
    /// Value the next `FarCounter::add` must return.
    counter_expect: u64,
    cycles: Vec<Cycle>,
    verified: RoundOut,
    digest: u64,
}

impl StructInstance {
    fn build(spec: StructSpec, seed: u64) -> Result<StructInstance, Fail> {
        let fabric = standard_fabric();
        let alloc = FarAlloc::new(fabric.clone());
        let mut c = fabric.client();
        let mut rc = fabric.client();

        let mut rng = Rng::new(seed, 0x57c7);
        let n = spec.cycles;
        let cycles: Vec<Cycle> = (0..n)
            .map(|_| Cycle {
                enq: rng.next_u64() >> 1,
                vec_i: rng.below(spec.vec_len) as u32,
                vec_delta: 1 + rng.below(1000) as u32,
                ranges: std::array::from_fn(|_| rng.below(spec.vec_len - RANGE_LEN) as u32),
                key: rng.below(spec.keys) as u32,
                keys16: std::array::from_fn(|_| rng.below(spec.keys) as u32),
                rv_i: rng.below(spec.vec_len) as u32,
                rv_value: 1 + rng.below(u64::from(u32::MAX) - 1) as u32,
                ctr_delta: 1 + rng.below(1000) as u32,
            })
            .collect();
        let digest = fnv(cycles.iter().flat_map(|cy| {
            [
                cy.enq,
                u64::from(cy.vec_i),
                u64::from(cy.key),
                u64::from(cy.keys16[0]),
                u64::from(cy.rv_i),
            ]
        }));

        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(spec.queue_slots, 4))
            .map_err(ctx("structures queue"))?;
        let mut qh = FarQueue::attach(&mut c, q.hdr()).map_err(ctx("structures queue attach"))?;
        // Pre-fill with the vector's last enqueues, so the dequeue of
        // cycle j always returns the enqueue of cycle j - 64 (mod n),
        // in the first round as in every replay.
        for cy in &cycles[n - QUEUE_DEPTH.min(n)..] {
            qh.enqueue(&mut c, cy.enq)
                .map_err(ctx("structures queue prefill"))?;
        }
        let vec = FarVec::create(&mut c, &alloc, spec.vec_len, AllocHint::Spread)
            .map_err(ctx("structures vec"))?;
        let cfg = HtTreeConfig {
            initial_buckets: 1024,
            ..HtTreeConfig::default()
        };
        let tree_desc = HtTree::create(&mut c, &alloc, cfg).map_err(ctx("structures tree"))?;
        let mut tree = tree_desc
            .attach(&mut c, &alloc, cfg)
            .map_err(ctx("structures tree attach"))?;
        for k in 0..spec.keys {
            tree.put(&mut c, k, tree_value(k))
                .map_err(ctx("structures tree preload"))?;
        }
        let rv = RefreshableVec::create(&mut c, &alloc, spec.vec_len, 64, AllocHint::Spread)
            .map_err(ctx("structures refvec"))?;
        let writer = VecWriter::new(rv);
        let policy = RefreshPolicy {
            initial: RefreshMode::Notify,
            dynamic: false,
            ..RefreshPolicy::default()
        };
        let reader =
            VecReader::new(&mut rc, rv, policy).map_err(ctx("structures refvec reader"))?;
        let counter = FarCounter::create(&mut c, &alloc, 0, AllocHint::Spread)
            .map_err(ctx("structures counter"))?;

        let mut inst = StructInstance {
            spec,
            fabric,
            alloc,
            client: c,
            reader_client: rc,
            qh,
            vec,
            tree,
            writer,
            reader,
            counter,
            counter_expect: 0,
            cycles,
            verified: RoundOut::default(),
            digest,
        };
        inst.verified = inst.verification_round();
        Ok(inst)
    }

    /// Executes call `i` of the flattened vector with the checks that
    /// need no model: queue FIFO order, tree values, counter sum, shapes.
    #[inline]
    fn call(&mut self, i: usize) -> bool {
        let n = self.cycles.len();
        let (j, kind) = (i / CALLS, i % CALLS);
        let cy = &self.cycles[j];
        let c = &mut self.client;
        match kind {
            0 => self.qh.enqueue(c, cy.enq).is_ok(),
            1 => {
                let want = self.cycles[(j + n - QUEUE_DEPTH.min(n)) % n].enq;
                self.qh.dequeue(c).is_ok_and(|v| v == want)
            }
            2 => self
                .vec
                .add(c, u64::from(cy.vec_i), u64::from(cy.vec_delta))
                .is_ok(),
            3 => {
                let ranges: [(u64, u64); 8] =
                    std::array::from_fn(|k| (u64::from(cy.ranges[k]), RANGE_LEN));
                self.vec
                    .read_ranges(c, &ranges)
                    .is_ok_and(|r| r.len() == 8 && r.iter().all(|x| x.len() as u64 == RANGE_LEN))
            }
            4 => {
                let k = u64::from(cy.key);
                self.tree.get(c, k).is_ok_and(|v| v == Some(tree_value(k)))
            }
            5 => {
                let keys: [u64; 16] = std::array::from_fn(|k| u64::from(cy.keys16[k]));
                self.tree.get_many(c, &keys).is_ok_and(|vs| {
                    vs.len() == 16
                        && vs
                            .iter()
                            .zip(&keys)
                            .all(|(v, &k)| *v == Some(tree_value(k)))
                })
            }
            6 => self
                .writer
                .write(c, u64::from(cy.rv_i), u64::from(cy.rv_value))
                .is_ok(),
            7 => {
                let (i, v) = (cy.rv_i as usize, u64::from(cy.rv_value));
                // Rewriting an element with the value it already has
                // still bumps its group's version, so one group refreshes.
                self.reader
                    .refresh(&mut self.reader_client)
                    .is_ok_and(|groups| groups >= 1)
                    && self.reader.snapshot()[i] == v
            }
            _ => {
                let want = self.counter_expect;
                self.counter_expect = want.wrapping_add(u64::from(cy.ctr_delta));
                self.counter
                    .add(c, u64::from(cy.ctr_delta))
                    .is_ok_and(|prev| prev == want)
            }
        }
    }

    /// The untimed round with the model-backed checks on top: a mirror
    /// of the `FarVec` for `read_ranges`, a deque for the queue.
    fn verification_round(&mut self) -> RoundOut {
        let n = self.cycles.len();
        let mut mirror = vec![0u64; self.spec.vec_len as usize];
        let mut fifo: VecDeque<u64> = self.cycles[n - QUEUE_DEPTH.min(n)..]
            .iter()
            .map(|cy| cy.enq)
            .collect();
        let mut failed = 0u64;
        for j in 0..n {
            let cy = self.cycles[j].clone();
            for kind in 0..CALLS {
                let ok = match kind {
                    1 => {
                        // FIFO order against the model, not the formula.
                        fifo.push_back(cy.enq);
                        let want = fifo.pop_front();
                        self.qh.dequeue(&mut self.client).ok() == want
                    }
                    3 => {
                        // Contents against the mirror, not just shapes.
                        let ranges: [(u64, u64); 8] =
                            std::array::from_fn(|k| (u64::from(cy.ranges[k]), RANGE_LEN));
                        self.vec
                            .read_ranges(&mut self.client, &ranges)
                            .is_ok_and(|got| {
                                got.len() == ranges.len()
                                    && got.iter().zip(&ranges).all(|(g, &(first, count))| {
                                        g[..] == mirror[first as usize..(first + count) as usize]
                                    })
                            })
                    }
                    _ => self.call(j * CALLS + kind),
                };
                if kind == 2 {
                    mirror[cy.vec_i as usize] += u64::from(cy.vec_delta);
                }
                failed += u64::from(!ok);
            }
        }
        RoundOut {
            wall_ns: 0,
            ops: (n * CALLS) as u64,
            failed,
        }
    }
}

impl Instance for StructInstance {
    fn verified(&self) -> RoundOut {
        self.verified
    }

    fn rounds_per_epoch(&self) -> usize {
        self.spec.rounds_per_epoch
    }

    fn request_digest(&self) -> u64 {
        self.digest
    }

    fn round(&mut self, mode: Mode<'_>) -> Result<RoundOut, Fail> {
        let n = self.cycles.len() * CALLS;
        Ok(drive(n, mode, |i| self.call(i)))
    }

    fn counters(&self) -> Counters {
        let mut stats = self.client.stats();
        stats.merge(&self.reader_client.stats());
        Counters {
            tree: Some(self.tree.stats()),
            queue: Some(self.qh.stats()),
            ..Counters::base(
                stats,
                self.client.now_ns() + self.reader_client.now_ns(),
                self.alloc.stats(),
                &self.fabric,
            )
        }
    }

    fn user_bytes(&self) -> u64 {
        // Tree items are a key and a value word; the vectors and the
        // queue hold one word per element or slot; one counter word.
        self.spec.keys * 16 + 2 * self.spec.vec_len * 8 + self.spec.queue_slots * 8 + 8
    }

    fn spanned_round(&mut self, log: &mut SpanLog) -> Result<SpannedOut, Fail> {
        let ids: [u16; CALLS] = std::array::from_fn(|k| log.name(CALL_NAMES[k]));
        let n = self.cycles.len() * CALLS;
        Ok(drive_spanned(n, log, |i| ids[i % CALLS], |i| self.call(i)))
    }

    fn layers(&mut self, _log: &mut SpanLog, _r: &mut Results) -> Result<(), Fail> {
        // The per-call spans are in the file; the cells time the same
        // calls in isolation.
        Ok(())
    }
}
