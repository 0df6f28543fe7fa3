//! The checked protocol programs: small concurrent workloads over the
//! real far-memory structures, one per protocol family.
//!
//! Each program builds a fresh fabric and structure per run, spawns 2–3
//! simulated clients, and records a high-level operation history. The
//! explorer drives every fabric verb interleaving (bounded), the race
//! detector watches every access, and the linearizability checker
//! validates every completed history. Setup runs on a non-participant
//! client *before* the observer is installed, so initialisation accesses
//! are invisible to the detector by construction.
//!
//! Six programs run with the race detector off, deliberately, each
//! because its contract is its history (and finale), not its accesses:
//!
//! * `queue_fifo` and `queue_wrap` — the queue's `saai` slot publish is a
//!   plain write the consumer's guarded `faai_swap` races by design (the
//!   epoch guard and slot sentinel make it safe); `queue_wrap`'s drain
//!   finale checks exactly-once.
//! * `httree_split` and `httree_split_race` — gets are optimistic
//!   version-validated multi-word reads that intentionally race bucket
//!   rewrites.
//! * `reclaim_evicted_publish` — an evicted reader's batch has already
//!   read memory grace no longer protects, and discards the answer.
//! * `replica_failover` — a register of plain reads and writes.
//!
//! Every other program keeps the detector on: its clients run under
//! epoch guards, so every access is ordered by a CAS or the registry
//! (speculative reads, [`AccessKind::SpeculativeRead`], are no conflict;
//! serving their bytes without asking the tree is a *history* bug).
//!
//! [`AccessKind::SpeculativeRead`]: farmem_fabric::AccessKind::SpeculativeRead

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_baselines::FarMutex;
use farmem_core::{
    FarBlobMap, FarQueue, HintTable, HtTree, HtTreeConfig, QueueConfig, RecordHint,
};
use farmem_fabric::{
    splitmix64, BatchOp, FabricClient, FabricConfig, FarAddr, FaultPlan, NodeId, ReplicaConfig,
};
use farmem_reclaim::{pin, pin_deferred, Publish, ReclaimRegistry, SharedReclaim};
use farmem_serve::{charged_bytes, CacheServer, Response, ServeConfig, TenantSpec};

use crate::explore::{PreparedRun, Program};
use crate::history::{History, Op, Ret};
use crate::linz::Model;

/// Bounded lock attempts: small enough that a waiter starved by the
/// explorer can never accumulate a full (100 ms virtual) lease against a
/// live holder — lease steal under starvation is real lease behaviour,
/// but it is not what these programs are probing.
const LOCK_ATTEMPTS: u32 = 24;

/// Fault rate (ppm per verb attempt) for the chaos variants.
const CHAOS_PPM: u32 = 20_000;

fn fabric(chaos: bool) -> Arc<farmem_fabric::Fabric> {
    let mut cfg = FabricConfig::count_only(64 << 20);
    if chaos {
        cfg.faults = FaultPlan { transient_ppm: CHAOS_PPM, ..FaultPlan::NONE };
    }
    cfg.build()
}

/// Allocates one zeroed word.
fn word(c0: &mut FabricClient, alloc: &Arc<FarAlloc>) -> FarAddr {
    let a = alloc.alloc(8, AllocHint::Spread).unwrap();
    c0.write_u64(a, 0).unwrap();
    a
}

/// Two clients, two locked increments each, over [`FarMutex`].
/// Checked: race-freedom and counter linearizability.
pub fn mutex_counter(chaos: bool) -> Program {
    Program {
        name: if chaos { "mutex_counter_chaos" } else { "mutex_counter" },
        model: Some(Model::Counter),
        check_races: true,
        max_steps: 150,
        build: Box::new(move || {
            let f = fabric(chaos);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let m = FarMutex::create(&mut c0, &alloc, AllocHint::Spread).unwrap();
            let ctr = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(ctr, 0).unwrap();
            let h = Arc::new(History::new());
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let h2 = h.clone();
                let m2 = FarMutex::attach(m.addr());
                bodies.push(Box::new(move || {
                    for _ in 0..2 {
                        let t = h2.invoke(id, Op::CtrAdd { by: 1 });
                        if m2.lock(&mut cl, LOCK_ATTEMPTS).is_err() {
                            h2.fail(t); // no effect: the lock was never taken
                            continue;
                        }
                        let old = cl.read_u64(ctr).unwrap();
                        cl.write_u64(ctr, old + 1).unwrap();
                        // An unlock error after the store cannot undo the
                        // increment; the operation still took effect.
                        let _ = m2.unlock(&mut cl);
                        h2.complete(t, Ret::Val(old));
                    }
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    }
}

/// One producer, one consumer over [`FarQueue`]. Checked: FIFO
/// linearizability (race detection off — see module docs).
pub fn queue_fifo() -> Program {
    Program {
        name: "queue_fifo",
        model: Some(Model::Fifo),
        check_races: false,
        max_steps: 300,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let q = FarQueue::create(&mut c0, &alloc, QueueConfig::new(32, 4)).unwrap();
            let h = Arc::new(History::new());
            let mut pc = f.client();
            let pid = pc.id();
            let mut qp = FarQueue::attach(&mut pc, q.hdr()).unwrap();
            let mut cc = f.client();
            let cid = cc.id();
            let mut qc = FarQueue::attach(&mut cc, q.hdr()).unwrap();
            let participants = vec![pid, cid];
            let hp = h.clone();
            let pbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for v in [11u64, 22] {
                    hp.run(pid, Op::Enq { v }, || qp.enqueue(&mut pc, v), |()| Ret::Unit);
                }
            });
            let hc = h.clone();
            let cbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let mut got = 0;
                for _ in 0..5 {
                    if got == 2 {
                        break;
                    }
                    let t = hc.invoke(cid, Op::Deq);
                    match qc.dequeue(&mut cc) {
                        Ok(v) => {
                            got += 1;
                            hc.complete(t, Ret::OptVal(Some(v)));
                        }
                        Err(farmem_core::CoreError::QueueEmpty) => {
                            hc.complete(t, Ret::OptVal(None));
                        }
                        Err(_) => hc.fail(t),
                    }
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![pbody, cbody],
                history: h,
                finale: None,
            }
        }),
    }
}

/// Two producers and two consumers over a [`FarQueue`] at the legal
/// minimum capacity: `4·4 + 4` = 20 slots for four clients. Setup moves
/// head and tail to slot 16 with enqueue/dequeue pairs of its own, so the
/// fifth enqueue of the run lands in the slack. With 26 enqueues (13 per
/// producer) and 28 dequeue attempts (14 per consumer) every run wraps,
/// most twice, and each consumer's head estimate goes stale whenever the
/// other dequeues, so claims pass the tail (empty recoveries). Checked: FIFO linearizability, and the finale invariant
/// that every acknowledged enqueue is dequeued exactly once, by the run's
/// consumers or by a drain after it. Race detection off, as for
/// [`queue_fifo`].
pub fn queue_wrap(chaos: bool) -> Program {
    queue_wrap_tallied(chaos, Arc::default())
}

/// [`queue_wrap`], pushing each completed run's `[wrap repairs, empty
/// recoveries]` (summed over the four handles) onto `tally`.
fn queue_wrap_tallied(chaos: bool, tally: Arc<Mutex<Vec<[u64; 2]>>>) -> Program {
    Program {
        name: if chaos { "queue_wrap_chaos" } else { "queue_wrap" },
        model: Some(Model::Fifo),
        check_races: false,
        max_steps: 600,
        build: Box::new(move || {
            let f = fabric(chaos);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let q = FarQueue::create(&mut c0, &alloc, QueueConfig::new(20, 4)).unwrap();
            let mut h0 = FarQueue::attach(&mut c0, q.hdr()).unwrap();
            for v in 0..16 {
                h0.enqueue(&mut c0, v).unwrap();
                h0.dequeue(&mut c0).unwrap();
            }
            let h = Arc::new(History::new());
            let acked = Arc::new(Mutex::new(Vec::new()));
            let taken = Arc::new(Mutex::new(Vec::new()));
            let stats = Arc::new(Mutex::new(Vec::new()));
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for p in 1..=2u64 {
                let mut cp = f.client();
                let pid = cp.id();
                let mut qp = FarQueue::attach(&mut cp, q.hdr()).unwrap();
                let (hp, acked, stats_p) = (h.clone(), acked.clone(), stats.clone());
                participants.push(pid);
                bodies.push(Box::new(move || {
                    for v in (0..13).map(|i| p * 100 + i) {
                        let t = hp.invoke(pid, Op::Enq { v });
                        match qp.enqueue(&mut cp, v) {
                            Ok(()) => {
                                acked.lock().unwrap().push(v);
                                hp.complete(t, Ret::Unit);
                            }
                            Err(_) => hp.fail(t),
                        }
                    }
                    stats_p.lock().unwrap().push(qp.stats());
                }));
                let mut cc = f.client();
                let cid = cc.id();
                let mut qc = FarQueue::attach(&mut cc, q.hdr()).unwrap();
                let (hc, taken, stats_c) = (h.clone(), taken.clone(), stats.clone());
                participants.push(cid);
                bodies.push(Box::new(move || {
                    for _ in 0..14 {
                        let t = hc.invoke(cid, Op::Deq);
                        match qc.dequeue(&mut cc) {
                            Ok(v) => {
                                taken.lock().unwrap().push(v);
                                hc.complete(t, Ret::OptVal(Some(v)));
                            }
                            Err(farmem_core::CoreError::QueueEmpty) => {
                                hc.complete(t, Ret::OptVal(None));
                            }
                            Err(_) => hc.fail(t),
                        }
                    }
                    stats_c.lock().unwrap().push(qc.stats());
                }));
            }
            let (f2, tally) = (f.clone(), tally.clone());
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let stats = stats.lock().unwrap();
                let recoveries: u64 = stats.iter().map(|s| s.empty_recoveries).sum();
                let repairs: u64 = stats.iter().map(|s| s.repairs).sum();
                tally.lock().unwrap().push([repairs - recoveries, recoveries]);
                let mut cz = f2.client();
                let mut qz = FarQueue::attach(&mut cz, q.hdr()).unwrap();
                let mut want = acked.lock().unwrap().clone();
                want.sort_unstable();
                // Bounded: a queue that never empties yields one value
                // more than was acknowledged and fails the check below.
                let mut got = taken.lock().unwrap().clone();
                let drain = std::iter::from_fn(|| qz.dequeue(&mut cz).ok());
                got.extend(drain.take(want.len() + 1));
                got.sort_unstable();
                (got != want).then(|| format!("acknowledged {want:?}, dequeued {got:?}"))
            });
            PreparedRun { fabric: f, participants, bodies, history: h, finale: Some(finale) }
        }),
    }
}

/// Two clients over an [`HtTree`] configured to split almost
/// immediately: one drives the split with inserts, the other reads and
/// writes across it. Checked: per-key map linearizability (race
/// detection off — see module docs).
pub fn httree_split() -> Program {
    Program {
        name: "httree_split",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 700,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: 100,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let mut h0 = tree.attach(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            for k in 0..3u64 {
                h0.put(&mut c0, k, k + 100).unwrap();
                h.seed(c0.id(), Op::Put { k, v: k + 100 }, Ret::Unit);
            }
            let mut ca = f.client();
            let aid = ca.id();
            let mut ha = tree.attach(&mut ca, &alloc, cfg).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let mut hb = tree.attach(&mut cb, &alloc, cfg).unwrap();
            let participants = vec![aid, bid];
            let h2 = h.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // Crosses the load threshold on the first insert: the
                // split runs concurrently with the other client's ops.
                for k in 3..6u64 {
                    h2.run(aid, Op::Put { k, v: k + 100 }, || ha.put(&mut ca, k, k + 100), |()| Ret::Unit);
                }
            });
            let h3 = h.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let ops: [Op; 4] = [
                    Op::Get { k: 1 },
                    Op::Put { k: 40, v: 140 },
                    Op::Get { k: 40 },
                    Op::Get { k: 2 },
                ];
                for op in ops {
                    let run = || match op {
                        Op::Get { k } => hb.get(&mut cb, k).map(Ret::OptVal),
                        Op::Put { k, v } => hb.put(&mut cb, k, v).map(|_| Ret::Unit),
                        _ => unreachable!(),
                    };
                    h3.run(bid, op.clone(), run, |ret| ret);
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![abody, bbody],
                history: h,
                finale: None,
            }
        }),
    }
}

/// Two splitters of different tables of one [`HtTree`]. Setup splits a
/// two-bucket tree, so the run starts with two tables of one key each;
/// each client overloads its own table with three puts, and the third
/// restructures it, taking no lock. The two publishes race for the
/// directory pointer; the loser splices its tables into the winner's
/// directory. A reader gets the key each third put stores, one of each
/// table, waiting out a restructure in progress one refresh per step.
/// Checked: per-key map linearizability, and a finale in which a fresh
/// handle scans the whole key space and finds exactly the acknowledged
/// keys — a publish that erased the other's tables would lose their keys
/// or leave a retired table in the directory. Race detection off, as for
/// [`httree_split`].
pub fn httree_split_race() -> Program {
    Program {
        name: "httree_split_race",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 700,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            // A table restructures past three records.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: 150,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let mut h0 = tree.attach(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            for k in [10u64, 20] {
                h0.put(&mut c0, k, k + 100).unwrap();
                h.seed(c0.id(), Op::Put { k, v: k + 100 }, Ret::Unit);
            }
            let acked = Arc::new(Mutex::new(vec![(10, 110), (20, 120)]));
            // Tables [0, 20) and [20, MAX].
            h0.split(&mut c0, 0).unwrap();
            assert_eq!(h0.leaves(), 2, "setup splits the table once");
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for first in [11u64, 21] {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let mut ht = tree.attach(&mut cl, &alloc, cfg).unwrap();
                let (hc, acked) = (h.clone(), acked.clone());
                bodies.push(Box::new(move || {
                    for k in first..first + 3 {
                        let t = hc.invoke(id, Op::Put { k, v: k + 100 });
                        match ht.put(&mut cl, k, k + 100) {
                            Ok(()) => {
                                acked.lock().unwrap().push((k, k + 100));
                                hc.complete(t, Ret::Unit);
                            }
                            Err(_) => hc.fail(t),
                        }
                    }
                }));
            }
            let mut cr = f.client();
            let rid = cr.id();
            participants.push(rid);
            let mut hr = tree.attach(&mut cr, &alloc, cfg).unwrap();
            let hc = h.clone();
            bodies.push(Box::new(move || {
                for k in [13u64, 23] {
                    hc.run(rid, Op::Get { k }, || hr.get(&mut cr, k), Ret::OptVal);
                }
            }));
            let (f2, alloc2) = (f.clone(), alloc.clone());
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let mut cz = f2.client();
                let mut want = acked.lock().unwrap().clone();
                want.sort_unstable();
                let fresh = tree.attach(&mut cz, &alloc2, cfg);
                match fresh.and_then(|mut hz| hz.scan(&mut cz, 0, u64::MAX)) {
                    Ok(got) => (got != want).then(|| format!("acknowledged {want:?}, got {got:?}")),
                    Err(e) => Some(format!("a fresh handle cannot scan the tree: {e}")),
                }
            });
            PreparedRun { fabric: f, participants, bodies, history: h, finale: Some(finale) }
        }),
    }
}

/// Two writers storing far records through [`HtTreeHandle::publish`]
/// (reclaim mode) under keys that share a bucket — key 1 from both — and
/// one reader dereferencing what it finds under an epoch guard. Each
/// writer retires the record its publish says it superseded, seals and
/// reclaims, so freed record words are reused by later stores mid-run.
/// Checked: race-freedom (the record write must be ordered before the
/// bucket CAS that makes it reachable, and a freed record's reuse after
/// every reader that could still reach it) and per-key map
/// linearizability over the record *contents*.
///
/// [`HtTreeHandle::publish`]: farmem_core::HtTreeHandle::publish
pub fn httree_publish() -> Program {
    Program {
        name: "httree_publish",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 700,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            // Two buckets, never restructured: keys 1..=3 must collide.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: u64::MAX,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for (w, second_key) in [(1u64, 2u64), (2, 3)] {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let shared = reg.attach(&mut cl, &alloc).unwrap();
                let mut ht = tree.attach_reclaimed(&mut cl, &alloc, cfg, shared.clone()).unwrap();
                if w == 1 {
                    // Key 1 starts out holding a record of content 1.
                    let rec = alloc.alloc(8, AllocHint::Spread).unwrap();
                    ht.publish(&mut cl, 1, rec, &1u64.to_le_bytes()).unwrap();
                    h.seed(id, Op::Put { k: 1, v: 1 }, Ret::Unit);
                }
                let (h2, alloc2) = (h.clone(), alloc.clone());
                bodies.push(Box::new(move || {
                    for k in [1, second_key] {
                        let v = w * 10 + k;
                        let t = h2.invoke(id, Op::Put { k, v });
                        let rec = alloc2.alloc(8, AllocHint::Spread).unwrap();
                        let old = ht.publish(&mut cl, k, rec, &v.to_le_bytes()).unwrap();
                        h2.complete(t, Ret::Unit);
                        let Some(old) = old.map(FarAddr) else { continue };
                        let mut r = shared.lock().unwrap();
                        // lint: retire-ok: `publish` unlinked it (each superseded pointer comes back to exactly one store); the reader holds an epoch guard.
                        r.retire(&mut cl, old, alloc2.size_of(old).unwrap()).unwrap();
                        r.seal(&mut cl).unwrap();
                        // Few rounds only (no lease eviction): the word is
                        // freed — and reused by the next store — exactly
                        // when every slot really advanced.
                        for _ in 0..2 {
                            if r.reclaim(&mut cl).unwrap() > 0 {
                                break;
                            }
                        }
                    }
                }));
            }
            let mut cr = f.client();
            let rid = cr.id();
            participants.push(rid);
            let sr = reg.attach(&mut cr, &alloc).unwrap();
            let mut hr = tree.attach_reclaimed(&mut cr, &alloc, cfg, sr.clone()).unwrap();
            let h3 = h.clone();
            bodies.push(Box::new(move || {
                for k in [1u64, 2, 1] {
                    let t = h3.invoke(rid, Op::Get { k });
                    let g = pin(&sr, &mut cr).unwrap();
                    let ptr = hr.get(&mut cr, k).unwrap();
                    let v = ptr.map(|p| cr.read_u64(FarAddr(p)).unwrap());
                    drop(g);
                    h3.complete(t, Ret::OptVal(v));
                }
            }));
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    }
}

/// A reader serving key 1 through three [`RecordHint`]s it was handed
/// earlier, against a writer that makes each stale in its own way. Setup
/// stores key 1 three times and runs one grace period, so the run starts
/// with hint `a` and hint `b` naming *freed* blocks and hint `c` naming
/// the live record. The writer then overwrites key 1 — the allocator
/// hands it `b`'s block, so `b`'s address holds key 1's *own* newer record
/// and validates again, while `c`'s record is retired and, once the
/// reader's slot has moved, freed — stores key 2 into `a`'s block
/// (*another key's* record under a hint of key 1), and overwrites key 1
/// once more, into `c`'s block when grace let go of it in time. Every
/// reader get passes one of the hints to the real [`FarBlobMap::get_if`]
/// in reclaim mode, concurrently with those stores. The explorer runs a
/// fenced batch as one step, so what is exercised is staleness and reuse,
/// not reordering inside the batch (DESIGN.md §8). Checked: race-freedom
/// with the speculative reads in the stream — they overlap the writer's
/// record writes into the very blocks they name — and per-key map
/// linearizability over the record *contents*: a get may serve hinted
/// bytes only when they are the live record's.
///
/// Values are padded to fill the record prefetch exactly: the plain
/// record read fetches [`FarBlobMap::PREFETCH`] bytes whatever the
/// record's length, and past a shorter record those are a neighbour's
/// bytes — dropped unread, but a torn read to the detector.
///
/// [`RecordHint`]: farmem_core::RecordHint
pub fn reclaim_hinted_get() -> Program {
    Program {
        name: "reclaim_hinted_get",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 900,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            // Two buckets, never restructured: keys 1 and 2 share a chain
            // or not, the hint is judged the same way.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: u64::MAX,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            let attach = || {
                let mut cl = f.client();
                let shared = reg.attach(&mut cl, &alloc).unwrap();
                let map: FarBlobMap =
                    FarBlobMap::attach_reclaimed(&mut cl, &alloc, tree, cfg, shared.clone()).unwrap();
                (cl, shared, map)
            };
            let padded = |v: u64| {
                let mut value = vec![0u8; FarBlobMap::<0>::PREFETCHED as usize];
                value[..8].copy_from_slice(&v.to_le_bytes());
                value
            };
            let (mut cw, sw, mut mw) = attach();
            let (mut cr, _sr, mut mr) = attach();
            let (wid, rid) = (cw.id(), cr.id());
            let [a, b, c] = [1, 2, 3].map(|v| mw.put(&mut cw, 1, [], &padded(v)).unwrap().1);
            h.seed(wid, Op::Put { k: 1, v: 3 }, Ret::Unit);
            // One grace period: the writer seals, the reader's next pin
            // moves its slot, and `a`'s and `b`'s blocks go back to the
            // allocator — `b`'s last, so the next store takes it first.
            sw.lock().unwrap().seal(&mut cw).unwrap();
            mr.get_if(&mut cr, 1, &mut None, |[]| true).unwrap();
            let freed = sw.lock().unwrap().reclaim(&mut cw).unwrap();
            // Both superseded records, and the two tree items that named
            // them: each overwrite unlinked its key's old item and retired it.
            assert_eq!(freed, 2 * (FarBlobMap::<0>::PREFETCH + 32), "both superseded records");
            let h2 = h.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for (k, v) in [(1u64, 12u64), (2, 22), (1, 13)] {
                    let t = h2.invoke(wid, Op::Put { k, v });
                    mw.put(&mut cw, k, [], &padded(v)).unwrap();
                    h2.complete(t, Ret::Unit);
                    // Few rounds only (no lease eviction): what the store
                    // retired is freed exactly when the reader's slot
                    // really advanced.
                    let mut r = sw.lock().unwrap();
                    r.seal(&mut cw).unwrap();
                    for _ in 0..2 {
                        if r.reclaim(&mut cw).unwrap() > 0 {
                            break;
                        }
                    }
                }
            });
            let h3 = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for hint in [c, b, a, c, b] {
                    let t = h3.invoke(rid, Op::Get { k: 1 });
                    let got = mr.get_if(&mut cr, 1, &mut Some(hint), |[]| true).unwrap().flatten();
                    let v = got.map(|b| u64::from_le_bytes(b[..8].try_into().expect("padded")));
                    h3.complete(t, Ret::OptVal(v));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![wid, rid],
                bodies: vec![wbody, rbody],
                history: h,
                finale: None,
            }
        }),
    }
}

/// The batched twin of [`reclaim_hinted_get`]: the reader serves keys 1
/// and 2 through [`FarBlobMap::get_many`] — `get_many_async` over an
/// `Inline` doorbell — each hinted key's lookup one fenced descriptor of the
/// lookup doorbell and each stale or unhinted one's record read in a
/// second. Setup stores key 1 three times and key 2 once and runs one
/// grace period, so hints `a` and `b` name freed blocks, `c` key 1's live
/// record and `d` key 2's. The writer overwrites key 1 (into `b`'s
/// block), stores key 2 (into `a`'s) and overwrites key 1 again, running
/// a grace round after each store. The reader's three
/// batches hand in the live records' hints `[c, d]`, the
/// freed-and-reused blocks' `[b, a]`, and each key the other's record,
/// `[d, c]`. Checked: race-freedom and per-key map linearizability over
/// record contents, as in the serial program; the hints a batch hands
/// back are not reused, so every batch starts from the staleness it was
/// built with.
pub fn reclaim_hinted_get_many() -> Program {
    Program {
        name: "reclaim_hinted_get_many",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 900,
        build: Box::new(|| {
            hinted_batches(
                |_, _| {},
                |mut cr, mut mr, h, [a, b, c, d]| {
                    Box::new(move || {
                        for mut hints in [[c, d], [b, a], [d, c]].map(|pair| pair.map(Some)) {
                            hinted_batch(&mut cr, &mut mr, &h, &mut hints);
                        }
                    })
                },
            )
        }),
    }
}

/// [`reclaim_hinted_get_many`] with its hints from a shared table, as a
/// serve deployment's gets take them: a [`HintTable`] of one slot, so
/// keys 1 and 2 collide and a key's hint is often the other's or none.
/// Setup leaves key 1's freed `a` in the slot, and the writer puts each
/// new record's hint into it. The reader's three batches each read the
/// slot for both keys, serve them and learn each handed-back hint with
/// the table's CAS from the word read, so a batch that finishes late
/// races the writer's puts for the slot. Checked: race-freedom and
/// per-key map linearizability over record contents, as in the other
/// hinted programs: whatever the slot held, the tree decided.
///
/// [`HintTable`]: farmem_core::HintTable
pub fn reclaim_hinted_table() -> Program {
    Program {
        name: "reclaim_hinted_table",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 900,
        build: Box::new(|| {
            let table = Arc::new(HintTable::with_slot_bits(0));
            let tw = table.clone();
            hinted_batches(
                move |k, hint| tw.put(k, hint),
                |mut cr, mut mr, h, [a, ..]| {
                    table.put(1, a);
                    Box::new(move || {
                        for _ in 0..3 {
                            let read = [1u64, 2].map(|k| table.get(k));
                            let mut hints = read.map(|(hint, _)| hint);
                            hinted_batch(&mut cr, &mut mr, &h, &mut hints);
                            for ((k, (_, seen)), hint) in [1u64, 2].into_iter().zip(read).zip(hints) {
                                table.learn(k, seen, hint);
                            }
                        }
                    })
                },
            )
        }),
    }
}

/// The run [`reclaim_hinted_get_many`] and [`reclaim_hinted_table`]
/// share: a reclaim-mode map of two buckets, never restructured. Setup
/// stores key 1 three times (hints `a`, `b`, `c`) and key 2 once (`d`)
/// and runs one grace period, which frees `a`'s and `b`'s blocks, `b`'s
/// last. The writer overwrites key 1 (into `b`'s block), stores key 2
/// (into `a`'s) and overwrites key 1 again, running a grace round after
/// each store and handing each new record's hint to `stored`. `reader`
/// takes the reader's client and map, the history and `[a, b, c, d]`,
/// and returns the reader's body.
fn hinted_batches(
    stored: impl Fn(u64, RecordHint) + Send + 'static,
    reader: impl FnOnce(FabricClient, FarBlobMap, Arc<History>, [RecordHint; 4]) -> Box<dyn FnOnce() + Send>,
) -> PreparedRun {
    let f = fabric(false);
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
    let cfg = HtTreeConfig {
        initial_buckets: 2,
        max_load_percent: u64::MAX,
        ..HtTreeConfig::default()
    };
    let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
    let h = Arc::new(History::new());
    let attach = || {
        let mut cl = f.client();
        let shared = reg.attach(&mut cl, &alloc).unwrap();
        let map: FarBlobMap =
            FarBlobMap::attach_reclaimed(&mut cl, &alloc, tree, cfg, shared.clone()).unwrap();
        (cl, shared, map)
    };
    let padded = |v: u64| {
        let mut value = vec![0u8; FarBlobMap::<0>::PREFETCHED as usize];
        value[..8].copy_from_slice(&v.to_le_bytes());
        value
    };
    let (mut cw, sw, mut mw) = attach();
    let (mut cr, _sr, mut mr) = attach();
    let (wid, rid) = (cw.id(), cr.id());
    let [a, b, c] = [1, 2, 3].map(|v| mw.put(&mut cw, 1, [], &padded(v)).unwrap().1);
    let d = mw.put(&mut cw, 2, [], &padded(21)).unwrap().1;
    h.seed(wid, Op::Put { k: 1, v: 3 }, Ret::Unit);
    h.seed(wid, Op::Put { k: 2, v: 21 }, Ret::Unit);
    sw.lock().unwrap().seal(&mut cw).unwrap();
    mr.get_if(&mut cr, 1, &mut None, |[]| true).unwrap();
    let freed = sw.lock().unwrap().reclaim(&mut cw).unwrap();
    // Both superseded records and the two tree items that named them.
    assert_eq!(freed, 2 * (FarBlobMap::<0>::PREFETCH + 32), "both superseded records");
    let h2 = h.clone();
    let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
        for (k, v) in [(1u64, 12u64), (2, 22), (1, 13)] {
            let t = h2.invoke(wid, Op::Put { k, v });
            let (_, hint) = mw.put(&mut cw, k, [], &padded(v)).unwrap();
            stored(k, hint);
            h2.complete(t, Ret::Unit);
            // Few rounds only (no lease eviction).
            let mut r = sw.lock().unwrap();
            r.seal(&mut cw).unwrap();
            for _ in 0..2 {
                if r.reclaim(&mut cw).unwrap() > 0 {
                    break;
                }
            }
        }
    });
    let rbody = reader(cr, mr, h.clone(), [a, b, c, d]);
    PreparedRun {
        fabric: f,
        participants: vec![wid, rid],
        bodies: vec![wbody, rbody],
        history: h,
        finale: None,
    }
}

/// One reader batch of keys 1 and 2 through [`FarBlobMap::get_many`],
/// recorded in `h`; `hints` comes back as the lookups handed it back.
fn hinted_batch(
    cr: &mut FabricClient,
    mr: &mut FarBlobMap,
    h: &History,
    hints: &mut [Option<RecordHint>; 2],
) {
    let ts = [1u64, 2].map(|k| h.invoke(cr.id(), Op::Get { k }));
    let got = mr.get_many(cr, &[1, 2], hints, |[]| true).unwrap();
    for (t, got) in ts.into_iter().zip(got) {
        let v = got.flatten().map(|b| u64::from_le_bytes(b[..8].try_into().expect("padded")));
        h.complete(t, Ret::OptVal(v));
    }
}

/// The record layer's remove — [`HtTreeHandle::take`], then the retire —
/// on a reclaim-mode [`FarBlobMap`] whose three keys share one bucket.
/// Setup stores `k` and then `above`, so the bucket's block holds both.
/// Client A removes `k` and runs grace rounds; client B stores
/// `neighbour` into the same bucket, so in some schedules its CAS lands
/// between the take's two accesses and the take must start over; client
/// C serves `k` through the hint of the record being unlinked, then looks
/// `neighbour` up. Checked: race-freedom (the record A retires is freed,
/// and its bytes reused by B's store, only after C's guard lets go of
/// it), per-key map linearizability over record contents with the remove
/// reporting whether the key was there, and two invariants over the
/// final state: the take and the put both stand (a take that relinked a
/// stale block would drop the neighbour after any get the reader made),
/// and the remover retired `k`'s record, the one block its landed
/// splice replaced — two keys, or three exactly when B's put landed
/// first, as the block B wrote shows — and the block of each attempt
/// whose CAS lost.
/// Once every client has sealed and pinned past the seals, a reclaim
/// round per client frees every retired block without a `BadFree`.
///
/// Values are padded to the record prefetch, as in
/// [`reclaim_hinted_get`].
///
/// [`HtTreeHandle::take`]: farmem_core::HtTreeHandle::take
pub fn reclaim_take() -> Program {
    Program {
        name: "reclaim_take",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 900,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            // Two buckets, never restructured.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: u64::MAX,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            let attach = || {
                let mut cl = f.client();
                let shared = reg.attach(&mut cl, &alloc).unwrap();
                let map: FarBlobMap =
                    FarBlobMap::attach_reclaimed(&mut cl, &alloc, tree, cfg, shared.clone()).unwrap();
                (cl, shared, map)
            };
            let padded = |v: u64| {
                let mut value = vec![0u8; FarBlobMap::<0>::PREFETCHED as usize];
                value[..8].copy_from_slice(&v.to_le_bytes());
                value
            };
            let unpad = |b: Vec<u8>| u64::from_le_bytes(b[..8].try_into().expect("padded"));
            // Three keys of one bucket (the tree hashes with `splitmix64`).
            let mut same_bucket = (1u64..).filter(|&k| splitmix64(k) % 2 == splitmix64(1) % 2);
            let [k, above, neighbour] = std::array::from_fn(|_| same_bucket.next().unwrap());
            let (mut ca, sa, mut ma) = attach();
            let (mut cb, sb, mut mb) = attach();
            let (mut cc, sc, mut mc) = attach();
            let (aid, bid, cid) = (ca.id(), cb.id(), cc.id());
            let slots = [sa.clone(), sb, sc];
            let (_, hint) = ma.put(&mut ca, k, [], &padded(1)).unwrap();
            ma.put(&mut ca, above, [], &padded(2)).unwrap();
            h.seed(aid, Op::Put { k, v: 1 }, Ret::Unit);
            h.seed(aid, Op::Put { k: above, v: 2 }, Ret::Unit);
            // Bytes the remover retired in the run (setup's store of
            // `above` retired the block of `k` alone), and its lost CASes.
            let (retired, lost) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let setup_retired = sa.lock().unwrap().stats().retired_bytes;
            let (ha, ra, la) = (h.clone(), retired.clone(), lost.clone());
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = ha.invoke(aid, Op::Remove { k });
                let held = ma.remove(&mut ca, k).unwrap();
                la.store(ma.stats().cas_retries, Ordering::SeqCst);
                ha.complete(t, Ret::Val(u64::from(held)));
                // Few rounds only (no lease eviction): the record is freed
                // exactly when the other slots really advanced.
                let mut r = sa.lock().unwrap();
                r.seal(&mut ca).unwrap();
                for _ in 0..2 {
                    if r.reclaim(&mut ca).unwrap() > 0 {
                        break;
                    }
                }
                ra.store(r.stats().retired_bytes - setup_retired, Ordering::SeqCst);
            });
            // Whether B's put landed while `k` was still linked: its one
            // attempt then wrote its record and a block of three keys. A
            // put that lost the bucket to the take reads it again.
            let landed_first = Arc::new(AtomicBool::new(false));
            let (hb, lb) = (h.clone(), landed_first.clone());
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hb.invoke(bid, Op::Put { k: neighbour, v: 3 });
                let (before, written) = (mb.stats(), cb.stats().bytes_written);
                mb.put(&mut cb, neighbour, [], &padded(3)).unwrap();
                let written = cb.stats().bytes_written - written;
                lb.store(
                    mb.stats().cas_retries == before.cas_retries
                        && written == FarBlobMap::<0>::PREFETCH + BLOCK_OF_THREE,
                    Ordering::SeqCst,
                );
                hb.complete(t, Ret::Unit);
            });
            let hc = h.clone();
            let cbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for (key, mut hint) in [(k, Some(hint)), (neighbour, None)] {
                    let t = hc.invoke(cid, Op::Get { k: key });
                    let got = mc.get_if(&mut cc, key, &mut hint, |[]| true).unwrap().flatten();
                    hc.complete(t, Ret::OptVal(got.map(unpad)));
                }
            });
            // After the run: the take and the put it raced both stand —
            // whenever the reader happened to look — and the record was
            // retired once, with exactly the block the landed splice
            // unlinked.
            let (mut cz, sz, mut mz) = attach();
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let left: Vec<Option<u64>> = [k, above, neighbour]
                    .iter()
                    .map(|&key| mz.get_bytes(&mut cz, key).unwrap().map(unpad))
                    .collect();
                // The key's one record and the block the take replaced:
                // `k` and `above`, and `neighbour` too when its put landed
                // first. A take whose CAS lost to that put retired the
                // block it had written, `above` alone, too.
                let retired = retired.load(Ordering::SeqCst);
                let keys = 2 + u64::from(landed_first.load(Ordering::SeqCst));
                let lost = lost.load(Ordering::SeqCst);
                let want = FarBlobMap::<0>::PREFETCH + 16 + keys * 16 + lost * (16 + 16);
                if left != [None, Some(2), Some(3)] {
                    Some(format!("keys [k, above, neighbour] ended as {left:?}"))
                } else if retired != want {
                    Some(format!(
                        "the key's one record, a block of {keys} keys and {lost} lost: \
                         {retired} bytes retired"
                    ))
                } else {
                    let [sa, sb, sc] = &slots;
                    free_every_retired(&[sa, sb, sc, &sz], &mut cz)
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![aid, bid, cid],
                bodies: vec![abody, bbody, cbody],
                history: h,
                finale: Some(finale),
            }
        }),
    }
}

/// A reclaim-mode tree restructured under a client that cached it. In
/// setup, client B attaches and reads (its slot and its cached directory
/// predate everything below), then client A's puts split the two-bucket
/// table — the split retires the old table, its chain items and the old
/// directory as a restructure and seals them. The run starts there, so
/// every schedule is about what B's first pin after the split learns and
/// what A may free meanwhile: A runs grace rounds until the old blocks
/// are freed, then reuses them (allocates blocks of every size the split
/// retired and fills them with `POISON`); B gets and puts keys on both
/// sides of the split. Checked: race-freedom — A can free only after B's
/// slot moved past the seal, and B's pin that moved it reported the new
/// generation, so B refreshed its directory before it could touch an old
/// block A is rewriting — and per-key map linearizability. A split that
/// sealed its retires as records (`m17_restructure_sealed_as_record`)
/// moves B's epoch but not its generation, and B reads the reused
/// blocks.
pub fn reclaim_split() -> Program {
    Program {
        name: "reclaim_split",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 700,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            // Splits past three items a table: A's fourth put, and no put
            // of the run.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: 150,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            let attach = || {
                let mut cl = f.client();
                let shared = reg.attach(&mut cl, &alloc).unwrap();
                let ht = tree.attach_reclaimed(&mut cl, &alloc, cfg, shared.clone()).unwrap();
                (cl, shared, ht)
            };
            let (mut cb, _sb, mut hb) = attach();
            let (mut ca, sa, mut ha) = attach();
            let (aid, bid) = (ca.id(), cb.id());
            assert_eq!(hb.get(&mut cb, 1).unwrap(), None);
            for k in 1..=4u64 {
                ha.put(&mut ca, k, k + 100).unwrap();
                h.seed(aid, Op::Put { k, v: k + 100 }, Ret::Unit);
            }
            assert_eq!(ha.stats().splits, 1, "setup splits the table once");
            let alloc_a = alloc.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // Few rounds only (no lease eviction): the old blocks are
                // freed exactly when B's slot really advanced.
                let mut freed = 0;
                for _ in 0..3 {
                    freed = sa.lock().unwrap().reclaim(&mut ca).unwrap();
                    if freed > 0 {
                        break;
                    }
                }
                if freed == 0 {
                    return;
                }
                // Reuse: the allocator hands freed blocks out again first.
                for len in [16u64, 32, 32, 32, 32, 64, 64] {
                    let block = alloc_a.alloc(len, AllocHint::Spread).unwrap();
                    let poison: Vec<u8> =
                        (0..len / 8).flat_map(|_| POISON.to_le_bytes()).collect();
                    ca.write(block, &poison).unwrap();
                }
            });
            let hb2 = h.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let ops = [Op::Get { k: 1 }, Op::Put { k: 9, v: 90 }, Op::Get { k: 4 }, Op::Get { k: 9 }];
                for op in ops {
                    let t = hb2.invoke(bid, op.clone());
                    let ret = match op {
                        Op::Get { k } => Ret::OptVal(hb.get(&mut cb, k).unwrap()),
                        Op::Put { k, v } => hb.put(&mut cb, k, v).map(|()| Ret::Unit).unwrap(),
                        _ => unreachable!(),
                    };
                    hb2.complete(t, ret);
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![aid, bid],
                bodies: vec![abody, bbody],
                history: h,
                finale: None,
            }
        }),
    }
}

/// The reclaim-mode splice against a restructure. Setup stores keys `k1`,
/// `k2`, `k3` of one bucket, so the chain reads `k3, k2, k1`. Client A
/// overwrites `k1` — a splice two hops down, copying `k3` and `k2` — and
/// then gets `k2`; client B takes `k2` — a splice one hop down — and then
/// gets `k1`; client C restructures the table (an explicit split, which
/// compacts a table this sparse) and then gets `k3`. In some schedules a
/// splice's CAS lands between the drain and the poison volley, so the
/// volley loses that bucket and harvests it again; in others the splice
/// finds the table taken or poisoned and starts over in the new one.
/// Checked: race-freedom, per-key map linearizability (a harvest that kept
/// what a splice unlinked would bring `k2` back after its take), and two
/// invariants over the final state: the map reads `k1 = 11`, no `k2`,
/// `k3 = 3`, and once every client has sealed and pinned past the seals,
/// one reclaim round per client frees every retired block without a
/// `BadFree` — nothing was retired twice.
pub fn reclaim_trim() -> Program {
    Program {
        name: "reclaim_trim",
        model: Some(Model::Kv),
        check_races: true,
        max_steps: 1200,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 5).unwrap();
            // Two buckets, never restructured by a put.
            let cfg = HtTreeConfig {
                initial_buckets: 2,
                max_load_percent: u64::MAX,
                ..HtTreeConfig::default()
            };
            let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
            let h = Arc::new(History::new());
            let attach = || {
                let mut cl = f.client();
                let shared = reg.attach(&mut cl, &alloc).unwrap();
                let ht = tree.attach_reclaimed(&mut cl, &alloc, cfg, shared.clone()).unwrap();
                (cl, shared, ht)
            };
            let mut same_bucket = (1u64..).filter(|&k| splitmix64(k) % 2 == splitmix64(1) % 2);
            let [k1, k2, k3] = std::array::from_fn(|_| same_bucket.next().unwrap());
            // The restructurer attaches first: the explorer's default
            // choice is the lowest id, so a schedule runs the client that
            // holds a taken table on, rather than one spinning on it.
            let (mut cc, sc, mut hc) = attach();
            let (mut ca, sa, mut ha) = attach();
            let (mut cb, sb, mut hb) = attach();
            let (aid, bid, cid) = (ca.id(), cb.id(), cc.id());
            for (k, v) in [(k1, 1), (k2, 2), (k3, 3)] {
                ha.put(&mut ca, k, v).unwrap();
                h.seed(aid, Op::Put { k, v }, Ret::Unit);
            }
            // An operation the explorer starves past its retry budget
            // (`Contended`: a table taken by a restructurer that is not
            // scheduled) ends with no effect.
            let get = |h: &History, id: u32, ht: &mut farmem_core::HtTreeHandle, c: &mut FabricClient, k| {
                h.run(id, Op::Get { k }, || ht.get(c, k), Ret::OptVal)
            };
            // Whether the put and the take landed.
            let (put, took) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
            let (ha2, put2) = (h.clone(), put.clone());
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = ha2.invoke(aid, Op::Put { k: k1, v: 11 });
                match ha.put(&mut ca, k1, 11) {
                    Ok(()) => {
                        put2.store(true, Ordering::SeqCst);
                        ha2.complete(t, Ret::Unit);
                    }
                    Err(_) => ha2.fail(t),
                }
                get(&ha2, aid, &mut ha, &mut ca, k2);
            });
            let (hb2, took2) = (h.clone(), took.clone());
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hb2.invoke(bid, Op::Remove { k: k2 });
                match hb.take(&mut cb, k2) {
                    Ok(held) => {
                        took2.store(held.is_some(), Ordering::SeqCst);
                        hb2.complete(t, Ret::Val(u64::from(held.is_some())));
                    }
                    Err(_) => hb2.fail(t),
                }
                get(&hb2, bid, &mut hb, &mut cb, k1);
            });
            let hc2 = h.clone();
            let cbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A split that fails leaves the table to the next put.
                let _ = hc.split(&mut cc, k1);
                get(&hc2, cid, &mut hc, &mut cc, k3);
            });
            let (mut cz, sz, mut hz) = attach();
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let left: Vec<Option<u64>> =
                    [k1, k2, k3].iter().map(|&k| hz.get(&mut cz, k).unwrap()).collect();
                let k1_now = if put.load(Ordering::SeqCst) { 11 } else { 1 };
                let k2_now = (!took.load(Ordering::SeqCst)).then_some(2);
                if left != [Some(k1_now), k2_now, Some(3)] {
                    return Some(format!("keys [k1, k2, k3] ended as {left:?}"));
                }
                free_every_retired(&[&sa, &sb, &sc, &sz], &mut cz)
            });
            PreparedRun {
                fabric: f,
                participants: vec![aid, bid, cid],
                bodies: vec![abody, bbody, cbody],
                history: h,
                finale: Some(finale),
            }
        }),
    }
}

/// A finale's last check: frees every block the `slots` retired, through
/// `client`. A slot with retires left runs a reclaim round, which also
/// moves it past every seal; one with none gives its slot back. `None`
/// once the limbo lists are empty; a block retired twice surfaces as a
/// `BadFree`.
fn free_every_retired(slots: &[&SharedReclaim], client: &mut FabricClient) -> Option<String> {
    for _ in 0..3 {
        for s in slots {
            let mut r = s.lock().unwrap();
            r.seal(client).unwrap();
            if r.stats().limbo_entries() == 0 {
                // Only the epoch unsubscribe can fail, after the slot is
                // already free.
                let _ = r.release(client);
            } else if let Err(e) = r.reclaim(client) {
                return Some(format!("a retired block did not free: {e:?}"));
            }
        }
    }
    let left: u64 = slots.iter().map(|s| s.lock().unwrap().stats().limbo_entries()).sum();
    (left != 0).then(|| format!("{left} blocks still in limbo"))
}

/// Bytes of a bucket block of three keys: a `{version, n}` header and
/// three `{key, value}` entries.
const BLOCK_OF_THREE: u64 = 16 + 3 * 16;

/// Poison value a reclaimer writes into memory it has freed, standing in
/// for reuse by an unrelated allocation.
const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Epoch-based reclamation, publish path: a reader pins and chases a
/// CAS-published pointer while a writer republishes, retires the old
/// object, waits out the grace period, and poisons the freed memory.
/// Checked: race-freedom (the pin-CAS / registry-scan happens-before
/// chain is load-bearing here) and register linearizability — the reader
/// must never observe the poison pattern (`POISON`).
pub fn reclaim_publish() -> Program {
    Program {
        name: "reclaim_publish",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 350,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            let ptr = alloc.alloc(8, AllocHint::Spread).unwrap();
            let x = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(x, 1).unwrap();
            c0.write_u64(ptr, x.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            let mut ca = f.client();
            let aid = ca.id();
            let sa = reg.attach(&mut ca, &alloc).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let sb = reg.attach(&mut cb, &alloc).unwrap();
            let participants = vec![aid, bid];
            let h2 = h.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..3 {
                    let t = h2.invoke(aid, Op::RegRead { part: 0 });
                    match pin(&sa, &mut ca) {
                        Ok(g) => {
                            let p = ca.read_u64(ptr).unwrap();
                            let v = ca.read_u64(FarAddr(p)).unwrap();
                            drop(g);
                            h2.complete(t, Ret::Vals(vec![v]));
                        }
                        Err(_) => h2.fail(t),
                    }
                }
            });
            let h3 = h.clone();
            let alloc_b = alloc.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = h3.invoke(bid, Op::RegWrite { part: 0, v: vec![2] });
                let y = alloc_b.alloc(8, AllocHint::Spread).unwrap();
                cb.write_u64(y, 2).unwrap();
                assert_eq!(cb.cas(ptr, x.0, y.0).unwrap(), x.0, "sole publisher");
                h3.complete(t, Ret::Unit);
                {
                    let mut hh = sb.lock().unwrap();
                    hh.retire(&mut cb, x, 8).unwrap();
                    hh.seal(&mut cb).unwrap();
                }
                // Few rounds only: far too few for a lease eviction, so
                // memory is freed exactly when every slot really advanced.
                let mut freed = 0;
                for _ in 0..4 {
                    freed = sb.lock().unwrap().reclaim(&mut cb).unwrap();
                    if freed > 0 {
                        break;
                    }
                }
                if freed > 0 {
                    cb.write_u64(x, POISON).unwrap();
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![abody, bbody],
                history: h,
                finale: None,
            }
        }),
    }
}

/// Epoch-based reclamation, crashed-client path: a client pins an epoch
/// and never returns; the reclaimer must evict its stale slot after the
/// lease and still free the retired block. Checked: race-freedom plus a
/// per-run liveness invariant (the block is freed in every completed
/// run).
pub fn reclaim_evict() -> Program {
    Program {
        name: "reclaim_evict",
        model: None,
        check_races: true,
        max_steps: 1000,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            let x = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(x, 1).unwrap();
            let h = Arc::new(History::new());
            // The crasher attaches first (lower id): the default DFS
            // schedule pins its slot before the reclaimer seals, which is
            // the interesting (eviction-requiring) path.
            let mut cc = f.client();
            let crash_id = cc.id();
            let sc = reg.attach(&mut cc, &alloc).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let sb = reg.attach(&mut cb, &alloc).unwrap();
            let participants = vec![crash_id, bid];
            let crash_body: Box<dyn FnOnce() + Send> = Box::new(move || {
                // Pin, then "crash": the guard drop is client-local, so
                // the far slot keeps the pinned epoch forever.
                if let Ok(g) = pin(&sc, &mut cc) {
                    drop(g);
                }
            });
            let freed_flag = Arc::new(AtomicU64::new(0));
            let ff = freed_flag.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                {
                    let mut hh = sb.lock().unwrap();
                    hh.retire(&mut cb, x, 8).unwrap();
                    hh.seal(&mut cb).unwrap();
                }
                // Enough rounds for the reclaimer's own virtual backoff to
                // out-wait the crashed client's lease and evict it.
                for _ in 0..400 {
                    let freed = sb.lock().unwrap().reclaim(&mut cb).unwrap();
                    if freed > 0 {
                        ff.store(freed, Ordering::SeqCst);
                        break;
                    }
                }
            });
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                if freed_flag.load(Ordering::SeqCst) == 8 {
                    None
                } else {
                    Some("crashed client was never evicted: retired block still in limbo".into())
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![crash_body, bbody],
                history: h,
                finale: Some(finale),
            }
        }),
    }
}

/// Epoch-based reclamation, a publish carried past an eviction: reader A
/// caches a pointer `x` (standing in for a table) and never publishes
/// while writer B seals past it and out-waits A's lease, so setup ends
/// with A's slot evicted and an epoch event in A's queue. A's read pins
/// with [`pin_deferred`] and carries the slot CAS at the head of its one
/// fenced batch `[publish, read x]`. B republishes the register behind
/// `dir` (`x` → `y`), retires and seals `x`, runs two grace rounds (too
/// few to out-wait a lease) and poisons `x` once they free it. Checked:
/// register linearizability — a read never returns the poison. Races
/// off: the batch that finds the slot evicted has already read `x`,
/// which grace no longer protected, and discards the answer; the detector
/// cannot tell a discarded read from a used one.
pub fn reclaim_evicted_publish() -> Program {
    Program {
        name: "reclaim_evicted_publish",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 300,
        build: Box::new(evicted_publish_run),
    }
}

/// The run of [`reclaim_evicted_publish`].
fn evicted_publish_run() -> PreparedRun {
    let f = fabric(false);
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
    let x = word(&mut c0, &alloc);
    c0.write_u64(x, 1).unwrap();
    let dir = word(&mut c0, &alloc);
    c0.write_u64(dir, x.0).unwrap();
    let h = Arc::new(History::new());
    h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
    let mut ca = f.client();
    let aid = ca.id();
    let sa = reg.attach(&mut ca, &alloc).unwrap();
    let mut cb = f.client();
    let bid = cb.id();
    let sb = reg.attach(&mut cb, &alloc).unwrap();
    {
        // A lags past B's seal until B's lease runs out on it.
        let mut r = sb.lock().unwrap();
        // lint: retire-ok: setup: a block nobody references, sealed so A lags.
        r.retire(&mut cb, alloc.alloc(8, AllocHint::Spread).unwrap(), 8).unwrap();
        r.seal(&mut cb).unwrap();
        while r.stats().evictions == 0 {
            r.reclaim(&mut cb).unwrap();
        }
    }
    let ha = h.clone();
    let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
        let t = ha.invoke(aid, Op::RegRead { part: 0 });
        let mut g = pin_deferred(&sa, &mut ca).unwrap();
        let mut cached = x;
        let v = loop {
            let publish = g.take_publish();
            let mut ops: Vec<BatchOp> = publish.iter().map(Publish::op).collect();
            ops.push(BatchOp::Read { addr: cached, len: 8 });
            let out = ca.batch(&ops).unwrap();
            if let Some(publish) = publish {
                if !g.settle(&mut ca, publish, Some(out[0].value())).unwrap() {
                    // Evicted: re-registered; refresh the cache, start over.
                    cached = FarAddr(ca.read_u64(dir).unwrap());
                    continue;
                }
            }
            break u64::from_le_bytes(out[ops.len() - 1].bytes().try_into().unwrap());
        };
        drop(g);
        ha.complete(t, Ret::Vals(vec![v]));
    });
    let hb = h.clone();
    let alloc_b = alloc.clone();
    let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
        let t = hb.invoke(bid, Op::RegWrite { part: 0, v: vec![2] });
        let y = alloc_b.alloc(8, AllocHint::Spread).unwrap();
        cb.write_u64(y, 2).unwrap();
        assert_eq!(cb.cas(dir, x.0, y.0).unwrap(), x.0);
        hb.complete(t, Ret::Unit);
        let mut r = sb.lock().unwrap();
        // lint: retire-ok: the CAS on `dir` unlinked it; B reads nothing through it.
        r.retire(&mut cb, x, 8).unwrap();
        r.seal(&mut cb).unwrap();
        for _ in 0..2 {
            if r.reclaim(&mut cb).unwrap() > 0 {
                cb.write_u64(x, POISON).unwrap();
                break;
            }
        }
    });
    PreparedRun {
        fabric: f,
        participants: vec![aid, bid],
        bodies: vec![abody, bbody],
        history: h,
        finale: None,
    }
}

/// Virtual instant at which [`replica_failover`]'s primary crash-stops.
const LOSS_NS: u64 = 1_000_000;

/// The fenced failover of DESIGN §10 on the fabric's own groups: one
/// register word on a [`ReplicaConfig::mirrored`]`(1)` fabric whose
/// primary crash-stops at `LOSS_NS` ([`MemoryNode::schedule_crash_permanent`]).
/// A writer whose clock is behind the loss stores 2, mirrored before its
/// ack; a client whose clock is past it stores 3, so its verb waits out
/// the failover lease, promotes the replica (a new epoch, the deposed
/// node fenced) and re-issues there; a reader behind the loss, its view
/// cached in setup, reads twice — after the promotion only the fence
/// turns it from the deposed primary. Before each recorded read it looks
/// once, unrecorded: a client runs only when granted a verb, so the look
/// lets a read be invoked after another client's write completed.
/// Checked: register linearizability across the promotion. Races off:
/// plain reads and writes of a register race by design.
///
/// [`MemoryNode::schedule_crash_permanent`]: farmem_fabric::MemoryNode::schedule_crash_permanent
pub fn replica_failover() -> Program {
    Program {
        name: "replica_failover",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 150,
        build: Box::new(|| {
            let replication = ReplicaConfig::mirrored(1);
            let f = FabricConfig { replication, ..FabricConfig::count_only(64 << 20) }.build();
            let mut c0 = f.client();
            let reg = FarAlloc::new(f.clone()).alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(reg, 1).unwrap();
            f.node(NodeId(0)).schedule_crash_permanent(LOSS_NS);
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            // (clock, value stored, or `None` for the reader)
            let roles = [(0, Some(2)), (LOSS_NS, Some(3)), (0, None)];
            let (mut participants, mut bodies) = (Vec::new(), Vec::<Box<dyn FnOnce() + Send>>::new());
            for (clock, store) in roles {
                let mut c = f.client();
                c.advance_time(clock);
                if store.is_none() {
                    c.read_u64(reg).unwrap();
                }
                let id = c.id();
                participants.push(id);
                let h = h.clone();
                bodies.push(Box::new(move || match store {
                    Some(v) => h.run(id, Op::RegWrite { part: 0, v: vec![v] }, || c.write_u64(reg, v), |()| Ret::Unit),
                    None => {
                        for _ in 0..2 {
                            let _ = c.read_u64(reg);
                            h.run(id, Op::RegRead { part: 0 }, || c.read_u64(reg), |v| Ret::Vals(vec![v]));
                        }
                    }
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    }
}

/// The TTL of [`serve_ttl_evict`]'s record: past its owner's clock,
/// ahead of its reader's.
const TTL_NS: u64 = 1_000_000;

/// Payload bytes of [`serve_ttl_evict`]'s records: past the prefetch, so
/// a get reads the payload's tail in a second access.
const TTL_VALUE_LEN: u64 = FarBlobMap::<1>::PREFETCHED + 16;

/// A record payload of [`TTL_VALUE_LEN`] bytes, every word `w`.
fn ttl_value(w: u64) -> Vec<u8> {
    w.to_le_bytes().repeat((TTL_VALUE_LEN / 8) as usize)
}

/// The word a [`ttl_value`] payload holds, or [`POISON`] for one whose
/// head and tail were read from two records.
fn ttl_word(payload: &[u8]) -> u64 {
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let (head, tail) = (word(0), word(payload.len() - 8));
    if head == tail { head } else { POISON }
}

/// The serving TTL of DESIGN §13 through [`ServeWorker`]'s synchronous
/// API, one client and one worker shard per participant. Setup stores a
/// record (payload words 7) with a `TTL_NS` TTL through its owning
/// shard, then a key whose hint takes the record's slot of the server's
/// hint table, so the reader's first get looks the key up before it
/// reads the record — the window in which an unlinked record must stay
/// intact. The owner, its clock past the TTL, gets the key (expired: a
/// miss that unlinks and retires the record — a write of 0 in the
/// history), then stores the colliding key again, now in the record's
/// size class; the reader, on the other shard and ahead of the TTL, gets
/// the key twice. Checked: race-freedom, register linearizability —
/// nothing served past the expiry, no hit mixing two records — and a
/// finale in which the owner's reclaim passes free the expired record's
/// bytes.
///
/// [`ServeWorker`]: farmem_serve::ServeWorker
pub fn serve_ttl_evict() -> Program {
    Program {
        name: "serve_ttl_evict",
        model: Some(Model::Register { init: 7 }),
        check_races: true,
        max_steps: 1000,
        build: Box::new(|| {
            let f = fabric(false);
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let cfg = ServeConfig {
                ht: HtTreeConfig { initial_buckets: 4, ..HtTreeConfig::default() },
                reclaim_slots: 4,
                n_workers: 2,
                reclaim_every: u64::MAX,
                ..ServeConfig::default()
            };
            let server = CacheServer::create(&mut c0, &alloc, cfg).unwrap();
            let tenant = server.add_tenant(TenantSpec::unlimited("ttl")).unwrap();
            // Two keys of one shard and one slot of `HintTable::new`'s
            // 2^18, the top bits of a key's mix. Were the table to change,
            // the reader's first get would be hinted, and m13 would escape.
            let (key, collider) = (1, 363_795);
            let wid = server.owner_of(tenant.namespaced(key), 2);
            let slot = |k| splitmix64(tenant.namespaced(k)) >> 46;
            assert_eq!(server.owner_of(tenant.namespaced(collider), 2), wid);
            assert_eq!(slot(collider), slot(key));
            let mut co = f.client();
            let oid = co.id();
            let mut owner = server.worker(wid, 2, &mut co).unwrap();
            owner.put(&mut co, tenant, key, &ttl_value(7), Some(TTL_NS)).unwrap();
            owner.put(&mut co, tenant, collider, &[1], None).unwrap();
            co.advance_time(TTL_NS);
            let mut cr = f.client();
            let rid = cr.id();
            let mut reader = server.worker(1 - wid, 2, &mut cr).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![7] }, Ret::Unit);
            let shard = Arc::new(Mutex::new((owner, co)));
            let (ho, so) = (h.clone(), shard.clone());
            let obody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let (owner, co) = &mut *so.lock().unwrap();
                ho.run(oid, Op::RegWrite { part: 0, v: vec![0] }, || owner.get(co, tenant, key), |_| Ret::Unit);
                owner.put(co, tenant, collider, &ttl_value(9), None).unwrap();
            });
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let word = |got| Ret::Vals(vec![if let Response::Value(v) = got { ttl_word(&v) } else { 0 }]);
                    hr.run(rid, Op::RegRead { part: 0 }, || reader.get(&mut cr, tenant, key), word);
                }
            });
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let (owner, co) = &mut *shard.lock().unwrap();
                let record = charged_bytes(TTL_VALUE_LEN);
                // Enough passes that the backoff out-waits the reader's
                // lagging slot (the lease path of reclaim_evict).
                let mut freed = 0;
                for _ in 0..400 {
                    freed += owner.reclaim_pass(co).unwrap_or(0);
                    if freed >= record {
                        return None;
                    }
                }
                Some(format!("the expired record was never freed: {freed} of {record} bytes"))
            });
            PreparedRun {
                fabric: f,
                participants: vec![oid, rid],
                bodies: vec![obody, rbody],
                history: h,
                finale: Some(finale),
            }
        }),
    }
}

/// The main-suite programs, in stable report order.
pub fn main_programs() -> Vec<Program> {
    vec![
        mutex_counter(false),
        queue_fifo(),
        httree_split(),
        httree_split_race(),
        httree_publish(),
        reclaim_hinted_get(),
        reclaim_hinted_get_many(),
        reclaim_hinted_table(),
        reclaim_take(),
        reclaim_split(),
        reclaim_trim(),
        reclaim_publish(),
        reclaim_evict(),
        reclaim_evicted_publish(),
        replica_failover(),
        serve_ttl_evict(),
        mutex_counter(true),
        queue_wrap(false),
        queue_wrap(true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreBounds};

    /// The shape `queue_wrap` promises: every run wraps, and the explored
    /// runs include ones that wrap twice around an empty recovery.
    #[test]
    fn queue_wrap_runs_wrap_twice_around_an_empty_recovery() {
        for chaos in [false, true] {
            let tally = Arc::new(Mutex::new(Vec::new()));
            let bounds = ExploreBounds { max_schedules: 8, random_schedules: 8, seed: 0xe16 };
            let x = explore(&queue_wrap_tallied(chaos, tally.clone()), &bounds);
            assert!(x.clean(), "{x:?}");
            let runs = tally.lock().unwrap();
            assert_eq!(runs.len(), 16, "every run completed");
            assert!(runs.iter().all(|&[wraps, _]| wraps >= 1), "{runs:?}");
            let wrapped_twice_and_recovered = |&[wraps, recoveries]: &[u64; 2]| {
                wraps >= 2 && recoveries >= 1
            };
            assert!(runs.iter().any(wrapped_twice_and_recovered), "{runs:?}");
        }
    }
}
