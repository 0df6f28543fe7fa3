//! Mutation self-tests: deliberately broken protocol variants that the
//! analyses must flag.
//!
//! Each mutant is a small program with one protocol rule removed —
//! exactly the classes of bug the checker exists to catch. The suite
//! runs every mutant under the same explorer and asserts that the
//! *expected* analyses fire; a mutant slipping through fails the suite
//! (and the `e16_check` driver, and CI). This is the evidence that a
//! green main-suite report means something.
//!
//! These are **not** `#[cfg(test)]`-gated: the `e16_check` driver runs
//! them to produce the committed mutation-coverage report, so they are
//! ordinary (dev-tooling) code of this crate.
//!
//! Mutants attributed to the linearizability checker run with race
//! detection off, so a catch cannot be credited to the wrong analysis.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_baselines::FarMutex;
use farmem_fabric::{BatchOp, DescList, FabricClient, FabricError, FarAddr, PipeOp, PipeOut};
use farmem_reclaim::{pin, ReclaimRegistry};

use crate::explore::{PreparedRun, Program};
use crate::history::{History, Op, Ret};
use crate::linz::Model;
use crate::programs::{plain_fabric, word};

/// Which analysis is expected to flag a mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The happens-before race detector must report at least one race.
    Races,
    /// The linearizability checker must reject at least one history.
    Lin,
    /// A program invariant (explorer finale) must fail.
    Invariant,
}

impl Expect {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Expect::Races => "races",
            Expect::Lin => "linearizability",
            Expect::Invariant => "invariant",
        }
    }
}

/// A mutant program plus the analyses that must flag it.
pub struct Mutant {
    /// The broken program.
    pub program: Program,
    /// Every listed analysis must fire for the mutant to count as
    /// caught.
    pub expect: &'static [Expect],
}

/// M1 — lock released with a blind store instead of the fenced
/// (tag-checked) CAS. The release write races every other client's CAS
/// on the lock word: the fencing-token check is exactly what made the
/// release safe.
fn mutex_unfenced_release() -> Mutant {
    let program = Program {
        name: "m1_mutex_unfenced_release",
        model: Some(Model::Counter),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let lock = word(&mut c0, &alloc);
            let ctr = word(&mut c0, &alloc);
            let h = Arc::new(History::new());
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let h2 = h.clone();
                bodies.push(Box::new(move || {
                    let tag = id as u64 + 1;
                    let t = h2.invoke(id, Op::CtrAdd { by: 1 });
                    let mut held = false;
                    for _ in 0..24 {
                        if cl.cas(lock, 0, tag).unwrap() == 0 {
                            held = true;
                            break;
                        }
                    }
                    if !held {
                        h2.fail(t);
                        return;
                    }
                    let old = cl.read_u64(ctr).unwrap();
                    cl.write_u64(ctr, old + 1).unwrap();
                    // MUTANT: blind store release — correct code CASes
                    // `tag -> 0` so a stolen lease surfaces as LeaseLost.
                    cl.write_u64(lock, 0).unwrap();
                    h2.complete(t, Ret::Val(old));
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Races] }
}

/// M2 — a contender that "steals" a held lock immediately with a plain
/// store instead of waiting out the lease: two clients end up in the
/// critical section.
fn mutex_immediate_steal() -> Mutant {
    let program = Program {
        name: "m2_mutex_immediate_steal",
        model: Some(Model::Counter),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let lock = word(&mut c0, &alloc);
            let ctr = word(&mut c0, &alloc);
            let h = Arc::new(History::new());
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let h2 = h.clone();
                bodies.push(Box::new(move || {
                    let tag = id as u64 + 1;
                    let t = h2.invoke(id, Op::CtrAdd { by: 1 });
                    if cl.cas(lock, 0, tag).unwrap() != 0 {
                        // MUTANT: immediate steal — correct code charges
                        // the holder's lease before taking over.
                        cl.write_u64(lock, tag).unwrap();
                    }
                    let old = cl.read_u64(ctr).unwrap();
                    cl.write_u64(ctr, old + 1).unwrap();
                    let _ = cl.cas(lock, tag, 0).unwrap();
                    h2.complete(t, Ret::Val(old));
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Races] }
}

/// M3 — the counter protocol with the lock removed entirely:
/// read-modify-write on a shared word with no synchronization. Both the
/// race detector and the linearizability checker (lost update) must
/// fire.
fn unsync_counter() -> Mutant {
    let program = Program {
        name: "m3_unsync_counter",
        model: Some(Model::Counter),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let ctr = word(&mut c0, &alloc);
            let h = Arc::new(History::new());
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let h2 = h.clone();
                bodies.push(Box::new(move || {
                    for _ in 0..2 {
                        let t = h2.invoke(id, Op::CtrAdd { by: 1 });
                        // MUTANT: no lock, no FAA — a plain read/write
                        // pair that loses updates under interleaving.
                        let old = cl.read_u64(ctr).unwrap();
                        cl.write_u64(ctr, old + 1).unwrap();
                        h2.complete(t, Ret::Val(old));
                    }
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Races, Expect::Lin] }
}

/// M4 — a reader that skips the lock and snapshots the pair with one
/// multi-word read while the writer (correctly locked) updates it word
/// by word: a torn read, visible both to the race detector and as a
/// register value that was never written.
fn reader_skips_lock() -> Mutant {
    let program = Program {
        name: "m4_reader_skips_lock",
        model: Some(Model::Register { init: 0 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let lk = FarMutex::create(&mut c0, &alloc, AllocHint::Spread).unwrap();
            let pair = alloc.alloc(16, AllocHint::Spread).unwrap();
            c0.write(pair, &[0u8; 16]).unwrap();
            let h = Arc::new(History::new());
            let mut writer = f.client();
            let wid = writer.id();
            let mut reader = f.client();
            let rid = reader.id();
            let participants = vec![wid, rid];
            let hw = h.clone();
            let lw = FarMutex::attach(lk.addr());
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for i in 1..=2u64 {
                    let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![i, i] });
                    if lw.lock(&mut writer, 24).is_err() {
                        hw.fail(t);
                        continue;
                    }
                    writer.write_u64(pair, i).unwrap();
                    writer.write_u64(pair.offset(8), i).unwrap();
                    let _ = lw.unlock(&mut writer);
                    hw.complete(t, Ret::Unit);
                }
            });
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    // MUTANT: no lock around the snapshot.
                    let b = reader.read(pair, 16).unwrap();
                    let w0 = u64::from_le_bytes(b[0..8].try_into().unwrap());
                    let w1 = u64::from_le_bytes(b[8..16].try_into().unwrap());
                    hr.complete(t, Ret::Vals(vec![w0, w1]));
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![wbody, rbody],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Races, Expect::Lin] }
}

/// M5 — a miniature directory split that publishes the new table
/// pointer *before* filling the table (the correct order is
/// fill-then-CAS). Readers chasing the pointer observe uninitialised
/// memory. Race detection is off: the catch is attributed to the
/// linearizability checker alone.
fn split_publish_order() -> Mutant {
    let program = Program {
        name: "m5_split_publish_before_fill",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let t1 = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(t1, 1).unwrap();
            let dir = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(dir, t1.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            let mut cw = f.client();
            let wid = cw.id();
            let participants_head = wid;
            let hw = h.clone();
            let alloc_w = alloc.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![2] });
                let t2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                // MUTANT: publish the directory entry first, fill the
                // table after — readers can chase into zeroed memory.
                assert_eq!(cw.cas(dir, t1.0, t2.0).unwrap(), t1.0);
                cw.write_u64(t2, 2).unwrap();
                hw.complete(t, Ret::Unit);
            });
            let mut participants = vec![participants_head];
            let mut bodies = vec![wbody];
            for _ in 0..2 {
                let mut cr = f.client();
                let rid = cr.id();
                participants.push(rid);
                let hr = h.clone();
                bodies.push(Box::new(move || {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let p = cr.read_u64(dir).unwrap();
                    let v = cr.read_u64(FarAddr(p)).unwrap();
                    hr.complete(t, Ret::Vals(vec![v]));
                }) as Box<dyn FnOnce() + Send>);
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M6 — double retire: the same block is handed to the limbo list
/// twice, violating the "retired exactly once" contract. Grace then
/// frees it twice — 16 bytes back from an 8-byte allocation — which the
/// finale's conservation invariant catches. (A "retire without seal"
/// variant is *not* a usable mutant here: `reclaim` auto-seals pending
/// retires on entry, by design.)
fn double_retire() -> Mutant {
    let program = Program {
        name: "m6_double_retire",
        model: None,
        check_races: true,
        max_steps: 400,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            let x = alloc.alloc(8, AllocHint::Spread).unwrap();
            c0.write_u64(x, 1).unwrap();
            let h = Arc::new(History::new());
            let mut ca = f.client();
            let aid = ca.id();
            let sa = reg.attach(&mut ca, &alloc).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let sb = reg.attach(&mut cb, &alloc).unwrap();
            let participants = vec![aid, bid];
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A well-behaved peer: pins and unpins, never lags.
                for _ in 0..2 {
                    if let Ok(g) = pin(&sa, &mut ca) {
                        drop(g);
                    }
                }
            });
            let freed_total = Arc::new(AtomicU64::new(0));
            let ff = freed_total.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // MUTANT: the same 8-byte block is retired twice.
                {
                    let mut r = sb.lock().unwrap();
                    // lint: retire-ok: mutation under test — deliberate double retire
                    r.retire(&mut cb, x, 8).unwrap();
                    r.retire(&mut cb, x, 8).unwrap();
                }
                for _ in 0..30 {
                    // A downstream BadFree from the allocator is itself
                    // the anomaly the invariant must surface — don't
                    // panic, mark it.
                    match sb.lock().unwrap().reclaim(&mut cb) {
                        Ok(freed) => {
                            ff.fetch_add(freed, Ordering::SeqCst);
                        }
                        Err(_) => {
                            ff.store(u64::MAX, Ordering::SeqCst);
                            break;
                        }
                    }
                    if ff.load(Ordering::SeqCst) >= 8 {
                        break;
                    }
                }
            });
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let freed = freed_total.load(Ordering::SeqCst);
                if freed == 8 {
                    None
                } else if freed == u64::MAX {
                    Some("conservation violated: duplicate retire reached the allocator".into())
                } else {
                    Some(format!(
                        "conservation violated: freed {freed} bytes from one 8-byte retire"
                    ))
                }
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![abody, bbody],
                history: h,
                finale: Some(finale),
            }
        }),
    };
    Mutant { program, expect: &[Expect::Invariant] }
}

/// M7 — free before grace: the reclaimer poisons the retired block
/// immediately after unpublishing it, without waiting for readers'
/// epochs. A pinned reader observes the poison (linearizability) and the
/// poison store races its read (race detector).
fn free_before_grace() -> Mutant {
    let program = Program {
        name: "m7_free_before_grace",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
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
            let participants = vec![aid, bid];
            let h2 = h.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
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
                assert_eq!(cb.cas(ptr, x.0, y.0).unwrap(), x.0);
                h3.complete(t, Ret::Unit);
                // MUTANT: no retire/seal/grace — poison immediately, as
                // if the block were freed and reused on the spot.
                cb.write_u64(x, crate::programs::POISON).unwrap();
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![abody, bbody],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Races, Expect::Lin] }
}

/// M8 — a miniature array queue whose dequeue advances the head with a
/// read-then-plain-write instead of an atomic claim: two consumers can
/// dequeue the same item. Race detection off; the catch belongs to the
/// FIFO linearizability check.
fn queue_nonatomic_head() -> Mutant {
    let program = Program {
        name: "m8_queue_nonatomic_head",
        model: Some(Model::Fifo),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            // Layout: [head, tail, slot0..slot3], pre-filled with two
            // items so the history starts `Enq 11, Enq 22`.
            let base = alloc.alloc(8 * 6, AllocHint::Spread).unwrap();
            c0.write_u64(base, 0).unwrap();
            c0.write_u64(base.offset(8), 2).unwrap();
            c0.write_u64(base.offset(16), 11).unwrap();
            c0.write_u64(base.offset(24), 22).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Enq { v: 11 }, Ret::Unit);
            h.seed(c0.id(), Op::Enq { v: 22 }, Ret::Unit);
            let mut participants = Vec::new();
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let mut cl = f.client();
                let id = cl.id();
                participants.push(id);
                let h2 = h.clone();
                bodies.push(Box::new(move || {
                    let t = h2.invoke(id, Op::Deq);
                    let head = cl.read_u64(base).unwrap();
                    let tail = cl.read_u64(base.offset(8)).unwrap();
                    if head >= tail {
                        h2.complete(t, Ret::OptVal(None));
                        return;
                    }
                    let v = cl.read_u64(base.offset(16 + head * 8)).unwrap();
                    // MUTANT: plain head bump — correct code claims the
                    // slot with a CAS/FAA so each item is taken once.
                    cl.write_u64(base, head + 1).unwrap();
                    h2.complete(t, Ret::OptVal(Some(v)));
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// Shared geometry of the failover mutants (M9–M11): the miniature
/// replicated register of `programs::replica_failover` — epoch word `e`
/// (the fencing token), primary copy `d_a`, replica copy `d_b`, both
/// seeded with the register's initial value 1.
fn failover_words(
    f: &Arc<farmem_fabric::Fabric>,
) -> (FarAddr, FarAddr, FarAddr, Arc<History>, u32) {
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let e = word(&mut c0, &alloc);
    let d_a = alloc.alloc(8, AllocHint::Spread).unwrap();
    let d_b = alloc.alloc(8, AllocHint::Spread).unwrap();
    c0.write_u64(d_a, 1).unwrap();
    c0.write_u64(d_b, 1).unwrap();
    let h = Arc::new(History::new());
    h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
    (e, d_a, d_b, h, c0.id())
}

/// M9 — a deposed primary keeps serving reads: the reader never checks
/// the fencing epoch and always reads the old primary copy, so a read
/// invoked after the promoted replica's write completed still returns
/// the pre-failover value. Exactly the stale-primary split-brain the
/// fencing token exists to prevent.
fn serve_read_after_fence() -> Mutant {
    let program = Program {
        name: "m9_serve_read_after_fence",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 150,
        build: Box::new(|| {
            let f = plain_fabric();
            let (e, d_a, d_b, h, _) = failover_words(&f);
            let mut cp = f.client();
            let pid = cp.id();
            let hp = h.clone();
            let pbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hp.invoke(pid, Op::RegWrite { part: 0, v: vec![2] });
                assert_eq!(cp.cas(e, 0, 1).unwrap(), 0, "sole promoter");
                cp.write_u64(d_b, 2).unwrap();
                hp.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    // MUTANT: epoch never consulted — the read is served
                    // from the deposed primary `d_a` forever. Correct
                    // code reads `e` and follows it to `d_b`.
                    let v = cr.read_u64(d_a).unwrap();
                    hr.complete(t, Ret::Vals(vec![v]));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![pid, rid],
                bodies: vec![pbody, rbody],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M10 — promotion without bumping the configuration epoch: the new
/// primary starts serving writes but no fencing token ever changes, so
/// epoch-honouring readers keep reading the old copy and miss completed
/// writes.
fn promote_without_epoch_bump() -> Mutant {
    let program = Program {
        name: "m10_promote_without_epoch_bump",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 150,
        build: Box::new(|| {
            let f = plain_fabric();
            let (e, d_a, d_b, h, _) = failover_words(&f);
            let mut cp = f.client();
            let pid = cp.id();
            let hp = h.clone();
            let pbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hp.invoke(pid, Op::RegWrite { part: 0, v: vec![2] });
                // MUTANT: no `cas(e, 0, 1)` — the replica starts serving
                // writes without publishing a new configuration epoch.
                cp.write_u64(d_b, 2).unwrap();
                hp.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let epoch = cr.read_u64(e).unwrap();
                    let v = if epoch == 0 {
                        cr.read_u64(d_a).unwrap()
                    } else {
                        cr.read_u64(d_b).unwrap()
                    };
                    hr.complete(t, Ret::Vals(vec![v]));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![pid, rid],
                bodies: vec![pbody, rbody],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M11 — write acknowledged before the replica is durable: the writer
/// completes after updating only the primary copy and mirrors to the
/// replica afterwards. A failover in that window (the reader serves from
/// the replica, as after a promotion) loses the acknowledged write.
fn ack_write_before_replica_durable() -> Mutant {
    let program = Program {
        name: "m11_ack_write_before_replica_durable",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 150,
        build: Box::new(|| {
            let f = plain_fabric();
            let (_e, d_a, d_b, h, _) = failover_words(&f);
            let mut cw = f.client();
            let wid = cw.id();
            let hw = h.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![2] });
                cw.write_u64(d_a, 2).unwrap();
                // MUTANT: ack after primary durability only — correct
                // code mirrors to `d_b` *before* completing the write
                // (ack-after-replica-durable).
                hw.complete(t, Ret::Unit);
                cw.write_u64(d_b, 2).unwrap();
            });
            // The post-failover reader: the primary has crash-stopped,
            // so the promoted replica `d_b` serves the read.
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let v = cr.read_u64(d_b).unwrap();
                    hr.complete(t, Ret::Vals(vec![v]));
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
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// Shared setup of the serving-TTL mutants (M12–M13): the two-word
/// record of `programs::serve_ttl_evict` — expiry flag `exp` (zeroed)
/// and value word `val` seeded with the register's initial value 7,
/// plus a 4-slot reclaim registry.
#[allow(clippy::type_complexity)]
fn ttl_words(
    f: &Arc<farmem_fabric::Fabric>,
) -> (Arc<FarAlloc>, ReclaimRegistry, FarAddr, FarAddr, Arc<History>) {
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
    let exp = word(&mut c0, &alloc);
    let val = alloc.alloc(8, AllocHint::Spread).unwrap();
    c0.write_u64(val, 7).unwrap();
    let h = Arc::new(History::new());
    h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![7] }, Ret::Unit);
    (alloc, reg, exp, val, h)
}

/// M12 — serve after expiry: the serving read path skips the record's
/// TTL check and serves the value word unconditionally. Retirement and
/// reclamation stay fully intact, so there is nothing for the race
/// detector — the catch is pure history: a get invoked after the expiry
/// completed must miss (return the tombstone 0), and this reader keeps
/// serving the old value.
fn serve_read_after_expiry() -> Mutant {
    let program = Program {
        name: "m12_serve_read_after_expiry",
        model: Some(Model::Register { init: 7 }),
        check_races: true,
        max_steps: 400,
        build: Box::new(|| {
            let f = plain_fabric();
            let (alloc, reg, exp, val, h) = ttl_words(&f);
            let mut ca = f.client();
            let aid = ca.id();
            let sa = reg.attach(&mut ca, &alloc).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let sb = reg.attach(&mut cb, &alloc).unwrap();
            let participants = vec![aid, bid];
            let h2 = h.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = h2.invoke(aid, Op::RegRead { part: 0 });
                    match pin(&sa, &mut ca) {
                        Ok(g) => {
                            // MUTANT: no expiry-flag read — the record is
                            // served no matter how stale it is.
                            let v = ca.read_u64(val).unwrap();
                            drop(g);
                            h2.complete(t, Ret::Vals(vec![v]));
                        }
                        Err(_) => h2.fail(t),
                    }
                }
            });
            let h3 = h.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = h3.invoke(bid, Op::RegWrite { part: 0, v: vec![0] });
                assert_eq!(cb.cas(exp, 0, 1).unwrap(), 0, "sole expirer");
                h3.complete(t, Ret::Unit);
                {
                    let mut hh = sb.lock().unwrap();
                    hh.retire(&mut cb, val, 8).unwrap();
                    hh.seal(&mut cb).unwrap();
                }
                // Few rounds, as in reclaim_publish: no lease eviction.
                for _ in 0..4 {
                    if sb.lock().unwrap().reclaim(&mut cb).unwrap() > 0 {
                        break;
                    }
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
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M13 — evict without retire: the expirer raises the TTL flag and then
/// poisons the value word on the spot — no retire, no seal, no grace
/// period — as if the record's bytes were freed and reused immediately.
/// A pinned reader that sampled the flag while it was still clear goes
/// on to serve the poison (linearizability), and the poison store races
/// its read (race detector) — the serving-layer rendition of M7.
fn evict_without_retire() -> Mutant {
    let program = Program {
        name: "m13_evict_without_retire",
        model: Some(Model::Register { init: 7 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let (alloc, reg, exp, val, h) = ttl_words(&f);
            let mut ca = f.client();
            let aid = ca.id();
            let sa = reg.attach(&mut ca, &alloc).unwrap();
            let mut cb = f.client();
            let bid = cb.id();
            let participants = vec![aid, bid];
            let h2 = h.clone();
            let abody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = h2.invoke(aid, Op::RegRead { part: 0 });
                    match pin(&sa, &mut ca) {
                        Ok(g) => {
                            let expired = ca.read_u64(exp).unwrap() != 0;
                            let v = if expired { 0 } else { ca.read_u64(val).unwrap() };
                            drop(g);
                            h2.complete(t, Ret::Vals(vec![v]));
                        }
                        Err(_) => h2.fail(t),
                    }
                }
            });
            let h3 = h.clone();
            let bbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = h3.invoke(bid, Op::RegWrite { part: 0, v: vec![0] });
                assert_eq!(cb.cas(exp, 0, 1).unwrap(), 0, "sole expirer");
                h3.complete(t, Ret::Unit);
                // MUTANT: no retire/seal/grace — the record's bytes are
                // poisoned immediately, under a reader's pin.
                cb.write_u64(val, crate::programs::POISON).unwrap();
            });
            PreparedRun {
                fabric: f,
                participants,
                bodies: vec![abody, bbody],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Races, Expect::Lin] }
}

/// M14 — record written after the CAS that publishes it: a miniature of
/// the HT-tree's record store (`programs::httree_publish`) — bucket word
/// → item word → record word — whose writer fences only the item write
/// ahead of the bucket CAS and issues the record write as a separate,
/// later verb. A reader chasing bucket → item → record in that window
/// serves unwritten memory (linearizability), and its read of the record
/// word is ordered with the late write by nothing (race detector).
fn publish_record_after_cas() -> Mutant {
    let program = Program {
        name: "m14_publish_record_after_cas",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let item = word(&mut c0, &alloc);
            let record = word(&mut c0, &alloc);
            c0.write_u64(record, 1).unwrap();
            c0.write_u64(item, record.0).unwrap();
            c0.write_u64(bucket, item.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            let mut cw = f.client();
            let wid = cw.id();
            let hw = h.clone();
            let alloc_w = alloc.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![2] });
                let record2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                let item2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                // MUTANT: the record write is missing from the fenced
                // batch — correct code leads with it, so the CAS orders
                // it before any reader can find the item.
                let out = cw
                    .batch(&[
                        BatchOp::Write { addr: item2, data: &record2.0.to_le_bytes() },
                        BatchOp::Cas { addr: bucket, expected: item.0, new: item2.0 },
                    ])
                    .unwrap();
                assert_eq!(out[1].value(), item.0, "sole publisher");
                cw.write_u64(record2, 2).unwrap();
                hw.complete(t, Ret::Unit);
            });
            let mut participants = vec![wid];
            let mut bodies = vec![wbody];
            for _ in 0..2 {
                let mut cr = f.client();
                let rid = cr.id();
                participants.push(rid);
                let hr = h.clone();
                bodies.push(Box::new(move || {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let i = cr.read_u64(bucket).unwrap();
                    let r = cr.read_u64(FarAddr(i)).unwrap();
                    let v = cr.read_u64(FarAddr(r)).unwrap();
                    hr.complete(t, Ret::Vals(vec![v]));
                }) as Box<dyn FnOnce() + Send>);
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    };
    Mutant { program, expect: &[Expect::Races, Expect::Lin] }
}

/// M15 — hint trusted without the tree: the hinted lookup of
/// `programs::reclaim_hinted_get` in miniature — bucket word → item word
/// → record word, a reader holding the first record's address as its
/// hint — whose reader issues the real batch (lookup, then speculative
/// read) and serves the speculated word *without comparing* the pointer
/// the lookup returned with the hinted address. After an overwrite the
/// hint names the superseded record, and a get invoked after the
/// overwrite completed still returns its value. The race detector has
/// nothing to say — a speculative read conflicts with nothing by
/// construction (`race.rs`) — so the catch is the history checker's alone.
fn hint_trusted_without_tree() -> Mutant {
    let program = Program {
        name: "m15_hint_trusted_without_tree",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let item = word(&mut c0, &alloc);
            let record = word(&mut c0, &alloc);
            c0.write_u64(record, 1).unwrap();
            c0.write_u64(item, record.0).unwrap();
            c0.write_u64(bucket, item.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            let mut cw = f.client();
            let wid = cw.id();
            let hw = h.clone();
            let alloc_w = alloc.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![2] });
                let record2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                let item2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                let out = cw
                    .batch(&[
                        BatchOp::Write { addr: record2, data: &2u64.to_le_bytes() },
                        BatchOp::Write { addr: item2, data: &record2.0.to_le_bytes() },
                        BatchOp::Cas { addr: bucket, expected: item.0, new: item2.0 },
                    ])
                    .unwrap();
                assert_eq!(out[2].value(), item.0, "sole publisher");
                hw.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let out = cr
                        .batch(&[
                            BatchOp::Load0 { ptr: bucket, len: 8 },
                            BatchOp::ReadSpeculative { addr: record, len: 8 },
                        ])
                        .unwrap();
                    // MUTANT: `out[0]` — the record address the tree names
                    // — is never compared with the hint; correct code
                    // drops the speculated bytes on a mismatch and reads
                    // the record the item points at.
                    let v = u64::from_le_bytes(out[1].bytes().try_into().unwrap());
                    hr.complete(t, Ret::Vals(vec![v]));
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
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// A miniature chain item for M16, M24 and M25: `{key, value, next}`.
const MINI_ITEM: u64 = 24;

fn mini_item(key: u64, value: u64, next: u64) -> Vec<u8> {
    [key, value, next].iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Reads the miniature item at `at`: `(key, value, next)`.
fn read_mini_item(c: &mut FabricClient, at: u64) -> (u64, u64, u64) {
    let it = c.read(FarAddr(at), MINI_ITEM).unwrap();
    let w = |i: usize| u64::from_le_bytes(it[i * 8..][..8].try_into().unwrap());
    (w(0), w(1), w(2))
}

/// The first item for `key` on the chain from `at`: its value.
fn mini_lookup(c: &mut FabricClient, mut at: u64, key: u64) -> Option<u64> {
    while at != 0 {
        let (k, v, next) = read_mini_item(c, at);
        if k == key {
            return Some(v);
        }
        at = next;
    }
    None
}

/// M16 — take relinks a stale head: the tree's removal splice
/// (`programs::reclaim_take`) in miniature — a bucket word over a chain
/// of `{key, value, next}` items — whose taker, after losing the bucket
/// CAS to a neighbour's put, retries *only the CAS* against the new head.
/// The word it swings the bucket to is still the successor it read in
/// its first access, so when the retry lands the neighbour's item is no
/// longer on the chain: a put that was acknowledged vanishes, and a get
/// invoked after it completed finds nothing. Correct code starts over
/// from the first access — the chain a splice writes and the CAS's
/// expected value must come from the same read of the bucket word.
fn take_relinks_stale_head() -> Mutant {
    let program = Program {
        name: "m16_take_relinks_stale_head",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let first = alloc.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
            c0.write(first, &mini_item(1, 10, 0)).unwrap();
            c0.write_u64(bucket, first.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Put { k: 1, v: 10 }, Ret::Unit);
            let mut ct = f.client();
            let tid = ct.id();
            // The take's first access, taken before the run starts (key 1
            // heads the chain: no walk to do, and no item above it to
            // copy), so that every schedule is about what lands between
            // it and the second: the head and its successor.
            let mut head = ct.read_u64(bucket).unwrap();
            let (_, value, successor) = read_mini_item(&mut ct, head);
            let ht = h.clone();
            let taker: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = ht.invoke(tid, Op::Remove { k: 1 });
                let mut seen = ct.cas(bucket, head, successor).unwrap();
                // MUTANT: the lost CAS is retried on its own. Correct code
                // re-reads the head, walks again and copies the items above
                // the key's before it tries the bucket again.
                while seen != head {
                    head = seen;
                    seen = ct.cas(bucket, head, successor).unwrap();
                }
                ht.complete(t, Ret::Val(value));
            });
            let mut cp = f.client();
            let pid = cp.id();
            let (hp, alloc_p) = (h.clone(), alloc.clone());
            let putter: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hp.invoke(pid, Op::Put { k: 2, v: 20 });
                let rec = alloc_p.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
                loop {
                    let head = cp.read_u64(bucket).unwrap();
                    let out = cp
                        .batch(&[
                            BatchOp::Write { addr: rec, data: &mini_item(2, 20, head) },
                            BatchOp::Cas { addr: bucket, expected: head, new: rec.0 },
                        ])
                        .unwrap();
                    if out[1].value() == head {
                        break;
                    }
                }
                hp.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::Get { k: 2 });
                    let head = cr.read_u64(bucket).unwrap();
                    hr.complete(t, Ret::OptVal(mini_lookup(&mut cr, head, 2)));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![pid, tid, rid],
                bodies: vec![putter, taker, reader],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M17 — a restructure sealed as a record retire: the split of
/// `programs::reclaim_split` in miniature — a directory word naming a
/// one-word table, a reader that caches the table pointer and re-reads
/// the directory only when its pin reports a new restructure generation.
/// The splitter copies the table, swings the directory and retires the
/// old table through the *plain* `retire`, so the seal moves the epoch
/// but not the generation: the reader's pin publishes the new epoch —
/// which lets grace free the old table — without refreshing, and its
/// next get reads the block after the splitter reused it. Correct code
/// retires the table with `retire_restructure`, whose seal bumps the
/// generation and makes that same pin refresh first.
fn restructure_sealed_as_record() -> Mutant {
    let program = Program {
        name: "m17_restructure_sealed_as_record",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let reg = ReclaimRegistry::create(&mut c0, &alloc, 4).unwrap();
            let dir = word(&mut c0, &alloc);
            let old = word(&mut c0, &alloc);
            c0.write_u64(old, 1).unwrap();
            c0.write_u64(dir, old.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            // The reader attaches and caches the table before the split.
            let mut cr = f.client();
            let rid = cr.id();
            let sr = reg.attach(&mut cr, &alloc).unwrap();
            let mut seen = pin(&sr, &mut cr).unwrap().generation();
            let mut table = FarAddr(cr.read_u64(dir).unwrap());
            // The split, before the run starts: copy, swing, retire, seal.
            let mut cs = f.client();
            let sid = cs.id();
            let ss = reg.attach(&mut cs, &alloc).unwrap();
            let new = alloc.alloc(8, AllocHint::Spread).unwrap();
            cs.write_u64(new, 1).unwrap();
            assert_eq!(cs.cas(dir, old.0, new.0).unwrap(), old.0);
            {
                let mut r = ss.lock().unwrap();
                // MUTANT: the old table goes through the record retire.
                // lint: retire-ok: mutation under test — the directory CAS above unlinked it
                r.retire(&mut cs, old, 8).unwrap();
                r.seal(&mut cs).unwrap();
            }
            let splitter: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A few grace rounds (no lease eviction), then reuse.
                for _ in 0..3 {
                    if ss.lock().unwrap().reclaim(&mut cs).unwrap() > 0 {
                        cs.write_u64(old, crate::programs::POISON).unwrap();
                        return;
                    }
                }
            });
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let g = pin(&sr, &mut cr).unwrap();
                    if g.generation() != seen {
                        table = FarAddr(cr.read_u64(dir).unwrap());
                        seen = g.generation();
                    }
                    let v = cr.read_u64(table).unwrap();
                    drop(g);
                    hr.complete(t, Ret::Vals(vec![v]));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![sid, rid],
                bodies: vec![splitter, reader],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M18 — a batched hint trusted without the compare: the lookup doorbell
/// of `programs::reclaim_hinted_get_many` in miniature — two keys, each a
/// bucket word → item word → record word, and a reader holding each
/// key's first record address as its hint — whose reader rings one
/// doorbell of two fenced descriptors (lookup, then speculative read) and
/// serves each speculated word *without comparing* the record address
/// the lookup returned with the hint, where `HtTreeHandle::lookup_many`
/// drops the bytes on a mismatch. After the writer overwrites key 0, its
/// hint names the superseded record, and a batch invoked after the
/// overwrite completed still returns the old value. As for M15 the race
/// detector has nothing to say; the catch is the history checker's.
fn batched_hint_trusted_without_compare() -> Mutant {
    let program = Program {
        name: "m18_batched_hint_trusted_without_compare",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let h = Arc::new(History::new());
            // Per key: (bucket, item, record), the record holding 1.
            let keys: [(FarAddr, FarAddr, FarAddr); 2] = std::array::from_fn(|part| {
                let [bucket, item, record] = [(); 3].map(|()| word(&mut c0, &alloc));
                c0.write_u64(record, 1).unwrap();
                c0.write_u64(item, record.0).unwrap();
                c0.write_u64(bucket, item.0).unwrap();
                h.seed(c0.id(), Op::RegWrite { part: part as u64, v: vec![1] }, Ret::Unit);
                (bucket, item, record)
            });
            let (bucket, item, _) = keys[0];
            let mut cw = f.client();
            let wid = cw.id();
            let hw = h.clone();
            let alloc_w = alloc.clone();
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![2] });
                let record2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                let item2 = alloc_w.alloc(8, AllocHint::Spread).unwrap();
                let out = cw
                    .batch(&[
                        BatchOp::Write { addr: record2, data: &2u64.to_le_bytes() },
                        BatchOp::Write { addr: item2, data: &record2.0.to_le_bytes() },
                        BatchOp::Cas { addr: bucket, expected: item.0, new: item2.0 },
                    ])
                    .unwrap();
                assert_eq!(out[2].value(), item.0, "sole publisher");
                hw.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let ts = [0u64, 1].map(|part| hr.invoke(rid, Op::RegRead { part }));
                    let mut doorbell = DescList::new();
                    for (bucket, _, record) in keys {
                        doorbell.post(PipeOp::Fenced(vec![
                            BatchOp::Load0 { ptr: bucket, len: 8 },
                            BatchOp::ReadSpeculative { addr: record, len: 8 },
                        ]));
                    }
                    let outs = cr.ring(&doorbell).into_outputs().unwrap();
                    for (t, out) in ts.into_iter().zip(outs) {
                        let PipeOut::Batch(out) = out else { unreachable!("a fenced completion") };
                        // MUTANT: `out[0]` — the record address the tree
                        // names — is never compared with the hint.
                        let v = u64::from_le_bytes(out[1].bytes().try_into().unwrap());
                        hr.complete(t, Ret::Vals(vec![v]));
                    }
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
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// The §5.3 queue in miniature, for M19 and M20: words `[head, tail,
/// epoch]` and four slots after them. Head and tail hold slot addresses,
/// every claim and enqueue is guarded on the epoch, and the repair — by
/// whoever moves the epoch to odd — packs the live slots to the front and
/// publishes the next even epoch, as `FarQueue`'s does. Each client tries
/// each verb once (an op the guard refused had no effect and is recorded
/// failed), which keeps the choice trees small enough for the explorer.
struct MiniQueue {
    hdr: FarAddr,
}

impl MiniQueue {
    /// A queue holding `slots` (0 = empty), head at slot `head`, tail at
    /// slot `tail`, epoch 0.
    fn create(
        c0: &mut FabricClient,
        alloc: &FarAlloc,
        slots: [u64; 4],
        head: u64,
        tail: u64,
    ) -> MiniQueue {
        let q = MiniQueue { hdr: alloc.alloc(8 * 7, AllocHint::Spread).unwrap() };
        let words = [q.slot(head).0, q.slot(tail).0, 0].into_iter().chain(slots);
        c0.write(q.hdr, &words.flat_map(u64::to_le_bytes).collect::<Vec<_>>()).unwrap();
        q
    }

    fn head(&self) -> FarAddr {
        self.hdr
    }

    fn tail(&self) -> FarAddr {
        self.hdr.offset(8)
    }

    fn epoch(&self) -> FarAddr {
        self.hdr.offset(16)
    }

    fn slot(&self, i: u64) -> FarAddr {
        self.hdr.offset(24 + 8 * i)
    }

    /// `(epoch, head, tail)`, the epoch read first.
    fn state(&self, c: &mut FabricClient) -> (u64, u64, u64) {
        let out = c
            .batch(&[
                BatchOp::Read { addr: self.epoch(), len: 8 },
                BatchOp::Read { addr: self.head(), len: 16 },
            ])
            .unwrap();
        let word = |i: usize, at: usize| {
            u64::from_le_bytes(out[i].bytes()[at..at + 8].try_into().unwrap())
        };
        (word(0, 0), word(1, 0), word(1, 8))
    }

    /// Enqueues `v` guarded on `epoch`; false when the guard refused it.
    fn enqueue(&self, c: &mut FabricClient, v: u64, epoch: u64) -> bool {
        match c.saai_guarded(self.tail(), 8, &v.to_le_bytes(), self.epoch(), epoch) {
            Ok(_) => true,
            Err(FabricError::GuardMismatch { .. }) => false,
            Err(e) => panic!("{e}"),
        }
    }

    /// A dequeue from a fresh state read, claiming with a swap of
    /// `replacement`: `None` when it had no effect (a repair in progress,
    /// or the guard refused the claim), else what it returns.
    fn dequeue(&self, c: &mut FabricClient, replacement: u64) -> Option<Option<u64>> {
        let (epoch, head, tail) = self.state(c);
        if epoch % 2 == 1 {
            return None;
        }
        if head >= tail {
            return Some(None);
        }
        let (_, got) = c.faai_swap_guarded(self.head(), 8, replacement, self.epoch(), epoch).ok()?;
        Some(Some(got))
    }

    /// Moves the epoch from `even` to odd with a CAS (fenced with the
    /// region read) and, if that won, packs every live slot (`taken`
    /// marks a consumed one) to the front and reopens.
    fn repair(&self, c: &mut FabricClient, even: u64, taken: u64) {
        let out = c
            .batch(&[
                BatchOp::Cas { addr: self.epoch(), expected: even, new: even + 1 },
                BatchOp::Read { addr: self.slot(0), len: 32 },
            ])
            .unwrap();
        if out[0].value() != even {
            return;
        }
        let mut slots: Vec<u64> = out[1]
            .bytes()
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .filter(|&w| w != 0 && w != taken)
            .collect();
        let pointers = [self.slot(0).0, self.slot(slots.len() as u64).0];
        slots.resize(4, 0);
        let bytes = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        c.batch(&[
            BatchOp::Write { addr: self.slot(0), data: &bytes(&slots) },
            BatchOp::Write { addr: self.head(), data: &bytes(&pointers) },
            BatchOp::Write { addr: self.epoch(), data: &(even + 2).to_le_bytes() },
        ])
        .unwrap();
    }
}

/// M19 — a claim that finds its slot empty leaves the guard open. The
/// queue's claim (a guarded `faai_swap`) swaps a `TAKEN` marker into the
/// slot instead of the empty value, so a claim of an empty slot takes
/// "something" and the fabric does not close the guard; the consumer then
/// takes the repair the way a wrap does, with a CAS of the epoch — after
/// the claim instead of in it. Consumer B's stale head estimate sends its
/// claim onto the empty slot at the tail; the producer enqueues 22 into
/// that slot (behind the head) and 33 after it; consumer A claims 33
/// before B's repair packs 22 to the front. Correct code swaps in the
/// empty value, so B's claim closes the guard in its own atomic unit and
/// the enqueue of 22 is refused until the rebuild.
fn empty_claim_leaves_guard_open() -> Mutant {
    // MUTANT: claims swap this in, not the empty value.
    const TAKEN: u64 = u64::MAX;
    /// A claim that took nothing repairs, then reports empty.
    fn taken_or_repair(q: &MiniQueue, c: &mut FabricClient, got: u64, epoch: u64) -> Option<u64> {
        if got != 0 {
            return Some(got);
        }
        q.repair(c, epoch, TAKEN);
        None
    }
    let program = Program {
        name: "m19_empty_claim_leaves_guard_open",
        model: Some(Model::Fifo),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let q = Arc::new(MiniQueue::create(&mut c0, &alloc, [0; 4], 0, 0));
            let h = Arc::new(History::new());
            // B believes an item is there (the estimates a handle that
            // watched an earlier enqueue would hold): it claims at once.
            let mut cb = f.client();
            let bid = cb.id();
            let (hb, qb) = (h.clone(), q.clone());
            let b: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hb.invoke(bid, Op::Deq);
                match cb.faai_swap_guarded(qb.head(), 8, TAKEN, qb.epoch(), 0) {
                    Ok((_, got)) => {
                        hb.complete(t, Ret::OptVal(taken_or_repair(&qb, &mut cb, got, 0)));
                    }
                    Err(_) => hb.fail(t),
                }
            });
            let mut cp = f.client();
            let pid = cp.id();
            let (hp, qp) = (h.clone(), q.clone());
            let p: Box<dyn FnOnce() + Send> = Box::new(move || {
                for v in [22, 33] {
                    let t = hp.invoke(pid, Op::Enq { v });
                    if qp.enqueue(&mut cp, v, 0) {
                        hp.complete(t, Ret::Unit);
                    } else {
                        hp.fail(t);
                    }
                }
            });
            let mut ca = f.client();
            let aid = ca.id();
            let (ha, qa) = (h.clone(), q.clone());
            let a: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = ha.invoke(aid, Op::Deq);
                match qa.dequeue(&mut ca, TAKEN) {
                    Some(Some(got)) => {
                        ha.complete(t, Ret::OptVal(taken_or_repair(&qa, &mut ca, got, 0)));
                    }
                    Some(None) => ha.complete(t, Ret::OptVal(None)),
                    None => ha.fail(t),
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![bid, pid, aid],
                bodies: vec![b, p, a],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M20 — a handle attached mid-repair adopts the odd epoch. The repairer
/// has moved the epoch to odd and read the slot region when the producer
/// attaches, reading the header and trusting the epoch it finds there.
/// Its enqueue is guarded on that odd value, so it lands while the repair
/// runs; the rebuild, computed from the region read before the enqueue
/// landed, overwrites the item and the tail. The producer's two dequeues
/// then return 11 and nothing. Correct code treats an odd epoch at attach
/// as pending: the first op waits for the even one.
fn attach_adopts_odd_epoch() -> Mutant {
    let program = Program {
        name: "m20_attach_adopts_odd_epoch",
        model: Some(Model::Fifo),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            // Slot 0 already consumed, item 11 in slot 1.
            let q = Arc::new(MiniQueue::create(&mut c0, &alloc, [0, 11, 0, 0], 1, 2));
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Enq { v: 11 }, Ret::Unit);
            let mut cr = f.client();
            let rid = cr.id();
            let qr = q.clone();
            let repairer: Box<dyn FnOnce() + Send> = Box::new(move || qr.repair(&mut cr, 0, 0));
            let mut cp = f.client();
            let pid = cp.id();
            let hp = h.clone();
            let producer: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hp.invoke(pid, Op::Enq { v: 22 });
                let hdr = cp.read(q.head(), 24).unwrap();
                // MUTANT: the epoch is adopted as read, odd or not.
                let epoch = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
                let landed = q.enqueue(&mut cp, 22, epoch) || {
                    let now = q.state(&mut cp).0;
                    q.enqueue(&mut cp, 22, now)
                };
                if landed {
                    hp.complete(t, Ret::Unit);
                } else {
                    hp.fail(t);
                }
                for _ in 0..2 {
                    let t = hp.invoke(pid, Op::Deq);
                    match q.dequeue(&mut cp, 0) {
                        Some(got) => hp.complete(t, Ret::OptVal(got)),
                        None => hp.fail(t),
                    }
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![rid, pid],
                bodies: vec![repairer, producer],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// The HT-tree's restructure (`programs::httree_split_race`) in
/// miniature, for M21 and M22. Key `k` lives in table `k / 2`, a slot
/// `[version, value of key 2t, value of key 2t + 1]`; the anchor word is
/// the directory, one slot number per table byte. A put restructures as
/// `HtTreeHandle::split` does: take the table with a CAS of its version
/// 1 → 0 (fenced with a read of its values), write the new table into a
/// slot of its own, and publish with a CAS of the anchor from the
/// directory read; a lost publish splices into the directory it lost to.
/// The mutation breaks the publish if `blind_publish`, else the take.
/// Each client puts one of `puts` (three attempts), then gets the other's.
fn mini_tree_run(blind_publish: bool, puts: [(u64, u64); 2]) -> PreparedRun {
    let f = plain_fabric();
    let mut c0 = f.client();
    // The anchor, then eight slots: the first two tables, three per client.
    let anchor = FarAlloc::new(f.clone()).alloc(8 + 8 * 24, AllocHint::Spread).unwrap();
    let slot = move |s: u64| anchor.offset(8 + 24 * s);
    let init = [1 << 8, 1, 100, 101, 1, 102, 103u64].map(u64::to_le_bytes).concat();
    c0.write(anchor, &init).unwrap();
    let h = Arc::new(History::new());
    for k in 0..4 {
        h.seed(c0.id(), Op::Put { k, v: 100 + k }, Ret::Unit);
    }
    let (mut participants, mut bodies) = (Vec::new(), Vec::<Box<dyn FnOnce() + Send>>::new());
    for (me, (k, v)) in puts.into_iter().enumerate() {
        let other = puts[1 - me].0;
        let mut c = f.client();
        let id = c.id();
        participants.push(id);
        let h = h.clone();
        bodies.push(Box::new(move || {
            let t = h.invoke(id, Op::Put { k, v });
            let stored = (0..3).any(|attempt| {
                let mut dir = c.read_u64(anchor).unwrap();
                let old = slot(dir >> (8 * (k / 2)) & 0xff);
                let take = if blind_publish {
                    BatchOp::Cas { addr: old, expected: 1, new: 0 }
                } else {
                    // MUTANT: a plain write takes the table, and never loses.
                    BatchOp::Write { addr: old, data: &[0; 8] }
                };
                let out = c.batch(&[take, BatchOp::Read { addr: old.offset(8), len: 16 }]).unwrap();
                if blind_publish && out[0].value() != 1 {
                    return false;
                }
                let mut table = [&1u64.to_le_bytes()[..], out[1].bytes()].concat();
                table[8 + 8 * (k % 2) as usize..][..8].copy_from_slice(&v.to_le_bytes());
                let new = 2 + 3 * me as u64 + attempt;
                c.write(slot(new), &table).unwrap();
                loop {
                    let next = dir & !(0xff << (8 * (k / 2))) | new << (8 * (k / 2));
                    if blind_publish {
                        // MUTANT: the anchor is written, not CASed from `dir`.
                        c.write_u64(anchor, next).unwrap();
                        return true;
                    }
                    match c.cas(anchor, dir, next).unwrap() {
                        won if won == dir => return true,
                        lost => dir = lost,
                    }
                }
            });
            if stored {
                h.complete(t, Ret::Unit);
            } else {
                h.fail(t);
            }
            let t = h.invoke(id, Op::Get { k: other });
            let table = slot(c.read_u64(anchor).unwrap() >> (8 * (other / 2)) & 0xff);
            let got = c.read_u64(table.offset(8 + 8 * (other % 2))).unwrap();
            h.complete(t, Ret::OptVal(Some(got)));
        }));
    }
    PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
}

/// A [`mini_tree_run`] mutant: each breaks one CAS of the restructure.
fn tree_mutant(name: &'static str, blind_publish: bool, puts: [(u64, u64); 2]) -> Mutant {
    let build = Box::new(move || mini_tree_run(blind_publish, puts));
    let model = Some(Model::Kv);
    let program = Program { name, model, check_races: false, max_steps: 250, build };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M21 — the directory published by a plain write of the anchor. Two
/// clients restructure *different* tables from the same directory, so
/// the second write erases the first's table: a get invoked after the
/// first put completed returns the value it replaced. Correct code's
/// second CAS loses and splices into the first's directory.
fn directory_published_by_blind_write() -> Mutant {
    tree_mutant("m21_directory_published_by_blind_write", true, [(0, 10), (2, 12)])
}

/// M22 — the table taken by a plain write of its version word. Two
/// clients restructure *one* table (keys 0 and 1), both build from its
/// old values, and the loser of the publish re-splices over the winner's
/// table: the winner's put vanishes. Correct code's second take loses
/// and starts over from the first's table.
fn table_taken_by_plain_write() -> Mutant {
    tree_mutant("m22_table_taken_by_plain_write", false, [(0, 10), (1, 11)])
}

/// M23 — a tag-matched table hint trusted without the tree's pointer
/// compare: `programs::reclaim_hinted_table` in miniature — one key's
/// bucket word → item word → record word, and a one-word hint table
/// holding `[tag | record]` — whose reader serves a tag-matched hint's
/// speculated word without comparing it with the record the lookup
/// returned, on the belief that every put and remove keeps the table
/// current. They do not: an unhinted get learns what its lookup found
/// with a CAS from the word it read, and when the writer's remove — a
/// bucket CAS to null, then a tag-checked clear that finds no tag of the
/// key — lands between that lookup and the learn, the removed record's
/// hint enters the table after the remove completed. The reader's next
/// get, invoked after it, then returns the removed value. Correct code
/// drops the bytes on the mismatch and misses.
fn table_hint_trusted_without_compare() -> Mutant {
    // The table word: a tag in the top 16 bits, the record below.
    const TAG: u64 = 0x5eed << 48;
    const RECORD: u64 = (1 << 48) - 1;
    let program = Program {
        name: "m23_table_hint_trusted_without_compare",
        model: Some(Model::Register { init: 1 }),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let [bucket, item, record] = [(); 3].map(|()| word(&mut c0, &alloc));
            c0.write_u64(record, 1).unwrap();
            c0.write_u64(item, record.0).unwrap();
            c0.write_u64(bucket, item.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::RegWrite { part: 0, v: vec![1] }, Ret::Unit);
            let table = Arc::new(AtomicU64::new(0));
            let mut cw = f.client();
            let wid = cw.id();
            let (hw, tw) = (h.clone(), table.clone());
            let wbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                // The remove: a miss reads 0.
                let t = hw.invoke(wid, Op::RegWrite { part: 0, v: vec![0] });
                assert_eq!(cw.cas(bucket, item.0, 0).unwrap(), item.0, "sole writer");
                let seen = tw.load(Ordering::Relaxed);
                if seen & !RECORD == TAG {
                    let _ = tw.compare_exchange(seen, 0, Ordering::Relaxed, Ordering::Relaxed);
                }
                hw.complete(t, Ret::Unit);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let rbody: Box<dyn FnOnce() + Send> = Box::new(move || {
                let named = |out: &PipeOut| match out {
                    PipeOut::Loaded { bytes, .. } => u64::from_le_bytes(bytes[..].try_into().unwrap()),
                    _ => 0,
                };
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::RegRead { part: 0 });
                    let seen = table.load(Ordering::Relaxed);
                    let v = if seen & !RECORD == TAG {
                        let hinted = seen & RECORD;
                        let out = cr
                            .batch(&[
                                BatchOp::Load0 { ptr: bucket, len: 8 },
                                BatchOp::ReadSpeculative { addr: FarAddr(hinted), len: 8 },
                            ])
                            .unwrap();
                        // MUTANT: `named(&out[0])` — the record the tree
                        // names — is never compared with `hinted`.
                        u64::from_le_bytes(out[1].bytes().try_into().unwrap())
                    } else {
                        let ptr = named(&cr.batch(&[BatchOp::Load0 { ptr: bucket, len: 8 }]).unwrap()[0]);
                        let v = if ptr == 0 { 0 } else { cr.read_u64(FarAddr(ptr)).unwrap() };
                        let learned = if ptr == 0 { 0 } else { TAG | ptr };
                        if learned != seen {
                            let _ = table.compare_exchange(seen, learned, Ordering::Relaxed, Ordering::Relaxed);
                        }
                        v
                    };
                    hr.complete(t, Ret::Vals(vec![v]));
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
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M24 — a splice that trims only a same-key head, with no walk before
/// the link: the reclaim-mode put and take of `programs::reclaim_trim` in
/// miniature — a bucket word over a chain of `{key, value, next}` items.
/// The mutant's put replaces its key's item only when it heads the chain
/// and otherwise links on top, so an older item of the key stays below;
/// its take unlinks a same-key head. Setup chains key 2 over key 1; the
/// writer overwrites key 1 (linked on top: key 1's old item is now
/// shadowed) and removes it (the head unlinked: the shadowed item is
/// exposed), and a get after the remove completed finds the old value.
/// Correct code walks to the key's item before it links, and replaces or
/// unlinks *that* item, so a chain never holds two items of one key.
fn trim_without_walk() -> Mutant {
    let program = Program {
        name: "m24_trim_without_walk",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let below = alloc.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
            let head = alloc.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
            c0.write(below, &mini_item(1, 10, 0)).unwrap();
            c0.write(head, &mini_item(2, 20, below.0)).unwrap();
            c0.write_u64(bucket, head.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Put { k: 1, v: 10 }, Ret::Unit);
            h.seed(c0.id(), Op::Put { k: 2, v: 20 }, Ret::Unit);
            let mut cw = f.client();
            let wid = cw.id();
            let (hw, alloc_w) = (h.clone(), alloc.clone());
            let writer: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = hw.invoke(wid, Op::Put { k: 1, v: 11 });
                let fresh = alloc_w.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
                loop {
                    let head = cw.read_u64(bucket).unwrap();
                    let (key, _, next) = read_mini_item(&mut cw, head);
                    // MUTANT: no walk — a same-key head is replaced, any
                    // other head is linked under the new item.
                    let under = if key == 1 { next } else { head };
                    let out = cw
                        .batch(&[
                            BatchOp::Write { addr: fresh, data: &mini_item(1, 11, under) },
                            BatchOp::Cas { addr: bucket, expected: head, new: fresh.0 },
                        ])
                        .unwrap();
                    if out[1].value() == head {
                        break;
                    }
                }
                hw.complete(t, Ret::Unit);
                let t = hw.invoke(wid, Op::Remove { k: 1 });
                let held = loop {
                    let head = cw.read_u64(bucket).unwrap();
                    let (key, _, next) = read_mini_item(&mut cw, head);
                    // MUTANT: only a same-key head is unlinked.
                    if key != 1 {
                        break false;
                    }
                    if cw.cas(bucket, head, next).unwrap() == head {
                        break true;
                    }
                };
                hw.complete(t, Ret::Val(u64::from(held)));
                let t = hw.invoke(wid, Op::Get { k: 1 });
                let head = cw.read_u64(bucket).unwrap();
                hw.complete(t, Ret::OptVal(mini_lookup(&mut cw, head, 1)));
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                for k in [1, 2] {
                    let t = hr.invoke(rid, Op::Get { k });
                    let head = cr.read_u64(bucket).unwrap();
                    hr.complete(t, Ret::OptVal(mini_lookup(&mut cr, head, k)));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![wid, rid],
                bodies: vec![writer, reader],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// M25 — a restructure whose poison CAS lost keeps the bucket's stale
/// harvest: the drain and poison volley of `programs::reclaim_trim` in
/// miniature — a bucket word over `{key, value, next}` items, a `dir`
/// word naming the rebuilt table once published (two value words, 0 for
/// absent), and a list of what each client retired. Setup chains key 1
/// over key 2, and both the restructurer's drain and the taker's walk to
/// key 2 have run. The taker's splice copies key 1's item onto key 2's
/// successor, CASes the bucket and retires both originals; the
/// restructurer's poison CAS, landing after it, loses. MUTANT: it merges
/// the chain it then finds into its first harvest — the old rule, sound
/// only while chains just grow — so key 2 comes back in the rebuilt
/// table, and the two originals are retired again with the rest of the
/// drain. Correct code drops the bucket's harvest and harvests the new
/// chain from scratch.
fn poison_loss_keeps_stale_harvest() -> Mutant {
    const POISON: u64 = 1;
    let program = Program {
        name: "m25_poison_loss_keeps_stale_harvest",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 300,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let dir = word(&mut c0, &alloc);
            let below = alloc.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
            let head = alloc.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
            c0.write(below, &mini_item(2, 20, 0)).unwrap();
            c0.write(head, &mini_item(1, 10, below.0)).unwrap();
            c0.write_u64(bucket, head.0).unwrap();
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Put { k: 1, v: 10 }, Ret::Unit);
            h.seed(c0.id(), Op::Put { k: 2, v: 20 }, Ret::Unit);
            let retired = Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
            // The taker: its walk found key 2 one hop under `head`.
            let mut ct = f.client();
            let tid = ct.id();
            let (ht, alloc_t, rt) = (h.clone(), alloc.clone(), retired.clone());
            let taker: Box<dyn FnOnce() + Send> = Box::new(move || {
                let t = ht.invoke(tid, Op::Remove { k: 2 });
                let copy = alloc_t.alloc(MINI_ITEM, AllocHint::Spread).unwrap();
                let out = ct
                    .batch(&[
                        BatchOp::Write { addr: copy, data: &mini_item(1, 10, 0) },
                        BatchOp::Cas { addr: bucket, expected: head.0, new: copy.0 },
                    ])
                    .unwrap();
                if out[1].value() == head.0 {
                    rt.lock().unwrap().extend([below.0, head.0]);
                    ht.complete(t, Ret::Val(1));
                } else {
                    // Poisoned first: this take never happened.
                    ht.fail(t);
                }
            });
            // The restructurer: its drain harvested both keys.
            let mut cs = f.client();
            let sid = cs.id();
            let (alloc_s, rs) = (alloc.clone(), retired.clone());
            let restructurer: Box<dyn FnOnce() + Send> = Box::new(move || {
                let mut live = vec![(1u64, 10u64), (2, 20)];
                let mut drained = vec![head.0, below.0];
                let mut seen = head.0;
                loop {
                    let prev = cs.cas(bucket, seen, POISON).unwrap();
                    if prev == seen {
                        break;
                    }
                    // MUTANT: the chain found is merged into the harvest,
                    // newest first — nothing harvested before is dropped.
                    let mut at = prev;
                    while at != 0 {
                        let (k, v, next) = read_mini_item(&mut cs, at);
                        live.retain(|&(key, _)| key != k);
                        live.push((k, v));
                        drained.push(at);
                        at = next;
                    }
                    seen = prev;
                }
                let mut table = [0u64; 2];
                for (k, v) in live {
                    table[k as usize - 1] = v;
                }
                let rebuilt = alloc_s.alloc(16, AllocHint::Spread).unwrap();
                cs.write(rebuilt, &table.map(u64::to_le_bytes).concat()).unwrap();
                cs.write_u64(dir, rebuilt.0).unwrap();
                rs.lock().unwrap().extend(drained);
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::Get { k: 2 });
                    let table = cr.read_u64(dir).unwrap();
                    let found = if table != 0 {
                        let v = cr.read_u64(FarAddr(table).offset(8)).unwrap();
                        Some((v != 0).then_some(v))
                    } else {
                        match cr.read_u64(bucket).unwrap() {
                            // Mid-restructure: no answer this time.
                            POISON => None,
                            at => Some(mini_lookup(&mut cr, at, 2)),
                        }
                    };
                    match found {
                        Some(v) => hr.complete(t, Ret::OptVal(v)),
                        None => hr.fail(t),
                    }
                }
            });
            let finale: Box<dyn FnOnce() -> Option<String>> = Box::new(move || {
                let mut all = retired.lock().unwrap().clone();
                all.sort_unstable();
                let n = all.len();
                all.dedup();
                (all.len() != n).then(|| format!("{} blocks retired twice", n - all.len()))
            });
            PreparedRun {
                fabric: f,
                participants: vec![tid, sid, rid],
                bodies: vec![taker, restructurer, reader],
                history: h,
                finale: Some(finale),
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin, Expect::Invariant] }
}

/// Writes a miniature bucket block `[version | n | n × {key, value}]`
/// and returns the bucket word naming it: its address with `n` in the
/// four low bits, as `load0_tagged` reads it (M26).
fn mini_block(c: &mut FabricClient, alloc: &FarAlloc, version: u64, entries: &[(u64, u64)]) -> u64 {
    let words = [version, entries.len() as u64].into_iter();
    let words: Vec<u64> = words.chain(entries.iter().flat_map(|&(k, v)| [k, v])).collect();
    let at = alloc.alloc(8 * words.len() as u64, AllocHint::Spread).unwrap();
    c.write(at, &words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>()).unwrap();
    at.0 | entries.len() as u64
}

/// A miniature table descriptor `{version, bucket}`, as a directory names
/// it (M26).
fn mini_table(c: &mut FabricClient, alloc: &FarAlloc, version: u64, bucket: FarAddr) -> FarAddr {
    let at = alloc.alloc(16, AllocHint::Spread).unwrap();
    c.write(at, &[version, bucket.0].map(u64::to_le_bytes).concat()).unwrap();
    at
}

/// M26 — a get that trusts a bucket block without its version check
/// while a split races it: the lookup of `programs::httree_split` in
/// miniature — a bucket word naming an immutable block `[version | n |
/// n × {key, value}]`, read whole by one `load0_tagged`, and a `dir`
/// word naming the live table's `{version, bucket}`. Setup stores key 1
/// in table 1, whose descriptor the reader caches. The splitter drains
/// table 1's bucket, points it at the poison block (version `u64::MAX`,
/// empty, tag 0), builds table 2 with key 1 in it and publishes it.
/// MUTANT: the reader looks key 1 up in whatever block its cached
/// bucket names, so a get that reads the poison block answers "absent"
/// for a key nobody removed. Correct code compares the block's version
/// with the cached table's and, on a mismatch, re-reads `dir` and looks
/// again (here: gives up, with no answer, while the split is unpublished).
fn get_trusts_block_without_version() -> Mutant {
    let program = Program {
        name: "m26_get_trusts_block_without_version",
        model: Some(Model::Kv),
        check_races: false,
        max_steps: 250,
        build: Box::new(|| {
            let f = plain_fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut c0 = f.client();
            let bucket = word(&mut c0, &alloc);
            let word1 = mini_block(&mut c0, &alloc, 1, &[(1, 10)]);
            c0.write_u64(bucket, word1).unwrap();
            let table1 = mini_table(&mut c0, &alloc, 1, bucket);
            let dir = word(&mut c0, &alloc);
            c0.write_u64(dir, table1.0).unwrap();
            let poison = mini_block(&mut c0, &alloc, u64::MAX, &[]);
            let h = Arc::new(History::new());
            h.seed(c0.id(), Op::Put { k: 1, v: 10 }, Ret::Unit);
            let mut cs = f.client();
            let sid = cs.id();
            let alloc_s = alloc.clone();
            let splitter: Box<dyn FnOnce() + Send> = Box::new(move || {
                // Drain, poison, build, publish.
                let (head, drained) = cs.load0_tagged(bucket).unwrap();
                let entries = read_mini_block(&drained);
                if cs.cas(bucket, head, poison).unwrap() != head {
                    return;
                }
                let bucket2 = alloc_s.alloc(8, AllocHint::Spread).unwrap();
                let word2 = mini_block(&mut cs, &alloc_s, 2, &entries);
                cs.write_u64(bucket2, word2).unwrap();
                let table2 = mini_table(&mut cs, &alloc_s, 2, bucket2);
                cs.cas(dir, table1.0, table2.0).unwrap();
            });
            let mut cr = f.client();
            let rid = cr.id();
            let hr = h.clone();
            let reader: Box<dyn FnOnce() + Send> = Box::new(move || {
                // The cached table: version 1, `bucket`.
                for _ in 0..2 {
                    let t = hr.invoke(rid, Op::Get { k: 1 });
                    let (_, bytes) = cr.load0_tagged(bucket).unwrap();
                    // MUTANT: no version check. Correct code compares
                    // `u64::from_le_bytes(bytes[..8])` with version 1 first.
                    let found = read_mini_block(&bytes).iter().find(|e| e.0 == 1).map(|e| e.1);
                    hr.complete(t, Ret::OptVal(found));
                }
            });
            PreparedRun {
                fabric: f,
                participants: vec![sid, rid],
                bodies: vec![splitter, reader],
                history: h,
                finale: None,
            }
        }),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// The entries of a miniature block's bytes (M26).
fn read_mini_block(bytes: &[u8]) -> Vec<(u64, u64)> {
    let w = |i: usize| u64::from_le_bytes(bytes[i * 8..][..8].try_into().unwrap());
    (0..w(1) as usize).map(|i| (w(2 + 2 * i), w(3 + 2 * i))).collect()
}

/// M27 — a batched publish trusted after its CAS lost: the reader of
/// `programs::reclaim_evicted_publish` uses its fenced batch's read
/// without settling the slot CAS that headed it. Its slot was evicted,
/// so grace ran without it: the pointer it cached names memory the
/// writer freed, and the read can return the poison the writer left
/// there. Correct code settles first, and on a lost CAS re-registers,
/// refreshes the pointer and reads again.
fn batched_publish_trusted_after_lost_cas() -> Mutant {
    let program = Program {
        name: "m27_batched_publish_trusted_after_lost_cas",
        model: Some(Model::Register { init: 1 }),
        check_races: false,
        max_steps: 300,
        build: Box::new(|| crate::programs::evicted_publish_run(true)),
    };
    Mutant { program, expect: &[Expect::Lin] }
}

/// Every mutant, in stable report order.
pub fn all_mutants() -> Vec<Mutant> {
    vec![
        mutex_unfenced_release(),
        mutex_immediate_steal(),
        unsync_counter(),
        reader_skips_lock(),
        split_publish_order(),
        double_retire(),
        free_before_grace(),
        queue_nonatomic_head(),
        serve_read_after_fence(),
        promote_without_epoch_bump(),
        ack_write_before_replica_durable(),
        serve_read_after_expiry(),
        evict_without_retire(),
        publish_record_after_cas(),
        hint_trusted_without_tree(),
        take_relinks_stale_head(),
        restructure_sealed_as_record(),
        batched_hint_trusted_without_compare(),
        empty_claim_leaves_guard_open(),
        attach_adopts_odd_epoch(),
        directory_published_by_blind_write(),
        table_taken_by_plain_write(),
        table_hint_trusted_without_compare(),
        trim_without_walk(),
        poison_loss_keeps_stale_harvest(),
        get_trusts_block_without_version(),
        batched_publish_trusted_after_lost_cas(),
    ]
}
