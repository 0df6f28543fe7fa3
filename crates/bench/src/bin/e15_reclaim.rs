//! E15 — epoch-based reclamation: bounded footprint under churn.
//!
//! The quarantine design of the earlier PRs never freed far memory: a
//! split leaked the replaced table, an overwritten blob record leaked its
//! predecessor. This driver churns a blob map (insert / overwrite /
//! delete, three clients, disjoint key ranges) in fixed windows, with the
//! `farmem-reclaim` epoch registry either on or off, and samples the
//! allocator footprint after every window:
//!
//! * **reclaim on** — `live_bytes` (which includes the limbo blocks not
//!   yet past their grace period) plateaus: everything superseded is
//!   retired, sealed, and freed once every client's epoch passes;
//! * **reclaim off** — `live_bytes` grows monotonically, window after
//!   window, with no bound;
//! * the **price** is quantified as extra round trips per operation and
//!   split by kind: slot publishes sent alone (an operation's carries its
//!   slot CAS in its first fenced batch, at no round trip), seal FAAs,
//!   grace-detection rounds, and the directory refresh a sealed
//!   *restructure* costs each client;
//! * the **tail** is the churn op's virtual-time p50 / p99 / p99.9 in
//!   each mode, from a run of the same churn under the default cost
//!   model (11 520 ops leave 11 samples beyond the p99.9).
//!
//! Three more phases assert the subsystem end to end: a crashed client is
//! evicted after its lease and reclamation resumes; a retired queue's
//! memory returns to the allocator exactly; and a traced run reconciles
//! span-attributed counters — including the new `retired_bytes`,
//! `reclaimed_bytes`, `reclaim_rounds` fields — field-for-field.
//!
//! Deterministic: seeded key/op mixing, virtual time. Output lands in
//! `results/e15_reclaim.json`.
//!
//! Run: `cargo run --release -p farmem-bench --bin e15_reclaim`

use farmem_alloc::FarAlloc;
use farmem_bench::{BenchArgs, Table};
use farmem_core::{FarBlobMap, FarQueue, HtTreeConfig, QueueConfig};
use farmem_fabric::{AccessStats, CostModel, FabricConfig, TraceConfig};
use farmem_reclaim::{pin, ReclaimRegistry, SharedReclaim, LEASE_NS};

/// Committed default seed (determinism over novelty).
const SEED: u64 = 15;

/// Churn clients; each owns keys ≡ its index (mod `CLIENTS`).
const CLIENTS: usize = 3;

/// Distinct keys per client — the steady-state working set.
const KEYS_PER_CLIENT: u64 = 96;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn tree_cfg() -> HtTreeConfig {
    HtTreeConfig { initial_buckets: 16, ..HtTreeConfig::default() }
}

/// One footprint sample, taken after a churn window (and, with reclaim
/// on, after each client ran one grace-detection round).
struct Sample {
    live_bytes: u64,
    limbo_bytes: u64,
    epoch: u64,
}

struct ChurnRun {
    samples: Vec<Sample>,
    ops: u64,
    stats: AccessStats,
    retired_bytes: u64,
    reclaimed_bytes: u64,
    /// Seals that also moved the restructure generation (a split's).
    restructures: u64,
    /// Removes and gets issued, and how many of each found their key.
    removes: (u64, u64),
    gets: (u64, u64),
    /// Virtual nanoseconds of each churn op, in the order they ran.
    op_ns: Vec<u64>,
    /// Reclamation's own far accesses, by kind (zero with reclaim off).
    price: Price,
}

/// Reclamation's own far accesses in one churn run, summed over clients.
#[derive(Default)]
struct Price {
    /// Slot CASes sent alone, one round trip each (a grace pass's).
    publishes_alone: u64,
    /// Slot CASes an operation's first fenced batch carried: one message
    /// and one atomic each, no round trip.
    publishes_carried: u64,
    /// Epoch-bump FAAs.
    seals: u64,
    /// Grace-detection rounds, one registry read each.
    rounds: u64,
    /// Directory refreshes a new restructure generation forced, three
    /// accesses each.
    refreshes: u64,
}

impl Price {
    /// Round trips of each kind per op: publish, seal, pass, refresh.
    fn per_op(&self, ops: u64) -> [f64; 4] {
        [self.publishes_alone, self.seals, self.rounds, 3 * self.refreshes]
            .map(|rt| rt as f64 / ops as f64)
    }
}

/// Runs `windows × ops_per_window` churn operations per client under
/// `cost`, sampling the footprint after every window.
fn churn(reclaim_on: bool, windows: u64, ops_per_window: u64, seed: u64, cost: CostModel) -> ChurnRun {
    let f = FabricConfig { cost, ..FabricConfig::count_only(512 << 20) }.build();
    let alloc = FarAlloc::new(f.clone());
    let mut c: Vec<_> = (0..CLIENTS).map(|_| f.client()).collect();
    let shared: Option<Vec<SharedReclaim>> = if reclaim_on {
        let reg = ReclaimRegistry::create(&mut c[0], &alloc, 8).unwrap();
        Some((0..CLIENTS).map(|i| reg.attach(&mut c[i], &alloc).unwrap()).collect())
    } else {
        None
    };
    let map = match &shared {
        Some(s) => FarBlobMap::create_reclaimed(&mut c[0], &alloc, tree_cfg(), s[0].clone()),
        None => FarBlobMap::create(&mut c[0], &alloc, tree_cfg()),
    }
    .unwrap();
    let tree = map.tree();
    let mut h: Vec<FarBlobMap> = Vec::with_capacity(CLIENTS);
    h.push(map);
    for i in 1..CLIENTS {
        h.push(
            match &shared {
                Some(s) => FarBlobMap::attach_reclaimed(
                    &mut c[i],
                    &alloc,
                    tree,
                    tree_cfg(),
                    s[i].clone(),
                ),
                None => FarBlobMap::attach(&mut c[i], &alloc, tree, tree_cfg()),
            }
            .unwrap(),
        );
    }
    let before: Vec<AccessStats> = c.iter().map(|cl| cl.stats()).collect();
    let mut samples = Vec::with_capacity(windows as usize);
    let mut ops = 0u64;
    let (mut removes, mut gets) = ((0u64, 0u64), (0u64, 0u64));
    let mut op_ns = Vec::new();
    for w in 0..windows {
        for j in 0..ops_per_window {
            for i in 0..CLIENTS {
                let r = mix(seed ^ (w << 40) ^ (j << 8) ^ i as u64);
                let key = (r % KEYS_PER_CLIENT) * CLIENTS as u64 + i as u64;
                let t0 = c[i].now_ns();
                // The op must come from bits the key does not use: `r % 8`
                // is the key's residue mod 8 (8 divides `KEYS_PER_CLIENT`),
                // and a remove or get drawn from it never meets a key a put
                // stored.
                match (r >> 56) % 8 {
                    // Insert / overwrite dominate: 6 in 8.
                    0..=5 => {
                        let len = 48 + (r >> 8) % 160;
                        let byte = (r >> 16) as u8;
                        h[i].put_bytes(&mut c[i], key, &vec![byte; len as usize]).unwrap();
                    }
                    6 => {
                        removes.0 += 1;
                        removes.1 += u64::from(h[i].remove(&mut c[i], key).unwrap());
                    }
                    _ => {
                        gets.0 += 1;
                        gets.1 += u64::from(h[i].get_bytes(&mut c[i], key).unwrap().is_some());
                    }
                }
                op_ns.push(c[i].now_ns() - t0);
                ops += 1;
            }
        }
        let mut limbo = 0u64;
        let mut epoch = 0u64;
        if let Some(s) = &shared {
            for i in 0..CLIENTS {
                let mut r = s[i].lock().unwrap();
                r.reclaim(&mut c[i]).unwrap();
                limbo += r.stats().limbo_bytes();
                epoch = epoch.max(r.observed_epoch());
            }
        }
        samples.push(Sample { live_bytes: alloc.stats().live_bytes, limbo_bytes: limbo, epoch });
    }
    let mut stats = AccessStats::default();
    for i in 0..CLIENTS {
        stats.merge(&c[i].stats().since(&before[i]));
    }
    let (mut retired, mut reclaimed, mut restructures) = (0u64, 0u64, 0u64);
    let mut price = Price::default();
    if let Some(s) = &shared {
        for sh in s {
            let st = sh.lock().unwrap().stats();
            retired += st.retired_bytes;
            reclaimed += st.reclaimed_bytes;
            restructures += st.restructures;
            price.publishes_alone += st.publishes - st.carried;
            price.publishes_carried += st.carried;
            price.seals += st.seals;
            price.rounds += st.rounds;
        }
        price.refreshes = h.iter().map(|m| m.stats().generation_refreshes).sum();
    }
    ChurnRun {
        samples,
        ops,
        stats,
        retired_bytes: retired,
        reclaimed_bytes: reclaimed,
        restructures,
        removes,
        gets,
        op_ns,
        price,
    }
}

/// The `q`-quantile of `samples` (nearest rank), in microseconds.
fn quantile_us(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1000.0
}

/// Crash phase: one client participates once and never pins again; the
/// grace detector waits out its lease, evicts it, and frees. Returns
/// `(rounds_until_freed, evictions, reclaimed_bytes)`.
fn crash_phase(seed: u64) -> (u64, u64, u64) {
    let f = FabricConfig::count_only(128 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c1 = f.client();
    let mut c2 = f.client();
    let reg = ReclaimRegistry::create(&mut c1, &alloc, 4).unwrap();
    let s1 = reg.attach(&mut c1, &alloc).unwrap();
    let s2 = reg.attach(&mut c2, &alloc).unwrap();
    let mut h1 =
        FarBlobMap::create_reclaimed(&mut c1, &alloc, tree_cfg(), s1.clone()).unwrap();
    let tree = h1.tree();
    let mut h2 =
        FarBlobMap::attach_reclaimed(&mut c2, &alloc, tree, tree_cfg(), s2.clone()).unwrap();
    for k in 0..64u64 {
        h1.put_bytes(&mut c1, k * 2, &[k as u8; 64]).unwrap();
    }
    // c2 participates once — registering a lagging epoch — then "crashes".
    assert!(h2.get_bytes(&mut c2, 0).unwrap().is_some());
    // Drain the insert phase's limbo (split retirements sealed before
    // c2's pin) so everything left below is blocked on the crashed slot.
    while s1.lock().unwrap().reclaim(&mut c1).unwrap() > 0 {}
    assert_eq!(s1.lock().unwrap().stats().limbo_entries(), 0, "pre-crash limbo drains");
    for k in 0..64u64 {
        // Overwrites: each retires the superseded record.
        h1.put_bytes(&mut c1, k * 2, &[mix(seed ^ k) as u8; 80]).unwrap();
    }
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        assert!(rounds < 300, "eviction must unblock reclamation");
        if s1.lock().unwrap().reclaim(&mut c1).unwrap() > 0 {
            break;
        }
    }
    let st = s1.lock().unwrap().stats();
    assert_eq!(st.evictions, 1, "exactly one eviction (the crashed client)");
    (rounds, st.evictions, st.reclaimed_bytes)
}

/// Queue phase: a retired queue's memory returns to the allocator
/// exactly. Returns the bytes the retire handed back.
fn queue_phase() -> u64 {
    let f = FabricConfig::count_only(64 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c1 = f.client();
    let mut c2 = f.client();
    let reg = ReclaimRegistry::create(&mut c1, &alloc, 4).unwrap();
    let s1 = reg.attach(&mut c1, &alloc).unwrap();
    let s2 = reg.attach(&mut c2, &alloc).unwrap();
    let baseline = alloc.stats().live_bytes;
    let q = FarQueue::create(&mut c1, &alloc, QueueConfig::new(64, 4)).unwrap();
    let mut h = FarQueue::attach(&mut c1, q.hdr()).unwrap();
    for v in 1..=48u64 {
        h.enqueue(&mut c1, v).unwrap();
    }
    while h.dequeue(&mut c1).is_ok() {}
    // lint: retire-ok: teardown after drain; both clients pin immediately below so grace can elapse.
    q.retire(&mut c1, &s1).unwrap();
    // Both registered clients pin past the seal; grace elapses.
    drop(pin(&s1, &mut c1).unwrap());
    drop(pin(&s2, &mut c2).unwrap());
    let freed = s1.lock().unwrap().reclaim(&mut c1).unwrap();
    assert_eq!(
        alloc.stats().live_bytes,
        baseline,
        "retired queue memory returns the allocator to its baseline"
    );
    freed
}

/// Trace phase: a traced client churns with reclamation on; the
/// span-attributed report must reconcile field-for-field with the flat
/// counters — including the three new reclaim fields.
fn trace_phase(seed: u64) -> (u64, u64, u64) {
    let f = FabricConfig::count_only(64 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let _tracer = c.enable_tracing(TraceConfig::default());
    let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
    let s = reg.attach(&mut c, &alloc).unwrap();
    let mut h = FarBlobMap::create_reclaimed(&mut c, &alloc, tree_cfg(), s.clone()).unwrap();
    for k in 0..96u64 {
        h.put_bytes(&mut c, k % 32, &[mix(seed ^ k) as u8; 72]).unwrap();
    }
    for _ in 0..4 {
        s.lock().unwrap().reclaim(&mut c).unwrap();
    }
    let st = c.stats();
    assert!(st.retired_bytes > 0, "overwrites retired records");
    assert!(st.reclaimed_bytes > 0, "grace elapsed for a sole client");
    assert!(st.reclaim_rounds > 0, "detection rounds were booked");
    let rep = c.trace_report().expect("tracing enabled");
    rep.reconcile()
        .unwrap_or_else(|field| panic!("attribution does not reconcile on `{field}`"));
    (st.retired_bytes, st.reclaimed_bytes, st.reclaim_rounds)
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(SEED);
    let windows = 12;
    let ops_per_window = 320;
    let mut report = args.report("e15_reclaim");

    let on = churn(true, windows, ops_per_window, seed, CostModel::COUNT_ONLY);
    let off = churn(false, windows, ops_per_window, seed, CostModel::COUNT_ONLY);
    // The same churn under the default cost model, for the tail: a clock
    // changes no count.
    let timed = [true, false].map(|on| churn(on, windows, ops_per_window, seed, CostModel::DEFAULT));
    for (run, count_only) in timed.iter().zip([&on, &off]) {
        assert_eq!(run.stats.round_trips, count_only.stats.round_trips, "a clock changes no count");
    }

    let mut t = Table::new(
        &format!(
            "E15: blob-map churn footprint, {CLIENTS} clients × {windows} windows × \
             {ops_per_window} ops (count-only cost, seed {seed})"
        ),
        &["window", "on live KiB", "on limbo KiB", "on epoch", "off live KiB", "off/on"],
    );
    for w in 0..windows as usize {
        t.row(vec![
            format!("{}", w + 1),
            format!("{:.1}", on.samples[w].live_bytes as f64 / 1024.0),
            format!("{:.1}", on.samples[w].limbo_bytes as f64 / 1024.0),
            format!("{}", on.samples[w].epoch),
            format!("{:.1}", off.samples[w].live_bytes as f64 / 1024.0),
            format!(
                "×{:.2}",
                off.samples[w].live_bytes as f64 / on.samples[w].live_bytes as f64
            ),
        ]);
    }
    report.add(t);

    // The committed invariants:
    // 1. Bounded with reclamation on: after the warmup window the
    //    footprint never exceeds 1.5× its post-warmup level.
    let warm = on.samples[1].live_bytes;
    let peak = on.samples.iter().skip(1).map(|s| s.live_bytes).max().unwrap();
    assert!(
        peak as f64 <= warm as f64 * 1.5,
        "reclaim on: footprint must plateau (warm {warm} B, peak {peak} B)"
    );
    // 2. Unbounded off: every window strictly grows, and the final
    //    footprint dwarfs the warmup level.
    for w in 1..off.samples.len() {
        assert!(
            off.samples[w].live_bytes > off.samples[w - 1].live_bytes,
            "reclaim off: window {w} must leak"
        );
    }
    let off_final = off.samples.last().unwrap().live_bytes;
    assert!(
        off_final as f64 >= off.samples[1].live_bytes as f64 * 1.25
            && off_final as f64 > peak as f64 * 2.0,
        "reclaim off: the leak must dominate (final {off_final} B vs warm {} B, \
         reclaim-on peak {peak} B)",
        off.samples[1].live_bytes
    );
    // 3. The run spans enough epochs for grace periods to be real.
    let final_epoch = on.samples.last().unwrap().epoch;
    assert!(final_epoch >= 4, "≥ 3 epoch advances (epoch starts at 1), got {final_epoch}");
    // 4. Reclamation actually freed the churn's garbage.
    assert!(on.reclaimed_bytes > 0, "grace periods elapsed and freed bytes");
    // 5. The mix is not degenerate: removes unlink records and gets read
    //    them, and both modes saw the same workload.
    assert!(on.removes.1 > 0 && on.gets.1 > 0, "removes {:?}, gets {:?}", on.removes, on.gets);
    assert_eq!((on.removes, on.gets), (off.removes, off.gets), "one workload, two modes");

    let extra_rt =
        (on.stats.round_trips as f64 - off.stats.round_trips as f64) / on.ops as f64;
    let (crash_rounds, evictions, crash_freed) = crash_phase(seed);
    let queue_freed = queue_phase();
    let (tr_retired, tr_reclaimed, tr_rounds) = trace_phase(seed);

    let mut t = Table::new(
        "E15: reclamation price and end-to-end phases",
        &["metric", "value"],
    );
    t.row(vec!["ops per run (3 clients)".into(), format!("{}", on.ops)]);
    t.row(vec!["removes: hit / issued".into(), format!("{} / {}", on.removes.1, on.removes.0)]);
    t.row(vec!["gets: hit / issued".into(), format!("{} / {}", on.gets.1, on.gets.0)]);
    t.row(vec!["RT/op, reclaim off".into(), format!("{:.3}", off.stats.round_trips as f64 / off.ops as f64)]);
    t.row(vec!["RT/op, reclaim on".into(), format!("{:.3}", on.stats.round_trips as f64 / on.ops as f64)]);
    t.row(vec!["extra RT/op (the price)".into(), format!("{extra_rt:.3}")]);
    let split = on.price.per_op(on.ops);
    for (name, rt) in [
        "  of it: slot publishes sent alone",
        "  of it: seal FAAs",
        "  of it: grace-pass registry reads",
        "  of it: directory refreshes",
    ]
    .into_iter()
    .zip(split)
    {
        t.row(vec![name.into(), format!("{rt:.3}")]);
    }
    // Negative: reclaim off pays for stale-cache misses (a poisoned or
    // stale-version access, then the refresh) that a pin's generation
    // refresh spares reclaim on.
    let rest = extra_rt - split.iter().sum::<f64>();
    t.row(vec!["  of it: the rest (off's stale-cache misses)".into(), format!("{rest:.3}")]);
    t.row(vec![
        "slot publishes carried per op (no RT)".into(),
        format!("{:.3}", on.price.publishes_carried as f64 / on.ops as f64),
    ]);
    for (name, run) in [("on", &timed[0]), ("off", &timed[1])] {
        let [p50, p99, p999] = [0.5, 0.99, 0.999].map(|q| quantile_us(&run.op_ns, q));
        t.row(vec![
            format!("churn op p50 / p99 / p99.9, virtual µs ({name})"),
            format!("{p50:.2} / {p99:.2} / {p999:.2}"),
        ]);
    }
    t.row(vec!["retired bytes (on)".into(), format!("{}", on.retired_bytes)]);
    t.row(vec!["reclaimed bytes (on)".into(), format!("{}", on.reclaimed_bytes)]);
    t.row(vec!["final epoch (on)".into(), format!("{final_epoch}")]);
    t.row(vec!["restructure generations (on)".into(), format!("{}", on.restructures)]);
    t.row(vec!["crash: rounds to evict+free".into(), format!("{crash_rounds}")]);
    t.row(vec!["crash: evictions".into(), format!("{evictions}")]);
    t.row(vec!["crash: bytes freed after eviction".into(), format!("{crash_freed}")]);
    t.row(vec!["crash: lease (virtual ms)".into(), format!("{}", LEASE_NS / 1_000_000)]);
    t.row(vec!["queue retire: bytes returned".into(), format!("{queue_freed}")]);
    t.row(vec!["trace: retired/reclaimed/rounds".into(), format!("{tr_retired}/{tr_reclaimed}/{tr_rounds}")]);
    t.row(vec!["trace: reconcile".into(), "exact".into()]);
    report.add(t);

    let seals = final_epoch - 1;
    let price = format!(
        "The price is {extra_rt:.3} extra round trips per operation: one FAA per\n\
         seal, the grace-detection rounds with the slot CAS each pass sends\n\
         alone, and a three-access directory refresh after a seal that retired\n\
         a table. The slot CAS a client owes its next operation after a seal\n\
         rides that operation's first batch, at no round trip."
    );
    let closing = format!(
        "\nBounded vs unbounded: with reclamation on, the footprint plateaus at\n\
         {:.1} KiB (peak, post-warmup) across {windows} windows and {} epochs; with it\n\
         off, the same churn leaks to {:.1} KiB and every window grows.\n\
         {price}\n{} of the {seals} seals retired a table (one per {:.0}\n\
         operations); the other {} retired records and items alone.\n\
         A remove is two far accesses in both modes, one when its key is absent\n\
         ({} of {} removes and {} of {} gets found theirs). The churn op's\n\
         virtual-time p99.9 is {:.2} µs with reclamation on and {:.2} µs off. A\n\
         crashed client stalls reclamation only until its {} ms lease expires\n\
         ({crash_rounds} detection rounds), a retired queue returns its memory exactly,\n\
         and the traced run reconciles field-for-field including the reclaim\n\
         counters.\n",
        peak as f64 / 1024.0,
        final_epoch,
        off_final as f64 / 1024.0,
        on.restructures,
        on.ops as f64 / on.restructures.max(1) as f64,
        seals - on.restructures,
        on.removes.1,
        on.removes.0,
        on.gets.1,
        on.gets.0,
        quantile_us(&timed[0].op_ns, 0.999),
        quantile_us(&timed[1].op_ns, 0.999),
        LEASE_NS / 1_000_000,
    );
    if args.verbose() {
        println!("{closing}");
    }
    report.save();
}
