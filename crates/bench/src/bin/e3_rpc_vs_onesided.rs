//! E3 — §1/§3.1 and refs \[24, 25, 35\]: the paper's central comparison.
//!
//! Claims to reproduce:
//! 1. Two-sided RPC beats *traditional* one-sided hash tables (the
//!    refs \[24,25\] observation): one RPC round trip beats 2+ dependent
//!    one-sided round trips.
//! 2. The HT-tree — a data structure designed *for* far memory — brings
//!    one-sided access back to one round trip, matching RPC latency...
//! 3. ...and, once many clients saturate the RPC server's CPU, one-sided
//!    designs keep scaling (shipping data vs shipping computation).
//!
//! Run: `cargo run --release -p farmem-bench --bin e3_rpc_vs_onesided`

use farmem_alloc::FarAlloc;
use farmem_baselines::{ChainedHash, HopscotchHash, RpcKv};
use farmem_bench::{BenchArgs, KeyDist, Table};
use farmem_core::{HtTree, HtTreeConfig};
use farmem_fabric::{CostModel, FabricConfig, Striping};
use farmem_rpc::ServerCpu;

const KEYS: u64 = 100_000;
const OPS_PER_CLIENT: u64 = 2_000;
const CLIENT_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 64];
const ZIPF_THETA: f64 = 0.99;

struct Outcome {
    avg_ns: f64,
    mops: f64,
    far_accesses_per_op: f64,
    bytes_per_op: f64,
}

fn fabric() -> std::sync::Arc<farmem_fabric::Fabric> {
    FabricConfig {
        nodes: 4,
        node_capacity: 512 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::DEFAULT,
        ..FabricConfig::default()
    }
    .build()
}

/// Runs `k` interleaved one-sided clients; `step` performs one lookup for
/// client `i`. Returns latency/throughput from virtual time.
fn run_onesided(
    k: usize,
    clients: &mut [farmem_fabric::FabricClient],
    mut step: impl FnMut(usize, &mut farmem_fabric::FabricClient),
) -> Outcome {
    // Desynchronize client phases and warm the pipeline up so the
    // measurement reflects steady state, not the synchronized-start burst.
    for (i, c) in clients.iter_mut().enumerate() {
        c.advance_time(i as u64 * 2_700 / k as u64);
    }
    for _ in 0..OPS_PER_CLIENT / 4 {
        for (i, c) in clients.iter_mut().enumerate() {
            step(i, c);
        }
    }
    let starts: Vec<u64> = clients.iter().map(|c| c.now_ns()).collect();
    let before: Vec<_> = clients.iter().map(|c| c.stats()).collect();
    for _ in 0..OPS_PER_CLIENT {
        for (i, c) in clients.iter_mut().enumerate() {
            step(i, c);
        }
    }
    let total_ops = (k as u64 * OPS_PER_CLIENT) as f64;
    let mut sum_ns = 0.0;
    let mut makespan = 0u64;
    let mut rts = 0u64;
    let mut bytes = 0u64;
    for (i, c) in clients.iter().enumerate() {
        sum_ns += (c.now_ns() - starts[i]) as f64;
        makespan = makespan.max(c.now_ns() - starts[i]);
        let d = c.stats().since(&before[i]);
        rts += d.round_trips;
        bytes += d.bytes_total();
    }
    Outcome {
        avg_ns: sum_ns / total_ops,
        mops: total_ops / makespan as f64 * 1000.0,
        far_accesses_per_op: rts as f64 / total_ops,
        bytes_per_op: bytes as f64 / total_ops,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e3_rpc_vs_onesided");
    let seed = args.seed_or(0);
    let mut table = Table::new(
        "E3: KV lookups, Zipf(0.99) keys — latency (virtual ns/op) and throughput (Mops/s) vs clients",
        &[
            "design", "k", "ns/op", "Mops/s", "farRT/op", "B/op",
        ],
    );

    for &k in &CLIENT_COUNTS {
        // ---- traditional one-sided chained hash (refs [24,25] strawman) ----
        {
            let f = fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut loader = f.client();
            let mut t = ChainedHash::create(&mut loader, &alloc, KEYS * 2, false).unwrap();
            for key in 0..KEYS {
                t.insert(&mut loader, key, key + 1).unwrap();
            }
            let t_load = loader.now_ns();
            let mut clients: Vec<_> = (0..k)
                .map(|_| {
                    let mut c = f.client();
                    c.advance_time(t_load); // join after the load finished
                    c
                })
                .collect();
            let mut handles: Vec<_> = (0..k)
                .map(|_| ChainedHash::attach(t.buckets_addr(), t.n_buckets(), &alloc, false))
                .collect();
            let mut dists: Vec<_> =
                (0..k).map(|i| KeyDist::zipf(KEYS, ZIPF_THETA, seed + 10 + i as u64)).collect();
            let o = run_onesided(k, &mut clients, |i, c| {
                handles[i].get(c, dists[i].next_key()).unwrap();
            });
            table.row(vec![
                "one-sided chained".into(),
                k.to_string(),
                format!("{:.0}", o.avg_ns),
                format!("{:.2}", o.mops),
                format!("{:.2}", o.far_accesses_per_op),
                format!("{:.0}", o.bytes_per_op),
            ]);
        }
        // ---- FaRM-style hopscotch (one RT, bandwidth-heavy) ----
        {
            let f = fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut loader = f.client();
            let mut t = HopscotchHash::create(&mut loader, &alloc, KEYS * 4).unwrap();
            for key in 0..KEYS {
                // Hopscotch can refuse under local clustering; skip those.
                let _ = t.insert(&mut loader, key, key + 1);
            }
            let t_load = loader.now_ns();
            let mut clients: Vec<_> = (0..k)
                .map(|_| {
                    let mut c = f.client();
                    c.advance_time(t_load);
                    c
                })
                .collect();
            let handles: Vec<_> =
                (0..k).map(|_| HopscotchHash::attach(t.slots_addr(), t.n_slots())).collect();
            let mut dists: Vec<_> =
                (0..k).map(|i| KeyDist::zipf(KEYS, ZIPF_THETA, seed + 20 + i as u64)).collect();
            let o = run_onesided(k, &mut clients, |i, c| {
                handles[i].get(c, dists[i].next_key()).unwrap();
            });
            table.row(vec![
                "one-sided hopscotch".into(),
                k.to_string(),
                format!("{:.0}", o.avg_ns),
                format!("{:.2}", o.mops),
                format!("{:.2}", o.far_accesses_per_op),
                format!("{:.0}", o.bytes_per_op),
            ]);
        }
        // ---- HT-tree (§5.2) ----
        {
            let f = fabric();
            let alloc = FarAlloc::new(f.clone());
            let mut loader = f.client();
            let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
            let tree = HtTree::create(&mut loader, &alloc, cfg).unwrap();
            let mut h = tree.attach(&mut loader, &alloc, cfg).unwrap();
            for key in 0..KEYS {
                h.put(&mut loader, key, key + 1).unwrap();
            }
            let t_load = loader.now_ns();
            let mut clients: Vec<_> = (0..k)
                .map(|_| {
                    let mut c = f.client();
                    c.advance_time(t_load);
                    c
                })
                .collect();
            let mut handles: Vec<_> = clients
                .iter_mut()
                .map(|c| tree.attach(c, &alloc, cfg).unwrap())
                .collect();
            let mut dists: Vec<_> =
                (0..k).map(|i| KeyDist::zipf(KEYS, ZIPF_THETA, seed + 30 + i as u64)).collect();
            let o = run_onesided(k, &mut clients, |i, c| {
                handles[i].get(c, dists[i].next_key()).unwrap();
            });
            table.row(vec![
                "HT-tree (ours)".into(),
                k.to_string(),
                format!("{:.0}", o.avg_ns),
                format!("{:.2}", o.mops),
                format!("{:.2}", o.far_accesses_per_op),
                format!("{:.0}", o.bytes_per_op),
            ]);
        }
        // ---- two-sided RPC (one memory-side CPU) ----
        {
            let server = RpcKv::serve(ServerCpu::DEFAULT, CostModel::DEFAULT);
            let mut kvs: Vec<_> =
                (0..k).map(|_| RpcKv::connect(vec![server.clone()])).collect();
            for key in 0..KEYS {
                kvs[0].put(key, key + 1);
            }
            // Join the others after the load finished.
            let t_load = kvs[0].now_ns();
            let mut dists: Vec<_> =
                (0..k).map(|i| KeyDist::zipf(KEYS, ZIPF_THETA, seed + 40 + i as u64)).collect();
            for (i, kv) in kvs.iter_mut().enumerate() {
                kv.rpc_advance(t_load + i as u64 * 2_700 / k as u64);
            }
            for _ in 0..OPS_PER_CLIENT / 4 {
                for (i, kv) in kvs.iter_mut().enumerate() {
                    kv.get(dists[i].next_key());
                }
            }
            let before_calls: Vec<_> = kvs.iter().map(|kv| kv.rpc().stats()).collect();
            let starts: Vec<u64> = kvs.iter().map(|kv| kv.now_ns()).collect();
            for _ in 0..OPS_PER_CLIENT {
                for (i, kv) in kvs.iter_mut().enumerate() {
                    kv.get(dists[i].next_key());
                }
            }
            let total_ops = (k as u64 * OPS_PER_CLIENT) as f64;
            let mut sum = 0.0;
            let mut makespan = 0u64;
            let mut bytes = 0u64;
            for (i, kv) in kvs.iter().enumerate() {
                sum += (kv.now_ns() - starts[i]) as f64;
                makespan = makespan.max(kv.now_ns() - starts[i]);
                let d = kv.rpc().stats().since(&before_calls[i]);
                bytes += d.bytes_sent + d.bytes_received;
            }
            table.row(vec![
                "two-sided RPC".into(),
                k.to_string(),
                format!("{:.0}", sum / total_ops),
                format!("{:.2}", total_ops / makespan as f64 * 1000.0),
                "1 RPC".into(),
                format!("{:.0}", bytes as f64 / total_ops),
            ]);
        }
    }
    report.add(table);
    if args.verbose() {
        print_shape_note();
    }
    report.save();
}

fn print_shape_note() {
    println!(
        "\nShape check (paper's argument):\n\
         * at low k, RPC (~1 RT + CPU) beats the 2+-RT chained table — the refs [24,25] result;\n\
         * the HT-tree's single round trip matches/beats RPC latency at every k;\n\
         * as k grows, the RPC server CPU saturates (ns/op climbs, Mops/s caps at ~2)\n\
           while one-sided designs scale with the fabric."
    );
}
