//! E8 — §7.1: indirect addressing in large (multi-node) far memories.
//!
//! Claims to reproduce:
//! * a dereferenced pointer may land on a remote memory node; *request
//!   forwarding* completes it with fewer network traversals than the
//!   error-return alternative (which costs the compute node a second
//!   round trip);
//! * data-structure-aware placement — locality hints to the allocator —
//!   removes most remote indirections.
//!
//! Run: `cargo run --release -p farmem-bench --bin e8_striping`

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_bench::{BenchArgs, Table};
use farmem_fabric::{
    CostModel, FabricConfig, FarAddr, IndirectionMode, NodeId, Striping, WORD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a far pointer-chase workload: `cells` pointer words, each
/// pointing at a 64-byte record placed with `hint`. Returns the pointer
/// addresses.
fn build(
    client: &mut farmem_fabric::FabricClient,
    alloc: &std::sync::Arc<FarAlloc>,
    cells: u64,
    localize: bool,
) -> Vec<FarAddr> {
    let mut ptrs = Vec::with_capacity(cells as usize);
    for _ in 0..cells {
        let p = alloc.alloc(WORD, AllocHint::Spread).unwrap();
        let hint = if localize { AllocHint::Colocate(p) } else { AllocHint::Spread };
        let rec = alloc.alloc(64, hint).unwrap();
        client.write_u64(p, rec.0).unwrap();
        ptrs.push(p);
    }
    ptrs
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(5);
    let mut report = args.report("e8_striping");
    let mut t = Table::new(
        "E8a: cross-node indirection — forwarding vs error-return vs locality hints",
        &[
            "nodes", "placement", "mode", "remote frac", "RT/op", "hops/op",
            "reissues/op", "ns/op",
        ],
    );
    let ops = 20_000;
    let node_counts: &[u32] = &[2, 4, 8, 16];
    for &nodes in node_counts {
        for &localize in &[false, true] {
            for &mode in &[IndirectionMode::Forward, IndirectionMode::Error] {
                let f = FabricConfig {
                    nodes,
                    node_capacity: 256 << 20,
                    striping: Striping::Striped { stripe: 4096 },
                    indirection: mode,
                    cost: CostModel::DEFAULT,
                    ..FabricConfig::default()
                }
                .build();
                let alloc = FarAlloc::new(f.clone());
                let mut c = f.client();
                let ptrs = build(&mut c, &alloc, 4096, localize);
                let mut rng = StdRng::seed_from_u64(seed);
                let t0 = c.now_ns();
                let before = c.stats();
                for _ in 0..ops {
                    let p = ptrs[rng.gen_range(0..ptrs.len())];
                    c.load0(p, 64).unwrap();
                }
                let d = c.stats().since(&before);
                let remote = (d.forward_hops + d.reissues) as f64 / ops as f64;
                t.row(vec![
                    nodes.to_string(),
                    if localize { "colocated" } else { "spread" }.into(),
                    format!("{mode:?}"),
                    format!("{:.2}", remote),
                    format!("{:.2}", d.round_trips as f64 / ops as f64),
                    format!("{:.2}", d.forward_hops as f64 / ops as f64),
                    format!("{:.2}", d.reissues as f64 / ops as f64),
                    format!("{:.0}", (c.now_ns() - t0) as f64 / ops as f64),
                ]);
            }
        }
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Without hints, a fraction ≈ (nodes−1)/nodes of dereferences land remote:\n\
             forwarding keeps them at one client round trip (+0.5 µs memory-side hop),\n\
             error mode pays a full second round trip. Colocation hints (§7.1\n\
             \"localized placement\") remove the remote fraction entirely."
        );
    }

    // E8b: striped vs node-local placement for bulk bandwidth.
    let mut t = Table::new(
        "E8b: bulk read of a 1 MiB vector — striped vs single-node placement",
        &["placement", "nodes touched", "virtual ns", "effective GB/s"],
    );
    let f = FabricConfig {
        nodes: 8,
        node_capacity: 256 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::DEFAULT,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let len = 1u64 << 20;
    for &(name, hint) in &[
        ("striped", AllocHint::Striped),
        ("single node", AllocHint::Localize(NodeId(0))),
    ] {
        // Node-local multi-page allocations are only contiguous under
        // blocked mapping; emulate single-node placement by reading the
        // same page repeatedly instead.
        let (addr, reads): (FarAddr, Vec<(u64, u64)>) = match hint {
            AllocHint::Striped => {
                let a = alloc.alloc(len, AllocHint::Striped).unwrap();
                (a, vec![(0, len)])
            }
            _ => {
                let a = alloc.alloc(4096, hint).unwrap();
                (a, (0..len / 4096).map(|_| (0u64, 4096u64)).collect())
            }
        };
        let t0 = c.now_ns();
        let mut nodes_touched = std::collections::HashSet::new();
        for &(off, l) in &reads {
            for seg_off in (0..l).step_by(4096) {
                nodes_touched.insert(f.map().node_of(addr.offset(off + seg_off)));
            }
            c.read(addr.offset(off), l).unwrap();
        }
        let ns = c.now_ns() - t0;
        t.row(vec![
            name.into(),
            nodes_touched.len().to_string(),
            ns.to_string(),
            format!("{:.2}", len as f64 / ns as f64),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Striping spreads the transfer across all nodes' interfaces (§7.1's\n\
             bandwidth argument); a single node serializes it."
        );
    }
    report.save();
}
