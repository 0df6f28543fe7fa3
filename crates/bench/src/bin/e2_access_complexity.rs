//! E2 — §1/§3.1: far accesses per lookup as the structure grows.
//!
//! Claim: "linked lists take O(n) far accesses, while balanced trees and
//! skip lists take O(log n)" — and far-memory data structures need "O(1)
//! far memory accesses most of the time, preferably with a constant of 1",
//! which the HT-tree delivers.
//!
//! Run: `cargo run --release -p farmem-bench --bin e2_access_complexity`

use farmem_alloc::FarAlloc;
use farmem_baselines::{OneSidedBTree, OneSidedList, OneSidedSkipList};
use farmem_bench::{BenchArgs, KeyDist, Table};
use farmem_core::{HtTree, HtTreeConfig};
use farmem_fabric::FabricConfig;

const PROBES: u64 = 200;

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(0);
    let mut report = args.report("e2_access_complexity");
    let mut t = Table::new(
        "E2: average far accesses per lookup vs number of items",
        &["n", "linked list", "skip list", "B-tree", "HT-tree"],
    );
    let exps: &[u32] = &[2, 4, 6, 8, 10, 12, 14];
    for &exp in exps {
        let n = 1u64 << exp;
        let fabric = FabricConfig::count_only(1 << 30).build();
        let alloc = FarAlloc::new(fabric.clone());
        let mut c = fabric.client();

        // Linked list gets too slow to *build* past 2^12; probe smaller.
        let list_cost = if n <= (1 << 12) {
            let mut list = OneSidedList::create(&mut c, &alloc).unwrap();
            for k in 0..n {
                list.insert(&mut c, k, k).unwrap();
            }
            let mut dist = KeyDist::uniform(n, seed + 1);
            let before = c.stats();
            for _ in 0..PROBES {
                list.get(&mut c, dist.next_key()).unwrap();
            }
            format!("{:.1}", (c.stats().since(&before).round_trips) as f64 / PROBES as f64)
        } else {
            "(skipped)".to_string()
        };

        let mut skip = OneSidedSkipList::create(&mut c, &alloc).unwrap();
        for k in 0..n {
            skip.insert(&mut c, k, k).unwrap();
        }
        let mut dist = KeyDist::uniform(n, seed + 2);
        let before = c.stats();
        for _ in 0..PROBES {
            skip.get(&mut c, dist.next_key()).unwrap();
        }
        let skip_cost = (c.stats().since(&before).round_trips) as f64 / PROBES as f64;

        let items: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
        let btree = OneSidedBTree::build(&mut c, &alloc, &items, 0).unwrap();
        let mut dist = KeyDist::uniform(n, seed + 3);
        let before = c.stats();
        for _ in 0..PROBES {
            btree.get(&mut c, dist.next_key()).unwrap();
        }
        let btree_cost = (c.stats().since(&before).round_trips) as f64 / PROBES as f64;

        let cfg = HtTreeConfig { initial_buckets: 1024, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
        for k in 0..n {
            h.put(&mut c, k, k).unwrap();
        }
        // Fresh handle so the client cache reflects all splits.
        let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
        let mut dist = KeyDist::uniform(n, seed + 4);
        let before = c.stats();
        for _ in 0..PROBES {
            h.get(&mut c, dist.next_key()).unwrap();
        }
        let ht_cost = (c.stats().since(&before).round_trips) as f64 / PROBES as f64;

        t.row(vec![
            n.to_string(),
            list_cost,
            format!("{skip_cost:.1}"),
            format!("{btree_cost:.1}"),
            format!("{ht_cost:.2}"),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "\nShape check: the list grows linearly, skip list and B-tree logarithmically,\n\
             and the HT-tree stays at ~1 far access regardless of n (§3.1's requirement)."
        );
    }
    report.save();
}
