//! A bulk-synchronous analytics pipeline in far memory, exercising the
//! extended structure set: worker threads rendezvous on an epoch barrier
//! each superstep, pull work from the far queue, publish variable-length
//! artifacts into a blob map (concurrent puts need no lock), and a
//! write-combining producer streams metrics with one far access per
//! superstep.
//!
//! Run with: `cargo run --release --example pipeline`

use farmem::prelude::*;
use std::time::Duration;

const WORKERS: u64 = 4;
const SUPERSTEPS: u64 = 5;
const TASKS_PER_STEP: u64 = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fabric = FabricConfig { nodes: 4, node_capacity: 128 << 20, ..FabricConfig::default() }
        .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut coord = fabric.client();

    // Shared far state.
    let queue = FarQueue::create(&mut coord, &alloc, QueueConfig::new(1024, WORKERS + 1))?;
    let barrier = FarEpochBarrier::create(&mut coord, &alloc, WORKERS, AllocHint::Spread)?;
    let results = HtTree::create(&mut coord, &alloc, HtTreeConfig::default())?;
    let metrics = FarVec::create(&mut coord, &alloc, 64, AllocHint::Striped)?;

    // Seed superstep 0.
    let mut qh = FarQueue::attach(&mut coord, queue.hdr())?;
    for t in 0..TASKS_PER_STEP {
        qh.enqueue(&mut coord, t)?;
    }

    let mut workers = Vec::new();
    for wid in 0..WORKERS {
        let fabric = fabric.clone();
        let alloc = alloc.clone();
        workers.push(std::thread::spawn(move || -> Result<(u64, AccessStats), CoreError> {
            let mut c = fabric.client();
            let mut q = FarQueue::attach(&mut c, queue.hdr())?;
            let barrier = FarEpochBarrier::attach(barrier.addr(), WORKERS);
            let mut blobs =
                FarBlobMap::attach(&mut c, &alloc, results, HtTreeConfig::default())?;
            let mut done = 0u64;
            for step in 0..SUPERSTEPS {
                // Drain this superstep's tasks cooperatively.
                loop {
                    match q.dequeue(&mut c) {
                        Ok(task) => {
                            // "Analyze" the task and publish an artifact.
                            let artifact =
                                format!("step{step}:task{task}:worker{wid}:checksum{:x}",
                                        task.wrapping_mul(0x9e3779b97f4a7c15));
                            blobs.put_bytes(&mut c, step << 32 | task, artifact.as_bytes())?;
                            metrics.add(&mut c, (step % 64).min(63), 1)?;
                            done += 1;
                        }
                        Err(CoreError::QueueEmpty) => break,
                        Err(e) => return Err(e),
                    }
                }
                // Rendezvous; worker 0 then seeds the next superstep.
                let gen = barrier.arrive_and_wait(&mut c, Duration::from_secs(30))?;
                assert_eq!(gen, 2 * step, "two rendezvous per superstep");
                if wid == 0 && step + 1 < SUPERSTEPS {
                    for t in 0..TASKS_PER_STEP {
                        q.enqueue_wait(&mut c, t, 10_000)?;
                    }
                }
                // Second rendezvous so nobody races ahead of the seeding.
                barrier.arrive_and_wait(&mut c, Duration::from_secs(30))?;
            }
            Ok((done, c.stats()))
        }));
    }

    let mut total_done = 0u64;
    let mut total = AccessStats::new();
    for w in workers {
        let (done, stats) = w.join().expect("worker panicked")?;
        total_done += done;
        total.merge(&stats);
    }
    println!(
        "{total_done} tasks processed across {WORKERS} workers × {SUPERSTEPS} supersteps"
    );
    assert_eq!(total_done, SUPERSTEPS * TASKS_PER_STEP);

    // Audit: every artifact is present and well-formed. The joins above
    // order every worker's puts before these reads.
    let mut blobs = FarBlobMap::attach(&mut coord, &alloc, results, HtTreeConfig::default())?;
    let mut verified = 0;
    for step in 0..SUPERSTEPS {
        for task in 0..TASKS_PER_STEP {
            let artifact = blobs
                .get_bytes(&mut coord, step << 32 | task)?
                .expect("artifact missing");
            let s = String::from_utf8(artifact).expect("utf8");
            assert!(s.starts_with(&format!("step{step}:task{task}:")), "bad artifact {s}");
            verified += 1;
        }
    }
    println!("{verified} artifacts verified");

    // Metrics: one histogram slot per superstep.
    let counts = metrics.read_range(&mut coord, 0, SUPERSTEPS)?;
    println!("per-superstep task counts: {counts:?}");
    assert!(counts.iter().all(|&c| c == TASKS_PER_STEP));

    println!(
        "\nfleet totals: {} far round trips, {} messages, {} notifications",
        total.round_trips, total.messages, total.notifications
    );
    Ok(())
}
