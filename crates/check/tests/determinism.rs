//! Determinism guarantees: the suite's result is a pure function of
//! `(smoke, seed)`, and smoke bounds are a strict prefix of the full
//! bounds — everything smoke finds, the full run finds too.

use std::sync::Arc;

use farmem_check::explore::{explore, ExploreBounds, PreparedRun, Program};
use farmem_check::history::{History, Op, Ret};
use farmem_check::linz::Model;
use farmem_check::suite::{run_suite, SuiteConfig};
use farmem_fabric::FabricConfig;

#[test]
fn suite_result_is_identical_across_runs() {
    let cfg = SuiteConfig { smoke: true, seed: 0xE16 };
    assert_eq!(run_suite(&cfg), run_suite(&cfg), "suite result differs between identical runs");
}

/// Two clients, two increments each, of one shared word by a plain read
/// and write with no synchronisation: racy, and losing updates.
fn unsync_counter() -> Program {
    Program {
        name: "unsync_counter",
        model: Some(Model::Counter),
        check_races: true,
        max_steps: 250,
        build: Box::new(|| {
            let f = FabricConfig::count_only(64 << 20).build();
            let mut c0 = f.client();
            let ctr = farmem_alloc::FarAlloc::new(f.clone())
                .alloc(8, farmem_alloc::AllocHint::Spread)
                .unwrap();
            c0.write_u64(ctr, 0).unwrap();
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
                        let old = cl.read_u64(ctr).unwrap();
                        cl.write_u64(ctr, old + 1).unwrap();
                        h2.complete(t, Ret::Val(old));
                    }
                }));
            }
            PreparedRun { fabric: f, participants, bodies, history: h, finale: None }
        }),
    }
}

#[test]
fn smoke_findings_are_a_subset_of_full_findings() {
    // A racy program makes the subset relation observable: the DFS
    // prefix property means every schedule the small budget runs, the
    // large budget runs too (same order), and random schedules use the
    // same per-index seeds.
    let program = unsync_counter();
    let small = explore(
        &program,
        &ExploreBounds { max_schedules: 12, random_schedules: 4, seed: 7 },
    );
    let large = explore(
        &program,
        &ExploreBounds { max_schedules: 48, random_schedules: 4, seed: 7 },
    );
    assert!(small.schedules <= large.schedules);
    for r in &small.races {
        assert!(
            large.races.contains(r),
            "race {:?} found under small bounds but not large",
            r
        );
    }
    assert!(large.lin_violations >= small.lin_violations.min(1));
}
