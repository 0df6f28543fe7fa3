//! `serve-sessions`: `CacheServer::run_sessions` on two OS threads — the
//! async path (executor, doorbells of 8 gets, issue/completion queues,
//! per-session attach) that the sync workloads bypass entirely.
//!
//! A round is one `run_sessions` call. Session epoch slots are not
//! released by the program today, so every round gets a fresh
//! deployment, set up outside the timed region. No per-op latency is
//! observable from outside a `run_sessions` call, so this workload has
//! no latency rounds and `op_p50_ns` / `op_p99_ns` are omitted.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use farmem_alloc::FarAlloc;
use farmem_core::HtTreeConfig;
use farmem_fabric::{AccessStats, Fabric};
use farmem_runtime::TaskResult;
use farmem_serve::{CacheServer, Request, Response, ServeConfig, SessionSummary, WorkerStats};

use crate::counts::{add_worker, Counters};
use crate::report::Results;
use crate::rng::{Rng, Zipf};
use crate::round::{Mode, RoundOut, SpanLog, SpannedOut};
use crate::wl_serve::{add_tenants, payload};
use crate::workload::{fnv, standard_fabric, Instance, Workload};
use crate::{ctx, Fail};

/// Parameters of the sessions workload (and of the session-count sweep
/// the layer cells run).
#[derive(Clone, Copy, Debug)]
pub struct SessionsSpec {
    /// Logical sessions multiplexed over the workers.
    pub sessions: usize,
    /// Requests each session issues.
    pub requests: usize,
    /// OS threads (`ServeConfig::n_workers`).
    pub workers: usize,
    /// Tenants (colliding raw keys).
    pub tenants: u16,
    /// Raw keys per tenant.
    pub raw_keys: u64,
    /// Value bytes.
    pub value_len: usize,
    /// Percent of requests that are owner-routed puts (the rest gets).
    pub put_pct: u64,
}

impl SessionsSpec {
    /// The workload's own spec.
    pub fn standard(smoke: bool) -> SessionsSpec {
        let full = SessionsSpec {
            sessions: 256,
            requests: 500,
            workers: 2,
            tenants: 4,
            raw_keys: 25_000,
            value_len: 64,
            put_pct: 5,
        };
        if smoke {
            SessionsSpec {
                sessions: 16,
                requests: 200,
                raw_keys: 1_000,
                ..full
            }
        } else {
            full
        }
    }

    /// Never more load threads than the host can run at once.
    fn threads_used(&self) -> usize {
        self.workers.min(crate::host::nproc()).max(1)
    }
}

impl Workload for SessionsSpec {
    fn name(&self) -> &'static str {
        "serve-sessions"
    }
    fn has_latency_rounds(&self) -> bool {
        false
    }
    fn exact(&self) -> bool {
        // Two threads share node queues: per-client clocks depend on the
        // interleaving (counts do not, but the gate is all-or-nothing).
        self.threads_used() == 1
    }
    fn threads(&self) -> usize {
        self.threads_used()
    }
    fn setup(&self, seed: u64) -> Result<Box<dyn Instance>, Fail> {
        let dep = Deployment::build(self, seed)?;
        Ok(Box::new(SessionsInstance {
            spec: *self,
            seed,
            digest: dep.digest,
            base: Counters::base(AccessStats::new(), 0, dep.alloc.stats(), &dep.fabric),
            fabric: dep.fabric.clone(),
            alloc: dep.alloc.clone(),
            dep: Some(dep),
            acc: None,
        }))
    }
}

/// One preloaded deployment with the per-session request vectors.
struct Deployment {
    fabric: Arc<Fabric>,
    alloc: Arc<FarAlloc>,
    server: Arc<CacheServer>,
    per_session: Vec<Vec<Request>>,
    gets: u64,
    digest: u64,
}

impl Deployment {
    fn build(spec: &SessionsSpec, seed: u64) -> Result<Deployment, Fail> {
        let workers = spec.threads_used();
        let fabric = standard_fabric();
        let alloc = FarAlloc::new(fabric.clone());
        let mut c = fabric.client();
        let cfg = ServeConfig {
            ht: HtTreeConfig {
                initial_buckets: 1024,
                ..HtTreeConfig::default()
            },
            // One slot per session and worker, plus the preload workers
            // (slots are never released).
            reclaim_slots: (spec.sessions + 2 * workers + 2) as u64,
            n_workers: workers,
            ..ServeConfig::default()
        };
        let server =
            Arc::new(CacheServer::create(&mut c, &alloc, cfg).map_err(ctx("create server"))?);
        let tenants = add_tenants(&server, spec.tenants, 0)?;
        // Preload through sync workers, each storing the keys it owns.
        let eff = server.effective_workers(spec.sessions);
        let mut pre = Vec::new();
        for wid in 0..eff {
            pre.push(
                server
                    .worker(wid, eff, &mut c)
                    .map_err(ctx("attach worker"))?,
            );
        }
        // (Tenant by tenant, for the reason given in `wl_serve`.)
        for &t in &tenants {
            for key in 0..spec.raw_keys {
                let owner = server.owner_of(t.namespaced(key), eff);
                match pre[owner].put(&mut c, t, key, &payload(key, t.0, spec.value_len), None) {
                    Ok(Response::Stored) => {}
                    other => return Err(format!("preload put of key {key}: {other:?}").into()),
                }
            }
        }
        drop(pre);

        let mut rng = Rng::new(seed, 0x5e55);
        let mut zipf = Zipf::new(spec.raw_keys, 0.99, rng.next_u64());
        let mut gets = 0u64;
        let per_session: Vec<Vec<Request>> = (0..spec.sessions)
            .map(|s| {
                (0..spec.requests)
                    .map(|_| {
                        let tenant = tenants[rng.below(tenants.len() as u64) as usize];
                        if rng.below(100) < spec.put_pct {
                            // Mutations must reach the owning worker:
                            // redraw until this session's worker owns it.
                            let key = loop {
                                let k = zipf.key();
                                if server.owner_of(tenant.namespaced(k), eff) == s % eff {
                                    break k;
                                }
                            };
                            let value = payload(key, tenant.0, spec.value_len);
                            Request::Put {
                                tenant,
                                key,
                                value,
                                ttl_ns: None,
                            }
                        } else {
                            gets += 1;
                            Request::Get {
                                tenant,
                                key: zipf.key(),
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let digest = fnv(per_session
            .iter()
            .flatten()
            .map(|r| r.nskey() ^ (u64::from(matches!(r, Request::Put { .. })) << 63)));
        Ok(Deployment {
            fabric,
            alloc,
            server,
            per_session,
            gets,
            digest,
        })
    }

    /// One `run_sessions` call over the pre-generated vectors (moved
    /// in, not cloned, so generation stays outside the timed region).
    /// The reply check rides on the summaries: every request issued,
    /// every get a hit (all keys are preloaded and nothing deletes,
    /// expires or evicts), nothing rejected.
    fn run(self) -> (RoundOut, Vec<TaskResult<SessionSummary>>) {
        let n = self.per_session.len();
        let total: u64 = self.per_session.iter().map(|v| v.len() as u64).sum();
        let slots: Arc<Vec<Mutex<Option<Vec<Request>>>>> = Arc::new(
            self.per_session
                .into_iter()
                .map(|v| Mutex::new(Some(v)))
                .collect(),
        );
        let t0 = Instant::now();
        let results = self.server.run_sessions(n, move |s| {
            slots[s]
                .lock()
                .expect("request slot")
                .take()
                .expect("each session starts once")
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let ops: u64 = results.iter().map(|r| r.output.ops).sum();
        let hits: u64 = results.iter().map(|r| r.output.hits).sum();
        let rejected: u64 = results.iter().map(|r| r.output.rejected).sum();
        let failed = total.abs_diff(ops) + self.gets.abs_diff(hits) + rejected;
        (
            RoundOut {
                wall_ns,
                ops: total,
                failed,
            },
            results,
        )
    }
}

/// Folds a run's results into cumulative counters.
fn fold(
    base: &Counters,
    dep_alloc: &FarAlloc,
    fabric: &Fabric,
    results: &[TaskResult<SessionSummary>],
) -> Counters {
    let mut stats = AccessStats::new();
    let mut sim = 0u64;
    let mut makespan = 0u64;
    for r in results {
        stats.merge(&r.stats);
        sim += r.clock_ns;
        makespan = makespan.max(r.clock_ns);
    }
    // Per worker, the snapshot with the most ops is its final state.
    let mut per_worker: Vec<WorkerStats> = Vec::new();
    for r in results {
        let w = r.output.worker;
        match per_worker.iter_mut().find(|p| p.wid == w.wid) {
            Some(p) if p.ops < w.ops => *p = w,
            Some(_) => {}
            None => per_worker.push(w),
        }
    }
    let worker = per_worker
        .iter()
        .fold(WorkerStats::default(), |a, b| add_worker(&a, b));
    Counters {
        makespan_ns: makespan,
        worker: Some(worker),
        ..Counters::base(
            {
                let mut s = base.stats;
                s.merge(&stats);
                s
            },
            base.sim_ns + sim,
            dep_alloc.stats(),
            fabric,
        )
    }
}

struct SessionsInstance {
    spec: SessionsSpec,
    seed: u64,
    digest: u64,
    fabric: Arc<Fabric>,
    alloc: Arc<FarAlloc>,
    /// Counters at the end of set-up (client counters start at zero:
    /// the sessions' clients are created inside the run).
    base: Counters,
    dep: Option<Deployment>,
    acc: Option<Counters>,
}

impl Instance for SessionsInstance {
    fn verified(&self) -> RoundOut {
        // The check rides on every round instead (there are no per-op
        // replies to verify ahead of time).
        RoundOut::default()
    }

    fn rounds_per_epoch(&self) -> usize {
        1
    }

    fn request_digest(&self) -> u64 {
        self.digest
    }

    fn round(&mut self, _mode: Mode<'_>) -> Result<RoundOut, Fail> {
        let dep = self
            .dep
            .take()
            .ok_or("serve-sessions: one round per deployment")?;
        let (out, results) = dep.run();
        self.acc = Some(fold(&self.base, &self.alloc, &self.fabric, &results));
        Ok(out)
    }

    fn counters(&self) -> Counters {
        self.acc.clone().unwrap_or_else(|| Counters {
            worker: Some(WorkerStats::default()),
            ..self.base.clone()
        })
    }

    fn user_bytes(&self) -> u64 {
        u64::from(self.spec.tenants) * self.spec.raw_keys * self.spec.value_len as u64
    }

    fn spanned_round(&mut self, log: &mut SpanLog) -> Result<SpannedOut, Fail> {
        // The only boundary visible from outside is the call itself.
        let dep = Deployment::build(&self.spec, self.seed)?;
        let id = log.name("serve.run_sessions");
        let start = log.now();
        let (round, _) = dep.run();
        log.push(id, u16::MAX, 0, start, log.now());
        Ok(SpannedOut {
            round,
            spanned_ops: round.ops,
            spanned_ns: round.wall_ns,
        })
    }

    fn layers(&mut self, _log: &mut SpanLog, _r: &mut Results) -> Result<(), Fail> {
        Ok(())
    }
}

/// Throughput of one fresh deployment at `sessions` sessions sharing
/// `total_ops` requests — one point of the session-count curve.
pub fn sweep_point(sessions: usize, total_ops: usize, smoke: bool, seed: u64) -> Result<f64, Fail> {
    let base = SessionsSpec::standard(smoke);
    let spec = SessionsSpec {
        sessions,
        requests: (total_ops / sessions).max(1),
        ..base
    };
    let (out, _) = Deployment::build(&spec, seed)?.run();
    if out.failed > 0 {
        return Err(format!("sessions sweep s{sessions}: {} wrong replies", out.failed).into());
    }
    Ok(out.ops as f64 * 1e9 / out.wall_ns as f64)
}
