//! The runner: epochs of set-up plus fixed rounds, best-of-rounds for
//! host time, exact per-epoch counts, and the traced pass.

use std::path::PathBuf;
use std::time::Instant;

use crate::counts::derive;
use crate::host;
use crate::pctl;
use crate::registry::METRICS;
use crate::report::Results;
use crate::round::{Mode, RoundOut, SpanLog};
use crate::workload::{Instance, Workload};
use crate::Fail;

/// Epochs an untraced run always makes, so `setup_s` is a median.
const MIN_EPOCHS: usize = 3;
/// Epochs a run never exceeds, however fast the host.
const MAX_EPOCHS: usize = 40;

/// Spanned rounds a traced run makes to price the tracing.
const TRACED_ROUNDS: usize = 5;

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Seed of the request generator.
    pub seed: u64,
    /// Time to spend in timed rounds; epochs are added until it is used.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub traced: bool,
    /// Shrunk sizes (tests).
    pub smoke: bool,
}

/// Where span and result files go: `$FARMEM_PERF_OUT` when set (the
/// tests point it at a scratch directory), else `out/` beside this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    std::env::var_os("FARMEM_PERF_OUT").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

/// The count metrics of one epoch, for the exactness check.
fn exact_view(r: &Results) -> Vec<(&'static str, f64)> {
    METRICS
        .iter()
        .filter(|m| m.exact)
        .filter_map(|m| r.get(m.name).map(|v| (m.name, v)))
        .collect()
}

/// Every third round is a latency round (T, T, L, …): `ops_per_s` is
/// the gated metric, so throughput gets two thirds of the time.
fn is_latency_round(w: &dyn Workload, k: usize) -> bool {
    w.has_latency_rounds() && k % 3 == 2
}

/// Runs `w` and returns its metrics.
pub fn run(w: &dyn Workload, o: &RunOpts) -> Result<Results, Fail> {
    let mut r = Results::new(w.name(), o.seed);
    // A traced run needs the untraced rounds only as the base of
    // `trace_overhead_ratio`: a fifth of the time, but two epochs at
    // least, because a process's first epoch runs cold (the first
    // `run_sessions` call of a process is half as fast as the rest).
    let (min_epochs, budget_ns) = match (o.smoke, o.traced) {
        (true, _) => (2, 0),
        (false, true) => (2, (o.seconds * 0.2e9) as u64),
        (false, false) => (MIN_EPOCHS, (o.seconds * 1e9) as u64),
    };
    let mut setups = Vec::new();
    let mut best_t: Option<RoundOut> = None;
    let mut best_l: Option<(u64, Vec<u32>)> = None;
    let mut epochs: Vec<Results> = Vec::new();
    let (mut measured_ns, mut cpu_ns) = (0u64, 0u64);
    let mut digest;
    let mut t_rounds = 0usize;
    let last: Box<dyn Instance> = loop {
        let t0 = Instant::now();
        let mut inst = w.setup(o.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        digest = inst.request_digest();
        let v = inst.verified();
        r.attempted += v.ops;
        r.failed += v.failed;

        let before = inst.counters();
        let mut limbo_peak = before.limbo_bytes();
        let mut epoch_ops = 0u64;
        let cpu0 = host::process_cpu_ns();
        let mut epoch_wall = 0u64;
        for k in 0..inst.rounds_per_epoch() {
            let out = if is_latency_round(w, k) {
                let mut lat = Vec::new();
                let out = inst.round(Mode::Latency(&mut lat))?;
                if best_l.as_ref().is_none_or(|(wall, _)| out.wall_ns < *wall) {
                    best_l = Some((out.wall_ns, lat));
                }
                out
            } else {
                let out = inst.round(Mode::Throughput)?;
                t_rounds += 1;
                if best_t.is_none_or(|best| out.wall_ns < best.wall_ns) {
                    best_t = Some(out);
                }
                out
            };
            r.attempted += out.ops;
            r.failed += out.failed;
            epoch_ops += out.ops;
            epoch_wall += out.wall_ns;
            limbo_peak = limbo_peak.max(inst.counters().limbo_bytes());
        }
        if let (Some(a), Some(b)) = (cpu0, host::process_cpu_ns()) {
            cpu_ns += b - a;
        }
        measured_ns += epoch_wall;
        let after = inst.counters();
        let mut er = Results::new(w.name(), o.seed);
        derive(&before, &after, epoch_ops, limbo_peak, &mut er);
        let user = inst.user_bytes();
        if user > 0 {
            er.set(
                "far_live_bytes_per_user_byte",
                after.alloc.live_bytes as f64 / user as f64,
            );
        }
        if let Some(idle) = w
            .must_fire()
            .iter()
            .find(|name| er.get(name).is_none_or(|v| v <= 0.0))
        {
            return Err(format!(
                "NeverFired: `{idle}` is 0 over the {epoch_ops} timed ops of epoch {}; {} exists \
                 to exercise it",
                epochs.len(),
                w.name()
            )
            .into());
        }
        if w.exact() {
            if let Some(first) = epochs.first() {
                let (a, b) = (exact_view(first), exact_view(&er));
                if let Some(((name, x), (_, y))) = a.iter().zip(&b).find(|(p, q)| p != q) {
                    return Err(format!(
                        "NotRepeatable: `{name}` was {x} in epoch 0 and {y} in epoch {} of one process",
                        epochs.len()
                    )
                    .into());
                }
            }
        }
        epochs.push(er);
        if epochs.len() >= min_epochs && (measured_ns >= budget_ns || epochs.len() >= MAX_EPOCHS) {
            break inst;
        }
    };

    // Counts: exact workloads repeat, so any epoch will do; with two
    // load threads take the median epoch per metric.
    for m in METRICS {
        let vals: Vec<f64> = epochs.iter().filter_map(|e| e.get(m.name)).collect();
        if !vals.is_empty() {
            r.set(m.name, pctl::median(&vals));
        }
    }

    r.set_noted(
        "setup_s",
        pctl::median(&setups),
        &format!("median of {} set-ups", setups.len()),
    );
    let best = best_t.ok_or("no throughput round ran")?;
    let ops_per_s = best.ops as f64 * 1e9 / best.wall_ns as f64;
    r.set_noted(
        "ops_per_s",
        ops_per_s,
        &format!(
            "best of {t_rounds} throughput rounds, {} thread(s)",
            w.threads()
        ),
    );
    if let Some((_, mut lat)) = best_l {
        if let Some(s) = pctl::summarize(&mut lat) {
            let note = format!("n={}", s.n);
            r.set_noted("op_p50_ns", s.p50, &note);
            if let Some(p99) = pctl::supported(&lat, 99.0) {
                r.set_noted("op_p99_ns", p99, &note);
            }
            if let Some((p, v)) = s.tail {
                r.notes.push(format!(
                    "latency tail: p{p} = {v} ns over n={} samples",
                    s.n
                ));
            }
        }
    }
    if let Some(rss) = host::peak_rss_mb() {
        r.set("peak_rss_mb", rss);
    }
    if let Some(rt) = r.get("rt_per_op").filter(|&rt| rt > 0.0) {
        r.set("host.ns_per_rt", 1e9 / ops_per_s / rt);
    }
    if measured_ns > 0 && cpu_ns > 0 {
        r.set(
            "host.cpu_share",
            cpu_ns as f64 / (measured_ns as f64 * w.threads() as f64),
        );
    }
    r.notes.push(format!(
        "requests digest={digest:016x} epochs={} timed_s={:.3}",
        epochs.len(),
        measured_ns as f64 / 1e9
    ));

    if o.traced {
        let mut inst = last;
        let mut log = SpanLog::new(if o.smoke { 2_000 } else { 100_000 }, 6);
        // Price the tracing from the best of a few spanned rounds (one
        // is at the mercy of the neighbours), over the ops that carried
        // a span; only the first round's spans are kept.
        let cap = log.cap_ops;
        let mut best_traced = 0.0f64;
        for pass in 0..TRACED_ROUNDS {
            let out = if pass == 0 {
                inst.spanned_round(&mut log)?
            } else {
                inst.spanned_round(&mut SpanLog::new(cap, 1))?
            };
            r.attempted += out.round.ops;
            r.failed += out.round.failed;
            best_traced = best_traced.max(out.spanned_ops as f64 * 1e9 / out.spanned_ns as f64);
        }
        r.set("trace_overhead_ratio", best_traced / ops_per_s);
        inst.layers(&mut log, &mut r)?;
        drop(inst);
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.jsonl", w.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, log.to_jsonl()))
            .map_err(|e| Fail::from(format!("write {}: {e}", path.display())))?;
        r.notes.push(format!(
            "{} spans written to {}",
            log.spans.len(),
            path.display()
        ));
        crate::cells::run(w.name(), &mut r, o.smoke)?;
    } else {
        drop(last);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl_serve::ServeSpec;

    #[test]
    fn a_workload_whose_mechanism_never_fires_aborts_by_name() {
        // A budget the smoke-sized working set cannot reach: the LRU
        // never evicts, and the run must say so instead of reporting.
        let spec = ServeSpec {
            byte_budget: 1 << 40,
            ..ServeSpec::named("serve-churn", true).unwrap()
        };
        let opts = RunOpts {
            seed: 1,
            seconds: 0.0,
            traced: false,
            smoke: true,
        };
        let fail = run(&spec, &opts).map(|_| ()).unwrap_err();
        assert!(
            fail.msg.starts_with("NeverFired: `serve.evicted_per_kop`"),
            "unexpected failure: {}",
            fail.msg
        );
    }
}
