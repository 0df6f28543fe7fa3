//! `--compare a.json b.json`: per workload × end-to-end metric, the
//! ratio with its base and a verdict against the metric's bound — the
//! tool the "two sets of runs agree" criterion is checked with.

use std::collections::BTreeMap;

use crate::json::{members, Json};
use crate::pctl::{median, quartiles};
use crate::registry::{Better, METRICS, WORKLOADS};

/// Runs needed on a side before its quartile spread means anything.
const MIN_RUNS_FOR_SPREAD: usize = 4;

/// Verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Median of the base side.
    pub base: f64,
    /// Median of the new side.
    pub new: f64,
    /// Interquartile spread ÷ median per side (`None` below four runs).
    pub spread: (Option<f64>, Option<f64>),
    /// The metric's bound.
    pub bound: f64,
    /// Share of the base by which the new side is worse (negative =
    /// better).
    pub worse_by: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// `workload → metric → values over runs` of one result file.
pub type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result file written by `--all`.
pub fn load(text: &str) -> Result<Table, String> {
    let j = Json::parse(text)?;
    let runs = j
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no `runs` array")?;
    let mut t = Table::new();
    for run in runs {
        let w = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without `workload`")?;
        let metrics = run
            .get("metrics")
            .and_then(members)
            .ok_or("run without `metrics`")?;
        let slot = t.entry(w.to_string()).or_default();
        for (name, v) in metrics {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("metric `{name}` is not a number"))?;
            slot.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(t)
}

fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= MIN_RUNS_FOR_SPREAD).then(|| {
        let (q1, q3) = quartiles(values);
        let m = median(values);
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    })
}

/// Judges one metric from its two samples.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (mb, mn) = (median(base), median(new));
    let worse_by = if mb == 0.0 {
        if mn == mb {
            0.0
        } else {
            f64::INFINITY
                * if (mn > mb) == (better == Better::Lower) {
                    1.0
                } else {
                    -1.0
                }
        }
    } else {
        match better {
            Better::Lower => (mn - mb) / mb.abs(),
            Better::Higher => (mb - mn) / mb.abs(),
        }
    };
    let wide = [spread(base), spread(new)]
        .into_iter()
        .flatten()
        .any(|s| s > bound);
    let verdict = if wide {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares every bounded metric of every workload present on both
/// sides, in registry order.
pub fn compare(base: &Table, new: &Table) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let (Some(b), Some(n)) = (base.get(w.name), new.get(w.name)) else {
            continue;
        };
        for m in METRICS {
            let Some(bound) = m.bound else { continue };
            let (Some(bv), Some(nv)) = (b.get(m.name), n.get(m.name)) else {
                continue;
            };
            let (worse_by, verdict) = judge(bv, nv, m.better, bound);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name,
                base: median(bv),
                new: median(nv),
                spread: (spread(bv), spread(nv)),
                bound,
                worse_by,
                verdict,
            });
        }
    }
    rows
}

/// The rows as text, one line per workload × metric.
pub fn render(rows: &[Row]) -> String {
    let pct =
        |s: Option<f64>| s.map_or_else(|| "n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{} {} base={} new={} ratio={:.4} worse_by={:+.1}% spread={}/{} bound={:.0}% {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if r.base == 0.0 {
                f64::NAN
            } else {
                r.new / r.base
            },
            r.worse_by * 100.0,
            pct(r.spread.0),
            pct(r.spread.1),
            r.bound * 100.0,
            r.verdict.word()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Higher is better: 8% fewer ops/s is inside a 10% bound, 15% is not.
        assert_eq!(
            judge(&steady, &[92.0; 5], Better::Higher, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[85.0; 5], Better::Higher, 0.10).1,
            Verdict::Regressed
        );
        // Lower is better: the same numbers read the other way round.
        assert_eq!(
            judge(&steady, &[85.0; 5], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[115.0; 5], Better::Lower, 0.10).1,
            Verdict::Regressed
        );
        // A side noisier than the bound resolves nothing, better or worse.
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, 0.10).1,
            Verdict::Unresolved
        );
        // Single runs have no spread; the ratio alone decides.
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.10).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn files_round_trip_into_rows() {
        let a = r#"{"runs": [
            {"workload": "structures", "seed": 1, "metrics": {"ops_per_s": 1000, "rt_per_op": 1.5}},
            {"workload": "structures", "seed": 2, "metrics": {"ops_per_s": 1010, "rt_per_op": 1.5}}]}"#;
        let b = r#"{"runs": [
            {"workload": "structures", "seed": 1, "metrics": {"ops_per_s": 700, "rt_per_op": 1.5}}]}"#;
        let rows = compare(&load(a).unwrap(), &load(b).unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("ops_per_s", Verdict::Regressed)
        );
        assert_eq!(
            (rows[1].metric, rows[1].verdict),
            ("rt_per_op", Verdict::Ok)
        );
        assert!(render(&rows).contains("structures ops_per_s base=1005 new=700"));
    }
}
