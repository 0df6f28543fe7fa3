//! One run's result: metric values by registered name, printed as
//! `workload metric value unit` lines and, last, as the one JSON object
//! the driver reads.

use crate::json::quote;
use crate::registry::{metric, Tier, METRICS};

/// Values measured by one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Results {
    /// Workload name.
    pub workload: String,
    /// Seed the request generator used.
    pub seed: u64,
    /// Ops attempted in verification and timed rounds.
    pub attempted: u64,
    /// Ops among them whose reply was wrong.
    pub failed: u64,
    /// Free-form lines printed as `# …` after the rows.
    pub notes: Vec<String>,
    values: Vec<(&'static str, f64, String)>,
}

impl Results {
    /// An empty result for `workload`.
    pub fn new(workload: &str, seed: u64) -> Results {
        Results {
            workload: workload.to_string(),
            seed,
            ..Results::default()
        }
    }

    /// Records `name = value`. A metric that is not defined on this
    /// workload is simply never set: it is omitted, not printed as 0.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the registry (a typo would
    /// otherwise silently drop a metric from `BENCHMARK.json`'s view).
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, "");
    }

    /// [`set`](Self::set) with a note printed after the unit (sample
    /// counts and the like).
    pub fn set_noted(&mut self, name: &str, value: f64, note: &str) {
        let def = metric(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.values.iter_mut().find(|(n, _, _)| *n == def.name) {
            Some(slot) => *slot = (def.name, value, note.to_string()),
            None => self.values.push((def.name, value, note.to_string())),
        }
    }

    /// `set` when `value` is `Some`.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Copies every value of `other` into this result.
    pub fn absorb(&mut self, other: &Results) {
        for (n, v, note) in &other.values {
            self.set_noted(n, *v, note);
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Failed ÷ attempted (0 when nothing ran).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human rows: `workload metric value unit [note]`, in registry
    /// order, `fail_ratio` first.
    pub fn rows(&self) -> String {
        let mut out = format!(
            "{} fail_ratio {} ratio failed={} attempted={}\n",
            self.workload,
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        for m in METRICS {
            if let Some((_, v, note)) = self.values.iter().find(|(n, _, _)| *n == m.name) {
                let sep = if note.is_empty() { "" } else { " " };
                out.push_str(&format!(
                    "{} {} {} {}{sep}{note}\n",
                    self.workload, m.name, v, m.unit
                ));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("# {} {n}\n", self.workload));
        }
        out
    }

    /// The driver's result line. With `traced` the metrics are every
    /// per-layer name, otherwise every gated end-to-end name. The
    /// contract wants every listed name on every workload, so a name
    /// that is not defined here is carried as 0 in this line only.
    pub fn driver_line(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        for m in METRICS.iter().filter(|m| (m.tier != Tier::Gate) == traced) {
            let v = self.get(m.name).unwrap_or(0.0);
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                v,
                quote(m.unit)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// This run as one object of a result file (`--all`, `--compare`).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, _)| format!("{}: {}", quote(n), v))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            quote(&self.workload),
            self.seed,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{members, Json};

    #[test]
    fn undefined_metrics_are_omitted_from_rows_and_zero_filled_for_the_driver() {
        let mut r = Results::new("serve-sessions", 11);
        r.attempted = 10;
        r.set("ops_per_s", 123456.789);
        r.set("setup_s", 0.5);
        assert!(
            !r.rows().contains("op_p50_ns"),
            "undefined metric must not be printed"
        );
        let line = Json::parse(&r.driver_line(false)).unwrap();
        let m = members(line.get("metrics").unwrap()).unwrap();
        let gates = METRICS.iter().filter(|m| m.tier == Tier::Gate).count();
        assert_eq!(m.len(), gates);
        assert_eq!(
            m["ops_per_s"].get("value").and_then(Json::as_f64),
            Some(123456.789)
        );
        let traced = Json::parse(&r.driver_line(true)).unwrap();
        let m = members(traced.get("metrics").unwrap()).unwrap();
        assert_eq!(m.len(), METRICS.len() - gates);
        assert_eq!(
            m["op_p50_ns"].get("value").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_names_are_refused() {
        Results::new("x", 0).set("no.such_metric", 1.0);
    }
}
