//! Metric catalog and the one-line result every run prints.
//!
//! The catalogs below are the single list of names this benchmark
//! reports; `BENCHMARK.json` and the interaction table in the README
//! must agree with them (checked by the tests at the bottom).

use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["train-pp12", "collect-cn6-k8", "lockstep-pp3", "serve-pp3"];

/// End-to-end metrics (`--trace 0`): every workload reports every one.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("env_steps_per_s", "1/s"), ("p50_us.heavy", "us")];

/// Per-layer metrics (`--trace 1`). A layer that does no work in a
/// workload reports 0 there. The first four are end-to-end in kind, but
/// on a shared virtual host their run-to-run spread is wider than any
/// regression bound, so they are reported here, ungated.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("p50_us.light", "us"),
    ("p99_us.light", "us"),
    ("p99_us.heavy", "us"),
    ("max_rps_slo", "1/s"),
    ("algo.update_ms.p50", "ms"),
    ("algo.update_ms.p90", "ms"),
    ("algo.update_share_pct", "%"),
    ("algo.rollout_share_pct", "%"),
    ("algo.phase_ms.action-selection", "ms"),
    ("algo.phase_ms.environment-step", "ms"),
    ("algo.phase_ms.bookkeeping", "ms"),
    ("algo.phase_ms.mini-batch-sampling", "ms"),
    ("algo.phase_ms.target-q", "ms"),
    ("algo.phase_ms.q-loss-p-loss", "ms"),
    ("algo.phase_ms.soft-update", "ms"),
    ("algo.phase_ms.checkpoint", "ms"),
    ("core.gather_us", "us"),
    ("core.gather_mib", "MiB"),
    ("core.push_ns", "ns"),
    ("nn.actor_batch_us", "us"),
    ("nn.actor_batch_rows", "count"),
    ("nn.update_gflop", "GFLOP"),
    ("env.step_ns", "ns"),
    ("dist.params_bytes", "B"),
    ("dist.params_encode_ms", "ms"),
    ("dist.params_decode_ms", "ms"),
    ("dist.steps_bytes_per_step", "B"),
    ("dist.steps_codec_us_per_step", "us"),
    ("dist.learner_wait_share", "share"),
    ("dist.worker_wait_share", "share"),
    ("dist.inproc_env_steps_per_s", "1/s"),
    ("dist.wire_tax_x", "x"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.batch_fill.light", "count"),
    ("serve.batch_fill.heavy", "count"),
    ("serve.infer_us", "us"),
    ("serve.infer_us.batch1", "us"),
    ("serve.codec_ns", "ns"),
    ("serve.errors", "count"),
    ("serve.refused", "count"),
    ("gen.lag_us.p99", "us"),
    ("gen.requests", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("algo.updates", "count"),
    ("algo.env_steps", "count"),
    ("algo.episodes", "count"),
    ("obs.traced_seconds", "s"),
];

/// Collects checks, operation counts and metric values for one run.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for an end-to-end (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check as an operation; a failing check
    /// fails the operation and marks the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.ops(1, u64::from(!ok));
        if ok {
            println!("check ok: {what}");
        } else {
            eprintln!("check FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    /// Records a metric value. Both catalogs may be set on any run; the
    /// run prints the one its mode selects.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither catalog (a bug in this file's
    /// callers, caught by the first run).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|&(n, _)| n == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Renders the final JSON line.
    ///
    /// # Errors
    ///
    /// A missing end-to-end metric or a non-finite value.
    pub fn finish(&self) -> Result<String, String> {
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if self.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed_checks.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Deserialize)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(Debug, Deserialize)]
    struct Metric {
        name: String,
        unit: String,
        better: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    #[derive(Debug, Deserialize)]
    struct BenchmarkJson {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    fn benchmark_json() -> BenchmarkJson {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(b.workloads.iter().all(|w| !w.why.is_empty() && w.why.len() <= 200));
        let e2e: Vec<(&str, &str)> =
            b.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        assert_eq!(e2e, END_TO_END);
        let layer: Vec<(&str, &str)> =
            b.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        assert_eq!(layer, PER_LAYER);
        for m in &b.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = b.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let max_bound = b.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max_bound), "setup_s carries the largest bound");
        assert!(b.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(b.paths.contains(&"marlbench".to_string()));
        assert_eq!(b.command[..2], ["python3".to_string(), "marlbench/run.py".to_string()]);
        assert!((1..=60).contains(&b.run_seconds));
    }

    #[test]
    fn every_per_layer_metric_has_a_row_in_the_interaction_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let doc = std::fs::read_to_string(path).expect("README.md");
        for &(name, _) in &PER_LAYER {
            let row = format!("| `{name}` |");
            assert!(
                doc.lines().any(|l| l.starts_with(&row)),
                "no interaction-table row for {name}"
            );
        }
    }

    #[test]
    fn finish_requires_every_end_to_end_metric() {
        let mut r = Report::new(false);
        r.check("always", true);
        assert!(r.finish().is_err());
        for &(name, _) in &END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.finish().expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn traced_run_fills_idle_layers_with_zero_and_failed_checks_mark_incorrect() {
        let mut r = Report::new(true);
        r.check("broken", false);
        let line = r.finish().expect("per-layer defaults");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        assert!(line.contains("\"core.push_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
    }
}
