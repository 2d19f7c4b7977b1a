//! `BENCHMARK.json`: the single source of metric and workload names.

use std::path::Path;

use obs::json::{parse, Json};

use crate::Metrics;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string printed beside every value.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `(name, why)` per workload, in run order.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics (timed pass, `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced pass, `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds of measured phase per run unless `--seconds` says otherwise.
    pub run_seconds: u64,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: match text(m, "better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text_in: &str) -> Result<Spec, String> {
        let doc = parse(text_in)?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?
                as u64,
        })
    }

    /// Loads `BENCHMARK.json` from `path`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text_in = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text_in)
    }

    /// The metric list of one pass.
    pub fn pass(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Checks that `metrics` names exactly the metrics of the pass: the
    /// harness never prints a set that differs from `BENCHMARK.json`.
    pub fn check_names(&self, traced: bool, metrics: &Metrics) -> Result<(), String> {
        let declared: std::collections::BTreeSet<&str> =
            self.pass(traced).iter().map(|m| m.name.as_str()).collect();
        let measured: std::collections::BTreeSet<&str> =
            metrics.keys().map(String::as_str).collect();
        if declared == measured {
            return Ok(());
        }
        let missing: Vec<_> = declared.difference(&measured).collect();
        let extra: Vec<_> = measured.difference(&declared).collect();
        Err(format!(
            "metric set differs from BENCHMARK.json: not measured {missing:?}, not declared {extra:?}"
        ))
    }
}
