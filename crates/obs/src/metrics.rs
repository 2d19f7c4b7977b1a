//! The unified metrics registry.
//!
//! A [`MetricsSnapshot`] gathers every counter the stack keeps — per-client
//! verb statistics, cache hits/misses, hotspot-buffer hit rate, allocator
//! bytes, per-MN traffic — behind one deterministic, labeled namespace with
//! Prometheus-text and JSON exporters. Keys are sorted, so two snapshots of
//! identical runs serialize to identical bytes. The bench driver builds one
//! per measured point from before/after deltas: deployments are reused
//! across sweep points, so every cumulative source is snapshotted around the
//! measured phase.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// A metric identity: name plus sorted `label=value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, `_total` suffix
    /// for counters).
    pub name: String,
    /// Sorted label set.
    pub labels: BTreeMap<String, String>,
}

impl MetricKey {
    /// Builds a key from a name and `(label, value)` pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{}{{{inner}}}", self.name)
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline must be backslash-escaped.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A six-number summary of a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Mean, ns.
    pub mean_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

/// A point-in-time view of every metric the run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the labeled counter (creating it at 0).
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self.counters.entry(MetricKey::new(name, labels)).or_insert(0) += v;
    }

    /// Sets the labeled gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Sets the labeled histogram summary.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramSummary) {
        self.histograms.insert(MetricKey::new(name, labels), h);
    }

    /// Reads a counter back (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge back.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// Reads a histogram summary back.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSummary> {
        self.histograms.get(&MetricKey::new(name, labels)).copied()
    }

    /// Sums a counter over every label set it appears with.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Enumerates a counter's `(label_value, count)` pairs for one label
    /// key, in sorted key order. Label sets missing `label` are skipped.
    /// Lets report layers flatten e.g. `part_ops_total{part="3"}` into
    /// stable per-partition scalar keys without knowing the cardinality.
    pub fn counter_labeled_values(&self, name: &str, label: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(k, v)| k.labels.get(label).map(|lv| (lv.clone(), *v)))
            .collect()
    }

    /// Merges another snapshot: counters add, gauges and histograms take
    /// the other side's value on key collisions.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.insert(k.clone(), *v);
        }
    }

    /// Renders the Prometheus text exposition format (sorted, deterministic).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{} {v}", k.render());
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{} {v}", k.render());
        }
        for (k, h) in &self.histograms {
            let base = &k.name;
            let labels: Vec<(&str, &str)> = k
                .labels
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            for (suffix, v) in [
                ("_count", h.count),
                ("_mean_ns", h.mean_ns),
                ("_p50_ns", h.p50_ns),
                ("_p90_ns", h.p90_ns),
                ("_p99_ns", h.p99_ns),
                ("_max_ns", h.max_ns),
            ] {
                let kk = MetricKey::new(&format!("{base}{suffix}"), &labels);
                let _ = writeln!(out, "{} {v}", kk.render());
            }
        }
        out
    }

    /// Converts to a JSON value (sorted keys, deterministic).
    pub fn to_json_value(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.render(), Json::from(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.render(), Json::Num(*v)))
            .collect();
        let hists = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.render(),
                    Json::obj(vec![
                        ("count", Json::from(h.count)),
                        ("mean_ns", Json::from(h.mean_ns)),
                        ("p50_ns", Json::from(h.p50_ns)),
                        ("p90_ns", Json::from(h.p90_ns)),
                        ("p99_ns", Json::from(h.p99_ns)),
                        ("max_ns", Json::from(h.max_ns)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(hists)),
        ])
    }

    /// Serializes to pretty JSON (byte-identical for identical snapshots).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counter("verbs_total", &[("verb", "read")], 10);
        s.counter("verbs_total", &[("verb", "write")], 4);
        s.counter("verbs_total", &[("verb", "read")], 5); // accumulates
        s.gauge("cache_bytes", &[("cn", "0")], 1234.0);
        s.histogram(
            "op_latency",
            &[],
            HistogramSummary {
                count: 100,
                mean_ns: 3_000,
                p50_ns: 2_500,
                p90_ns: 7_000,
                p99_ns: 9_000,
                max_ns: 12_000,
            },
        );
        s
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let s = sample();
        assert_eq!(s.counter_value("verbs_total", &[("verb", "read")]), 15);
        assert_eq!(s.counter_sum("verbs_total"), 19);
        assert_eq!(
            s.counter_labeled_values("verbs_total", "verb"),
            vec![("read".to_string(), 15), ("write".to_string(), 4)]
        );
        assert!(s.counter_labeled_values("verbs_total", "mn").is_empty());
        assert_eq!(s.gauge_value("cache_bytes", &[("cn", "0")]), Some(1234.0));
        assert_eq!(s.counter_value("missing", &[]), 0);
    }

    #[test]
    fn prometheus_text_is_sorted_and_labeled() {
        let text = sample().to_prometheus();
        let read_pos = text.find("verbs_total{verb=\"read\"} 15").unwrap();
        let write_pos = text.find("verbs_total{verb=\"write\"} 4").unwrap();
        assert!(read_pos < write_pos, "sorted label order");
        assert!(text.contains("cache_bytes{cn=\"0\"} 1234"));
        assert!(text.contains("op_latency_p99_ns 9000"));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let s = sample();
        let j = s.to_json();
        let v = crate::json::parse(&j).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("verbs_total{verb=\"read\"}")
                .unwrap()
                .as_f64(),
            Some(15.0)
        );
    }

    #[test]
    fn identical_snapshots_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
        assert_eq!(sample().to_prometheus(), sample().to_prometheus());
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        let mut s = MetricsSnapshot::new();
        s.counter("frames_total", &[("err", "bad \"quote\"")], 1);
        s.counter("frames_total", &[("err", "back\\slash")], 2);
        s.counter("frames_total", &[("err", "two\nlines")], 3);
        let text = s.to_prometheus();
        assert!(text.contains("frames_total{err=\"bad \\\"quote\\\"\"} 1"));
        assert!(text.contains("frames_total{err=\"back\\\\slash\"} 2"));
        assert!(text.contains("frames_total{err=\"two\\nlines\"} 3"));
        // Every exposition line stays a single physical line.
        assert_eq!(text.lines().count(), 3);
        // The JSON exporter keeps the raw value intact through its own
        // escaping and round-trips.
        let v = crate::json::parse(&s.to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("frames_total{err=\"two\\nlines\"}")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn merge_adds_counters_and_overwrites_gauges() {
        let mut a = sample();
        let mut b = MetricsSnapshot::new();
        b.counter("verbs_total", &[("verb", "read")], 1);
        b.gauge("cache_bytes", &[("cn", "0")], 99.0);
        a.merge(&b);
        assert_eq!(a.counter_value("verbs_total", &[("verb", "read")]), 16);
        assert_eq!(a.gauge_value("cache_bytes", &[("cn", "0")]), Some(99.0));
    }
}
