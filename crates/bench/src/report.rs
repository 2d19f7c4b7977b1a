//! Machine-readable bench output.
//!
//! Every figure run accumulates its measured points into a [`Report`] and
//! writes `BENCH_<name>.json` next to its human-readable table. The file
//! carries, per point, the flat gate-comparable metric map (throughput,
//! latency percentiles, verbs/op, bytes/op, cache hit rate), the per-MN
//! traffic split, the full [`MetricsSnapshot`], and (schema 3) the windowed
//! timeline of the measured phase with the anomalies the in-run detector
//! found in it. The timelines are additionally written standalone as
//! `TIMELINE_<name>.json` so plotting and CI determinism checks need not
//! parse the full report. Output is deterministic: two runs with the same
//! seed produce byte-identical files.

use std::path::PathBuf;

use obs::{BenchPoint, Json, Phase, RetryCause};

use crate::driver::{BenchResult, OP_NAMES};

/// Writes output document `file` into `$BENCH_OUT_DIR` when set (created if
/// missing), else the working directory, and prints where it went. Exits
/// the process on I/O failure.
pub fn write_out(file: &str, text: &str) {
    let path = match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir).join(file),
        _ => PathBuf::from(file),
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let written = dir.map_or(Ok(()), std::fs::create_dir_all).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// A machine-readable bench report (one per figure).
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    points: Vec<BenchPoint>,
    details: Vec<Json>,
    timelines: Vec<Json>,
}

impl Report {
    /// Creates an empty report for bench `name` (e.g. `fig3`).
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            points: Vec::new(),
            details: Vec::new(),
            timelines: Vec::new(),
        }
    }

    /// Records `p` and starts its detail entry (`name`, `metrics`).
    ///
    /// Point names are unique within a report: claims and the perf gate
    /// look points up by name, so a second point under one name (a key the
    /// figure table built twice) would silently shadow the first.
    fn push_point(&mut self, p: BenchPoint) -> Vec<(String, Json)> {
        assert!(
            self.points.iter().all(|q| q.name != p.name),
            "report {}: duplicate point key {:?}",
            self.name,
            p.name
        );
        let metrics = p.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        let detail = vec![
            ("name".to_string(), Json::Str(p.name.clone())),
            ("metrics".to_string(), Json::Obj(metrics)),
        ];
        self.points.push(p);
        detail
    }

    /// Adds one measured point under `point` (unique within the report).
    ///
    /// # Panics
    ///
    /// Panics, naming the report and the key, when `point` was already added.
    pub fn add(&mut self, point: &str, r: &BenchResult) {
        let mut detail = self.push_point(BenchPoint {
            name: point.to_string(),
            metrics: Self::flat_metrics(r),
        });
        let per_mn = r.mn_traffic.iter().map(|&(msgs, wire)| {
            Json::obj(vec![("msgs", Json::from(msgs)), ("wire_bytes", Json::from(wire))])
        });
        let name = ("name".to_string(), Json::Str(point.to_string()));
        let timeline = ("timeline".to_string(), r.timeline.to_json());
        let anomalies = ("anomalies".to_string(), obs::anomaly::to_json(&r.anomalies));
        detail.push(("per_mn".to_string(), Json::Arr(per_mn.collect())));
        detail.push(("snapshot".to_string(), r.metrics.to_json_value()));
        detail.extend([timeline.clone(), anomalies.clone()]);
        self.details.push(Json::Obj(detail));
        self.timelines.push(Json::Obj(vec![name, timeline, anomalies]));
    }

    /// Adds a point with hand-picked metrics (layout studies, raw verb
    /// streams — anything without a full [`BenchResult`]). Panics on a
    /// duplicate `point`, like [`Report::add`].
    pub fn add_custom(&mut self, point: &str, metrics: &[(&str, f64)]) {
        let detail = self.push_point(BenchPoint::new(point, metrics));
        self.details.push(Json::Obj(detail));
    }

    /// Attaches a timeline (and its detected anomalies) to the standalone
    /// timeline document for a point added with [`Report::add_custom`] —
    /// sources like the serve simulator that carry a [`obs::TimeSeries`]
    /// without a full [`BenchResult`].
    pub fn attach_timeline(
        &mut self,
        point: &str,
        timeline: &obs::TimeSeries,
        anomalies: &[obs::Anomaly],
    ) {
        self.timelines.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(point.to_string())),
            ("timeline".to_string(), timeline.to_json()),
            ("anomalies".to_string(), obs::anomaly::to_json(anomalies)),
        ]));
    }

    /// The gate-comparable view of the accumulated points.
    pub fn points(&self) -> &[BenchPoint] {
        &self.points
    }

    /// The flat metric map the perf gate compares.
    pub fn flat_metrics(r: &BenchResult) -> std::collections::BTreeMap<String, f64> {
        let executed = r.metrics.counter_value("ops_total", &[]).max(1);
        let verbs: u64 = [
            "client_reads_total",
            "client_writes_total",
            "client_atomics_total",
            "client_rpcs_total",
        ]
        .iter()
        .map(|n| r.metrics.counter_value(n, &[]))
        .sum();
        let mut m: std::collections::BTreeMap<String, f64> = [
            ("mops", r.mops),
            ("p50_us", r.p50_us),
            ("p90_us", r.p90_us),
            ("p99_us", r.p99_us),
            ("avg_us", r.avg_us),
            ("bytes_per_op", r.bytes_per_op),
            ("msgs_per_op", r.msgs_per_op),
            ("rtts_per_op", r.rtts_per_op),
            ("verbs_per_op", verbs as f64 / executed as f64),
            ("read_amp", r.read_amp),
            ("cache_mb", r.cache_bytes as f64 / (1 << 20) as f64),
            ("cache_hit_ratio", r.cache_hit_ratio),
            ("hotspot_hit_ratio", r.hotspot_hit_ratio),
            ("remote_mb", r.remote_bytes as f64 / (1 << 20) as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        // Per-op-type virtual-latency percentiles (raw, no saturation
        // inflation). Zero-count op types report 0 so the key set is stable.
        for op in OP_NAMES {
            let h = r
                .metrics
                .histogram_value("op_latency", &[("op", op)])
                .unwrap_or_default();
            m.insert(format!("lat.{op}.p50_us"), h.p50_ns as f64 / 1_000.0);
            m.insert(format!("lat.{op}.p90_us"), h.p90_ns as f64 / 1_000.0);
            m.insert(format!("lat.{op}.p99_us"), h.p99_ns as f64 / 1_000.0);
        }
        // Per-phase attribution, normalized per op. All phases present.
        for phase in Phase::ALL {
            let labels = [("phase", phase.as_str())];
            let ns = r.metrics.counter_value("phase_ns_total", &labels);
            let rtts = r.metrics.counter_value("phase_rtts_total", &labels);
            m.insert(
                format!("phase_ns_per_op.{}", phase.as_str()),
                ns as f64 / executed as f64,
            );
            m.insert(
                format!("phase_rtts_per_op.{}", phase.as_str()),
                rtts as f64 / executed as f64,
            );
        }
        // Queue-pair model keys: identically zero for serial runs so the
        // key set stays stable across coroutine counts.
        m.insert(
            "doorbell.batch_mean".to_string(),
            r.metrics.gauge_value("doorbell_batch_mean", &[]).unwrap_or(0.0),
        );
        m.insert(
            "doorbell.batched_frac".to_string(),
            r.metrics
                .gauge_value("doorbell_batched_frac", &[])
                .unwrap_or(0.0),
        );
        m.insert(
            "cq.depth_p99".to_string(),
            r.metrics
                .histogram_value("cq_depth", &[])
                .map(|h| h.p99_ns as f64)
                .unwrap_or(0.0),
        );
        m.insert(
            "qp.doorbells_per_op".to_string(),
            r.metrics.counter_value("qp_doorbells_total", &[]) as f64 / executed as f64,
        );
        // Routing and migration keys: the scalar series exist on every run
        // (zero without a router) so serial CHIME points keep a stable key
        // set; per-partition op counts appear only on routed runs.
        m.insert(
            "route.hits".to_string(),
            r.metrics.counter_value("route_hits_total", &[]) as f64,
        );
        m.insert(
            "route.stale_epoch".to_string(),
            r.metrics.counter_value("route_stale_epoch_total", &[]) as f64,
        );
        m.insert(
            "migrate.migrations".to_string(),
            r.metrics.counter_value("migrate_migrations_total", &[]) as f64,
        );
        m.insert(
            "migrate.leaves_moved".to_string(),
            r.metrics.counter_value("migrate_leaves_moved_total", &[]) as f64,
        );
        for (part, ops) in r.metrics.counter_labeled_values("part_ops_total", "part") {
            m.insert(format!("part.{part}.ops"), ops as f64);
        }
        // In-run anomaly count: attribution context (never gated) — a
        // regression accompanied by anomalies points `explain` at windows.
        m.insert(
            "anomalies".to_string(),
            r.metrics.counter_value("anomalies_total", &[]) as f64,
        );
        // Retry root causes, normalized per op. All causes present.
        for cause in RetryCause::ALL {
            let n = r
                .metrics
                .counter_value("retry_cause_total", &[("cause", cause.as_str())]);
            m.insert(
                format!("retries_per_op.{}", cause.as_str()),
                n as f64 / executed as f64,
            );
        }
        m
    }

    /// A bench document (pretty, deterministic) over `points`.
    fn document(&self, schema: u64, points: &[Json]) -> String {
        let points = Json::Arr(points.to_vec());
        Json::obj(vec![("bench", Json::from(self.name.as_str())), ("schema", Json::from(schema)), ("points", points)])
            .to_pretty()
    }

    /// Serializes the report.
    pub fn to_json(&self) -> String {
        self.document(3, &self.details)
    }

    /// Serializes the standalone timeline document: one entry per
    /// [`Report::add`]-ed point carrying its windowed timeline and detected
    /// anomalies.
    pub fn timeline_json(&self) -> String {
        self.document(1, &self.timelines)
    }

    /// Writes `BENCH_<name>.json` (and `TIMELINE_<name>.json` when any
    /// point carries a timeline), prints where they went, and exits the
    /// process on I/O failure so a figure run can't silently miss a file.
    pub fn finish(&self) {
        write_out(&format!("BENCH_{}.json", self.name), &self.to_json());
        if !self.timelines.is_empty() {
            write_out(&format!("TIMELINE_{}.json", self.name), &self.timeline_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, BenchSetup, IndexKind};
    use ycsb::Workload;

    fn tiny() -> BenchSetup {
        BenchSetup {
            kind: IndexKind::Chime(chime::ChimeConfig::default()),
            num_cns: 2,
            clients: 8,
            preload: 3_000,
            ops: 2_000,
            mn_capacity: 512 << 20,
            workload: Workload::C,
            ..Default::default()
        }
    }

    #[test]
    fn report_json_parses_and_carries_gate_metrics() {
        let r = run(&tiny());
        let mut rep = Report::new("unit");
        rep.add("chime/c/8", &r);
        let doc = obs::json::parse(&rep.to_json()).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("unit"));
        let points = doc.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(3.0));
        let m = points[0].get("metrics").unwrap();
        assert!(m.get("mops").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("verbs_per_op").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("p90_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("lat.read.p50_us").unwrap().as_f64().unwrap() > 0.0);
        // YCSB C never inserts, but the key must still exist (stable set).
        assert_eq!(m.get("lat.insert.p99_us").unwrap().as_f64(), Some(0.0));
        assert!(m.get("phase_ns_per_op.traversal").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("phase_rtts_per_op.leaf_read").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("retries_per_op.lock_conflict").unwrap().as_f64().is_some());
        // Router keys exist (zero) even on unpartitioned runs; the
        // per-partition series does not.
        assert_eq!(m.get("route.hits").unwrap().as_f64(), Some(0.0));
        assert_eq!(m.get("migrate.leaves_moved").unwrap().as_f64(), Some(0.0));
        assert!(m.get("part.0.ops").is_none());
        assert!(points[0].get("per_mn").unwrap().as_arr().unwrap().len() == 1);
        // Schema 3: every point carries its windowed timeline + findings.
        let tl = points[0].get("timeline").unwrap();
        assert!(!tl.get("windows").unwrap().as_arr().unwrap().is_empty());
        assert!(points[0].get("anomalies").unwrap().as_arr().is_some());
        let tdoc = obs::json::parse(&rep.timeline_json()).unwrap();
        assert_eq!(tdoc.get("bench").unwrap().as_str(), Some("unit"));
        assert_eq!(
            tdoc.get("points").unwrap().as_arr().unwrap().len(),
            1
        );
        assert!(points[0]
            .get("snapshot")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("ops_total")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0);
        assert_eq!(rep.points()[0].name, "chime/c/8");
    }
}
