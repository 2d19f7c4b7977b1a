//! In-run anomaly detection over a windowed time series.
//!
//! End-of-run gates say *that* a run regressed; the detector says *when*.
//! It scans a [`TimeSeries`] window by window for four shapes of trouble:
//!
//! * **throughput cliff** — a window completing far fewer ops than the
//!   trailing mean (a stall, a shed-storm, a lock convoy);
//! * **latency burst** — a window whose worst op latency dwarfs the
//!   trailing mean latency (the temporal location of a p99 excursion);
//! * **CQ saturation** — completion-queue depth at or beyond the
//!   backpressure watermark;
//! * **migration over budget** — a `migrate.locked` → `migrate.published`
//!   event pair spanning more virtual time than the configured budget.
//!
//! Findings land in the bench report next to the timeline they were found
//! in, and `explain` cites them so a regression report names the time
//! window, not just the phase. Detection is integer/float arithmetic over
//! deterministic inputs: identical runs produce identical findings.
//!
//! The thresholds are the constants below — diagnostics, never gates; the
//! one argument of [`detect`] is the CQ saturation depth (0 disables it, as
//! the bench driver calls it; chime-serve arms it at its shedding
//! watermark). A cliff's severity is its shortfall fraction. `explain`
//! renders each finding with [`Anomaly::cite`].
//! `crates/bench/tests/timeline.rs` forces a cliff by injecting a 50 µs
//! delay on every verb past a sequence threshold and asserts the detector
//! flags the window the raw series says collapsed.

use crate::json::Json;
use crate::timeseries::TimeSeries;

// Detection thresholds. They are deliberately loose — anomalies are
// diagnostics, not gates, and a quiet run should report none.

/// Cliff: window ops below `(1 - CLIFF_FRAC) ×` the trailing mean.
pub const CLIFF_FRAC: f64 = 0.6;
/// Windows in the trailing mean.
pub const TRAILING: u64 = 4;
/// Minimum trailing mean ops/window before cliffs are considered
/// (suppresses noise on near-idle timelines).
pub const CLIFF_MIN_OPS: f64 = 16.0;
/// Burst: window max latency above `BURST_FACTOR ×` the trailing mean op
/// latency.
pub const BURST_FACTOR: f64 = 8.0;
/// Minimum burst latency, ns (suppresses micro-latency noise).
pub const BURST_MIN_NS: u64 = 100_000;
/// Migration budget, ns (lock → publish).
pub const MIGRATION_BUDGET_NS: u64 = 2_000_000;

/// The shape of a detected anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Throughput collapsed relative to the trailing mean.
    ThroughputCliff,
    /// A latency excursion far beyond the trailing mean.
    LatencyBurst,
    /// Completion-queue depth reached the saturation threshold.
    CqSaturation,
    /// A migration held its partition beyond the time budget.
    MigrationOverBudget,
}

impl AnomalyKind {
    /// Stable `snake_case` name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::ThroughputCliff => "throughput_cliff",
            AnomalyKind::LatencyBurst => "latency_burst",
            AnomalyKind::CqSaturation => "cq_saturation",
            AnomalyKind::MigrationOverBudget => "migration_over_budget",
        }
    }
}

/// One detected anomaly, anchored to a time window.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// What was detected.
    pub kind: AnomalyKind,
    /// Index of the anchoring window.
    pub window: u64,
    /// Start of the cited interval, virtual ns.
    pub t_start_ns: u64,
    /// End of the cited interval (exclusive), virtual ns.
    pub t_end_ns: u64,
    /// Dimensionless severity (ratio beyond the threshold; larger = worse).
    pub severity: f64,
    /// Human-readable evidence.
    pub detail: String,
}

impl Anomaly {
    /// Serializes deterministically.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::from(self.kind.as_str())),
            ("window", Json::from(self.window)),
            ("t_start_ns", Json::from(self.t_start_ns)),
            ("t_end_ns", Json::from(self.t_end_ns)),
            ("severity", Json::Num(self.severity)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }

    /// One-line citation, e.g. for `explain` output.
    pub fn cite(&self) -> String {
        format!(
            "{} at window {} [{}..{} ns): {} (severity {:.2})",
            self.kind.as_str(),
            self.window,
            self.t_start_ns,
            self.t_end_ns,
            self.detail,
            self.severity
        )
    }
}

/// Scans `ts` for anomalies; `cq_saturation` is the CQ depth at which a
/// window counts as saturated (0 disables that check). Findings are
/// ordered by window, then by the detection pass (cliff, burst,
/// saturation, migration) — deterministic for a given series.
pub fn detect(ts: &TimeSeries, cq_saturation: u64) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let wns = ts.window_ns();
    let indices: Vec<u64> = ts.windows().map(|(k, _)| k).collect();
    let (Some(&first), Some(&last)) = (indices.first(), indices.last()) else {
        detect_migrations(ts, &mut out);
        return out;
    };

    // Dense scan over [first, last]; absent windows count as zero activity.
    // The final window is skipped for rate-based checks — it is partial.
    for w in first..last {
        if w < first + TRAILING {
            continue;
        }
        let cur = ts.window(w);
        let (mut ops_sum, mut lat_sum, mut lat_ops) = (0u64, 0u64, 0u64);
        for p in (w - TRAILING)..w {
            if let Some(pw) = ts.window(p) {
                ops_sum += pw.ops;
                lat_sum += pw.lat_sum_ns;
                lat_ops += pw.ops;
            }
        }
        let mean_ops = ops_sum as f64 / TRAILING as f64;
        let cur_ops = cur.map_or(0, |c| c.ops);
        if mean_ops >= CLIFF_MIN_OPS && (cur_ops as f64) < (1.0 - CLIFF_FRAC) * mean_ops {
            out.push(Anomaly {
                kind: AnomalyKind::ThroughputCliff,
                window: w,
                t_start_ns: w * wns,
                t_end_ns: (w + 1) * wns,
                severity: 1.0 - cur_ops as f64 / mean_ops,
                detail: format!("{cur_ops} ops vs trailing mean {mean_ops:.1}"),
            });
        }
        if let Some(c) = cur {
            let mean_lat = if lat_ops > 0 { lat_sum as f64 / lat_ops as f64 } else { 0.0 };
            if c.ops > 0
                && c.lat_max_ns >= BURST_MIN_NS
                && mean_lat > 0.0
                && (c.lat_max_ns as f64) > BURST_FACTOR * mean_lat
            {
                out.push(Anomaly {
                    kind: AnomalyKind::LatencyBurst,
                    window: w,
                    t_start_ns: w * wns,
                    t_end_ns: (w + 1) * wns,
                    severity: c.lat_max_ns as f64 / mean_lat,
                    detail: format!(
                        "max latency {} ns vs trailing mean {mean_lat:.0} ns",
                        c.lat_max_ns
                    ),
                });
            }
            if cq_saturation > 0 && c.cq_depth_max >= cq_saturation {
                out.push(Anomaly {
                    kind: AnomalyKind::CqSaturation,
                    window: w,
                    t_start_ns: w * wns,
                    t_end_ns: (w + 1) * wns,
                    severity: c.cq_depth_max as f64 / cq_saturation as f64,
                    detail: format!("cq depth {} at watermark {cq_saturation}", c.cq_depth_max),
                });
            }
        }
    }
    detect_migrations(ts, &mut out);
    out.sort_by_key(|a| a.window);
    out
}

/// Pairs `migrate.locked` with the next `migrate.published` event and
/// flags pairs spanning more than [`MIGRATION_BUDGET_NS`].
fn detect_migrations(ts: &TimeSeries, out: &mut Vec<Anomaly>) {
    let wns = ts.window_ns();
    let mut lock: Option<(u64, &str)> = None;
    for e in ts.events() {
        if e.label.starts_with("migrate.locked") {
            lock = Some((e.t_ns, e.label.as_str()));
        } else if e.label.starts_with("migrate.published") {
            if let Some((t0, l0)) = lock.take() {
                let dur = e.t_ns.saturating_sub(t0);
                if dur > MIGRATION_BUDGET_NS {
                    out.push(Anomaly {
                        kind: AnomalyKind::MigrationOverBudget,
                        window: t0 / wns,
                        t_start_ns: t0,
                        t_end_ns: e.t_ns,
                        severity: dur as f64 / MIGRATION_BUDGET_NS as f64,
                        detail: format!("{l0}: lock→publish {dur} ns over budget {MIGRATION_BUDGET_NS} ns"),
                    });
                }
            }
        }
    }
}

/// Serializes a finding list (deterministic order preserved).
pub fn to_json(anomalies: &[Anomaly]) -> Json {
    Json::Arr(anomalies.iter().map(|a| a.to_json()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::phase::Phase;

    fn steady(ops_per_window: u64, windows: u64) -> TimeSeries {
        let mut ts = TimeSeries::new(100_000);
        for w in 0..windows {
            for i in 0..ops_per_window {
                ts.record_op(w * 100_000 + i * 10 + 5, 2_000, true);
            }
            ts.fold(w * 100_000, &Event::Time { phase: Phase::LeafRead, ns: 90_000 });
        }
        ts
    }

    #[test]
    fn quiet_run_reports_nothing() {
        let ts = steady(50, 12);
        assert!(detect(&ts, 0).is_empty());
    }

    #[test]
    fn throughput_cliff_flags_the_right_window() {
        let mut ts = TimeSeries::new(100_000);
        for w in 0..12u64 {
            let n = if w == 7 { 2 } else { 50 };
            for i in 0..n {
                ts.record_op(w * 100_000 + i * 10, 2_000, true);
            }
        }
        let found = detect(&ts, 0);
        let cliffs: Vec<&Anomaly> = found
            .iter()
            .filter(|a| a.kind == AnomalyKind::ThroughputCliff)
            .collect();
        assert_eq!(cliffs.len(), 1);
        assert_eq!(cliffs[0].window, 7);
        assert_eq!(cliffs[0].t_start_ns, 700_000);
        assert!(cliffs[0].severity > 0.9);
        assert!(cliffs[0].cite().contains("window 7"));
    }

    #[test]
    fn latency_burst_flags_the_excursion() {
        let mut ts = steady(50, 12);
        ts.record_op(7 * 100_000 + 50, 400_000, true); // one 400 µs op amid 2 µs ops
        let found = detect(&ts, 0);
        let bursts: Vec<&Anomaly> = found
            .iter()
            .filter(|a| a.kind == AnomalyKind::LatencyBurst)
            .collect();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].window, 7);
    }

    #[test]
    fn cq_saturation_respects_threshold() {
        let mut ts = steady(50, 12);
        ts.fold(7 * 100_000 + 9, &Event::CqDepth { depth: 40 });
        assert!(detect(&ts, 0)
            .iter()
            .all(|a| a.kind != AnomalyKind::CqSaturation), "0 disables the check");
        let found = detect(&ts, 32);
        let sat: Vec<&Anomaly> = found
            .iter()
            .filter(|a| a.kind == AnomalyKind::CqSaturation)
            .collect();
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].window, 7);
    }

    #[test]
    fn slow_migration_is_flagged_fast_one_is_not() {
        let mut ts = steady(50, 12);
        ts.fold(150_000, &Event::Note { label: "migrate.locked part=0 dst=1".into() });
        ts.fold(250_000, &Event::Note { label: "migrate.published part=0 dst=1".into() });
        ts.fold(500_000, &Event::Note { label: "migrate.locked part=3 dst=0".into() });
        ts.fold(3_700_000, &Event::Note { label: "migrate.published part=3 dst=0".into() });
        let found = detect(&ts, 0);
        let mig: Vec<&Anomaly> = found
            .iter()
            .filter(|a| a.kind == AnomalyKind::MigrationOverBudget)
            .collect();
        assert_eq!(mig.len(), 1);
        assert_eq!(mig[0].t_start_ns, 500_000);
        assert!(mig[0].detail.contains("part=3"));
    }

    #[test]
    fn json_is_deterministic() {
        let mut ts = steady(50, 12);
        ts.record_op(7 * 100_000 + 50, 400_000, true);
        let a = to_json(&detect(&ts, 0)).to_pretty();
        let b = to_json(&detect(&ts, 0)).to_pretty();
        assert_eq!(a, b);
        assert!(crate::json::parse(&a).is_ok());
    }
}
