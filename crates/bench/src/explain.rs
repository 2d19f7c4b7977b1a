//! Bench-regression attribution: diff two bench documents.
//!
//! [`explain`] compares two sets of named bench points (an old and a new
//! run — `BENCH_<name>.json` reports or the tracked `results/smoke.json`)
//! and produces a plain-text report that does not just *say* a headline
//! metric moved, but *attributes* the move to the schema-2 breakdown metrics:
//! per-phase time and round-trips per op, retry root causes, and per-op-type
//! latency percentiles. The report is a pure function of its inputs —
//! byte-identical across runs — so it can be asserted in tests and pasted
//! into CI logs.

use std::fmt::Write as _;

use obs::Json;

use crate::report::BenchPoint;

/// Headline metrics, reported for every point in both documents.
const HEADLINES: &[&str] = &[
    "mops",
    "p50_us",
    "p90_us",
    "p99_us",
    "avg_us",
    "bytes_per_op",
    "rtts_per_op",
    "verbs_per_op",
];

/// Attribution categories: section title plus the metric prefix whose
/// entries it ranks.
const CATEGORIES: &[(&str, &str)] = &[
    ("phase time (ns/op)", "phase_ns_per_op."),
    ("phase round-trips (rtt/op)", "phase_rtts_per_op."),
    ("retry causes (retries/op)", "retries_per_op."),
    ("op-type latency (us)", "lat."),
];

/// Entries shown per attribution category.
const TOP_PER_CATEGORY: usize = 6;

/// A headline regression/improvement below this relative change (percent)
/// does not trigger attribution output for the point.
const ATTRIBUTION_THRESHOLD_PCT: f64 = 1.0;

/// Extracts the flat `points` (name + metric map) from a bench document:
/// either a `BENCH_<name>.json` report or a
/// [`points_document`](crate::report::points_document) such as
/// `results/smoke.json` (both carry `points: [{name, metrics}]`).
pub fn load_points(text: &str) -> Result<Vec<BenchPoint>, String> {
    let doc = obs::json::parse(text)?;
    let arr = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("document has no points array")?;
    let mut out = Vec::new();
    for p in arr {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("point missing name")?
            .to_string();
        let mut metrics = std::collections::BTreeMap::new();
        if let Some(Json::Obj(members)) = p.get("metrics") {
            for (k, v) in members {
                if let Some(n) = v.as_f64() {
                    metrics.insert(k.clone(), n);
                }
            }
        }
        out.push(BenchPoint { name, metrics });
    }
    Ok(out)
}

/// Extracts per-point anomaly citations from a schema-3 bench document:
/// `(point name, one formatted citation line per finding)`. Points without
/// findings are omitted; pre-schema-3 documents yield an empty list. The
/// citation format matches [`obs::Anomaly::cite`] so a finding reads the
/// same whether it is printed in-run or replayed from the report.
pub fn load_citations(text: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let doc = obs::json::parse(text)?;
    let arr = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("document has no points array")?;
    let mut out = Vec::new();
    for p in arr {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("point missing name")?
            .to_string();
        let Some(anoms) = p.get("anomalies").and_then(Json::as_arr) else {
            continue;
        };
        let cites: Vec<String> = anoms
            .iter()
            .filter_map(|a| {
                let kind = a.get("kind")?.as_str()?;
                let window = a.get("window")?.as_f64()? as u64;
                let t0 = a.get("t_start_ns")?.as_f64()? as u64;
                let t1 = a.get("t_end_ns")?.as_f64()? as u64;
                let severity = a.get("severity")?.as_f64()?;
                let detail = a.get("detail")?.as_str()?;
                Some(format!(
                    "{kind} at window {window} [{t0}..{t1} ns): {detail} (severity {severity:.2})"
                ))
            })
            .collect();
        if !cites.is_empty() {
            out.push((name, cites));
        }
    }
    Ok(out)
}

/// Renders anomaly citations as a report section. Empty input renders
/// nothing so callers can print the result unconditionally.
pub fn cite_anomalies(label: &str, citations: &[(String, Vec<String>)]) -> String {
    if citations.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n# anomalies in {label}:");
    for (point, cites) in citations {
        let _ = writeln!(out, "## {point}");
        for c in cites {
            let _ = writeln!(out, "  {c}");
        }
    }
    out
}

/// Whether a headline regresses downward: throughput does, latency and
/// per-op traffic regress upward.
fn higher_is_better(headline: &str) -> bool {
    headline == "mops"
}

fn pct(old: f64, new: f64) -> Option<f64> {
    if old == 0.0 {
        None
    } else {
        Some((new - old) / old.abs() * 100.0)
    }
}

fn fmt_pct(old: f64, new: f64) -> String {
    match pct(old, new) {
        Some(p) => format!("{p:+.1}%"),
        None if new == 0.0 => "=".to_string(),
        None => "new".to_string(),
    }
}

/// One changed attribution metric, ready for ranking.
struct Delta {
    name: String,
    old: f64,
    new: f64,
    delta: f64,
}

fn category_deltas(prefix: &str, old: &BenchPoint, new: &BenchPoint) -> Vec<Delta> {
    let mut out: Vec<Delta> = new
        .metrics
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .filter_map(|(k, &nv)| {
            let ov = old.metrics.get(k).copied()?;
            ((nv - ov).abs() > 1e-12).then(|| Delta {
                name: k[prefix.len()..].to_string(),
                old: ov,
                new: nv,
                delta: nv - ov,
            })
        })
        .collect();
    // Largest movers first; ties break on the name so the output is total
    // -ordered and byte-stable.
    out.sort_by(|a, b| {
        b.delta
            .abs()
            .partial_cmp(&a.delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Renders the attribution report comparing `old` to `new`.
///
/// Points are visited in `old`'s order; points only present on one side are
/// listed but not diffed. For every shared point the headline metrics are
/// tabulated, and when any of them moved by more than 1 % (the private
/// `ATTRIBUTION_THRESHOLD_PCT`) the breakdown metrics are ranked by
/// absolute delta within each category (phase time, phase round-trips,
/// retry causes, op-type latencies).
pub fn explain(old_label: &str, old: &[BenchPoint], new_label: &str, new: &[BenchPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# explain: {old_label} -> {new_label}");
    // The two documents need not cover the same points (a new figure adds
    // points, a retired one drops them): shared points are diffed, the rest
    // are reported as added/removed so the comparison never errors.
    let shared = old
        .iter()
        .filter(|p| new.iter().any(|q| q.name == p.name))
        .count();
    let removed = old.len() - shared;
    let added = new
        .iter()
        .filter(|p| !old.iter().any(|q| q.name == p.name))
        .count();
    let _ = writeln!(
        out,
        "# points: {shared} shared, {added} added (only in {new_label}), {removed} removed (only in {old_label})"
    );
    for op in old {
        let Some(np) = new.iter().find(|p| p.name == op.name) else {
            let _ = writeln!(out, "\n## {} — removed (only in {old_label})", op.name);
            continue;
        };
        let _ = writeln!(out, "\n## {}", op.name);
        let mut worst: Option<(&str, f64)> = None;
        let mut moved = false;
        for &h in HEADLINES {
            let (Some(&ov), Some(&nv)) = (op.metrics.get(h), np.metrics.get(h)) else {
                continue;
            };
            let _ = writeln!(out, "  {h:<14} {ov:>12.4} -> {nv:>12.4}  ({})", fmt_pct(ov, nv));
            if let Some(p) = pct(ov, nv) {
                // Signed so that positive = worse.
                let worse = if higher_is_better(h) { -p } else { p };
                if p.abs() > ATTRIBUTION_THRESHOLD_PCT {
                    moved = true;
                }
                if worst.map(|(_, w)| worse > w).unwrap_or(true) {
                    worst = Some((h, worse));
                }
            }
        }
        if !moved {
            let _ = writeln!(out, "  (headline metrics unchanged within {ATTRIBUTION_THRESHOLD_PCT}%)");
            continue;
        }
        if let Some((metric, worse)) = worst {
            if worse > ATTRIBUTION_THRESHOLD_PCT {
                let _ = writeln!(out, "  worst headline: {metric} ({worse:+.1}% worse)");
            }
        }
        for &(title, prefix) in CATEGORIES {
            let deltas = category_deltas(prefix, op, np);
            if deltas.is_empty() {
                continue;
            }
            let shown = deltas.len().min(TOP_PER_CATEGORY);
            let _ = writeln!(out, "  {title}:");
            for d in &deltas[..shown] {
                let _ = writeln!(
                    out,
                    "    {:<22} {:>12.4} -> {:>12.4}  ({:+.4}, {})",
                    d.name,
                    d.old,
                    d.new,
                    d.delta,
                    fmt_pct(d.old, d.new)
                );
            }
            if deltas.len() > shown {
                let _ = writeln!(out, "    ... {} more suppressed", deltas.len() - shown);
            }
        }
    }
    for np in new {
        if !old.iter().any(|p| p.name == np.name) {
            let _ = writeln!(out, "\n## {} — added (only in {new_label})", np.name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, metrics: &[(&str, f64)]) -> BenchPoint {
        BenchPoint::new(name, metrics)
    }

    fn old_new() -> (Vec<BenchPoint>, Vec<BenchPoint>) {
        let old = vec![point(
            "chime/c/16",
            &[
                ("mops", 10.0),
                ("p99_us", 50.0),
                ("phase_ns_per_op.lock_acquire", 100.0),
                ("phase_ns_per_op.leaf_read", 800.0),
                ("retries_per_op.lock_conflict", 0.01),
            ],
        )];
        let new = vec![point(
            "chime/c/16",
            &[
                ("mops", 8.0),
                ("p99_us", 65.0),
                ("phase_ns_per_op.lock_acquire", 400.0),
                ("phase_ns_per_op.leaf_read", 810.0),
                ("retries_per_op.lock_conflict", 0.09),
            ],
        )];
        (old, new)
    }

    #[test]
    fn attributes_regression_to_largest_mover() {
        let (old, new) = old_new();
        let rep = explain("old", &old, "new", &new);
        assert!(rep.contains("## chime/c/16"), "{rep}");
        assert!(rep.contains("worst headline: p99_us"), "{rep}");
        // lock_acquire (+300 ns/op) must rank above leaf_read (+10 ns/op).
        let la = rep.find("lock_acquire").unwrap();
        let lr = rep.find("leaf_read").unwrap();
        assert!(la < lr, "{rep}");
        assert!(rep.contains("retry causes"), "{rep}");
    }

    #[test]
    fn unchanged_points_skip_attribution() {
        let (old, _) = old_new();
        let rep = explain("a", &old, "b", &old);
        assert!(rep.contains("headline metrics unchanged"), "{rep}");
        assert!(!rep.contains("phase time"), "{rep}");
    }

    #[test]
    fn report_is_deterministic() {
        let (old, new) = old_new();
        assert_eq!(
            explain("old", &old, "new", &new),
            explain("old", &old, "new", &new)
        );
    }

    #[test]
    fn one_sided_points_are_listed() {
        let (old, new) = old_new();
        let mut new2 = new.clone();
        new2.push(point("fresh/point", &[("mops", 1.0)]));
        let mut old2 = old.clone();
        old2.push(point("gone/point", &[("mops", 1.0)]));
        let rep = explain("old", &old2, "new", &new2);
        assert!(rep.contains("gone/point — removed (only in old)"), "{rep}");
        assert!(rep.contains("fresh/point — added (only in new)"), "{rep}");
        assert!(rep.contains("# points: 1 shared, 1 added (only in new), 1 removed (only in old)"), "{rep}");
    }

    #[test]
    fn disjoint_point_sets_diff_without_erroring() {
        // An old baseline vs a document whose points are entirely new (the
        // scaleout figure landing against a pre-scaleout baseline): every
        // point is reported as added/removed, nothing is diffed, no error.
        let old = vec![point("chime/c/16", &[("mops", 10.0)])];
        let new = vec![
            point("uniform/mns4", &[("mops", 250.0)]),
            point("zipf/mns4/on", &[("mops", 240.0)]),
        ];
        let rep = explain("base", &old, "scaleout", &new);
        assert!(rep.contains("# points: 0 shared, 2 added (only in scaleout), 1 removed (only in base)"), "{rep}");
        assert!(rep.contains("chime/c/16 — removed (only in base)"), "{rep}");
        assert!(rep.contains("uniform/mns4 — added (only in scaleout)"), "{rep}");
        assert!(rep.contains("zipf/mns4/on — added (only in scaleout)"), "{rep}");
        assert_eq!(explain("base", &old, "scaleout", &new), rep);
    }

    #[test]
    fn citations_match_the_in_run_format() {
        let a = obs::Anomaly {
            kind: obs::AnomalyKind::ThroughputCliff,
            window: 7,
            t_start_ns: 700_000,
            t_end_ns: 800_000,
            severity: 0.9625,
            detail: "2 ops vs trailing mean 50.0".to_string(),
        };
        let doc = obs::Json::obj(vec![
            ("bench", obs::Json::from("x")),
            ("schema", obs::Json::from(3u64)),
            (
                "points",
                obs::Json::Arr(vec![obs::Json::obj(vec![
                    ("name", obs::Json::from("chime/c/16")),
                    ("anomalies", obs::anomaly::to_json(std::slice::from_ref(&a))),
                ])]),
            ),
        ])
        .to_pretty();
        let cites = load_citations(&doc).unwrap();
        assert_eq!(cites.len(), 1);
        assert_eq!(cites[0].0, "chime/c/16");
        assert_eq!(cites[0].1, vec![a.cite()]);
        let rendered = cite_anomalies("current", &cites);
        assert!(rendered.contains("# anomalies in current:"), "{rendered}");
        assert!(rendered.contains("window 7 [700000..800000 ns)"), "{rendered}");
        assert_eq!(cite_anomalies("current", &[]), "");
    }

    #[test]
    fn load_points_reads_both_document_shapes() {
        let bench_doc = r#"{"bench": "x", "schema": 2,
            "points": [{"name": "a", "metrics": {"mops": 1.5}, "snapshot": {}}]}"#;
        let p = load_points(bench_doc).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].metrics["mops"], 1.5);
        let smoke = crate::report::points_document(&[point("b", &[("p99_us", 2.0)])]);
        assert_eq!(smoke, "{\"schema\":1,\"points\":[\n{\"name\":\"b\",\"metrics\":{\"p99_us\":2}}\n]}\n");
        let p = load_points(&smoke).unwrap();
        assert_eq!(p, [point("b", &[("p99_us", 2.0)])]);
    }

    #[test]
    fn load_points_rejects_documents_without_points_or_names() {
        assert!(load_points("{\"schema\":1}").unwrap_err().contains("no points array"));
        assert!(load_points("{\"points\":[{\"metrics\":{}}]}").unwrap_err().contains("missing name"));
        assert!(load_points("{\"points\":[").is_err());
    }

    /// One point `p` before and after, with `moves` applied to the after side.
    fn moved(moves: &[(&str, f64, f64)]) -> String {
        let old: Vec<(&str, f64)> = moves.iter().map(|&(k, o, _)| (k, o)).collect();
        let new: Vec<(&str, f64)> = moves.iter().map(|&(k, _, n)| (k, n)).collect();
        explain("old", &[point("p", &old)], "new", &[point("p", &new)])
    }

    #[test]
    fn a_throughput_drop_is_worse_than_a_smaller_latency_rise() {
        let rep = moved(&[("mops", 10.0, 8.0), ("p99_us", 50.0, 51.0)]);
        assert!(rep.contains("worst headline: mops (+20.0% worse)"), "{rep}");
    }

    #[test]
    fn gains_and_latency_drops_name_no_worst_headline() {
        let rep = moved(&[
            ("mops", 10.0, 12.0),
            ("p99_us", 50.0, 40.0),
            ("bytes_per_op", 300.0, 270.0),
            ("phase_ns_per_op.leaf_read", 800.0, 600.0),
        ]);
        assert!(!rep.contains("worst headline"), "{rep}");
        // A move is still attributed, whichever way it went.
        assert!(rep.contains("phase time (ns/op):\n    leaf_read"), "{rep}");
        let rep = moved(&[("mops", 10.0, 12.0), ("p50_us", 2.0, 2.1)]);
        assert!(rep.contains("worst headline: p50_us (+5.0% worse)"), "{rep}");
    }

    #[test]
    fn a_headline_move_under_the_threshold_skips_attribution() {
        let rep = moved(&[("mops", 10.0, 10.05), ("phase_ns_per_op.lock_acquire", 100.0, 400.0)]);
        assert!(rep.contains("(+0.5%)"), "{rep}");
        assert!(rep.contains("headline metrics unchanged within 1%"), "{rep}");
        assert!(!rep.contains("lock_acquire"), "{rep}");
    }

    #[test]
    fn each_category_ranks_its_movers_and_suppresses_past_six() {
        // Eight phases moved by 10..80 ns/op, plus two equal movers whose
        // tie breaks on the name.
        let mut moves = vec![("mops", 10.0, 5.0)];
        let phases = ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"].map(|p| format!("phase_ns_per_op.{p}"));
        for (i, p) in phases.iter().enumerate() {
            moves.push((p.as_str(), 100.0, 100.0 + 10.0 * (i + 1) as f64));
        }
        moves.push(("retries_per_op.b_cause", 0.0, 0.5));
        moves.push(("retries_per_op.a_cause", 1.0, 0.5));
        let rep = moved(&moves);
        let order: Vec<usize> = ["p8", "p7", "p6", "p5", "p4", "p3"].iter().map(|p| rep.find(&format!("    {p} ")).unwrap()).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{rep}");
        assert!(!rep.contains("    p2 ") && !rep.contains("    p1 "), "{rep}");
        assert!(rep.contains("    ... 2 more suppressed"), "{rep}");
        let (a, b) = (rep.find("a_cause").unwrap(), rep.find("b_cause").unwrap());
        assert!(a < b, "{rep}");
        assert!(rep.contains("(+0.5000, new)"), "{rep}");
    }
}
