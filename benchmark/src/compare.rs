//! `--compare A.json B.json`: applies each end-to-end metric's bound and
//! direction to two result files of the suite, one row per metric and
//! workload.

use obs::json::Json;

use crate::spec::{Better, Spec};

/// One compared metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first (baseline) file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative when it is better).
    pub worse_by: f64,
    /// Interquartile spread of the baseline's repetitions, as a share of
    /// their median (0 for exact, virtual-clock metrics).
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether `b` is worse than `a` by more than the bound.
    pub fn breach(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Share of `a` by which `b` is worse, given the improvement direction.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

fn metric_field(doc: &Json, workload: &str, metric: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get(field)?
        .as_f64()
}

fn failures(doc: &Json, workload: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get("failed")?.as_f64()
}

/// Compares two end-to-end result documents. Returns the rows and the
/// problems that are not metric breaches (a missing value, a workload with
/// failed operations).
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for (workload, _) in &spec.workloads {
        for (side, doc) in [("A", a), ("B", b)] {
            match failures(doc, workload) {
                Some(0.0) => {}
                Some(n) => problems.push(format!("{side}: {workload} has {n} failed operations")),
                None => problems.push(format!("{side}: {workload} is missing")),
            }
        }
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                metric_field(a, workload, &m.name, "value"),
                metric_field(b, workload, &m.name, "value"),
            ) else {
                problems.push(format!("{workload}/{} is missing on one side", m.name));
                continue;
            };
            let spread = match (
                metric_field(a, workload, &m.name, "q1"),
                metric_field(a, workload, &m.name, "q3"),
            ) {
                (Some(q1), Some(q3)) if va != 0.0 => (q3 - q1) / va.abs(),
                _ => 0.0,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by: worse_by(m.better, va, vb),
                spread,
                bound: m.bound.unwrap_or(0.0),
            });
        }
    }
    (rows, problems)
}

/// Prints the table and returns whether the comparison passed.
pub fn report(rows: &[Row], problems: &[String]) -> bool {
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in rows {
        let verdict = if r.breach() {
            "BREACH"
        } else if r.spread > r.bound {
            "ok (unresolved: spread > bound)"
        } else {
            "ok"
        };
        println!(
            "{:<24} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
        );
    }
    for p in problems {
        println!("PROBLEM: {p}");
    }
    let breaches = rows.iter().filter(|r| r.breach()).count();
    println!(
        "{} rows, {breaches} breaches, {} problems",
        rows.len(),
        problems.len()
    );
    breaches == 0 && problems.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 110.0), -0.1);
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.1);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    const SPEC: &str = r#"{
        "run_seconds": 1,
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "kops", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}
        ],
        "per_layer": []
    }"#;

    fn doc(kops: f64, setup: f64, failed: u64) -> Json {
        obs::json::parse(&format!(
            r#"{{"workloads": {{"w": {{"failed": {failed}, "metrics": {{
                "kops": {{"value": {kops}, "q1": 95, "q3": 105}},
                "setup_s": {{"value": {setup}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn bounds_are_applied_per_metric_and_direction() {
        let spec = Spec::parse(SPEC).unwrap();
        let (rows, problems) = compare(&spec, &doc(100.0, 1.0, 0), &doc(92.0, 1.1, 0));
        assert!(problems.is_empty());
        assert!(rows.iter().all(|r| !r.breach()));
        assert_eq!(rows[0].spread, 0.1);
        let (rows, _) = compare(&spec, &doc(100.0, 1.0, 0), &doc(88.0, 1.3, 0));
        assert!(rows.iter().all(Row::breach));
        // Better than the baseline is never a breach.
        let (rows, _) = compare(&spec, &doc(100.0, 1.0, 0), &doc(150.0, 0.5, 0));
        assert!(rows.iter().all(|r| !r.breach()));
    }

    #[test]
    fn failed_operations_and_missing_values_are_problems() {
        let spec = Spec::parse(SPEC).unwrap();
        let (_, problems) = compare(&spec, &doc(100.0, 1.0, 0), &doc(100.0, 1.0, 3));
        assert_eq!(problems.len(), 1);
        let empty = obs::json::parse(r#"{"workloads": {}}"#).unwrap();
        let (rows, problems) = compare(&spec, &doc(100.0, 1.0, 0), &empty);
        assert!(rows.is_empty());
        assert_eq!(problems.len(), 3);
    }
}
