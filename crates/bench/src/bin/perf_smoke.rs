//! The CI perf gate: a fixed-seed micro-benchmark matrix compared against
//! `results/baseline.json`.
//!
//! The whole simulator runs on a virtual clock, so the numbers are exact
//! and machine-independent; tolerances exist to absorb intentional
//! algorithm changes, not noise. The matrix covers CHIME and Sherman on
//! read-heavy, write-heavy and scan workloads at two client counts.
//!
//! Usage: `perf_smoke [--baseline PATH] [--write-baseline] [--tolerance PCT]`
//!
//! Exits 1 when any metric regresses beyond its tolerance or a baseline
//! point is missing from the run.

use bench::driver::{run, BenchSetup, IndexKind};
use bench::explain::{cite_anomalies, explain};
use bench::figs::{chime, scaleout_setup, serve_point, serve_study, sherman, Args, Scale};
use bench::report::Report;
use obs::{compare, Baseline, BenchPoint, FlightRecorder};
use serve::sim::SimConfig;
use ycsb::Workload;

const USAGE: &str = "perf_smoke [--baseline PATH] [--write-baseline] [--tolerance PCT]";

/// The gate enforces this subset of each point's metrics (the baseline's
/// `gated` list). Everything else in the baseline — ratios, cache
/// footprints, phase breakdowns, retry causes — rides along as attribution
/// context for `explain`, but latency, throughput and traffic guard the
/// paper's claims.
const GATED: &[&str] = &[
    "mops",
    "p50_us",
    "p90_us",
    "p99_us",
    "bytes_per_op",
    "rtts_per_op",
    "verbs_per_op",
    "cache_hit_ratio",
];

fn matrix() -> Vec<(String, BenchSetup)> {
    // The gate's shape: 2 CNs, 20 k keys, 10 k ops a point (4 k scans).
    let point = |kind: IndexKind, w: Workload, clients: usize, coroutines: usize| BenchSetup {
        kind,
        workload: w,
        clients,
        coroutines,
        num_cns: 2,
        preload: 20_000,
        ops: if w == Workload::E { 4_000 } else { 10_000 },
        mn_capacity: 512 << 20,
        ..Default::default()
    };
    let lower = |w: Workload| w.name().to_lowercase();
    let mut points = Vec::new();
    for (index, kind) in [("chime", chime()), ("sherman", sherman())] {
        for w in [Workload::C, Workload::A, Workload::E] {
            for clients in [16usize, 64] {
                points.push((format!("{index}/{}/{clients}", lower(w)), point(kind.clone(), w, clients, 1)));
            }
        }
    }
    // Pipelined configuration: 4 coroutine lanes per client. Gates the
    // engine's modeled overlap (throughput) and the cq_wait-inflated tail
    // alongside the serial points.
    for w in [Workload::C, Workload::A] {
        points.push((format!("chime/{}/64/k4", lower(w)), point(chime(), w, 64, 4)));
    }
    // Scale-out: 4-MN partitioned deployments gate the router (uniform)
    // and the live hotspot migrator (Zipfian, migrations mid-run) — a
    // reduced cut of the fig_scaleout geometry.
    let cut = Scale { preload: 30_000, ops: 48_000 };
    for (name, theta, migrate) in [
        ("scaleout/uniform/4mn", 0.01, false),
        ("scaleout/zipf-mig/4mn", ycsb::ZIPFIAN_CONSTANT, true),
    ] {
        points.push((name.to_string(), scaleout_setup(4, theta, migrate, 256, cut)));
    }
    points
}

fn main() {
    let args = Args::parse(USAGE, &["baseline", "tolerance"], &["write-baseline"]);
    if let Some(stray) = args.names.first() {
        args.die(&format!("unexpected argument {stray:?}"));
    }
    let path: String = args.get("baseline").unwrap_or("results/baseline.json".to_string());
    let write = args.flag("write-baseline");
    let tolerance: f64 = args.get("tolerance").unwrap_or(10.0);

    println!("# perf smoke: fixed-seed micro-benchmark matrix");
    let mut rep = Report::new("perf_smoke");
    // Kept for the failure path: anomaly citations name the regressed time
    // windows, the flight rings become the black-box dump.
    let mut citations: Vec<(String, Vec<String>)> = Vec::new();
    let mut flights: Vec<(String, Vec<(u32, FlightRecorder)>)> = Vec::new();
    for (name, setup) in matrix() {
        let r = run(&setup);
        println!(
            "{name:<18} {:>8.3} Mops  p99 {:>8.1} us  {:>6.0} B/op  {:>5.2} rtt/op",
            r.mops, r.p99_us, r.bytes_per_op, r.rtts_per_op
        );
        if !r.anomalies.is_empty() {
            citations.push((name.clone(), r.anomalies.iter().map(|a| a.cite()).collect()));
        }
        flights.push((name.clone(), r.flight.clone()));
        rep.add(&name, &r);
    }

    // Serving front end: the fig_serve point at the knee (gap 2000) through
    // chime-serve's simulated-socket mode. Gates the serve layer's
    // throughput and tail; shed/defer counters ride along for attribution.
    {
        const KEPT: [&str; 6] = ["mops", "p50_us", "p99_us", "served", "shed_frac", "deferred"];
        let study = serve_study(&SimConfig { seed: 42, ..serve_point(2_000) });
        let metric = |name: &str| study.metrics.iter().find(|(k, _)| k == name).expect("serve metric").1;
        let metrics = KEPT.map(|k| (k, metric(k)));
        let name = "serve/shed/32x64";
        println!(
            "{name:<18} {:>8.3} Mops  p99 {:>8.1} us  shed {:>5.3}",
            metric("mops"),
            metric("p99_us"),
            metric("shed_frac")
        );
        rep.add_custom(name, &metrics);
        let (timeline, anomalies) = study.timeline.as_ref().expect("serve runs carry a timeline");
        rep.attach_timeline(name, timeline, anomalies);
    }
    rep.finish();
    // The baseline carries each point's full flat metric map (schema 2): the
    // `gated` list picks out what the gate enforces, the rest feeds
    // regression attribution.
    let current: Vec<BenchPoint> = rep.points().to_vec();

    if write {
        let baseline = Baseline {
            tolerance_pct: tolerance,
            // The p99 model folds in a saturation tail factor that amplifies
            // small traffic shifts; give latency tails more headroom.
            metric_tolerance_pct: [("p99_us".to_string(), 2.0 * tolerance)]
                .into_iter()
                .collect(),
            gated: GATED.iter().map(|g| g.to_string()).collect(),
            points: current,
            ..Default::default()
        };
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create baseline dir");
            }
        }
        std::fs::write(&path, baseline.to_json()).expect("write baseline");
        println!("wrote baseline {path}");
        return;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            eprintln!("hint: generate one with `perf_smoke --write-baseline`");
            std::process::exit(1);
        }
    };
    let baseline = match Baseline::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: malformed baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = compare(&current, &baseline);
    println!(
        "\n# gate: {} comparisons against {path} (tolerance {}%)",
        report.compared, baseline.tolerance_pct
    );
    for (point, metric, pct) in &report.improvements {
        println!("improved: {point} / {metric} by {pct:.1}% — consider refreshing the baseline");
    }
    for v in &report.violations {
        eprintln!("REGRESSION: {v}");
    }
    for p in &report.missing_points {
        eprintln!("MISSING POINT: {p}");
    }
    if report.passed() {
        println!("perf smoke PASSED");
    } else {
        // Attribute the failure: diff the baseline's full metric maps
        // against the current run so the log says *why* (which phases,
        // which retry causes) and not just *what* regressed, and cite any
        // in-run anomalies so it also says *when*.
        eprint!("\n{}", explain("baseline", &baseline.points, "current", &current));
        eprint!("{}", cite_anomalies("current", &citations));
        // Dump the violating points' flight rings — the last N events per
        // client, the black box of the regressed runs.
        let breached: Vec<&str> = report
            .violations
            .iter()
            .map(|v: &obs::Violation| v.point.as_str())
            .collect();
        let dump_rings: Vec<(u32, &FlightRecorder)> = flights
            .iter()
            .filter(|(name, _)| breached.contains(&name.as_str()))
            .flat_map(|(_, rings)| rings.iter().map(|(id, r)| (*id, r)))
            .collect();
        if !dump_rings.is_empty() {
            let doc = obs::flight::dump_document("perf_smoke", "gate_breach", &dump_rings);
            match obs::flight::write_dump("perf_smoke", &doc) {
                Ok(path) => eprintln!("wrote flight dump {path}"),
                Err(e) => eprintln!("error: flight dump: {e}"),
            }
        }
        eprintln!(
            "\nperf smoke FAILED: {} violations, {} missing points",
            report.violations.len(),
            report.missing_points.len()
        );
        std::process::exit(1);
    }
}
