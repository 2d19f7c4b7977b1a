//! Telemetry acceptance tests for the continuous-telemetry layer:
//!
//! * a seeded migration run's timeline shows the migration's
//!   lock → copy → publish interval;
//! * `to_perfetto()` exports valid Chrome trace-event JSON that is
//!   byte-identical across identical-seed runs;
//! * a fault-injected throughput cliff is flagged by the in-run anomaly
//!   detector at the window the timeline itself says collapsed, and
//!   `explain`'s citation loader reproduces the finding verbatim;
//! * a sweep that reuses one deployment gets timelines on the phase's own
//!   time base: no idle gap between clients that ran before and new ones.

use bench::driver::{deploy, run, run_deployed, BenchSetup};
use bench::figs::{chime, scaleout_setup, Scale};
use bench::explain::{cite_anomalies, load_citations};
use bench::report::Report;
use dmem::{FaultAction, FaultPlan, FaultRule};
use obs::AnomalyKind;
use serve::sim::{run_sim, OverloadPolicy, SimConfig};
use ycsb::Workload;

/// A reduced cut of `fig_scaleout`'s Zipfian-with-migration geometry:
/// small enough for a test, skewed enough that the rebalancer moves at
/// least one partition mid-run.
fn migrating_setup() -> BenchSetup {
    let cut = Scale { preload: 10_000, ops: 32_000 };
    scaleout_setup(4, ycsb::ZIPFIAN_CONSTANT, true, 64, cut)
}

#[test]
fn migration_run_timeline_shows_the_lock_copy_publish_interval() {
    let r = run(&migrating_setup());
    assert!(
        r.metrics.counter_value("migrate_migrations_total", &[]) >= 1,
        "the skewed run must migrate at least one partition"
    );
    // The windowed series carried ops and the migration left its event
    // markers in the same (virtual) time base.
    assert!(r.timeline.total_ops() > 0, "timeline must carry the measured ops");
    let find = |prefix: &str| {
        r.timeline
            .events()
            .iter()
            .find(|e| e.label.starts_with(prefix))
            .unwrap_or_else(|| panic!("timeline must record a {prefix} event"))
    };
    let locked = find("migrate.locked");
    let copied = find("migrate.copied");
    let published = find("migrate.published");
    assert!(
        locked.t_ns <= copied.t_ns && copied.t_ns <= published.t_ns,
        "lock→copy→publish must be a forward interval: {} / {} / {}",
        locked.t_ns,
        copied.t_ns,
        published.t_ns
    );
    // The interval lies inside the measured phase, not at the epoch.
    assert!(published.t_ns > 0);

    // The report embeds the same timeline and writes the standalone
    // timeline document (schema checked by report tests; here we check
    // the migration events survive the JSON round trip).
    let mut rep = Report::new("timeline_test");
    rep.add("part/zipf-mig", &r);
    let doc = rep.timeline_json();
    assert!(doc.contains("migrate.locked"), "timeline doc must carry the events");
    assert!(doc.contains("migrate.published"));
}

#[test]
fn a_reused_deployment_times_each_phase_from_its_start() {
    let setup = |clients: usize, ops: u64| BenchSetup {
        kind: chime(),
        num_cns: 2,
        clients,
        preload: 5_000,
        ops,
        mn_capacity: 256 << 20,
        workload: Workload::A,
        rdwc: false,
        seed: 3,
        ..Default::default()
    };
    let mut dep = deploy(&setup(64, 0));
    // 16 clients run ≈ 30 windows ahead of the 48 handles that are new to
    // the second point.
    let first = run_deployed(&setup(16, 16_000), &mut dep);
    assert!(first.timeline.windows().count() > 10);
    let r = run_deployed(&setup(64, 6_400), &mut dep);
    let ts = &r.timeline;
    assert_eq!(ts.total_ops(), r.metrics.counter_value("ops_total", &[]));
    assert_eq!(ts.total_ops(), 6_400);
    let ks: Vec<u64> = ts.windows().map(|(k, _)| k).collect();
    assert_eq!(ks.first(), Some(&0), "every client's phase starts at time 0");
    let idle: Vec<u64> = (0..=*ks.last().unwrap())
        .filter(|&k| ts.window(k).is_none_or(|w| w.ops == 0))
        .collect();
    assert!(idle.is_empty(), "idle windows {idle:?} in {ks:?}");
}

#[test]
fn identical_seeded_runs_export_identical_timelines() {
    let r1 = run(&migrating_setup());
    let r2 = run(&migrating_setup());
    assert_eq!(
        r1.timeline.to_json().to_pretty(),
        r2.timeline.to_json().to_pretty(),
        "timeline JSON must be byte-identical for a fixed seed"
    );
    assert_eq!(
        obs::anomaly::to_json(&r1.anomalies).to_pretty(),
        obs::anomaly::to_json(&r2.anomalies).to_pretty()
    );
}

#[test]
fn perfetto_export_is_valid_trace_event_json_and_deterministic() {
    let setup = BenchSetup {
        kind: chime(),
        num_cns: 2,
        num_mns: 1,
        clients: 8,
        preload: 3_000,
        ops: 2_000,
        mn_capacity: 256 << 20,
        workload: Workload::A,
        trace_clients: 2,
        seed: 7,
        ..Default::default()
    };
    let r1 = run(&setup);
    let doc = r1.perfetto.as_ref().expect("trace_clients > 0 must export Perfetto");
    let json = obs::json::parse(doc).expect("Perfetto export must parse as JSON");
    let events = json
        .get("traceEvents")
        .and_then(obs::Json::as_arr)
        .expect("Chrome trace-event format: top-level traceEvents array");
    assert!(!events.is_empty(), "traced clients must emit events");
    // Every record carries the mandatory trace-event fields, and the
    // non-metadata phases carry a numeric timestamp.
    let mut phases_seen = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(obs::Json::as_str).expect("ph field");
        assert!(ev.get("pid").and_then(obs::Json::as_f64).is_some());
        assert!(ev.get("tid").and_then(obs::Json::as_f64).is_some());
        if ph != "M" {
            assert!(ev.get("ts").and_then(obs::Json::as_f64).is_some(), "ph {ph} needs ts");
        }
        phases_seen.insert(ph.to_string());
    }
    // Track names for both traced clients, plus at least op slices.
    assert!(phases_seen.contains("M"), "thread_name metadata expected");
    assert!(
        phases_seen.contains("b") && phases_seen.contains("e"),
        "async op slices expected, saw {phases_seen:?}"
    );

    let r2 = run(&setup);
    assert_eq!(
        r1.perfetto, r2.perfetto,
        "Perfetto export must be byte-identical for a fixed seed"
    );
}

/// Serve-layer sim config with a mid-run stall: from per-connection verb
/// sequence 150 on (~0.8 ms in, around window 8 of the 100 µs grid),
/// every verb pays a 50 µs injected delay, collapsing the service rate
/// far below the open-loop offered load.
fn sim_cfg(faulted: bool) -> SimConfig {
    SimConfig {
        seed: 42,
        conns: 32,
        workers: 2,
        requests_per_conn: 512,
        mean_gap_ns: 8_000,
        cq_watermark: 64,
        policy: OverloadPolicy::Shed,
        faults: faulted.then(|| FaultPlan {
            seed: 42,
            rules: vec![FaultRule {
                label: "stall".to_string(),
                verb: None,
                client: None,
                probability: 1.0,
                after_seq: 150,
                max_fires: u64::MAX,
                action: FaultAction::Delay { ns: 50_000 },
            }],
            crashes: Vec::new(),
        }),
        ..SimConfig::default()
    }
}

#[test]
fn fault_injected_cliff_is_flagged_at_the_collapsed_window_and_cited() {
    // Control: the unfaulted run's only cliffs are the end-of-run drain
    // (connections finishing their request budgets), confined to the last
    // few windows of the timeline.
    let quiet = run_sim(&sim_cfg(false));
    let quiet_last = quiet.timeline.windows().map(|(k, _)| k).max().unwrap_or(0);
    for a in &quiet.anomalies {
        if a.kind == AnomalyKind::ThroughputCliff {
            assert!(
                a.window + 8 > quiet_last,
                "unfaulted control cliffs only in the drain tail, got window {} of {}",
                a.window,
                quiet_last
            );
        }
    }

    let r = run_sim(&sim_cfg(true));
    let cliffs: Vec<&obs::Anomaly> = r
        .anomalies
        .iter()
        .filter(|a| a.kind == AnomalyKind::ThroughputCliff)
        .collect();
    assert!(!cliffs.is_empty(), "injected stall must register as a throughput cliff");
    // The earliest cliff sits at the stall's onset — mid-run, far from
    // the drain tail the control run ends with.
    let onset = cliffs.iter().map(|c| c.window).min().unwrap();
    assert!(
        (6..=16).contains(&onset),
        "cliff must be flagged at the stall onset (~window 8), got {onset}"
    );

    // The detector must cite a window the timeline itself says collapsed:
    // ops strictly below 40% of the trailing 4-window mean (the detector's
    // default threshold), recomputed here from the raw series.
    let ts = &r.timeline;
    for c in &cliffs {
        let w = c.window;
        let cur = ts.window(w).map_or(0, |win| win.ops);
        let trailing: u64 = (w.saturating_sub(4)..w)
            .map(|p| ts.window(p).map_or(0, |win| win.ops))
            .sum();
        let mean = trailing as f64 / 4.0;
        assert!(
            mean >= 16.0 && (cur as f64) < 0.4 * mean,
            "cited window {w} must actually be a cliff: {cur} ops vs mean {mean:.1}"
        );
        assert_eq!(c.t_start_ns, w * ts.window_ns(), "citation anchors the window");
    }

    // The explain pipeline reproduces the findings verbatim from the
    // on-disk timeline document.
    let mut rep = Report::new("timeline_cliff");
    rep.add_custom("serve/stall", &[("served", r.served as f64)]);
    rep.attach_timeline("serve/stall", &r.timeline, &r.anomalies);
    let loaded = load_citations(&rep.timeline_json()).expect("timeline doc parses");
    let expected: Vec<String> = r.anomalies.iter().map(|a| a.cite()).collect();
    assert_eq!(loaded, vec![("serve/stall".to_string(), expected)]);
    let rendered = cite_anomalies("current", &loaded);
    let first_cliff = cliffs[0];
    assert!(
        rendered.contains(&format!("at window {}", first_cliff.window)),
        "explain output must cite the collapsed window:\n{rendered}"
    );
}
