//! Determinism acceptance tests: two identical seeded runs must produce
//! byte-identical exported artifacts — the metrics snapshot JSON, the
//! Prometheus text, the bench report JSON, and the span/event trace JSONL.

use bench::driver::{run, BenchSetup, IndexKind};
use bench::report::Report;
use dmem::RangeIndex;
use ycsb::Workload;

fn tiny(workload: Workload) -> BenchSetup {
    BenchSetup {
        kind: IndexKind::Chime(chime::ChimeConfig::default()),
        num_cns: 2,
        num_mns: 2,
        clients: 8,
        preload: 3_000,
        ops: 2_000,
        mn_capacity: 256 << 20,
        workload,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn identical_seeded_runs_export_identical_metrics_json() {
    for w in [Workload::C, Workload::A] {
        let r1 = run(&tiny(w));
        let r2 = run(&tiny(w));
        assert_eq!(
            r1.metrics.to_json(),
            r2.metrics.to_json(),
            "snapshot JSON diverged on {w:?}"
        );
        assert_eq!(r1.metrics.to_prometheus(), r2.metrics.to_prometheus());
        assert_eq!(r1.mn_traffic, r2.mn_traffic);
        // The snapshot is non-trivial: verbs flowed and per-MN accounting
        // covers the whole pool.
        assert!(r1.metrics.counter_sum("client_reads_total") > 0);
        assert_eq!(r1.mn_traffic.len(), 2);
        assert!(r1.mn_traffic.iter().map(|&(msgs, _)| msgs).sum::<u64>() > 0);
        // Schema-2 attribution: the phase breakdown, per-op-type latency
        // percentiles and retry root causes ride in the same snapshot.
        assert!(r1.metrics.counter_value("phase_ns_total", &[("phase", "traversal")]) > 0);
        assert!(r1.metrics.counter_value("phase_rtts_total", &[("phase", "leaf_read")]) > 0);
        let read_lat = r1
            .metrics
            .histogram_value("op_latency", &[("op", "read")])
            .expect("per-op-type histogram");
        assert!(read_lat.count > 0 && read_lat.p50_ns <= read_lat.p90_ns);
        assert!(read_lat.p90_ns <= read_lat.p99_ns && read_lat.p99_ns <= read_lat.max_ns);
        // Retry-cause counters exist for the full taxonomy (zeros included).
        for cause in obs::RetryCause::ALL {
            let _ = r1
                .metrics
                .counter_value("retry_cause_total", &[("cause", cause.as_str())]);
        }
        // ClientStats fault/retry/reclaim counters surface in the snapshot.
        for c in [
            "client_torn_reads_detected_total",
            "client_lock_retries_total",
            "client_op_retries_total",
            "client_stale_locks_reclaimed_total",
            "client_faults_injected_total",
        ] {
            assert!(
                r1.metrics.to_json().contains(c),
                "snapshot must carry {c}"
            );
        }
    }
}

#[test]
fn identical_seeded_runs_export_identical_bench_reports() {
    let r1 = run(&tiny(Workload::B));
    let r2 = run(&tiny(Workload::B));
    let mut rep1 = Report::new("determinism");
    let mut rep2 = Report::new("determinism");
    rep1.add("chime/b/8", &r1);
    rep2.add("chime/b/8", &r2);
    assert_eq!(rep1.to_json(), rep2.to_json());
}

/// Hotspot-buffer coverage: a Zipfian read workload drives speculative
/// reads, whose hit/miss counters and `speculative_read` phase spans are
/// deterministic — two identical seeded runs export byte-identical trace
/// JSONL including the phase events.
#[test]
fn zipfian_speculative_reads_profile_deterministically() {
    let run_once = || {
        let pool = dmem::Pool::with_defaults(1, 256 << 20);
        let cfg = chime::ChimeConfig::default();
        assert!(cfg.hotspot_bytes > 0, "the default runs speculative reads");
        let t = chime::Chime::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        c.set_tracer(obs::Tracer::new(0, 1 << 16));
        for seq in 0..2_000u64 {
            c.insert(ycsb::KeySpace::key(seq), &seq.to_le_bytes()).unwrap();
        }
        let state = ycsb::WorkloadState::new(2_000);
        let mut gen = ycsb::OpGen::new(Workload::C, state, 99);
        for _ in 0..4_000 {
            let ycsb::Op::Read(k) = gen.next_op() else {
                panic!("workload C is read-only")
            };
            let _ = c.search(k);
        }
        let (attempts, hits) = (c.counters.spec_attempts, c.counters.spec_hits);
        let episodes = c.profile().unwrap().phase(obs::Phase::SpeculativeRead).episodes;
        let jsonl = c.take_tracer().unwrap().to_jsonl();
        (attempts, hits, episodes, jsonl)
    };
    let (attempts, hits, episodes, jsonl) = run_once();
    assert!(attempts > 0, "Zipfian reads must attempt speculative reads");
    assert!(hits > 0, "hot keys must hit the hotspot buffer");
    assert!(hits <= attempts);
    // Every speculative attempt opens exactly one speculative_read episode.
    assert_eq!(episodes, attempts);
    assert!(
        jsonl.contains("\"ev\":\"phase_begin\",\"phase\":\"speculative_read\""),
        "trace must carry speculative_read phase spans"
    );
    let again = run_once();
    assert_eq!((attempts, hits, episodes, &jsonl), (again.0, again.1, again.2, &again.3));
}

#[test]
fn identical_seeded_workloads_export_identical_trace_jsonl() {
    let trace = || {
        let pool = dmem::Pool::with_defaults(2, 128 << 20);
        let t = chime::Chime::create(&pool, chime::ChimeConfig::default(), 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        c.set_tracer(obs::Tracer::new(0, 1 << 16));
        for seq in 0..500u64 {
            c.insert(ycsb::KeySpace::key(seq), &seq.to_le_bytes()).unwrap();
        }
        for seq in 0..500u64 {
            assert!(c.search(ycsb::KeySpace::key(seq * 7 % 500)).is_some());
        }
        c.take_tracer().unwrap().to_jsonl()
    };
    let a = trace();
    let b = trace();
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace JSONL diverged between identical seeded runs");
}
