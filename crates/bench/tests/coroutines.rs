//! Coroutine-engine acceptance: a pipelined run is as reproducible as a
//! serial one. For identical seeds, every lane count K must export
//! byte-identical bench report JSON and byte-identical per-lane trace
//! JSONL — the discrete-event scheduler admits exactly one interleaving
//! per (seed, K).

use bench::driver::{run, BenchSetup, IndexKind};
use bench::report::Report;
use dmem::RangeIndex;
use sched::{Engine, EngineConfig, LaneBody};
use ycsb::Workload;

const KS: [usize; 4] = [1, 2, 4, 8];

fn setup(k: usize, workload: Workload) -> BenchSetup {
    BenchSetup {
        kind: IndexKind::Chime(chime::ChimeConfig::default()),
        num_cns: 2,
        num_mns: 2,
        clients: 8,
        coroutines: k,
        preload: 3_000,
        ops: 2_000,
        mn_capacity: 256 << 20,
        workload,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn bench_reports_are_byte_identical_per_seed_at_every_k() {
    for k in KS {
        let r1 = run(&setup(k, Workload::C));
        let r2 = run(&setup(k, Workload::C));
        assert_eq!(
            r1.metrics.to_json(),
            r2.metrics.to_json(),
            "metrics snapshot diverged at K={k}"
        );
        let mut rep1 = Report::new("coroutines");
        let mut rep2 = Report::new("coroutines");
        rep1.add(&format!("chime/c/8/k{k}"), &r1);
        rep2.add(&format!("chime/c/8/k{k}"), &r2);
        assert_eq!(
            rep1.to_json(),
            rep2.to_json(),
            "bench report JSON diverged at K={k}"
        );
    }
}

#[test]
fn write_workload_reports_are_byte_identical_when_pipelined() {
    // Workload A adds lock acquisition, local-lock queueing, and retry
    // backoff to the interleaving; determinism must survive all of it.
    let r1 = run(&setup(4, Workload::A));
    let r2 = run(&setup(4, Workload::A));
    assert_eq!(r1.metrics.to_json(), r2.metrics.to_json());
    assert_eq!(r1.mn_traffic, r2.mn_traffic);
}

/// Runs K traced CHIME clients as lanes of one engine client and returns
/// each lane's trace JSONL.
fn lane_traces(k: usize) -> Vec<String> {
    let pool = dmem::Pool::with_defaults(1, 128 << 20);
    let tree = chime::Chime::create(&pool, chime::ChimeConfig::default(), 0);
    let cn = tree.new_cn();
    let mut loader = tree.client(&cn);
    for seq in 0..300u64 {
        loader.insert(ycsb::KeySpace::key(seq), &seq.to_le_bytes()).unwrap();
    }
    let engine = Engine::new(EngineConfig { lanes: k });
    let bodies: Vec<LaneBody<String>> = (0..k)
        .map(|l| {
            let mut c = tree.client(&cn);
            c.set_tracer(obs::Tracer::new(0, 1 << 14));
            Box::new(move || {
                for i in 0..200u64 {
                    let key = ycsb::KeySpace::key((l as u64 * 997 + i * 13) % 300);
                    assert!(c.search(key).is_some());
                }
                c.take_tracer().unwrap().to_jsonl()
            }) as LaneBody<String>
        })
        .collect();
    let net = *pool.net();
    engine.run_client(net, 1, bodies).into_results()
}

#[test]
fn lane_trace_jsonl_is_byte_identical_per_seed_at_every_k() {
    for k in KS {
        let a = lane_traces(k);
        let b = lane_traces(k);
        assert!(a.iter().all(|t| !t.is_empty()));
        assert_eq!(a, b, "lane trace JSONL diverged at K={k}");
    }
}
