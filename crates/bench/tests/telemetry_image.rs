//! Golden images of the telemetry the endpoint records.
//!
//! Seeded CHIME YCSB-A runs with two traced clients, at K = 1 and K = 4
//! coroutine lanes, once without faults and once with a probabilistic
//! `Delay` rule (so a verb's trace slice starts before its injected delay
//! while the time series places it after). Each run's exported artifacts —
//! the tracers' JSONL, the Perfetto document, the merged time series with
//! its anomalies, every client's flight ring and, for the bench-driver runs,
//! the flat metrics — are pinned by FNV-1a hashes. A change to how the
//! endpoint records an observation (a moved timestamp, a lost or doubled
//! event, a reordered ring) changes a constant below.

use std::collections::BTreeMap;
use std::sync::Arc;

use bench::driver::{deploy, run_deployed, BenchSetup, IndexKind};
use bench::report::Report;
use chime::{Chime, ChimeClient, ChimeConfig};
use dmem::{Endpoint, FaultAction, FaultPlan, FaultRule, FaultSession, Pool, RangeIndex};
use obs::{Event, TimeSeries, Tracer};
use sched::{Engine, EngineConfig, LaneBody};
use serve::sim::{run_sim, SimConfig};
use ycsb::{KeySpace, Op, OpGen, Workload, WorkloadState};

const PRELOAD: u64 = 2_000;
const CLIENTS: usize = 4;
const TRACED: usize = 2;
const OPS_PER_CLIENT: u64 = 300;
const SEED: u64 = 11;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// One line per flight event, then the ring's drop count.
fn flight_text(ep: &Endpoint) -> String {
    let flight = &ep.sink().flight;
    let mut s = String::new();
    for e in flight.iter() {
        let line = match &e.kind {
            Event::OpBegin { op, key, trace } => format!("op_begin {op} {key} {trace}"),
            Event::OpEnd { ok, dur_ns } => format!("op_end {ok} {dur_ns}"),
            Event::Retry { cause, op: true } => format!("retry {}", cause.as_str()),
            Event::Fault { action, label } => format!("fault {action} {label}"),
            Event::CrashPoint { label } => format!("crash {label}"),
            Event::Note { label } => format!("note {label}"),
            other => panic!("a flight ring keeps no {other:?}"),
        };
        s.push_str(&format!("{} {line}\n", e.t_ns));
    }
    s.push_str(&format!("dropped {}\n", flight.dropped()));
    s
}

fn series_text(ts: &TimeSeries) -> String {
    let anomalies = obs::detect(ts, 0);
    ts.to_json().to_pretty() + &obs::anomaly::to_json(&anomalies).to_pretty()
}

/// Runs `op` the way the bench driver does: a fresh trace id, then the op.
fn exec(c: &mut ChimeClient, op: Op, value: &[u8], trace: u64) {
    c.endpoint_mut().set_trace_id(trace);
    match op {
        Op::Read(k) => {
            let _ = c.search(k);
        }
        Op::Update(k) => {
            let _ = c.update(k, value).unwrap();
        }
        Op::Insert(k) => c.insert(k, value).unwrap(),
        Op::Scan(k, n) => c.scan(k, n, &mut Vec::new()),
    }
}

/// The artifacts of one run, by name.
type Image = BTreeMap<&'static str, u64>;

/// A self-driven run with every client's endpoint on one fault session
/// (`Delay` on 5 % of verbs when `faulted`): `k` lanes per client, on the
/// coroutine engine when `k > 1`.
fn driven(k: usize, faulted: bool) -> Image {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Chime::create(&pool, ChimeConfig::default(), 0);
    let cn = tree.new_cn();
    let value = vec![0xCDu8; 8];
    let mut loader = tree.client(&cn);
    for seq in 0..PRELOAD {
        loader.insert(KeySpace::key(seq), &[0xAB; 8]).unwrap();
    }
    let mut plan = FaultPlan::seeded(SEED);
    if faulted {
        plan.rules.push(FaultRule {
            probability: 0.05,
            ..FaultRule::always("spike", None, FaultAction::Delay { ns: 20_000 })
        });
    }
    let session = Arc::new(FaultSession::new(plan));
    let state = WorkloadState::new(PRELOAD);
    let mut clients: Vec<ChimeClient> = (0..CLIENTS * k)
        .map(|id| {
            let mut ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), id as u32);
            ep.open_series();
            let mut c = tree.client_with_endpoint(&cn, ep);
            if id < TRACED * k {
                c.set_tracer(Tracer::new(id as u32, 1 << 16));
            }
            c
        })
        .collect();
    let gen = |id: usize| OpGen::new(Workload::A, Arc::clone(&state), SEED ^ id as u64);
    if k == 1 {
        let mut gens: Vec<OpGen> = (0..CLIENTS).map(gen).collect();
        for opno in 0..OPS_PER_CLIENT {
            for (id, c) in clients.iter_mut().enumerate() {
                exec(
                    c,
                    gens[id].next_op(),
                    &value,
                    ((id as u64 + 1) << 32) | opno,
                );
            }
        }
    } else {
        let engine = Engine::new(EngineConfig { lanes: k });
        let mut lanes = clients.into_iter().enumerate();
        let mut back = Vec::new();
        for _ in 0..CLIENTS {
            let bodies: Vec<LaneBody<ChimeClient>> = lanes
                .by_ref()
                .take(k)
                .map(|(id, mut c)| {
                    let mut g = gen(id);
                    let value = value.clone();
                    Box::new(move || {
                        for opno in 0..OPS_PER_CLIENT / k as u64 {
                            exec(&mut c, g.next_op(), &value, ((id as u64 + 1) << 32) | opno);
                        }
                        c
                    }) as LaneBody<ChimeClient>
                })
                .collect();
            let run = engine.run_client(*pool.net(), 1, bodies);
            back.extend(
                run.lanes
                    .into_iter()
                    .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))),
            );
        }
        clients = back;
    }
    let mut series = TimeSeries::default();
    let mut flight = String::new();
    for c in &mut clients {
        series.merge(&c.endpoint_mut().take_series());
        flight.push_str(&flight_text(c.endpoint()));
    }
    let tracers: Vec<Tracer> = clients.iter_mut().filter_map(|c| c.take_tracer()).collect();
    let jsonl: String = tracers.iter().map(Tracer::to_jsonl).collect();
    let perfetto = obs::to_perfetto(&tracers.iter().collect::<Vec<_>>());
    BTreeMap::from([
        ("jsonl", fnv(jsonl.as_bytes())),
        ("perfetto", fnv(perfetto.as_bytes())),
        ("series", fnv(series_text(&series).as_bytes())),
        ("flight", fnv(flight.as_bytes())),
    ])
}

/// A bench-driver run (RDWC off) of the same mix: its Perfetto document,
/// timeline with anomalies, flat metrics, and the flight ring of every
/// handle it deployed.
fn bench(k: usize) -> Image {
    let setup = BenchSetup {
        kind: IndexKind::Chime(ChimeConfig::default()),
        num_cns: 2,
        clients: 8,
        preload: PRELOAD,
        ops: 2_400,
        mn_capacity: 64 << 20,
        workload: Workload::A,
        rdwc: false,
        coroutines: k,
        trace_clients: TRACED,
        seed: SEED,
        ..BenchSetup::default()
    };
    let mut dep = deploy(&setup);
    let r = run_deployed(&setup, &mut dep);
    let flat: String = Report::flat_metrics(&r)
        .iter()
        .map(|(k, v)| format!("{k}={v:?}\n"))
        .collect();
    let flight: String = dep
        .cns
        .iter()
        .flatten()
        .map(|c| flight_text(c.endpoint()))
        .collect();
    BTreeMap::from([
        (
            "perfetto",
            fnv(r.perfetto.expect("traced clients").as_bytes()),
        ),
        ("series", fnv(series_text(&r.timeline).as_bytes())),
        ("flat", fnv(flat.as_bytes())),
        ("flight", fnv(flight.as_bytes())),
    ])
}

/// A serving simulation over the same fault rule: its trace JSONL and its
/// timeline, which carries the serve tier's shed, served and CQ-depth marks.
fn served() -> Image {
    let mut plan = FaultPlan::seeded(SEED);
    plan.rules.push(FaultRule {
        probability: 0.05,
        ..FaultRule::always("spike", None, FaultAction::Delay { ns: 20_000 })
    });
    let r = run_sim(&SimConfig {
        seed: SEED,
        conns: 32,
        cq_watermark: 4,
        mean_gap_ns: 2_000,
        trace_events: 1 << 12,
        faults: Some(plan),
        ..SimConfig::default()
    });
    assert!(
        r.shed > 0 && r.served > 0,
        "the run must both shed and serve"
    );
    BTreeMap::from([
        ("jsonl", fnv(r.trace_jsonl.as_bytes())),
        (
            "series",
            fnv((r.timeline.to_json().to_pretty()
                + &obs::anomaly::to_json(&r.anomalies).to_pretty())
                .as_bytes()),
        ),
    ])
}

fn check(name: &str, got: Image, want: &[(&'static str, u64)]) {
    let want: Image = want.iter().copied().collect();
    assert_eq!(got, want, "{name}: telemetry image moved (got {got:#x?})");
}

#[test]
fn driven_k1_image() {
    let want = [
        ("flight", 0xa6a1230a9b8d091a),
        ("jsonl", 0xde426e80a5657e59),
        ("perfetto", 0x57a29d4761f9eccb),
        ("series", 0x5b5b858babace59e),
    ];
    check("k1", driven(1, false), &want);
}

#[test]
fn driven_k1_delayed_image() {
    let want = [
        ("flight", 0x5840b88e83f8afcd),
        ("jsonl", 0x028daa2ffee2b475),
        ("perfetto", 0x73172543daf6f1c8),
        ("series", 0xb4fa3dec3065fe24),
    ];
    check("k1 delayed", driven(1, true), &want);
}

#[test]
fn driven_k4_image() {
    let want = [
        ("flight", 0x8c5e18ce035f2ded),
        ("jsonl", 0xf4bd9edba53382a4),
        ("perfetto", 0xfd7e7e5469a0476c),
        ("series", 0xc047aa589c153a14),
    ];
    check("k4", driven(4, false), &want);
}

#[test]
fn driven_k4_delayed_image() {
    let want = [
        ("flight", 0x7ce1e87f6aab2abb),
        ("jsonl", 0x278221e73857c42c),
        ("perfetto", 0x99189204b3602fac),
        ("series", 0x5236fb4c012bf8ff),
    ];
    check("k4 delayed", driven(4, true), &want);
}

#[test]
fn bench_k1_image() {
    let want = [
        ("flat", 0x140f3e09da236380),
        ("flight", 0xd00d6013e7a6a44c),
        ("perfetto", 0x418c33b1c01a7b93),
        ("series", 0x9a3427f8e9b17dae),
    ];
    check("bench k1", bench(1), &want);
}

#[test]
fn bench_k4_image() {
    let want = [
        ("flat", 0xda2987181661a195),
        ("flight", 0x966db36df36e95ab),
        ("perfetto", 0xfd7e7e5469a0476c),
        ("series", 0x298575579c5d3cd9),
    ];
    check("bench k4", bench(4), &want);
}

#[test]
fn served_image() {
    let want = [
        ("jsonl", 0x929c5a85f9b2f70e),
        ("series", 0x93c941863bb43de9),
    ];
    check("served", served(), &want);
}
