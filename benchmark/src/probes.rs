//! Host probes (**P** metrics): timed single-thread loops in the harness
//! around one public function of a layer. Each probe runs at least ten
//! batches and reports the median batch's nanoseconds per call, plus
//! allocations per call from the harness binary's counting allocator.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use obs::{FlightKind, FlightRecorder, TimeSeries, Tracer};
use sched::{Engine, EngineConfig, LaneBody};
use serve::proto::{Decoder, Request, Response};
use serve::Admission;
use ycsb::{KeySpace, OpGen, Workload, WorkloadState};

use crate::alloc::thread_allocs;
use crate::stats::median;
use crate::workloads::{PRELOAD, UPDATE_BYTE, VALUE_SIZE};
use crate::Metrics;

/// Batches per probe.
pub const BATCHES: usize = 10;
/// Calls per batch for sub-microsecond functions (10 x 10 000 = 10^5 calls).
pub const FAST_CALLS: usize = 10_000;
/// Calls per batch for inserts and scans, which cost tens of microseconds.
pub const SLOW_CALLS: usize = 2_000;

/// What one probe measured.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median over batches of host nanoseconds per call.
    pub host_ns: f64,
    /// Allocations per call over all batches.
    pub allocs: f64,
}

/// Times `batches` batches of `calls` calls of `f` after one untimed batch.
pub fn probe(batches: usize, calls: usize, mut f: impl FnMut()) -> Probe {
    for _ in 0..calls {
        f();
    }
    let mut per_call = Vec::with_capacity(batches);
    let a0 = thread_allocs();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    let allocs = (thread_allocs() - a0) as f64 / (batches * calls) as f64;
    Probe {
        host_ns: median(&per_call),
        allocs,
    }
}

fn put(m: &mut Metrics, stem: &str, p: Probe, with_allocs: bool) {
    m.insert(format!("{stem}.host_ns"), p.host_ns);
    if with_allocs {
        m.insert(format!("{stem}.allocs"), p.allocs);
    }
}

/// `ycsb.next_op.*`: the generator of the workload's own mix and skew.
pub fn ycsb(m: &mut Metrics, mix: Workload, theta: f64, seed: u64) {
    let mut gen = OpGen::with_theta(mix, WorkloadState::new(PRELOAD), seed, theta);
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(gen.next_op());
    });
    put(m, "ycsb.next_op", p, true);
}

/// Existing keys drawn with the workload's skew, generated before timing.
fn keys(theta: f64, seed: u64, n: usize) -> Vec<u64> {
    let mut gen = OpGen::with_theta(Workload::C, WorkloadState::new(PRELOAD), seed, theta);
    (0..n).map(|_| gen.next_op().key()).collect()
}

/// `core.*`: direct `RangeIndex` calls on one client of the deployed tree.
pub fn core(m: &mut Metrics, client: &mut dyn RangeIndex, theta: f64, seed: u64) {
    let value = [UPDATE_BYTE; VALUE_SIZE];
    let hot = keys(theta, seed, FAST_CALLS);
    let mut i = 0usize;
    let mut next_key = move || {
        i = (i + 1) % hot.len();
        hot[i]
    };
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(client.search(next_key()));
    });
    put(m, "core.search", p, true);
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(client.update(next_key(), &value).expect("update"));
    });
    put(m, "core.update", p, true);
    // Fresh keys far beyond any sequence number a workload inserts.
    let mut seq = 1u64 << 40;
    let p = probe(BATCHES, SLOW_CALLS, || {
        seq += 1;
        client.insert(KeySpace::key(seq), &value).expect("insert");
    });
    put(m, "core.insert", p, true);
    let mut rows = Vec::new();
    let mut returned = 0u64;
    let mut calls = 0u64;
    let p = probe(BATCHES, SLOW_CALLS, || {
        rows.clear();
        // 50 rows: the mean of YCSB-E's uniform 1..=100.
        client.scan(next_key(), 50, &mut rows);
        returned += rows.len() as u64;
        calls += 1;
    });
    put(m, "core.scan", p, true);
    m.insert(
        "core.scan.rows_per_call".into(),
        returned as f64 / calls as f64,
    );
}

/// `dmem.*.host_ns`: single verbs and one H = 8 neighborhood fetch on a
/// private pool.
pub fn dmem_verbs(m: &mut Metrics) {
    let pool = Pool::with_defaults(1, 16 << 20);
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let mut buf = [0u8; 64];
    let p = probe(BATCHES, FAST_CALLS, || ep.read(addr, black_box(&mut buf)));
    put(m, "dmem.read_64B", p, false);
    let p = probe(BATCHES, FAST_CALLS, || ep.write(addr, black_box(&buf)));
    put(m, "dmem.write_64B", p, false);
    // Alternately take and release bit 0, so every call succeeds.
    ep.write(addr, &0u64.to_le_bytes());
    let mut held = 0u64;
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(ep.masked_cas(addr, held, 1, held ^ 1, 1));
        held ^= 1;
    });
    put(m, "dmem.masked_cas", p, false);
    // A leaf of the default geometry, and the one range a neighborhood read
    // of a replica-aligned home entry fetches.
    let leaf = chime::tree::leaf_layout(&chime::ChimeConfig::default());
    let layout = leaf.versioned();
    layout.write(&mut ep, addr, 0, &vec![7u8; layout.payload_len()], |_| 0);
    let (lstart, lend) = leaf.neighborhood_ranges(leaf.h)[0];
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(layout.fetch(&mut ep, addr, lstart, lend));
    });
    put(m, "dmem.read_neighborhood", p, false);
}

/// `obs.*.host_ns`: one call into each always-on sink and into the tracer.
pub fn obs_sinks(m: &mut Metrics) {
    let mut series = TimeSeries::default();
    let mut t = 0u64;
    let p = probe(BATCHES, FAST_CALLS, || {
        t += 2_500;
        series.record_op(t, 2_500, true);
    });
    put(m, "obs.timeseries.record_op", p, false);
    let mut flight = FlightRecorder::default();
    let p = probe(BATCHES, FAST_CALLS, || {
        t += 2_500;
        flight.push(
            t,
            FlightKind::OpEnd {
                ok: true,
                dur_ns: 2_500,
            },
        );
    });
    put(m, "obs.flight.push", p, false);
    let mut tracer = Tracer::new(0, 1 << 16);
    let p = probe(BATCHES, FAST_CALLS, || {
        t += 2_500;
        tracer.verb(t, 2_500, "read", 0, 4096, 112, 1);
    });
    put(m, "obs.tracer.verb", p, false);
}

/// `sched.lane_switch.host_ns`: two lanes that only advance virtual time,
/// so every advance hands the client to the other lane.
pub fn lane_switch(m: &mut Metrics) {
    const ADVANCES: usize = 2_500;
    let engine = Engine::new(EngineConfig {
        lanes: 2,
        ..EngineConfig::default()
    });
    let pool = Pool::with_defaults(1, 1 << 20);
    let mut per_switch = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let bodies: Vec<LaneBody<()>> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let mut ep = Endpoint::new(pool);
                    for _ in 0..ADVANCES {
                        ep.advance_clock(100);
                    }
                }) as LaneBody<()>
            })
            .collect();
        let t = Instant::now();
        engine.run_client(*pool.net(), 1, bodies).into_results();
        per_switch.push(t.elapsed().as_nanos() as f64 / (2 * ADVANCES) as f64);
    }
    m.insert("sched.lane_switch.host_ns".into(), median(&per_switch));
}

/// `serve.*`: the protocol codec, the command executor on a tree client,
/// and the admission gate.
pub fn serve_stack(m: &mut Metrics, client: &mut dyn RangeIndex, theta: f64, seed: u64) {
    let hot = keys(theta, seed ^ 1, FAST_CALLS);
    let frames: Vec<Vec<u8>> = hot
        .iter()
        .map(|&k| {
            let mut f = Vec::new();
            Request::Get(k).encode(&mut f);
            f
        })
        .collect();
    let mut i = 0usize;
    let mut decoder = Decoder::new();
    let p = probe(BATCHES, FAST_CALLS, || {
        i = (i + 1) % frames.len();
        decoder.feed(&frames[i]);
        black_box(decoder.try_next().expect("well-formed frame"));
    });
    put(m, "serve.proto.decode", p, true);
    let reply = Response::Value(vec![0u8; VALUE_SIZE]);
    let mut out = Vec::with_capacity(64);
    let p = probe(BATCHES, FAST_CALLS, || {
        out.clear();
        black_box(reply.encode(&mut out));
    });
    put(m, "serve.proto.encode", p, false);
    let p = probe(BATCHES, FAST_CALLS, || {
        i = (i + 1) % hot.len();
        black_box(serve::conn::execute(
            client,
            &Request::Get(hot[i]),
            VALUE_SIZE,
        ));
    });
    put(m, "serve.conn.execute", p, true);
    let gate = Admission::new(64);
    let p = probe(BATCHES, FAST_CALLS, || {
        black_box(gate.try_admit());
        gate.release();
    });
    put(m, "serve.admission.admit_release", p, false);
}
