//! Engine behaviour: serial equivalence at K=1, round-trip overlap at K>1,
//! determinism, lane-death isolation, and the configured lane count.

mod common;

use std::sync::Arc;

use common::watchdog;
use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool};
use sched::{Engine, EngineConfig, LaneBody};

const OPS: usize = 10;

/// A lane body: `ops` dependent 8-byte reads, returning the lane's final
/// virtual clock and charged round trips.
fn reader(pool: Arc<Pool>, ops: usize) -> LaneBody<(u64, u64)> {
    Box::new(move || {
        let mut ep = Endpoint::new(pool);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let mut buf = [0u8; 8];
        for _ in 0..ops {
            ep.read(addr, &mut buf);
        }
        (ep.clock_ns(), ep.stats().rtts)
    })
}

fn run(k: usize, ops: usize) -> (Vec<(u64, u64)>, dmem::QpStats) {
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: k });
    let bodies = (0..k).map(|_| reader(Arc::clone(&pool), ops)).collect();
    let net = *pool.net();
    let run = watchdog(move || engine.run_client(net, 1, bodies));
    let qp = run.qp.clone();
    (run.into_results(), qp)
}

#[test]
#[should_panic(expected = "lane bodies must match the engine's lanes")]
fn a_lane_count_mismatch_panics() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 2 });
    let bodies = (0..3).map(|_| reader(Arc::clone(&pool), 1)).collect();
    engine.run_client(*pool.net(), 1, bodies);
}

#[test]
fn one_lane_matches_serial_execution_exactly() {
    // Serial baseline: the same endpoint workload without any engine.
    let pool = Pool::with_defaults(1, 1 << 20);
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let mut buf = [0u8; 8];
    for _ in 0..OPS {
        ep.read(addr, &mut buf);
    }
    let serial = (ep.clock_ns(), ep.stats().rtts);

    let (lanes, qp) = run(1, OPS);
    assert_eq!(lanes.len(), 1);
    assert_eq!(lanes[0], serial, "K=1 must reproduce serial timing");
    assert_eq!(qp.doorbells, OPS as u64, "no batching across one lane");
    assert_eq!(qp.batched_wqes, 0);
}

#[test]
fn four_lanes_overlap_round_trips() {
    let (serial_lanes, _) = run(1, OPS);
    let serial_makespan = serial_lanes[0].0;

    let (lanes, qp) = run(4, OPS);
    let makespan = lanes.iter().map(|l| l.0).max().unwrap();
    // 4 lanes issue 4x the ops but overlap their RTTs (and share
    // doorbells), so the client finishes 4x the work in far less than 4x
    // (even 2x) the serial time.
    assert!(
        makespan < 2 * serial_makespan,
        "makespan {makespan} vs serial {serial_makespan}"
    );
    assert!(qp.batched_wqes > 0, "lanes posting together share doorbells");
    assert!(
        qp.doorbells < 4 * OPS as u64,
        "fewer doorbells than WQEs: {} of {}",
        qp.doorbells,
        4 * OPS
    );
    assert!(qp.depth_hist.max() >= 2, "CQ holds concurrent completions");
}

#[test]
fn identical_runs_are_identical() {
    for k in [1usize, 2, 4, 8] {
        let a = run(k, OPS);
        let b = run(k, OPS);
        assert_eq!(a.0, b.0, "lane results differ at K={k}");
        assert_eq!(a.1, b.1, "QP stats differ at K={k}");
    }
}

#[test]
fn a_dead_lane_does_not_poison_the_others() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 3 });
    let mut bodies: Vec<LaneBody<(u64, u64)>> = Vec::new();
    bodies.push(reader(Arc::clone(&pool), OPS));
    let p2 = Arc::clone(&pool);
    bodies.push(Box::new(move || {
        let mut ep = Endpoint::new(p2);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let mut buf = [0u8; 8];
        ep.read(addr, &mut buf);
        panic!("lane 1 dies mid-run");
    }));
    bodies.push(reader(Arc::clone(&pool), OPS));
    let net = *pool.net();
    let run = watchdog(move || engine.run_client(net, 1, bodies));
    assert!(run.lanes[0].is_ok());
    assert!(run.lanes[1].is_err(), "panic captured as the lane result");
    assert!(run.lanes[2].is_ok());
    let (clock, rtts) = *run.lanes[2].as_ref().unwrap();
    assert!(rtts as usize + run.qp.batched_wqes as usize >= OPS);
    assert!(clock > 0);
}

#[test]
fn every_posted_wqe_is_reaped_by_the_end_of_a_run() {
    // Lanes of different lengths, one of which also waits on a timer: the
    // scheduler polls every ticket it posts, so the CQ drains to empty.
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 3 });
    let mut bodies: Vec<LaneBody<(u64, u64)>> = vec![reader(Arc::clone(&pool), 3), reader(Arc::clone(&pool), OPS)];
    let p = Arc::clone(&pool);
    bodies.push(Box::new(move || {
        let mut ep = Endpoint::new(p);
        ep.advance_clock(5_000);
        let mut buf = [0u8; 8];
        ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut buf);
        (ep.clock_ns(), ep.stats().rtts)
    }));
    let gauge = sched::CqDepthGauge::new();
    let g = Arc::clone(&gauge);
    let net = *pool.net();
    let run = watchdog(move || engine.run_client_observed(net, 1, bodies, g));
    assert_eq!(run.qp.posted, 3 + OPS as u64 + 1);
    assert!(run.qp.depth_hist.max() >= 2, "completions overlapped");
    assert_eq!(gauge.depth(), 0, "nothing left in the CQ");
    assert_eq!(run.into_results().len(), 3);
}

#[test]
fn lanes_progress_in_completion_order() {
    // Two lanes on different MNs: no doorbell sharing, but strict
    // earliest-completion scheduling still interleaves them 1:1.
    let pool = Pool::with_defaults(2, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 2 });
    let mk = |mn: u16| -> LaneBody<(u64, u64)> {
        let pool = Arc::clone(&pool);
        Box::new(move || {
            let mut ep = Endpoint::new(pool);
            let addr = GlobalAddr::new(mn, RESERVED_BYTES);
            let mut buf = [0u8; 8];
            for _ in 0..OPS {
                ep.read(addr, &mut buf);
            }
            (ep.clock_ns(), ep.stats().rtts)
        })
    };
    let net = *pool.net();
    let bodies = vec![mk(0), mk(1)];
    let run = watchdog(move || engine.run_client(net, 2, bodies));
    let lanes = run.into_results();
    assert_eq!(lanes[0], lanes[1], "symmetric lanes end identically");
}

#[test]
fn a_masked_cas_with_reads_is_one_doorbell() {
    // Two lanes lock a leaf each and read two ranges of it behind the CAS;
    // the second lane starts a microsecond later, outside the first's
    // batching window. Each lane's three work requests ring one doorbell
    // and cost one round trip.
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 2 });
    let mk = |lane: u64| -> LaneBody<(u64, u64)> {
        let pool = Arc::clone(&pool);
        Box::new(move || {
            let mut ep = Endpoint::new(pool);
            ep.advance_clock(lane * 1_000);
            let node = GlobalAddr::new(0, RESERVED_BYTES + lane * 512);
            let (mut a, mut b) = ([0u8; 64], [0u8; 32]);
            let reads = &mut [(node, &mut a[..]), (node.add(256), &mut b[..])];
            #[allow(clippy::disallowed_methods, reason = "tests the verb's doorbell")]
            let old = ep.masked_cas_read(node.add(448), 0, 1, 1, 1, reads);
            assert_eq!(old & 1, 0, "lane {lane} won its lock");
            (ep.stats().rtts, ep.stats().msgs)
        })
    };
    let net = *pool.net();
    let bodies = vec![mk(0), mk(1)];
    let run = watchdog(move || engine.run_client(net, 1, bodies));
    let qp = run.qp.clone();
    assert_eq!(run.into_results(), [(1, 3), (1, 3)]);
    assert_eq!((qp.posted, qp.doorbells, qp.batched_wqes), (6, 2, 0));
    assert_eq!((qp.batch_hist.count(), qp.batch_hist.max()), (2, 3));
}
