//! Engine behaviour: serial equivalence at K=1, round-trip overlap at K>1,
//! interleaving, determinism, lane-death isolation, the CQ depth a lane
//! reads, and the configured lane count; and the execution model: lanes
//! run on the caller's thread, on stacks as deep as a thread's, that a
//! backtrace can walk, and wait in virtual time for a local lock slot a
//! sibling lane holds.

mod common;

use std::sync::{Arc, Mutex};

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
    let cfg = EngineConfig { lanes: k };
    let bodies = (0..k).map(|_| reader(Arc::clone(&pool), ops)).collect();
    let net = *pool.net();
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    let qp = run.qp.clone();
    (run.into_results(), qp)
}

#[test]
#[should_panic(expected = "lane bodies must match the engine's lanes")]
fn a_lane_count_mismatch_panics() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 2 };
    let bodies = (0..3).map(|_| reader(Arc::clone(&pool), 1)).collect();
    Engine::new(cfg).run_client(*pool.net(), 1, bodies);
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
    let cfg = EngineConfig { lanes: 3 };
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
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
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
    let cfg = EngineConfig { lanes: 3 };
    // Each lane ends by reading the CQ depth; the longest lane (1) ends
    // last, after every sibling's WQE has been reaped.
    let then_depth = |body: LaneBody<(u64, u64)>| -> LaneBody<u64> {
        Box::new(move || {
            body();
            dmem::qp::lane_cq_depth()
        })
    };
    let mut bodies = vec![
        then_depth(reader(Arc::clone(&pool), 3)),
        then_depth(reader(Arc::clone(&pool), OPS)),
    ];
    let p = Arc::clone(&pool);
    bodies.push(then_depth(Box::new(move || {
        let mut ep = Endpoint::new(p);
        ep.advance_clock(5_000);
        let mut buf = [0u8; 8];
        ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut buf);
        (ep.clock_ns(), ep.stats().rtts)
    })));
    let net = *pool.net();
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    assert_eq!(run.qp.posted, 3 + OPS as u64 + 1);
    assert!(run.qp.depth_hist.max() >= 2, "completions overlapped");
    assert_eq!(run.into_results()[1], 0, "nothing left in the CQ");
}

#[test]
fn a_lane_reads_its_queue_pairs_depth() {
    // Lanes 0 and 1 post a read each and park; lane 2 starts next, at the
    // same virtual instant, with both completions still pending. After a
    // timer past them, its resume has expired them.
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 3 };
    let mut bodies: Vec<LaneBody<(u64, u64)>> =
        vec![reader(Arc::clone(&pool), 1), reader(Arc::clone(&pool), 1)];
    let p = Arc::clone(&pool);
    bodies.push(Box::new(move || {
        let mut ep = Endpoint::new(p);
        let beside_siblings = dmem::qp::lane_cq_depth();
        ep.advance_clock(1_000_000);
        (beside_siblings, dmem::qp::lane_cq_depth())
    }));
    let net = *pool.net();
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    let (beside_siblings, drained) = run.into_results()[2];
    assert!(
        beside_siblings >= 2,
        "siblings' WQEs are outstanding: {beside_siblings}"
    );
    assert_eq!(drained, 0, "completions behind the frontier are expired");
}

#[test]
fn lanes_progress_in_completion_order() {
    // Two lanes on different MNs: no doorbell sharing, but strict
    // earliest-completion scheduling still interleaves them 1:1.
    let pool = Pool::with_defaults(2, 1 << 20);
    let cfg = EngineConfig { lanes: 2 };
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
    let run = watchdog(move || Engine::new(cfg).run_client(net, 2, bodies));
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
    let cfg = EngineConfig { lanes: 2 };
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
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    let qp = run.qp.clone();
    assert_eq!(run.into_results(), [(1, 3), (1, 3)]);
    assert_eq!((qp.posted, qp.doorbells, qp.batched_wqes), (6, 2, 0));
    assert_eq!((qp.batch_hist.count(), qp.batch_hist.max()), (2, 3));
}

#[test]
fn symmetric_lanes_take_turns() {
    // Three lanes doing dependent reads on one MN, each logging
    // `(lane, step)` after every read.
    const STEPS: usize = 8;
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 3 };
    let log = Arc::new(Mutex::new(Vec::new()));
    let mk = |lane: usize| -> LaneBody<()> {
        let (pool, log) = (Arc::clone(&pool), Arc::clone(&log));
        Box::new(move || {
            let mut ep = Endpoint::new(pool);
            let mut buf = [0u8; 8];
            for step in 0..STEPS {
                ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut buf);
                log.lock().unwrap().push((lane, step));
            }
        })
    };
    let bodies = (0..3).map(mk).collect();
    let net = *pool.net();
    watchdog(move || Engine::new(cfg).run_client(net, 1, bodies)).into_results();
    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    assert_eq!(log.len(), 3 * STEPS);
    // Somewhere in the middle of lane 1's run another lane gets scheduled
    // between its steps.
    let pos: Vec<usize> = log
        .iter()
        .enumerate()
        .filter(|(_, &(l, s))| l == 1 && (2..=4).contains(&s))
        .map(|(i, _)| i)
        .collect();
    assert!(
        pos.windows(2).any(|w| w[1] != w[0] + 1),
        "expected interleaving, got {log:?}"
    );
}

/// `k` lane bodies that each run `f` on an endpoint of their own.
fn lanes_of<T: Send + 'static>(
    pool: &Arc<Pool>,
    k: usize,
    f: fn(&mut Endpoint) -> T,
) -> Vec<LaneBody<T>> {
    (0..k)
        .map(|_| {
            let pool = Arc::clone(pool);
            Box::new(move || f(&mut Endpoint::new(pool))) as LaneBody<T>
        })
        .collect()
}

/// Bytes of stack [`park_deep`] fills: over a mebibyte.
const DEEP_BYTES: usize = 5 << 18;

/// Fills [`DEEP_BYTES`] of the lane's stack with ones, parks on a read into
/// its first bytes while the sibling lanes run, then counts the pages whose
/// first byte still reads one.
#[inline(never)]
fn park_deep(ep: &mut Endpoint) -> usize {
    let mut deep = [1u8; DEEP_BYTES];
    std::hint::black_box(&mut deep);
    ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut deep[..8]);
    std::hint::black_box(&deep)
        .iter()
        .step_by(4096)
        .filter(|&&b| b == 1)
        .count()
}

#[test]
fn lanes_run_on_the_callers_thread() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 4 };
    let bodies = lanes_of(&pool, 4, |ep| {
        ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut [0u8; 8]);
        std::thread::current().id()
    });
    let net = *pool.net();
    let (caller, lanes) = watchdog(move || {
        let caller = std::thread::current().id();
        (caller, Engine::new(cfg).run_client(net, 1, bodies).into_results())
    });
    assert_eq!(lanes, vec![caller; 4]);
}

#[test]
fn a_lane_may_use_a_mebibyte_of_stack() {
    // Both lanes park with over 1 MiB of their stacks in use, and find it
    // intact when they resume.
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 2 };
    let bodies = lanes_of(&pool, 2, park_deep);
    let net = *pool.net();
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    // The read overwrote the first page's first byte with the pool's zeroes.
    assert_eq!(run.into_results(), vec![DEEP_BYTES / 4096 - 1; 2]);
}

/// A frame a lane's backtrace must show.
#[inline(never)]
fn backtrace_from_a_lane(ep: &mut Endpoint) -> String {
    ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut [0u8; 8]);
    std::hint::black_box(std::backtrace::Backtrace::force_capture().to_string())
}

#[test]
fn a_backtrace_taken_on_a_lane_ends_at_its_stack() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 2 };
    let bodies = lanes_of(&pool, 2, backtrace_from_a_lane);
    let net = *pool.net();
    let run = watchdog(move || Engine::new(cfg).run_client(net, 1, bodies));
    for trace in run.into_results() {
        assert!(
            trace.contains("backtrace_from_a_lane"),
            "the lane's own frame is in its backtrace:\n{trace}"
        );
    }
}

#[test]
fn a_lane_waits_in_virtual_time_for_a_local_slot_its_sibling_holds() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let cfg = EngineConfig { lanes: 2 };
    let net = *pool.net();
    let [(taken0, released), (taken1, _)]: [(u64, u64); 2] = watchdog(move || {
        // The table belongs to the thread that runs its lanes.
        let table = Arc::new(dmem::LocalLockTable::new());
        let bodies: Vec<LaneBody<(u64, u64)>> = (0..2)
            .map(|_| {
                let (pool, table) = (Arc::clone(&pool), Arc::clone(&table));
                Box::new(move || {
                    let mut ep = Endpoint::new(pool);
                    let slot = table.acquire_with(RESERVED_BYTES, &mut ep);
                    let taken = ep.clock_ns();
                    // Hold the slot across a parked read.
                    ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut [0u8; 8]);
                    drop(slot);
                    (taken, ep.clock_ns())
                }) as LaneBody<(u64, u64)>
            })
            .collect();
        Engine::new(cfg).run_client(net, 1, bodies).into_results()
    })
    .try_into()
    .unwrap();
    assert_eq!(taken0, 0, "the first lane takes a free slot at once");
    assert!(released > 0, "the first lane holds the slot across a round trip");
    assert!(
        taken1 >= released,
        "the second lane took the slot at {taken1} ns, before its release at {released} ns"
    );
}
