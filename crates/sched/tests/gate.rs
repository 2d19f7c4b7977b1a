//! LaneGate behaviour: the guarded section is atomic w.r.t. sibling lanes,
//! unspawned lanes are deferred while the gate is held, a crashed owner
//! releases its claim, and gated runs stay deterministic.

mod common;

use std::sync::{Arc, Mutex};

use common::watchdog;
use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool};
use sched::{Engine, EngineConfig, LaneBody, LaneGate};

const STEPS: usize = 8;

type StepLog = Arc<Mutex<Vec<(usize, usize)>>>;

/// A lane body doing `STEPS` dependent reads, logging `(lane, step)` after
/// each. If `span` is set, the lane holds the gate from just before the
/// read of `span.0` until just after the read of `span.1` (inclusive).
fn stepper(
    pool: Arc<Pool>,
    log: StepLog,
    gate: Arc<LaneGate>,
    lane: usize,
    span: Option<(usize, usize)>,
) -> LaneBody<u64> {
    Box::new(move || {
        let mut ep = Endpoint::new(pool);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let mut buf = [0u8; 8];
        for step in 0..STEPS {
            if span.is_some_and(|(a, _)| a == step) {
                gate.enter(lane);
            }
            ep.read(addr, &mut buf);
            log.lock().unwrap().push((lane, step));
            if span.is_some_and(|(_, b)| b == step) {
                gate.exit(lane);
            }
        }
        ep.clock_ns()
    })
}

fn run_steppers(owner: Option<(usize, (usize, usize))>) -> Vec<(usize, usize)> {
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 3 });
    let gate = LaneGate::new();
    let log: StepLog = Arc::new(Mutex::new(Vec::new()));
    let bodies = (0..3)
        .map(|lane| {
            let span = owner.and_then(|(o, s)| (o == lane).then_some(s));
            stepper(
                Arc::clone(&pool),
                Arc::clone(&log),
                Arc::clone(&gate),
                lane,
                span,
            )
        })
        .collect();
    let net = *pool.net();
    watchdog(move || engine.run_client_gated(net, 1, bodies, gate)).into_results();
    Arc::try_unwrap(log).unwrap().into_inner().unwrap()
}

/// Log positions of the owner's steps `lo..=hi`; the section is atomic iff
/// they are contiguous in the interleaved log.
fn span_positions(log: &[(usize, usize)], lane: usize, lo: usize, hi: usize) -> Vec<usize> {
    log.iter()
        .enumerate()
        .filter(|(_, &(l, s))| l == lane && (lo..=hi).contains(&s))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn ungated_lanes_interleave() {
    let log = run_steppers(None);
    assert_eq!(log.len(), 3 * STEPS);
    // Symmetric lanes on one MN take strict turns: somewhere in the middle
    // of lane 1's run another lane gets scheduled between its steps.
    let pos = span_positions(&log, 1, 2, 4);
    assert!(
        pos.windows(2).any(|w| w[1] != w[0] + 1),
        "expected interleaving without the gate, got {log:?}"
    );
}

#[test]
fn a_held_gate_makes_the_section_atomic() {
    let log = run_steppers(Some((1, (2, 4))));
    assert_eq!(log.len(), 3 * STEPS);
    let pos = span_positions(&log, 1, 2, 4);
    assert_eq!(pos.len(), 3);
    assert!(
        pos.windows(2).all(|w| w[1] == w[0] + 1),
        "gated steps of lane 1 must be contiguous, got {log:?}"
    );
}

#[test]
fn a_gate_held_at_start_defers_lane_spawns() {
    // Lane 0 holds the gate across its whole run: lanes 1 and 2 must not
    // even start (their first steps come after all of lane 0's).
    let log = run_steppers(Some((0, (0, STEPS - 1))));
    assert_eq!(log.len(), 3 * STEPS);
    assert!(
        log[..STEPS].iter().all(|&(l, _)| l == 0),
        "lane 0's gated run must fully precede the others, got {log:?}"
    );
}

#[test]
fn gated_runs_are_deterministic() {
    for owner in [None, Some((1, (2, 4))), Some((2, (1, 6)))] {
        let a = run_steppers(owner);
        let b = run_steppers(owner);
        assert_eq!(a, b, "gated schedule differs across identical runs");
    }
}

#[test]
fn a_crashed_owner_releases_the_gate() {
    let pool = Pool::with_defaults(1, 1 << 20);
    let engine = Engine::new(EngineConfig { lanes: 3 });
    let gate = LaneGate::new();
    let log: StepLog = Arc::new(Mutex::new(Vec::new()));
    let mut bodies: Vec<LaneBody<u64>> = Vec::new();
    bodies.push(stepper(
        Arc::clone(&pool),
        Arc::clone(&log),
        Arc::clone(&gate),
        0,
        None,
    ));
    let (p1, g1) = (Arc::clone(&pool), Arc::clone(&gate));
    bodies.push(Box::new(move || {
        let mut ep = Endpoint::new(p1);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let mut buf = [0u8; 8];
        ep.read(addr, &mut buf);
        g1.enter(1);
        ep.read(addr, &mut buf);
        panic!("owner dies inside the guarded section");
    }));
    bodies.push(stepper(
        Arc::clone(&pool),
        Arc::clone(&log),
        Arc::clone(&gate),
        2,
        None,
    ));
    let net = *pool.net();
    let run_gate = Arc::clone(&gate);
    let run = watchdog(move || engine.run_client_gated(net, 1, bodies, run_gate));
    assert!(run.lanes[0].is_ok());
    assert!(run.lanes[1].is_err(), "the owner's panic is its result");
    assert!(run.lanes[2].is_ok());
    assert_eq!(gate.owner(), None, "the dead owner's claim is cleared");
    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    assert_eq!(log.len(), 2 * STEPS, "survivor lanes finish all steps");
}
