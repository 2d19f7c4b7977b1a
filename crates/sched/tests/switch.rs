//! Lane switching: how many lane-to-lane switches a run makes, that a dying
//! lane still hands control on, and that the resume order of a seeded random
//! lane program does not move (`golden/resume_order.txt`: the
//! earliest-completion order, recorded by the engine that still carried
//! a lane gate).

mod common;
mod program;

use std::sync::Arc;

use common::watchdog;
use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool};
use sched::{ClientRun, Engine, EngineConfig, LaneBody};

fn engine(lanes: usize) -> Engine {
    Engine::new(EngineConfig { lanes })
}

/// Runs the random program on `k` lanes: the resume-order log and the run.
fn run_program(k: usize) -> (Vec<usize>, ClientRun<u64>) {
    watchdog(move || program::run(&engine(k), k))
}

#[test]
fn resume_order_matches_the_channel_engine() {
    let golden = include_str!("golden/resume_order.txt");
    let mut got = String::new();
    for k in program::LANES {
        let (log, run) = run_program(k);
        let parks = log.len() as u64;
        assert!(
            run.handoffs <= parks + 2 * k as u64,
            "K={k}: {} handoffs for {parks} parks",
            run.handoffs
        );
        got.push_str(&program::golden_lines(k, &log, run.into_results()));
    }
    assert_eq!(got, golden, "resume order or lane clocks moved");
}

#[test]
fn one_lane_never_switches_threads() {
    let (log, run) = run_program(1);
    assert!(log.len() >= program::STEPS);
    assert_eq!(run.handoffs, 0, "K=1 resumes itself at every park");
}

#[test]
fn timer_ping_pong_hands_off_once_per_advance() {
    const ADVANCES: u64 = 500;
    let run = watchdog(|| {
        let pool = Pool::with_defaults(1, 1 << 20);
        let bodies: Vec<LaneBody<u64>> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let mut ep = Endpoint::new(pool);
                    for _ in 0..ADVANCES {
                        ep.advance_clock(100);
                    }
                    ep.clock_ns()
                }) as LaneBody<u64>
            })
            .collect();
        engine(2).run_client(*pool.net(), 1, bodies)
    });
    // Two lanes in lock step: at every park the other lane's wake-up is the
    // earlier one (lane 0 wins ties), so each of the 2 x ADVANCES parks
    // switches lanes, and lane 0 finishing hands on to lane 1 once more.
    assert_eq!(run.handoffs, 2 * ADVANCES + 1);
    assert_eq!(run.into_results(), vec![100 * ADVANCES; 2]);
}

#[test]
fn a_lane_dying_before_its_first_park_hands_control_on() {
    const OPS: u64 = 10;
    let run = watchdog(|| {
        let pool = Pool::with_defaults(1, 1 << 20);
        let mut bodies: Vec<LaneBody<u64>> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let mut ep = Endpoint::new(pool);
                    let mut buf = [0u8; 8];
                    for _ in 0..OPS {
                        ep.read(GlobalAddr::new(0, RESERVED_BYTES), &mut buf);
                    }
                    ep.stats().msgs
                }) as LaneBody<u64>
            })
            .collect();
        // Lanes 0-2 are parked on their first read when lane 3 starts and
        // dies where its first verb would be.
        bodies.push(Box::new(|| panic!("lane 3 dies at its first verb")));
        engine(4).run_client(*pool.net(), 1, bodies)
    });
    assert_eq!(run.lanes.len(), 4);
    for lane in &run.lanes[..3] {
        assert_eq!(*lane.as_ref().expect("sibling survives"), OPS);
    }
    let payload = run.lanes[3]
        .as_ref()
        .expect_err("the panic is the lane's result");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"lane 3 dies at its first verb")
    );
}
