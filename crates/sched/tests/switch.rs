//! Lane switching: how many lane-to-lane switches a run makes, that a dying
//! lane still hands control on, and that the resume order of a seeded random
//! lane program does not move (`golden/resume_order.txt`: the
//! earliest-completion order, recorded by the engine that still carried
//! a lane gate).

mod common;

use std::sync::{Arc, Mutex};

use common::watchdog;
use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool};
use sched::{ClientRun, Engine, EngineConfig, LaneBody};

fn engine(lanes: usize) -> Engine {
    Engine::new(EngineConfig { lanes })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_1EB5);
    z ^ (z >> 31)
}

const STEPS: usize = 40;

/// One park of the random program: a read or write of 8 or 64 bytes on one
/// of two MNs, or a timer, chosen by `r`. Logs the lane once it resumes.
fn park_once(ep: &mut Endpoint, r: u64, lane: usize, log: &Mutex<Vec<usize>>) {
    let addr = GlobalAddr::new(((r >> 8) % 2) as u16, RESERVED_BYTES);
    let len = if (r >> 9) & 1 == 0 { 8 } else { 64 };
    let mut buf = [0u8; 64];
    match r % 4 {
        0 | 1 => ep.read(addr, &mut buf[..len]),
        2 => ep.write(addr, &buf[..len]),
        _ => ep.advance_clock(50 + (r >> 16) % 400),
    }
    log.lock().unwrap().push(lane);
}

/// A seeded random lane body: `STEPS` steps, each one park or (one time in
/// eight) a run of one to three parks. Returns its final clock.
fn program(pool: Arc<Pool>, log: Arc<Mutex<Vec<usize>>>, lane: usize) -> LaneBody<u64> {
    Box::new(move || {
        let mut rng = 0xC41E_u64 ^ ((lane as u64) << 20);
        let mut ep = Endpoint::new(pool);
        for _ in 0..STEPS {
            let r = splitmix(&mut rng);
            if r % 8 == 7 {
                for _ in 0..1 + (r >> 3) % 3 {
                    park_once(&mut ep, splitmix(&mut rng), lane, &log);
                }
            } else {
                park_once(&mut ep, r >> 3, lane, &log);
            }
        }
        ep.clock_ns()
    })
}

/// Runs the random program on `k` lanes: the resume-order log and the run.
fn run_program(k: usize) -> (Vec<usize>, ClientRun<u64>) {
    watchdog(move || {
        let pool = Pool::with_defaults(2, 1 << 20);
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies = (0..k)
            .map(|l| program(Arc::clone(&pool), Arc::clone(&log), l))
            .collect();
        let net = *pool.net();
        let run = engine(k).run_client(net, 2, bodies);
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, run)
    })
}

#[test]
fn resume_order_matches_the_channel_engine() {
    let golden = include_str!("golden/resume_order.txt");
    let mut got = String::new();
    for k in [1usize, 2, 4, 8] {
        let (log, run) = run_program(k);
        let parks = log.len() as u64;
        assert!(
            run.handoffs <= parks + 2 * k as u64,
            "K={k}: {} handoffs for {parks} parks",
            run.handoffs
        );
        let order: String = log.iter().map(|l| l.to_string()).collect();
        let clocks: Vec<String> = run.into_results().iter().map(u64::to_string).collect();
        got.push_str(&format!(
            "k{k} order {order}\nk{k} clocks {}\n",
            clocks.join(",")
        ));
    }
    assert_eq!(got, golden, "resume order or lane clocks moved");
}

#[test]
fn one_lane_never_switches_threads() {
    let (log, run) = run_program(1);
    assert!(log.len() >= STEPS);
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
