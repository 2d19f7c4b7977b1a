//! The seeded random lane program whose resume order and lane clocks
//! `golden/resume_order.txt` records, one pair of lines per lane count.

use std::sync::{Arc, Mutex};

use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool};
use sched::{ClientRun, Engine, LaneBody};

/// The lane counts the golden file records, in its order.
pub const LANES: [usize; 4] = [1, 2, 4, 8];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_1EB5);
    z ^ (z >> 31)
}

/// Steps per lane.
pub const STEPS: usize = 40;

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

/// Runs the random program on `k` lanes of `engine`: the resume-order log
/// and the run.
pub fn run(engine: &Engine, k: usize) -> (Vec<usize>, ClientRun<u64>) {
    let pool = Pool::with_defaults(2, 1 << 20);
    let log = Arc::new(Mutex::new(Vec::new()));
    let bodies: Vec<_> = (0..k)
        .map(|l| program(Arc::clone(&pool), Arc::clone(&log), l))
        .collect();
    let run = engine.run_client(*pool.net(), 2, bodies);
    let log = std::mem::take(&mut *log.lock().unwrap());
    (log, run)
}

/// The golden file's two lines for a `k`-lane run: its resume order and
/// its lanes' final clocks.
pub fn golden_lines(k: usize, log: &[usize], clocks: Vec<u64>) -> String {
    let order: String = log.iter().map(|l| l.to_string()).collect();
    let clocks: Vec<String> = clocks.iter().map(u64::to_string).collect();
    format!("k{k} order {order}\nk{k} clocks {}\n", clocks.join(","))
}
