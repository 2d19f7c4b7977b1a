//! The schedule explorer: bound 0 is the engine's own schedule, the
//! schedule counts of a two-lane program match their closed form (also
//! when a scenario runs it twice), lanes start in index order under every
//! schedule, no schedule runs twice, exploring is
//! deterministic, a reported failure replays, a panic or a failing watch
//! fails its schedule, and a spinning lane fails as no progress.

mod common;
mod program;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::watchdog;
use dmem::{Endpoint, Pool};
use sched::{explore, replay, Engine, Schedule};

/// Resumes a run may make before it fails as no progress.
const BUDGET: usize = 10_000;

/// Parks per lane of the two-lane program.
const PARKS: usize = 6;

/// The two-lane program: lane 0 parks [`PARKS`] times on 1 ns timers, lane
/// 1 as often on 1 µs timers, so lane 0's completion is the earliest at
/// every decision point and each pick of lane 1 there is a deviation. Each
/// lane calls `resumed` with its index after every resume.
fn two_lanes(engine: &Engine, resumed: &dyn Fn(usize)) {
    let pool = Pool::with_defaults(1, 1 << 20);
    let bodies: Vec<_> = [1u64, 1_000]
        .into_iter()
        .enumerate()
        .map(|(lane, dt)| {
            let pool = Arc::clone(&pool);
            move || {
                let mut ep = Endpoint::new(pool);
                for _ in 0..PARKS {
                    ep.advance_clock(dt);
                    resumed(lane);
                }
            }
        })
        .collect();
    engine.run_client(*pool.net(), 1, bodies).into_results();
}

/// Schedules of [`two_lanes`] with at most `bound` deviations. Decision
/// points last while both lanes are parked; a run with `j < PARKS`
/// deviations places lane 1's `j` picks among lane 0's first `PARKS - 1`
/// resumes, which it can do in `C(PARKS - 1 + j, j)` ways.
fn closed_form(bound: usize) -> u64 {
    let choose = |n: u64, k: u64| (0..k).fold(1u64, |c, i| c * (n - i) / (i + 1));
    (0..=bound as u64)
        .map(|j| choose(PARKS as u64 - 1 + j, j))
        .sum()
}

#[test]
fn bound_zero_runs_the_engines_own_schedule_once() {
    let golden = include_str!("golden/resume_order.txt");
    let got = watchdog(|| {
        let mut got = String::new();
        for k in program::LANES {
            let found = explore(k, 0, BUDGET, |engine| {
                let (log, run) = program::run(engine, k);
                assert!(log.len() >= k * program::STEPS);
                got.push_str(&program::golden_lines(k, &log, run.into_results()));
                Ok(())
            });
            assert_eq!(found.schedules, 1, "K={k}");
            assert!(found.failure.is_none(), "K={k}: {:?}", found.failure);
        }
        got
    });
    assert_eq!(
        got, golden,
        "resume order or lane clocks moved under the explorer"
    );
}

#[test]
fn a_two_lane_program_runs_the_closed_form_count_of_schedules() {
    for (bound, count) in [(0, 1), (1, 7), (2, 28)] {
        assert_eq!(closed_form(bound), count);
        let found = explore(2, bound, BUDGET, |engine| {
            two_lanes(engine, &|_| ());
            Ok(())
        });
        assert_eq!(found.schedules, count, "bound {bound}");
        assert!(found.failure.is_none());
    }
}

/// Schedules of a scenario that runs [`two_lanes`] twice with at most
/// `bound` deviations in all: decision points count on across the second
/// run, so `j1` deviations in the first and `j2` in the second combine.
fn closed_form_twice(bound: usize) -> u64 {
    let once = |j: usize| closed_form(j) - if j == 0 { 0 } else { closed_form(j - 1) };
    (0..=bound)
        .flat_map(|j1| (0..=bound - j1).map(move |j2| once(j1) * once(j2)))
        .sum()
}

#[test]
fn decision_points_count_on_across_run_client_calls() {
    for (bound, count) in [(0, 1), (1, 13), (2, 91)] {
        assert_eq!(closed_form_twice(bound), count);
        let found = explore(2, bound, BUDGET, |engine| {
            two_lanes(engine, &|_| ());
            two_lanes(engine, &|_| ());
            Ok(())
        });
        assert_eq!(found.schedules, count, "bound {bound}");
        assert!(found.failure.is_none());
    }
}

/// Every lane starts, in index order, before any parked lane resumes:
/// the first decision point comes after the last start.
#[test]
fn lanes_start_in_index_order_under_every_schedule() {
    let found = explore(3, 2, BUDGET, |engine| {
        let pool = Pool::with_defaults(1, 1 << 20);
        let log = RefCell::new(Vec::new());
        let bodies: Vec<_> = (0..3)
            .map(|lane| {
                let (pool, log) = (Arc::clone(&pool), &log);
                move || {
                    log.borrow_mut().push(format!("start {lane}"));
                    let mut ep = Endpoint::new(pool);
                    for _ in 0..3 {
                        ep.advance_clock(1 + lane as u64);
                        log.borrow_mut().push(format!("resume {lane}"));
                    }
                }
            })
            .collect();
        engine.run_client(*pool.net(), 1, bodies).into_results();
        match &log.into_inner()[..3] {
            [a, b, c] if [a, b, c] == ["start 0", "start 1", "start 2"] => Ok(()),
            first => Err(format!("the run opened with {first:?}")),
        }
    });
    assert_eq!((found.schedules, found.failure), (69, None));
}

#[test]
fn no_schedule_runs_twice() {
    let orders = RefCell::new(BTreeSet::new());
    let found = explore(2, 2, BUDGET, |engine| {
        let log = RefCell::new(Vec::new());
        two_lanes(engine, &|lane| log.borrow_mut().push(lane));
        match orders.borrow_mut().insert(log.into_inner()) {
            true => Ok(()),
            false => Err("a resume order ran twice".to_string()),
        }
    });
    assert_eq!((found.schedules, found.failure), (closed_form(2), None));
    assert_eq!(orders.into_inner().len() as u64, closed_form(2));
}

/// Fails when lane 1 resumes twice before lane 0's third resume, which
/// takes two deviations.
fn lane_one_twice_early(engine: &Engine) -> Result<(), String> {
    let log = RefCell::new(Vec::new());
    two_lanes(engine, &|lane| log.borrow_mut().push(lane));
    let log = log.into_inner();
    let third = log
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l == 0)
        .nth(2)
        .unwrap()
        .0;
    match log[..third].iter().filter(|&&l| l == 1).count() {
        n @ 2.. => Err(format!(
            "lane 1 resumed {n} times before lane 0's third resume"
        )),
        _ => Ok(()),
    }
}

#[test]
fn a_reported_schedule_fails_again_when_replayed() {
    let sound = explore(2, 1, BUDGET, lane_one_twice_early);
    assert_eq!((sound.schedules, sound.failure), (7, None));

    let found = explore(2, 2, BUDGET, lane_one_twice_early);
    let (schedule, message) = found.failure.expect("two deviations reach the failure");
    assert_eq!(
        message,
        "lane 1 resumed 2 times before lane 0's third resume"
    );
    assert_eq!(schedule.0.len(), 2, "{schedule:?}");
    assert_eq!(
        replay(2, &schedule, BUDGET, lane_one_twice_early),
        Err(message)
    );
    assert_eq!(
        replay(2, &Schedule::default(), BUDGET, lane_one_twice_early),
        Ok(())
    );
}

#[test]
fn exploring_again_reports_the_same_schedule() {
    let first = explore(2, 2, BUDGET, lane_one_twice_early);
    let again = explore(2, 2, BUDGET, lane_one_twice_early);
    assert!(first.failure.is_some());
    assert_eq!(
        (first.schedules, first.failure),
        (again.schedules, again.failure)
    );
}

#[test]
fn a_panicking_scenario_fails_its_schedule() {
    let scenario = |engine: &Engine| {
        let log = RefCell::new(Vec::new());
        two_lanes(engine, &|lane| log.borrow_mut().push(lane));
        assert_eq!(log.into_inner()[0], 0, "lane 1 resumed first");
        Ok(())
    };
    let found = explore(2, 1, BUDGET, scenario);
    let (schedule, message) = found.failure.expect("one deviation resumes lane 1 first");
    assert_eq!(found.schedules, closed_form(1));
    assert_eq!(schedule, Schedule(vec![(0, 1)]));
    assert!(
        message.starts_with("panicked: assertion `left == right` failed: lane 1 resumed first"),
        "{message}"
    );
    assert_eq!(replay(2, &schedule, BUDGET, scenario), Err(message));
}

#[test]
fn a_failing_watch_fails_its_schedule() {
    let scenario = |engine: &Engine| {
        let resumes: Arc<[AtomicUsize; 2]> = Arc::default();
        let seen = Arc::clone(&resumes);
        engine.watch(move || {
            let [zero, one] = [0, 1].map(|l| seen[l].load(Ordering::Relaxed));
            match one {
                2.. if zero < PARKS => {
                    Err(format!("lane 1 resumed {one} times before lane 0 finished"))
                }
                _ => Ok(()),
            }
        });
        two_lanes(engine, &|lane| {
            resumes[lane].fetch_add(1, Ordering::Relaxed);
        });
        Ok(())
    };
    let one = explore(2, 1, BUDGET, scenario);
    assert_eq!((one.schedules, one.failure), (7, None));
    let (schedule, message) = explore(2, 2, BUDGET, scenario)
        .failure
        .expect("two deviations");
    assert_eq!(message, "lane 1 resumed 2 times before lane 0 finished");
    assert_eq!(replay(2, &schedule, BUDGET, scenario), Err(message));
}

#[test]
fn a_lane_spinning_in_virtual_time_fails_as_no_progress() {
    let found = watchdog(|| {
        explore(2, 1, 500, |engine| {
            let pool = Pool::with_defaults(1, 1 << 20);
            let spin = |forever: bool| {
                let pool = Arc::clone(&pool);
                move || {
                    let mut ep = Endpoint::new(pool);
                    let mut parks = 0;
                    while forever || parks < 10 {
                        ep.advance_clock(100);
                        parks += 1;
                    }
                }
            };
            let run = engine.run_client(*pool.net(), 1, vec![spin(true), spin(false)]);
            assert!(run.lanes[1].is_ok(), "the finite lane finishes");
            Ok(())
        })
    });
    assert_eq!(found.schedules, 1, "the default schedule already fails");
    let (schedule, message) = found.failure.expect("the spinner never finishes");
    assert_eq!(schedule, Schedule::default());
    assert_eq!(message, "no progress: 500 resumes without finishing");
}
