//! The lock lease under every bounded schedule: three lanes on three CNs
//! insert distinct keys into one leaf with stale-lock reclamation on, and
//! `sched::explore` runs them under every schedule that deviates from the
//! engine's earliest-completion pick at most twice.
//!
//! * Without faults, the lanes serialize on the lock word and every key
//!   lands (mutual exclusion).
//! * A holder that dies at `leaf.lock.acquired` leaves its lock to the
//!   lease: in every schedule the survivors reclaim it, finish, and find
//!   their keys (lease safety and progress). With two lanes the lone
//!   survivor does so under every schedule, the deviation bound lifted.
//! * A holder that lives but stalls past its lease — an injected delay on
//!   its write-back — is the zombie the lease cannot fence: a waiter
//!   reclaims the lock while the zombie still writes, one write-back erases
//!   the other's key, and the explorer must name the schedule that loses it.

use std::cell::Cell;
use std::panic;
use std::sync::Arc;

use chime::leaf::CRASH_LEAF_LOCKED;
use chime::{Chime, ChimeConfig};
use dmem::{
    CrashRule, CrashSignal, Endpoint, FaultAction, FaultPlan, FaultRule, FaultSession, Pool,
    RangeIndex, VerbKind,
};
use sched::{explore, replay, Engine, Schedule};

const LANES: usize = 3;
/// Resumes a run may make before it fails as no progress.
const BUDGET: usize = 2_000;

/// Lane `lane`'s key: the keys share one home entry, so the lanes contend
/// for the same empty slots of the leaf.
fn key(lane: usize) -> u64 {
    let home = dmem::hash::home_entry(100, 16);
    (100..)
        .filter(|&k| dmem::hash::home_entry(k, 16) == home)
        .nth(lane)
        .unwrap()
}

fn value(lane: usize) -> [u8; 8] {
    (0xA0 + lane as u64).to_le_bytes()
}

/// Suppresses the default panic printout for intentional [`CrashSignal`]
/// deaths while keeping it for real failures.
fn quiet_crash_signals() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                default(info);
            }
        }));
    });
}

/// One run: each of `lanes` lanes inserts its key into the tree's one leaf
/// from its own CN, under `plan`; then a fresh client audits the
/// survivors' keys. Returns how many stale locks the lanes reclaimed.
fn lease_scenario(engine: &Engine, lanes: usize, plan: &FaultPlan) -> Result<u64, String> {
    let pool = Pool::with_defaults(1, 64 << 20);
    let cfg = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        cache_bytes: 1 << 16,
        hotspot_bytes: 0,
        lock_lease_spins: 2,
        ..Default::default()
    };
    let tree = Chime::create(&pool, cfg, 0);
    let session = Arc::new(FaultSession::new(plan.clone()));
    let mut clients: Vec<_> = (0..lanes as u32)
        .map(|l| {
            let ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), l);
            tree.client_with_endpoint(&tree.new_cn(), ep)
        })
        .collect();
    let bodies: Vec<_> = clients
        .iter_mut()
        .enumerate()
        .map(|(l, c)| move || c.insert(key(l), &value(l)))
        .collect();
    let run = engine.run_client(*pool.net(), 1, bodies);
    let reclaimed = clients
        .iter()
        .map(|c| c.stats().stale_locks_reclaimed)
        .sum();
    let mut auditor = tree.client(&tree.new_cn());
    for (l, lane) in run.lanes.into_iter().enumerate() {
        match lane {
            Ok(done) => done.map_err(|e| format!("lane {l}'s insert failed: {e:?}"))?,
            Err(p) if p.downcast_ref::<CrashSignal>().is_some() => continue,
            Err(_) => return Err(format!("lane {l} died")),
        }
        if auditor.search(key(l)).as_deref() != Some(&value(l)[..]) {
            return Err(format!("lane {l}'s key {} is lost", key(l)));
        }
    }
    Ok(reclaimed)
}

#[test]
fn contending_inserts_keep_every_key_in_every_schedule() {
    let found = explore(LANES, 2, BUDGET, |engine| {
        lease_scenario(engine, LANES, &FaultPlan::seeded(1)).map(drop)
    });
    assert_eq!((found.schedules, found.failure), (210, None));
}

/// Lane 0 dies holding the leaf lock.
fn holder_dies() -> FaultPlan {
    let mut plan = FaultPlan::seeded(1);
    plan.crashes.push(CrashRule {
        label: CRASH_LEAF_LOCKED.to_string(),
        client: Some(0),
        at_hit: 1,
    });
    plan
}

#[test]
fn survivors_reclaim_a_dead_holders_lock_in_every_schedule() {
    quiet_crash_signals();
    let plan = holder_dies();
    let reclaims = Cell::new(0);
    let found = explore(LANES, 2, BUDGET, |engine| {
        lease_scenario(engine, LANES, &plan).map(|n| reclaims.set(reclaims.get() + n))
    });
    assert_eq!((found.schedules, found.failure), (355, None));
    assert_eq!(
        reclaims.get(),
        334,
        "stale locks reclaimed over all schedules"
    );
}

/// Two lanes, the first dying with the lock, under every schedule however
/// many deviations it takes: the lone survivor lands its key, reclaiming
/// the dead holder's lock in the schedules where lane 0 locks first.
#[test]
fn a_lone_survivor_reclaims_a_dead_holders_lock_in_every_schedule() {
    quiet_crash_signals();
    let plan = holder_dies();
    let reclaims = Cell::new(0);
    let found = explore(2, BUDGET, BUDGET, |engine| {
        lease_scenario(engine, 2, &plan).map(|n| reclaims.set(reclaims.get() + n))
    });
    assert_eq!((found.schedules, found.failure), (35, None));
    assert_eq!(
        reclaims.get(),
        10,
        "stale locks reclaimed over all schedules"
    );
}

/// Lane 0 stalls 4 µs before its write-back: long enough for a waiter to
/// see its lease run out, too short for the earliest-completion schedule
/// or any one deviation from it to let a waiter in first.
#[test]
fn a_holder_stalled_past_its_lease_loses_a_key() {
    let mut plan = FaultPlan::seeded(1);
    plan.rules.push(FaultRule {
        client: Some(0),
        max_fires: 1,
        ..FaultRule::always(
            "stall",
            Some(VerbKind::Write),
            FaultAction::Delay { ns: 4_000 },
        )
    });
    let scenario = |engine: &Engine| lease_scenario(engine, LANES, &plan).map(drop);
    let one = explore(LANES, 1, BUDGET, scenario);
    assert_eq!((one.schedules, one.failure), (40, None));

    let two = explore(LANES, 2, BUDGET, scenario);
    assert_eq!(two.schedules, 32);
    let (schedule, message) = two.failure.expect("the zombie's write-back loses a key");
    assert_eq!(schedule, Schedule(vec![(15, 1), (16, 1)]), "{schedule:?}");
    assert_eq!(message, format!("lane 0's key {} is lost", key(0)));
    assert_eq!(replay(LANES, &schedule, BUDGET, scenario), Err(message));
}
