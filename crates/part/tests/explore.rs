//! Live migration under every bounded schedule: lane 0 moves partition 0
//! from MN 0 to MN 1 while lane 1 runs point operations and then tries a
//! migration of its own, and `sched::explore` runs the pair under every
//! schedule that deviates from the engine's earliest-completion pick at
//! most once — twice for the crashes at the lock and mid-copy — without a
//! crash and with the migrator dying at each `part.migrate.*` crash point,
//! `part::recover` replaying the journal after it.
//!
//! Whenever a lane resumes the suite reads the pool: a valid journal
//! implies `part_lock` is held (journal discipline), and a published epoch
//! implies the live root is the new tree's, on MN 1, and homes the
//! partition there (routing integrity). Every contender read returns the
//! last value written, the contender's migration is `Busy`, and once the
//! run is over and recovered, routing is published exactly when the new
//! tree is live, no lock or journal is left behind, and every key holds its
//! last value.
//!
//! The oracle can fail: a rewrite retiring a copied leaf that tears and
//! never heals wedges the leaf, and the run fails as no progress.

use std::collections::BTreeMap;
use std::panic;
use std::sync::Arc;

use chime::ChimeConfig;
use dmem::{
    CrashRule, CrashSignal, Endpoint, FaultAction, FaultPlan, FaultRule, FaultSession, GlobalAddr,
    Pool, RangeIndex, VerbKind,
};
use part::{
    layout, migrate, Cluster, ClusterConfig, MigrateError, RecoveryOutcome, CRASH_MIGRATE_COPIED,
    CRASH_MIGRATE_DONE, CRASH_MIGRATE_LOCKED, CRASH_MIGRATE_SWITCHED,
};
use sched::{explore, Engine, Schedule};

/// Fault-engine client ids of the migrator's control endpoint and of its
/// source-tree client.
const CTL: u32 = 7;
const SRC: u32 = 8;
/// Resumes a run may make before it fails as no progress.
const BUDGET: usize = 5_000;
/// Keys preloaded into partition 0: enough for two leaves to move.
const PART0_KEYS: u64 = 20;

/// Key `i` of partition `p` of two.
fn pkey(p: usize, i: u64) -> u64 {
    (u64::MAX / 2) * p as u64 + 1 + 13 * i
}

fn val(key: u64, step: u64) -> Vec<u8> {
    (key ^ (step << 40)).to_le_bytes().to_vec()
}

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

/// The 8-byte word at `addr`, read straight from the pool.
fn word(pool: &Pool, addr: GlobalAddr) -> u64 {
    let mut b = [0u8; 8];
    pool.mn(addr.mn())
        .region()
        .read(addr.offset() as usize, &mut b);
    u64::from_le_bytes(b)
}

/// Journal discipline and routing integrity, as the pool holds them now.
fn invariants(pool: &Pool) -> Result<(), String> {
    if word(pool, layout::journal_addr()) != 0 && word(pool, layout::part_lock_addr()) == 0 {
        return Err("the migration journal is valid while part_lock is free".into());
    }
    if word(pool, layout::route_epoch_addr()) > 1 {
        let live = GlobalAddr::from_raw(word(pool, layout::tree_slot_addr(0))).mn();
        let home = word(pool, layout::home_addr(0));
        if (live, home) != (1, 1) {
            return Err(format!(
                "routing published with the live root on MN {live}, home {home}"
            ));
        }
    }
    Ok(())
}

/// The search of `k` on `c`, checked against the last value written.
fn read(c: &mut dyn RangeIndex, oracle: &BTreeMap<u64, Vec<u8>>, k: u64) -> Result<(), String> {
    match c.search(k) {
        got if got.as_ref() == oracle.get(&k) => Ok(()),
        got => Err(format!(
            "search({k}) = {got:?}, last written {:?}",
            oracle.get(&k)
        )),
    }
}

/// The contender: point operations on both partitions, each read checked
/// against the last value written, then a migration of partition 1 that
/// must find `part_lock` held.
fn contend(cluster: &Cluster, oracle: &mut BTreeMap<u64, Vec<u8>>) -> Result<(), String> {
    let cn = cluster.new_cn();
    let mut c0 = cluster.tree(0).client(&cn.states()[0]);
    let mut c1 = cluster.tree(1).client(&cn.states()[1]);
    read(&mut c0, oracle, pkey(0, 0))?;
    read(&mut c0, oracle, pkey(0, PART0_KEYS - 1))?;
    let fresh = pkey(1, 5);
    c1.insert(fresh, &val(fresh, 1))
        .map_err(|e| format!("insert({fresh}): {e:?}"))?;
    oracle.insert(fresh, val(fresh, 1));
    read(&mut c1, oracle, fresh)?;
    let mut ctl = Endpoint::new(Arc::clone(cluster.pool()));
    match migrate::migrate(cluster, 1, 0, &mut ctl, &mut c1) {
        Err(MigrateError::Busy) => {}
        r => return Err(format!("a second migration ran beside the first: {r:?}")),
    }
    let moved = pkey(0, 3);
    c0.update(moved, &val(moved, 1))
        .map_err(|e| format!("update({moved}): {e:?}"))?;
    oracle.insert(moved, val(moved, 1));
    read(&mut c0, oracle, moved)
}

/// One run under `plan`: preload, migrate beside the contender, recover,
/// audit. `Ok` carries what recovery found.
fn migration_scenario(engine: &Engine, plan: &FaultPlan) -> Result<RecoveryOutcome, String> {
    let pool = Pool::with_defaults(2, 64 << 20);
    let chime = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        cache_bytes: 1 << 16,
        hotspot_bytes: 0,
        ..Default::default()
    };
    let cfg = ClusterConfig {
        parts: 2,
        chime,
        check_every: 1 << 20,
        migrate: None,
    };
    let cluster = Cluster::create(&pool, cfg);
    let setup_cn = cluster.new_cn();
    let mut setup = cluster.client(&setup_cn);
    let mut oracle = BTreeMap::new();
    let keys = (0..PART0_KEYS)
        .map(|i| pkey(0, i))
        .chain((0..4).map(|i| pkey(1, i)));
    for k in keys {
        setup.insert(k, &val(k, 0)).expect("preload");
        oracle.insert(k, val(k, 0));
    }

    let session = Arc::new(FaultSession::new(plan.clone()));
    let mig_cn = cluster.new_cn();
    let mut ctl = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), CTL);
    let src_ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), SRC);
    let mut src = cluster
        .tree(0)
        .client_with_endpoint(&mig_cn.states()[0], src_ep);
    let watched = Arc::clone(&pool);
    engine.watch(move || invariants(&watched));
    let bodies: Vec<Box<dyn FnOnce() -> Result<(), String> + '_>> = vec![
        Box::new(|| {
            let r = migrate::migrate(&cluster, 0, 1, &mut ctl, &mut src);
            r.map(drop).map_err(|e| format!("migrate: {e:?}"))
        }),
        Box::new(|| contend(&cluster, &mut oracle)),
    ];
    let run = engine.run_client(*pool.net(), 2, bodies);
    let mut lanes = run.lanes.into_iter();
    let crashed = match lanes.next().expect("migrator") {
        Ok(done) => done.map(|()| false)?,
        Err(p) if p.downcast_ref::<CrashSignal>().is_some() => true,
        Err(_) => return Err("the migrator died".into()),
    };
    match lanes.next().expect("contender") {
        Ok(done) => done?,
        Err(_) => return Err("the contender died".into()),
    }

    let mut rec_ctl = Endpoint::new(Arc::clone(&pool));
    let mut rec_src = cluster.tree(0).client(&mig_cn.states()[0]);
    let outcome = migrate::recover(&cluster, &mut rec_ctl, &mut rec_src);
    if crashed == (outcome == RecoveryOutcome::Clean) {
        return Err(format!(
            "recovery found {outcome:?} after crashed = {crashed}"
        ));
    }
    invariants(&pool)?;
    let live = GlobalAddr::from_raw(word(&pool, layout::tree_slot_addr(0))).mn();
    match (word(&pool, layout::route_epoch_addr()), live) {
        (1, 0) | (2, 1) => {}
        (epoch, mn) => return Err(format!("epoch {epoch} with the live root on MN {mn}")),
    }
    if word(&pool, layout::part_lock_addr()) != 0 || word(&pool, layout::journal_addr()) != 0 {
        return Err("part_lock or the journal is left behind".into());
    }
    let audit_cn = cluster.new_cn();
    let mut audit = cluster.client(&audit_cn);
    for (&k, v) in &oracle {
        if audit.search(k).as_ref() != Some(v) {
            return Err(format!("key {k} is lost after the migration"));
        }
    }
    Ok(outcome)
}

fn crash_at(label: &str, at_hit: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(1);
    plan.crashes.push(CrashRule {
        label: label.to_string(),
        client: Some(CTL),
        at_hit,
    });
    plan
}

/// Explores `plan` at `bound`, checking each run recovers as `expect`;
/// returns the schedule count.
fn exhaust(plan: FaultPlan, bound: usize, expect: RecoveryOutcome) -> u64 {
    quiet_crash_signals();
    let found = explore(2, bound, BUDGET, |engine| {
        match migration_scenario(engine, &plan)? {
            outcome if outcome == expect => Ok(()),
            outcome => Err(format!("recovered {outcome:?}, expected {expect:?}")),
        }
    });
    assert_eq!(found.failure, None);
    found.schedules
}

#[test]
fn a_fault_free_migration_holds_in_every_schedule() {
    assert_eq!(exhaust(FaultPlan::seeded(1), 1, RecoveryOutcome::Clean), 94);
}

#[test]
fn a_crash_after_locking_recovers_in_every_schedule() {
    let plan = crash_at(CRASH_MIGRATE_LOCKED, 1);
    assert_eq!(exhaust(plan, 2, RecoveryOutcome::Unlocked), 3);
}

#[test]
fn a_crash_mid_copy_rolls_forward_in_every_schedule() {
    let plan = crash_at(CRASH_MIGRATE_COPIED, 1);
    assert_eq!(exhaust(plan, 2, RecoveryOutcome::RolledForward), 2_030);
}

#[test]
fn a_crash_after_the_switch_finishes_in_every_schedule() {
    let plan = crash_at(CRASH_MIGRATE_SWITCHED, 1);
    assert_eq!(exhaust(plan, 1, RecoveryOutcome::Finished), 94);
}

#[test]
fn a_crash_after_publishing_unlocks_in_every_schedule() {
    let plan = crash_at(CRASH_MIGRATE_DONE, 1);
    assert_eq!(exhaust(plan, 1, RecoveryOutcome::Unlocked), 94);
}

/// The rewrite that retires the first copied leaf lands its first cache
/// line — the first metadata replica, now a tombstone — and never the rest:
/// the leaf's other replicas still say live, and its lock word, which the
/// rewrite releases, stays set. The contender's update on that leaf waits
/// for a lock no one will release.
#[test]
fn a_torn_tombstone_that_never_heals_fails_as_no_progress() {
    let mut plan = FaultPlan::seeded(1);
    plan.rules.push(FaultRule {
        client: Some(SRC),
        max_fires: 1,
        ..FaultRule::always(
            "torn-tombstone",
            Some(VerbKind::Write),
            FaultAction::TornWrite {
                lines: 1,
                heal_after: None,
            },
        )
    });
    let found = explore(2, 1, BUDGET, |engine| {
        migration_scenario(engine, &plan).map(drop)
    });
    let (schedule, message) = found.failure.expect("a torn tombstone wedges its leaf");
    assert_eq!(found.schedules, 1);
    assert_eq!(schedule, Schedule::default());
    assert_eq!(
        message,
        format!("no progress: {BUDGET} resumes without finishing")
    );
}
