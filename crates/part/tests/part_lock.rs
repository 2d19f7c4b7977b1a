//! The routing table moves only under `part_lock`: bootstrap publishes
//! epoch 1 before any CN exists, a migrator that loses the lock publishes
//! nothing, a winner bumps the epoch once and frees the lock, and recovery
//! of a held lock with an empty journal frees it without publishing. CNs
//! see a publish at their next epoch check, and every routed operation is
//! counted once, on the partition it starts in.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use chime::ChimeConfig;
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use part::{layout, migrate, Cluster, ClusterConfig, MigrateError, RecoveryOutcome};

const PARTS: usize = 4;

fn cluster() -> (Arc<Pool>, Arc<Cluster>) {
    let pool = Pool::with_defaults(2, 256 << 20);
    let chime = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 8,
        cache_bytes: 1 << 18,
        hotspot_bytes: 1 << 14,
        ..Default::default()
    };
    let cluster = Cluster::create(&pool, ClusterConfig { parts: PARTS, chime, check_every: 8, migrate: None });
    (pool, cluster)
}

fn word(ctl: &mut Endpoint, addr: GlobalAddr) -> u64 {
    let mut b = [0u8; 8];
    ctl.read(addr, &mut b);
    u64::from_le_bytes(b)
}

fn homes(ctl: &mut Endpoint) -> Vec<u64> {
    (0..PARTS).map(|p| word(ctl, layout::home_addr(p))).collect()
}

/// The first key of partition `p`.
fn key_in(cluster: &Cluster, p: usize) -> u64 {
    cluster.map().bounds(p).0.max(1)
}

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

/// Moves partition 0 onto MN 1 through a fresh control endpoint.
fn migrate_part0(pool: &Arc<Pool>, cluster: &Cluster) -> Endpoint {
    let mut ctl = Endpoint::new(Arc::clone(pool));
    let cn = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cn.states()[0]);
    migrate::migrate(cluster, 0, 1, &mut ctl, &mut src).expect("part_lock is free");
    ctl
}

#[test]
fn bootstrap_publishes_epoch_one_over_the_home_words_with_the_lock_free() {
    let (pool, _cluster) = cluster();
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 1);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 0);
    assert_eq!(homes(&mut ctl), [0, 1, 0, 1], "round-robin homes");
}

#[test]
fn a_migrator_that_loses_part_lock_is_busy_and_publishes_nothing() {
    let (pool, cluster) = cluster();
    let mut rival = Endpoint::new(Arc::clone(&pool));
    assert_eq!(rival.cas(layout::part_lock_addr(), 0, 1), 0, "the rival holds the lock");
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    let before = homes(&mut ctl);
    let cn = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cn.states()[0]);
    let r = migrate::migrate(&cluster, 0, 1, &mut ctl, &mut src);
    assert!(matches!(r, Err(MigrateError::Busy)), "{r:?}");
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 1);
    assert_eq!(homes(&mut ctl), before);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 1, "the loser leaves the rival's lock");
}

#[test]
fn a_migration_bumps_the_epoch_once_and_frees_part_lock() {
    let (pool, cluster) = cluster();
    let mut ctl = migrate_part0(&pool, &cluster);
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 2);
    assert_eq!(homes(&mut ctl), [1, 1, 0, 1]);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 0);
    let mut journal = [0u8; 32];
    ctl.read(layout::journal_addr(), &mut journal);
    assert_eq!(journal, [0u8; 32], "the publish clears the journal");
}

#[test]
fn every_migration_publishes_its_own_epoch() {
    let (pool, cluster) = cluster();
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let k = key_in(&cluster, 0);
    c.insert(k, &v(k)).unwrap();
    let mut ctl = migrate_part0(&pool, &cluster);
    // And back: the lock the first migration freed is free to win again.
    let cnm = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cnm.states()[0]);
    migrate::migrate(&cluster, 0, 0, &mut ctl, &mut src).expect("part_lock was freed");
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 3);
    assert_eq!(homes(&mut ctl), [0, 1, 0, 1]);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 0);
    assert_eq!(c.search(k), Some(v(k)));
}

#[test]
fn recovering_a_held_lock_with_an_empty_journal_unlocks_without_publishing() {
    let (pool, cluster) = cluster();
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    ctl.write(layout::part_lock_addr(), &1u64.to_le_bytes());
    let before = homes(&mut ctl);
    let cn = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cn.states()[0]);
    assert_eq!(migrate::recover(&cluster, &mut ctl, &mut src), RecoveryOutcome::Unlocked);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 0);
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 1);
    assert_eq!(homes(&mut ctl), before);
}

#[test]
fn recovering_a_journaled_move_that_never_copied_aborts_without_publishing() {
    let (pool, cluster) = cluster();
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    // A migrator took the lock and journaled moving partition 0 onto MN 1,
    // then died before bootstrapping the destination tree.
    ctl.write(layout::part_lock_addr(), &1u64.to_le_bytes());
    let live_root = word(&mut ctl, layout::tree_slot_addr(0));
    let journal: Vec<u8> = [1, 0, live_root, 1].iter().flat_map(|w: &u64| w.to_le_bytes()).collect();
    ctl.write(layout::journal_addr(), &journal);
    let before = homes(&mut ctl);
    let cn = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cn.states()[0]);
    assert_eq!(migrate::recover(&cluster, &mut ctl, &mut src), RecoveryOutcome::Aborted);
    assert_eq!(word(&mut ctl, layout::route_epoch_addr()), 1);
    assert_eq!(homes(&mut ctl), before);
    assert_eq!(word(&mut ctl, layout::part_lock_addr()), 0);
    assert_eq!(word(&mut ctl, layout::journal_addr()), 0, "the journal is cleared");
    assert_eq!(word(&mut ctl, layout::tree_slot_addr(0)), live_root, "the source tree stays live");
}

#[test]
fn a_client_sees_a_publish_at_its_next_epoch_check() {
    let (pool, cluster) = cluster();
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let k = key_in(&cluster, 1);
    c.insert(k, &v(k)).unwrap(); // op 1
    migrate_part0(&pool, &cluster);
    let check_every = cluster.config().check_every;
    for _ in 2..check_every {
        assert_eq!(c.search(k), Some(v(k)));
    }
    assert_eq!(c.routing_table().0, 1, "no check before op {check_every}");
    assert_eq!(cluster.stats().route_refreshes.load(Ordering::Relaxed), 0);
    assert_eq!(c.search(k), Some(v(k))); // op `check_every`: the check
    let (epoch, homes) = c.routing_table();
    assert_eq!((epoch, homes[0]), (2, 1));
    assert_eq!(cluster.stats().route_stale_epoch.load(Ordering::Relaxed), 1);
    assert_eq!(cluster.stats().route_refreshes.load(Ordering::Relaxed), 1);
}

#[test]
fn each_point_op_is_one_routed_hit_on_its_partition() {
    let (_pool, cluster) = cluster();
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let k = key_in(&cluster, 2);
    c.insert(k, &v(k)).unwrap();
    assert_eq!(c.search(k), Some(v(k)));
    assert_eq!(c.update(k, &v(k + 1)), Ok(true));
    assert_eq!(c.delete(k), Ok(true));
    let stats = cluster.stats();
    let per_part: Vec<u64> = stats.part_ops.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert_eq!(per_part, [0, 0, 4, 0]);
    assert_eq!(stats.window(), [0, 0, 4, 0]);
    assert_eq!(stats.route_hits.load(Ordering::Relaxed), 4);
}

#[test]
fn a_scan_across_partitions_is_one_routed_op_on_its_first_partition() {
    let (_pool, cluster) = cluster();
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let keys: Vec<u64> = (0..PARTS).map(|p| key_in(&cluster, p)).collect();
    for &k in &keys {
        c.insert(k, &v(k)).unwrap();
    }
    let hits = cluster.stats().route_hits.load(Ordering::Relaxed);
    let mut out = Vec::new();
    c.scan(keys[1], 3, &mut out);
    assert_eq!(out.iter().map(|&(k, _)| k).collect::<Vec<_>>(), keys[1..]);
    let stats = cluster.stats();
    assert_eq!(stats.route_hits.load(Ordering::Relaxed), hits + 1);
    let per_part: Vec<u64> = stats.part_ops.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert_eq!(per_part, [1, 2, 1, 1], "the scan counts on partition 1 only");
}
