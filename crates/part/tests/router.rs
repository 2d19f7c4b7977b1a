//! Router integration: routed CRUD against an oracle, cross-partition
//! scans, home-pinned allocation, live migration with routing-epoch
//! refresh, and determinism — serial and under the coroutine engine with
//! a [`sched::LaneGate`] guarding the migrator.

use std::collections::BTreeMap;
use std::sync::Arc;

use chime::ChimeConfig;
use dmem::{Endpoint, Pool, RangeIndex};
use part::{layout, migrate, Cluster, ClusterConfig, MigrateConfig, RecoveryOutcome};
use sched::{Engine, EngineConfig, LaneBody, LaneGate};

fn small_chime() -> ChimeConfig {
    ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 8,
        cache_bytes: 1 << 18,
        hotspot_bytes: 1 << 14,
        ..Default::default()
    }
}

fn cfg(parts: usize) -> ClusterConfig {
    ClusterConfig {
        parts,
        chime: small_chime(),
        check_every: 8,
        migrate: None,
    }
}

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

/// `n` keys spread over all partitions of a `parts`-way map.
fn spread_keys(parts: usize, n: usize) -> Vec<u64> {
    let stride = u64::MAX / parts as u64;
    (0..n)
        .map(|i| (i % parts) as u64 * stride + 1 + 17 * (i / parts) as u64)
        .collect()
}

#[test]
fn routed_crud_matches_oracle_across_partitions() {
    let pool = Pool::with_defaults(2, 256 << 20);
    let cluster = Cluster::create(&pool, cfg(4));
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let mut oracle = BTreeMap::new();
    for k in spread_keys(4, 64) {
        c.insert(k, &v(k)).unwrap();
        oracle.insert(k, v(k));
    }
    for (i, k) in spread_keys(4, 64).into_iter().enumerate() {
        if i % 3 == 0 {
            c.update(k, &v(k + 1)).unwrap();
            oracle.insert(k, v(k + 1));
        } else if i % 3 == 1 {
            c.delete(k).unwrap();
            oracle.remove(&k);
        }
    }
    for (&k, val) in &oracle {
        assert_eq!(c.search(k).as_ref(), Some(val), "key {k}");
    }
    assert_eq!(c.search(3).is_some(), oracle.contains_key(&3));
    let stats = cluster.stats();
    let per_part: u64 = stats
        .part_ops
        .iter()
        .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    assert_eq!(
        per_part,
        stats.route_hits.load(std::sync::atomic::Ordering::Relaxed),
        "every routed op lands in exactly one partition counter"
    );
    // 64 inserts, ~43 updates/deletes, one search per surviving key.
    assert!(per_part >= 128, "routed {per_part} ops");
}

#[test]
fn scans_cross_partition_boundaries_in_key_order() {
    let pool = Pool::with_defaults(2, 256 << 20);
    let cluster = Cluster::create(&pool, cfg(4));
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let mut oracle = BTreeMap::new();
    for k in spread_keys(4, 80) {
        c.insert(k, &v(k)).unwrap();
        oracle.insert(k, v(k));
    }
    // Start mid-way through partition 0, ask for enough to spill into
    // partitions 1 and 2.
    let start = 10;
    let want = 50;
    let mut got = Vec::new();
    c.scan(start, want, &mut got);
    let expect: Vec<(u64, Vec<u8>)> = oracle
        .range(start..)
        .take(want)
        .map(|(&k, v)| (k, v.clone()))
        .collect();
    assert_eq!(got, expect, "scan must concatenate partitions in key order");
}

#[test]
fn partition_trees_allocate_on_their_home_mns() {
    let pool = Pool::with_defaults(2, 256 << 20);
    let _cluster = Cluster::create(&pool, cfg(4));
    // Homes round-robin 0,1,0,1: both MNs hold bootstrap allocations.
    assert!(pool.mn(0).allocated_bytes() > 0);
    assert!(pool.mn(1).allocated_bytes() > 0);
}

#[test]
fn migration_moves_a_partition_and_bumps_the_epoch() {
    let pool = Pool::with_defaults(2, 256 << 20);
    let cluster = Cluster::create(&pool, cfg(4));
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    let keys = spread_keys(4, 96);
    for &k in &keys {
        c.insert(k, &v(k)).unwrap();
    }
    // A second client whose routing table predates the migration.
    let cn2 = cluster.new_cn();
    let mut c2 = cluster.client(&cn2);
    assert_eq!(c2.search(keys[0]), Some(v(keys[0])));

    // Move partition 0 (home MN 0) onto MN 1.
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    let cnm = cluster.new_cn();
    let mut src = cluster.tree(0).client(&cnm.states()[0]);
    let report = migrate::migrate(&cluster, 0, 1, &mut ctl, &mut src).unwrap();
    assert!(report.leaves > 0 && report.items > 0);
    assert_ne!(report.old_root, report.new_root);

    // Every key still readable through both clients (stale caches chase
    // forwarding tombstones or refresh through the switched root slot).
    for &k in &keys {
        assert_eq!(c.search(k), Some(v(k)), "client 1, key {k}");
        assert_eq!(c2.search(k), Some(v(k)), "client 2, key {k}");
    }
    // Writes to the migrated partition land in the new tree.
    let k0 = keys[0];
    c.update(k0, &v(k0 + 9)).unwrap();
    assert_eq!(c2.search(k0), Some(v(k0 + 9)));

    // The epoch check notices the bump and refreshes the home table.
    let mut word = [0u8; 8];
    ctl.read(layout::route_epoch_addr(), &mut word);
    assert_eq!(u64::from_le_bytes(word), 2);
    for _ in 0..cluster.config().check_every {
        let _ = c2.search(k0);
    }
    let (epoch, homes) = c2.routing_table();
    assert_eq!(epoch, 2);
    assert_eq!(homes[0], 1, "partition 0 re-homed to MN 1");
    let stale = cluster
        .stats()
        .route_stale_epoch
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(stale >= 1, "clients observed the stale epoch");

    // Recovery on a clean cluster is a no-op.
    let mut src2 = cluster.tree(0).client(&cnm.states()[0]);
    assert_eq!(
        migrate::recover(&cluster, &mut ctl, &mut src2),
        RecoveryOutcome::Clean
    );
}

#[test]
fn skewed_traffic_triggers_the_rebalancer() {
    let pool = Pool::with_defaults(2, 256 << 20);
    let mut cc = cfg(4);
    cc.migrate = Some(MigrateConfig {
        check_every: 64,
        min_window: 256,
        imbalance: 1.2,
    });
    let cluster = Cluster::create(&pool, cc);
    let cn = cluster.new_cn();
    let mut c = cluster.client(&cn);
    assert!(c.is_rebalancer());
    let keys = spread_keys(4, 64);
    for &k in &keys {
        c.insert(k, &v(k)).unwrap();
    }
    // Hammer partitions 0 and 2 — both homed on MN 0 — until the policy
    // off-loads the colder of the two.
    let stride = u64::MAX / 4;
    for i in 0..2_000u64 {
        let k = if i % 8 == 0 { 2 * stride + 1 } else { 1 };
        let _ = c.search(k);
    }
    let migs = cluster
        .stats()
        .migrations
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(migs >= 1, "imbalance must trigger at least one migration");
    let (_, homes) = c.routing_table();
    assert_eq!(homes[0], 0, "the hot partition stays put");
    assert_eq!(homes[2], 1, "the cold partition on the hot MN moves");
    for &k in &keys {
        assert_eq!(c.search(k), Some(v(k)), "key {k} after rebalance");
    }
}

/// One engine client: lane 0 migrates partition 0 under the gate while
/// lanes 1–2 run point ops. Returns each lane's (clock, verdict) plus the
/// final key census, for determinism comparison.
fn gated_engine_run() -> (Vec<u64>, u64) {
    let pool = Pool::with_defaults(2, 256 << 20);
    let cluster = Cluster::create(&pool, cfg(4));
    let setup_cn = cluster.new_cn();
    let mut setup = cluster.client(&setup_cn);
    let keys = spread_keys(4, 48);
    for &k in &keys {
        setup.insert(k, &v(k)).unwrap();
    }
    let engine = Engine::new(EngineConfig { lanes: 3 });
    let gate = LaneGate::new();
    let mut bodies: Vec<LaneBody<u64>> = Vec::new();
    {
        let (cluster, gate) = (Arc::clone(&cluster), Arc::clone(&gate));
        bodies.push(Box::new(move || {
            let cn = cluster.new_cn();
            let mut src = cluster.tree(0).client(&cn.states()[0]);
            let mut ctl = Endpoint::new(Arc::clone(cluster.pool()));
            gate.enter(0);
            let report = migrate::migrate(&cluster, 0, 1, &mut ctl, &mut src).unwrap();
            gate.exit(0);
            assert!(report.items > 0);
            src.clock_ns()
        }));
    }
    for lane in 1..3usize {
        let cluster = Arc::clone(&cluster);
        let keys = keys.clone();
        bodies.push(Box::new(move || {
            let cn = cluster.new_cn();
            let mut c = cluster.client(&cn);
            for (i, &k) in keys.iter().enumerate() {
                if i % 2 == lane % 2 {
                    assert_eq!(c.search(k), Some(v(k)), "lane {lane}, key {k}");
                }
            }
            c.clock_ns()
        }));
    }
    let net = *pool.net();
    let run = engine.run_client_gated(net, 2, bodies, gate);
    let clocks = run.into_results();
    let mut census = 0u64;
    for &k in &keys {
        if setup.search(k).is_some() {
            census += 1;
        }
    }
    (clocks, census)
}

#[test]
fn gated_migration_under_lanes_is_correct_and_deterministic() {
    let (clocks_a, census_a) = gated_engine_run();
    assert_eq!(census_a, 48, "no key lost across the gated migration");
    assert_eq!(clocks_a.len(), 3);
    let (clocks_b, census_b) = gated_engine_run();
    assert_eq!(clocks_a, clocks_b, "gated runs must replay identically");
    assert_eq!(census_a, census_b);
}

#[test]
fn serial_router_runs_are_deterministic() {
    let run = || {
        let pool = Pool::with_defaults(2, 256 << 20);
        let cluster = Cluster::create(&pool, cfg(4));
        let cn = cluster.new_cn();
        let mut c = cluster.client(&cn);
        for k in spread_keys(4, 64) {
            c.insert(k, &v(k)).unwrap();
        }
        for k in spread_keys(4, 64) {
            let _ = c.search(k);
        }
        (
            c.clock_ns(),
            c.stats().rtts,
            cluster
                .stats()
                .route_hits
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    };
    assert_eq!(run(), run());
}
