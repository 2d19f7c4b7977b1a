//! Unit tests of the tree (they reach into client internals).

use super::*;

fn small_cfg() -> ChimeConfig {
    ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 8,
        cache_bytes: 1 << 20,
        hotspot_bytes: 1 << 16,
        ..Default::default()
    }
}

fn pool() -> Arc<Pool> {
    Pool::with_defaults(1, 256 << 20)
}

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

#[test]
fn insert_search_small() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=10u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=10u64 {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
    assert_eq!(c.search(999), None);
}

#[test]
fn trace_events_attaches_tracer_and_records_op_spans() {
    let pool = pool();
    let cfg = ChimeConfig {
        trace_events: 4096,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    assert!(
        c.ep.tracer().is_some(),
        "trace_events > 0 must attach a tracer"
    );
    c.insert(7, &v(7)).unwrap();
    assert_eq!(c.search(7), Some(v(7)));
    assert_eq!(c.search(8), None);
    let spans = c.ep.tracer().unwrap().spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(
        spans.iter().map(|s| s.op).collect::<Vec<_>>(),
        ["insert", "search", "search"]
    );
    assert!(spans.iter().all(|s| s.closed));
    assert_eq!(
        spans.iter().map(|s| s.ok).collect::<Vec<_>>(),
        [true, true, false]
    );
    // Every index op on an empty cache must issue at least one verb, and
    // the verb events carry real wire bytes on the virtual clock.
    for s in &spans {
        assert!(!s.verbs.is_empty(), "span {:?} recorded no verbs", s.op);
        assert!(s.wire_bytes > 0);
        assert!(s.end_ns >= s.start_ns);
    }
    // Tracing is off by default.
    let t2 = Chime::create(&pool, small_cfg(), 8);
    let cn2 = t2.new_cn();
    let c2 = t2.client(&cn2);
    assert!(c2.ep.tracer().is_none());
}

#[test]
fn scan_bridges_leaf_chain_gaps_missing_from_parent() {
    // Regression for the fig12 YCSB-E livelock: a leaf can be reachable
    // through the sibling chain while its pivot is absent from the
    // level-1 node (unpropagated half-split). The scan must bridge the
    // gap by walking the chain instead of restarting forever.
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let n = 2_000u64;
    for k in 1..=n {
        c.insert(k, &v(k)).unwrap();
    }
    // Drop a mid pivot from a level-1 node, leaving its leaf reachable
    // only through the previous leaf's sibling pointer.
    let parent = c.locate_parent(n / 2);
    assert!(parent.entries.len() >= 3, "need a populated level-1 node");
    let victim_pivot = parent.entries[parent.entries.len() / 2].0;
    let shared = Arc::clone(&c.shared);
    shared.internal.lock(&mut c.ep, parent.addr);
    let mut fresh = shared.internal.read(&mut c.ep, parent.addr);
    let i = fresh
        .entries
        .iter()
        .position(|e| e.0 == victim_pivot)
        .expect("victim pivot present");
    fresh.entries.remove(i);
    shared.internal.write_and_unlock(&mut c.ep, &fresh);
    c.cn.cache.lock().invalidate(parent.addr);
    // A full scan must still return every key exactly once, in order.
    let mut out = Vec::new();
    c.scan(1, n as usize, &mut out);
    assert_eq!(out.len(), n as usize);
    for (i, (k, val)) in out.iter().enumerate() {
        assert_eq!(*k, i as u64 + 1);
        assert_eq!(val, &v(i as u64 + 1));
    }
}

#[test]
fn inserts_force_splits_and_root_growth() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let n = 5_000u64;
    for k in 1..=n {
        c.insert(k * 3 + 1, &v(k)).unwrap();
    }
    assert!(c.counters.splits > 0, "tiny nodes must split");
    for k in 1..=n {
        assert_eq!(c.search(k * 3 + 1), Some(v(k)), "key {}", k * 3 + 1);
    }
    // Absent keys in between.
    for k in (1..=200u64).map(|k| k * 3) {
        assert_eq!(c.search(k), None, "absent key {k}");
    }
}

#[test]
fn update_and_delete() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=500u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=500u64 {
        assert!(c.update(k, &v(k + 1000)).unwrap());
    }
    for k in 1..=500u64 {
        assert_eq!(c.search(k), Some(v(k + 1000)));
    }
    assert!(!c.update(9999, &v(0)).unwrap());
    for k in (1..=500u64).step_by(2) {
        assert!(c.delete(k).unwrap());
    }
    assert!(!c.delete(1).unwrap());
    for k in 1..=500u64 {
        if k % 2 == 1 {
            assert_eq!(c.search(k), None);
        } else {
            assert_eq!(c.search(k), Some(v(k + 1000)));
        }
    }
}

#[test]
fn insert_overwrites_duplicate() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    c.insert(7, &v(1)).unwrap();
    c.insert(7, &v(2)).unwrap();
    assert_eq!(c.search(7), Some(v(2)));
}

#[test]
fn scan_returns_sorted_range() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=2_000u64 {
        c.insert(k * 2, &v(k)).unwrap();
    }
    let mut out = Vec::new();
    c.scan(101, 50, &mut out);
    assert_eq!(out.len(), 50);
    let want: Vec<u64> = (51..101).map(|k| k * 2).collect();
    let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
    assert_eq!(got, want);
    for (k, val) in &out {
        assert_eq!(val, &v(k / 2));
    }
    // Scan past the end is truncated.
    let mut out = Vec::new();
    c.scan(3_999, 50, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, 4_000);
}

#[test]
fn stale_cn_cache_self_heals() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn_a = t.new_cn();
    let cn_b = t.new_cn();
    let mut a = t.client(&cn_a);
    let mut b = t.client(&cn_b);
    // Warm B's cache with the small tree.
    a.insert(1, &v(1)).unwrap();
    assert_eq!(b.search(1), Some(v(1)));
    // A grows the tree massively; B's cache is now stale everywhere.
    for k in 2..=3_000u64 {
        a.insert(k, &v(k)).unwrap();
    }
    for k in (1..=3_000u64).step_by(17) {
        assert_eq!(b.search(k), Some(v(k)), "stale-cache search {k}");
    }
    let mut out = Vec::new();
    b.scan(1, 100, &mut out);
    assert_eq!(out.len(), 100);
}

#[test]
fn speculative_reads_hit_on_hot_keys() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=200u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for _ in 0..50 {
        assert_eq!(c.search(42), Some(v(42)));
    }
    assert!(c.counters.spec_attempts > 0);
    assert!(c.counters.spec_hits > 0);
    assert!(c.counters.spec_hits >= c.counters.spec_attempts - 2);
    let (hits, lookups) = cn.hotspot_stats();
    assert!(hits > 0 && lookups >= hits);
}

/// A speculation that fails says what the slot holds, and the description
/// that sent it there is corrected: before, a hot key that was deleted kept
/// its description (nothing ever read through it again), and every later
/// search paid a wasted speculative READ on top of the neighborhood READ.
#[test]
fn deleted_hot_key_costs_one_failed_speculation() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=200u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for _ in 0..50 {
        assert_eq!(c.search(42), Some(v(42)));
    }
    assert!(c.delete(42).unwrap());
    let (attempts, rtts) = (c.counters.spec_attempts, c.ep.stats().rtts);
    for _ in 0..20 {
        assert_eq!(c.search(42), None);
    }
    assert_eq!(c.counters.spec_attempts - attempts, 1);
    assert_eq!(c.ep.stats().rtts - rtts, 21);
}

/// Same for hopscotch displacement: inserts hop hot keys to other slots of
/// their leaves; the first search of each displaced key speculates on its
/// old slot, finds another key there and resets the description, so the
/// second round speculates on fresh descriptions only. Before, the stale
/// description's high count kept winning the lookup.
#[test]
fn displaced_hot_keys_cost_one_failed_speculation_each() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let hot: Vec<u64> = (1..=150).map(|k| k * 2).collect();
    for &k in &hot {
        c.insert(k, &v(k)).unwrap();
    }
    for _ in 0..5 {
        for &k in &hot {
            assert_eq!(c.search(k), Some(v(k)));
        }
    }
    for k in (1..=100u64).map(|k| k * 2 + 1) {
        c.insert(k, &v(k)).unwrap();
    }
    let mut failed = [0u64; 2];
    for round in &mut failed {
        let before = c.counters.spec_attempts - c.counters.spec_hits;
        for &k in &hot {
            assert_eq!(c.search(k), Some(v(k)));
        }
        *round = c.counters.spec_attempts - c.counters.spec_hits - before;
    }
    assert!(failed[0] > 0, "no hot key was displaced: the test needs other keys");
    assert_eq!(failed[1], 0, "stale descriptions survived their failed speculation");
}

#[test]
fn default_config_large_nodes() {
    let pool = pool();
    let t = Chime::create(&pool, ChimeConfig::default(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=2_000u64 {
        c.insert(k * 7 + 3, &v(k)).unwrap();
    }
    for k in (1..=2_000u64).step_by(7) {
        assert_eq!(c.search(k * 7 + 3), Some(v(k)));
    }
}

#[test]
fn baseline_config_works() {
    // All optimizations off (Fig. 15 starting point): dedicated vacancy
    // word, single header, fence keys, no speculation.
    let pool = pool();
    let t = Chime::create(
        &pool,
        ChimeConfig {
            span: 16,
            internal_span: 8,
            neighborhood: 4,
            ..ChimeConfig::baseline()
        },
        0,
    );
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=1_500u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=1_500u64 {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
    assert_eq!(c.search(5_000), None);
    for k in 1..=100u64 {
        assert!(c.update(k, &v(k + 9)).unwrap());
        assert_eq!(c.search(k), Some(v(k + 9)));
    }
}

#[test]
fn indirect_values_roundtrip() {
    let pool = pool();
    let cfg = ChimeConfig {
        indirect_values: true,
        value_size: 64,
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        ..Default::default()
    };
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=300u64 {
        let val = vec![k as u8; 40];
        c.insert(k, &val).unwrap();
    }
    for k in 1..=300u64 {
        assert_eq!(c.search(k), Some(vec![k as u8; 40]));
    }
    assert!(c.update(5, &[9u8; 33]).unwrap());
    assert_eq!(c.search(5), Some(vec![9u8; 33]));
    let mut out = Vec::new();
    c.scan(1, 10, &mut out);
    assert_eq!(out.len(), 10);
    assert_eq!(out[0].1, vec![1u8; 40]);
}

#[test]
fn concurrent_clients_disjoint_inserts() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let threads = 4;
    let per = 800u64;
    crossbeam::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move |_| {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..per {
                    let k = 1 + i * threads + tid;
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    })
    .unwrap();
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=(per * threads) {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
}

#[test]
fn concurrent_mixed_readers_and_writers() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    {
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=1_000u64 {
            c.insert(k, &v(k)).unwrap();
        }
    }
    crossbeam::thread::scope(|s| {
        // Writers keep inserting new keys and updating old ones.
        for tid in 0..2u64 {
            let t = t.clone();
            s.spawn(move |_| {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..500u64 {
                    c.insert(10_000 + tid * 1_000 + i, &v(i)).unwrap();
                    c.update(1 + (i * 7 + tid) % 1_000, &v(i)).unwrap();
                }
            });
        }
        // Readers must always see the preloaded keys.
        for _ in 0..2 {
            let t = t.clone();
            s.spawn(move |_| {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..2_000u64 {
                    let k = 1 + (i * 13) % 1_000;
                    assert!(c.search(k).is_some(), "preloaded key {k} lost");
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn leaf_addrs_under_enumerates_every_leaf() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let n = 2_000u64;
    for k in 1..=n {
        c.insert(k, &v(k)).unwrap();
    }
    let root = c.current_root();
    let leaves = c.leaf_addrs_under(root);
    let mut total = 0u64;
    let mut prev_max = 0u64;
    for addr in &leaves {
        let snap = c.leaf().read_full(&mut c.ep, *addr);
        assert!(snap.meta.valid);
        let min = snap.items().map(|(k, _)| k).min().unwrap();
        assert!(min > prev_max, "leaves out of order");
        prev_max = snap.max_key().unwrap();
        total += snap.items().count() as u64;
    }
    assert_eq!(total, n);
}

#[test]
fn pinned_tree_and_client_allocate_on_home_mn() {
    let pool = Pool::with_defaults(4, 64 << 20);
    let t = Chime::create_pinned(&pool, small_cfg(), 0, 2);
    let cn = t.new_cn();
    let mut c = t.client_pinned(&cn, 2);
    for k in 1..=2_000u64 {
        c.insert(k, &v(k)).unwrap();
    }
    let root = c.current_root();
    assert_eq!(root.mn(), 2, "root internal node off the home MN");
    for addr in c.leaf_addrs_under(root) {
        assert_eq!(addr.mn(), 2, "leaf off the home MN");
    }
    assert_eq!(c.check_integrity().unwrap(), 2_000);
}

#[test]
fn moved_leaves_forward_point_ops_to_the_new_tree() {
    // Simulate a partition migration by hand: move every leaf of the
    // old tree into a fresh tree on another slot, leaving forwarding
    // tombstones behind, and verify that clients still routed through
    // the *old* root reach every key (and can write) via the forwards.
    let pool = pool();
    let old = Chime::create(&pool, small_cfg(), 0);
    let new = Chime::create(&pool, small_cfg(), 1);
    let cn = old.new_cn();
    let mut w = old.client(&cn);
    let n = 1_200u64;
    for k in 1..=n {
        w.insert(k, &v(k)).unwrap();
    }
    let new_cn = new.new_cn();
    let mut dst = new.client(&new_cn);
    let old_root = w.current_root();
    let mut mover = old.client(&cn);
    let mut moved = 0u64;
    for addr in mover.leaf_addrs_under(old_root) {
        let fwd = dst.current_root();
        moved += mover.move_leaf_into(addr, &mut dst, fwd).unwrap().unwrap();
    }
    assert_eq!(moved, n);
    assert_eq!(dst.check_integrity().unwrap(), n);
    // A reader attached to the old tree, with a cold cache, follows the
    // forwarding tombstones into the new tree.
    let cold_cn = old.new_cn();
    let mut r = old.client(&cold_cn);
    for k in (1..=n).step_by(97) {
        assert_eq!(r.search(k), Some(v(k)), "forwarded search for {k}");
    }
    assert!(r.counters.chases > 0, "no forward chase recorded");
    // Updates and deletes never split, so they may chase forwards too.
    r.update(5, &v(999)).unwrap();
    assert!(r.delete(7).unwrap());
    assert_eq!(dst.search(5), Some(v(999)));
    assert_eq!(dst.search(7), None);
    // Inserts refuse to chase (a split would anchor to the wrong
    // tree); they go through only after the live slot is switched,
    // as the migration protocol's switch step does.
    let new_root = dst.current_root();
    let mut ctl = Endpoint::new(Arc::clone(&pool));
    let prev = ctl.cas(r.shared.root_slot, old_root.raw(), new_root.raw());
    assert_eq!(prev, old_root.raw());
    r.insert(n + 1, &v(n + 1)).unwrap();
    assert_eq!(dst.search(n + 1), Some(v(n + 1)));
    // Re-driving a move over an already-retired leaf is a no-op.
    let first_leaf = mover.leaf_addrs_under(old_root)[0];
    let fwd = dst.current_root();
    let again = mover.move_leaf_into(first_leaf, &mut dst, fwd).unwrap();
    assert_eq!(again, None);
}

#[test]
fn ownership_miss_on_a_bitmap_full_leaf_counts_a_chase() {
    // An insert routed (through a parent that lacks a pivot, as during an
    // unpropagated half-split) to a leaf whose vacancy bitmap shows no
    // room takes the whole-node branch of the write preamble. The fence
    // check there finds the key belongs to the right sibling: that is a
    // sibling chase like on every other branch, and must be counted.
    let pool = pool();
    let cfg = ChimeConfig {
        sibling_validation: false,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let n = 1_000u64;
    for k in 1..=n {
        c.insert(k * 2, &v(k)).unwrap();
    }
    // Drop a mid pivot from a level-1 node: its leaf stays reachable only
    // through the left neighbour's sibling pointer.
    let parent = c.locate_parent(n);
    assert!(parent.entries.len() >= 3, "need a populated level-1 node");
    let i = parent.entries.len() / 2;
    let (victim_pivot, left) = (parent.entries[i].0, parent.entries[i - 1].1);
    let shared = Arc::clone(&c.shared);
    shared.internal.lock(&mut c.ep, parent.addr);
    let mut fresh = shared.internal.read(&mut c.ep, parent.addr);
    fresh.entries.retain(|e| e.0 != victim_pivot);
    shared.internal.write_and_unlock(&mut c.ep, &fresh);
    c.cn.cache.lock().invalidate(parent.addr);
    // Claim every group of the left leaf full (the bitmap is allowed to be
    // conservative in that direction).
    let mut word = c.leaf().lock(&mut c.ep, left);
    for g in 0..c.leaf().vm.groups() {
        word = word.with_vacancy_bit(g, false);
    }
    c.leaf().unlock(&mut c.ep, left, word);
    // Pivots are `previous max + 1`, so odd here: absent, and owned by
    // the leaf the parent forgot.
    assert_eq!(victim_pivot % 2, 1);
    let chases = c.counters.chases;
    c.insert(victim_pivot, &v(7)).unwrap();
    assert_eq!(c.counters.chases, chases + 1);
    assert_eq!(c.search(victim_pivot), Some(v(7)));
}
