//! Unit tests of the tree (they reach into client internals).

use super::*;
use crate::cache::{Lean, Route};
use crate::internal::InternalNode;

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

/// The level-1 node covering `key`, read in full past the CN cache (whose
/// routes keep only pivot suffixes).
fn parent_node(c: &mut ChimeClient, key: u64) -> InternalNode {
    let addr = c.locate_parent(key).0.addr;
    c.shared.skeleton.internal.read(&mut c.ep, addr)
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
fn an_attached_tracer_records_op_spans() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    c.ep.set_tracer(dmem::Tracer::new(0, 4096));
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
    let parent = parent_node(&mut c, n / 2);
    assert!(parent.entries.len() >= 3, "need a populated level-1 node");
    let victim_pivot = parent.entries[parent.entries.len() / 2].0;
    let shared = Arc::clone(&c.shared);
    shared.skeleton.internal.lock(&mut c.ep, parent.addr);
    let mut fresh = shared.skeleton.internal.read(&mut c.ep, parent.addr);
    let i = fresh
        .entries
        .iter()
        .position(|e| e.0 == victim_pivot)
        .expect("victim pivot present");
    fresh.entries.remove(i);
    shared.skeleton.internal.write_and_unlock(&mut c.ep, &fresh);
    c.cn.routes.cache().invalidate(parent.addr);
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

/// Speculation is derived from the hotspot budget: with no buffer, a
/// search never speculates and the buffer sees no lookups.
#[test]
fn no_hotspot_buffer_means_no_speculative_reads() {
    let pool = pool();
    let cfg = ChimeConfig {
        hotspot_bytes: 0,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=200u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for _ in 0..50 {
        assert_eq!(c.search(42), Some(v(42)));
    }
    assert_eq!((c.counters.spec_attempts, c.counters.spec_hits), (0, 0));
    assert_eq!(cn.hotspot_stats(), (0, 0));
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
    std::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..per {
                    let k = 1 + i * threads + tid;
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    });
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
    std::thread::scope(|s| {
        // Writers keep inserting new keys and updating old ones.
        for tid in 0..2u64 {
            let t = t.clone();
            s.spawn(move || {
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
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..2_000u64 {
                    let k = 1 + (i * 13) % 1_000;
                    assert!(c.search(k).is_some(), "preloaded key {k} lost");
                }
            });
        }
    });
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
        let snap = c.leaf().read_snapshot(&mut c.ep, *addr, &mut Fetches::default());
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
    let prev = ctl.cas(r.shared.skeleton.root_slot, old_root.raw(), new_root.raw());
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
    let parent = parent_node(&mut c, n);
    assert!(parent.entries.len() >= 3, "need a populated level-1 node");
    let i = parent.entries.len() / 2;
    let (victim_pivot, left) = (parent.entries[i].0, parent.entries[i - 1].1);
    let shared = Arc::clone(&c.shared);
    shared.skeleton.internal.lock(&mut c.ep, parent.addr);
    let mut fresh = shared.skeleton.internal.read(&mut c.ep, parent.addr);
    fresh.entries.retain(|e| e.0 != victim_pivot);
    shared.skeleton.internal.write_and_unlock(&mut c.ep, &fresh);
    c.cn.routes.cache().invalidate(parent.addr);
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

// ----------------------------------------------------------------------
// Updates and deletes lock and read their window in one doorbell
// ----------------------------------------------------------------------

/// The lock word of leaf `addr`, read without locking.
fn lock_word(c: &mut ChimeClient, addr: GlobalAddr) -> LockWord {
    let mut b = [0u8; 8];
    let at = addr.add(c.leaf().layout.lock_off() as u64);
    c.ep.read(at, &mut b);
    LockWord(u64::from_le_bytes(b))
}

/// Whether slot `i` lies in the neighborhood window of `key`'s home entry.
fn in_window(c: &ChimeClient, key: u64, i: usize) -> bool {
    let span = c.span();
    crate::hopscotch::cyc_dist(dmem::hash::home_entry(key, span), i, span) < c.h()
}

fn leaf_reads(c: &ChimeClient) -> u64 {
    c.ep.profile().phase(Phase::LeafRead).episodes
}

/// A lane hook that completes every verb at its serial latency and, at the
/// thread's first verb-free clock advance — the backoff after a failed lock
/// attempt — runs another CN's step on a thread of its own.
struct AtFirstBackoff {
    net: dmem::NetConfig,
    step: Option<Box<dyn FnOnce() + Send>>,
}

impl dmem::LaneHook for AtFirstBackoff {
    fn post(&mut self, now_ns: u64, _: u16, msgs: u64, wire: u64, _: u64) -> dmem::WqeOutcome {
        let ns = self.net.verb_latency_ns(msgs, wire);
        dmem::WqeOutcome {
            completion_ns: now_ns + ns,
            service_ns: ns,
            cq_wait_ns: 0,
            rtts: 1,
            batched: false,
        }
    }

    fn timer(&mut self, _now_ns: u64, _dt_ns: u64) {
        if let Some(step) = self.step.take() {
            std::thread::spawn(step).join().expect("the other CN's step");
        }
    }
}

/// A failed lock attempt's READ is dropped. Another CN holds the leaf lock;
/// between our failed attempt, whose READ saw the key, and the retry that
/// wins, it deletes the key and releases. The update must see the delete —
/// acting on the failed attempt's READ would write the key back.
#[test]
fn a_failed_lock_attempts_read_is_never_used() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let mut a = t.client(&t.new_cn());
    let mut b = t.client(&t.new_cn());
    for k in 1..=200u64 {
        a.insert(k, &v(k)).unwrap();
    }
    // B locks the leaf of a key that is not its leaf's maximum (a plain
    // delete) and reads the key's window.
    let leaf = b.leaf();
    let (key, addr, word, mut lr, pos) = (1..=200u64)
        .find_map(|k| {
            let (addr, home) = (b.locate_leaf(k).addr, dmem::hash::home_entry(k, b.span()));
            let mut lr = LockedRead::default();
            let word = leaf.lock_nbh_window(&mut b.ep, addr, home, &mut lr);
            let pos = lr.w.find_in_neighborhood(k).expect("preloaded key");
            if usize::from(word.argmax()) == pos {
                leaf.unlock(&mut b.ep, addr, word);
                return None;
            }
            Some((k, addr, word, lr, pos))
        })
        .expect("a leaf holds more than its maximum");
    let delete = Box::new(move || {
        lr.w.remove(pos);
        let word = word.with_vacancy_bit(leaf.vm.group_of(pos), true);
        lr.write_back(&leaf, &mut b.ep, addr, word);
    });
    dmem::install_lane_hook(Box::new(AtFirstBackoff {
        net: *pool.net(),
        step: Some(delete),
    }));
    let updated = a.update(key, &v(7));
    dmem::uninstall_lane_hook();
    assert_eq!(a.ep.stats().lock_retries, 1, "exactly one failed lock attempt");
    assert!(!updated.unwrap(), "the update acted on its failed attempt's READ");
    assert_eq!(a.search(key), None);
    assert_eq!(a.check_integrity().unwrap(), 199);
}

/// An update routed to the left half of a split whose pivot never reached
/// the parent: the sibling is not the one the parent expects, so ownership
/// needs the leaf's maximum key. Its argmax entry lies outside the key's
/// window, whose keys are all below the key, and was not in the lock's
/// doorbell; it is read under the lock, once, and the update detours to the
/// right half. There the key itself is in its window: ownership needs no
/// READ.
#[test]
fn an_unpropagated_split_reads_the_argmax_entry_then_detours() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let mut c = t.client(&t.new_cn());
    let n = 1_000u64;
    for k in 1..=n {
        c.insert(k * 2, &v(k)).unwrap();
    }
    let parent = parent_node(&mut c, n);
    assert!(parent.entries.len() >= 4, "need a populated level-1 node");
    // A key of leaf `right` whose window misses both its own leaf's argmax
    // slot and its left neighbour's.
    let (pivot, left, key) = (1..parent.entries.len() - 1)
        .find_map(|i| {
            let (left, right) = (parent.entries[i - 1].1, parent.entries[i].1);
            let am_left = usize::from(lock_word(&mut c, left).argmax());
            let am_right = usize::from(lock_word(&mut c, right).argmax());
            let snap = c.leaf().read_snapshot(&mut c.ep, right, &mut Fetches::default());
            let mut keys = snap.items().map(|(k, _)| k);
            let key = keys.find(|&k| !in_window(&c, k, am_left) && !in_window(&c, k, am_right))?;
            Some((parent.entries[i].0, left, key))
        })
        .expect("some key's window misses both argmax slots");
    let shared = Arc::clone(&c.shared);
    shared.skeleton.internal.lock(&mut c.ep, parent.addr);
    let mut fresh = shared.skeleton.internal.read(&mut c.ep, parent.addr);
    fresh.entries.retain(|e| e.0 != pivot);
    shared.skeleton.internal.write_and_unlock(&mut c.ep, &fresh);
    c.cn.routes.cache().invalidate(parent.addr);
    assert_eq!(c.locate_leaf(key).addr, left, "routed to the left half");
    let (chases, reads) = (c.counters.chases, leaf_reads(&c));
    assert!(c.update(key, &v(7)).unwrap());
    assert_eq!(c.counters.chases, chases + 1, "one detour");
    assert_eq!(leaf_reads(&c) - reads, 1, "the left half's argmax entry, read under the lock");
    assert_eq!(c.search(key), Some(v(7)));
    assert_eq!(c.check_integrity().unwrap(), n);
}

/// Delete-of-max is the delete at the slot the lock word names: it reads
/// the whole leaf and moves argmax to the new maximum. A key whose window
/// misses the argmax slot, or holds it without being the maximum, deletes
/// inside its window and leaves argmax alone.
#[test]
fn delete_of_max_is_the_delete_at_the_argmax_slot() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let mut c = t.client(&t.new_cn());
    for k in 1..=400u64 {
        c.insert(k, &v(k)).unwrap();
    }
    let root = c.current_root();
    // A leaf with a key whose window misses its argmax slot and, after its
    // maximum is gone, a non-maximal key whose window holds the new one.
    let snap_of = |c: &mut ChimeClient, addr| c.leaf().read_snapshot(&mut c.ep, addr, &mut Fetches::default());
    let leaves = c.leaf_addrs_under(root);
    let (addr, outside) = leaves
        .iter()
        .find_map(|&addr| {
            let snap = snap_of(&mut c, addr);
            let am = usize::from(snap.argmax());
            let outside = snap.items().map(|(k, _)| k).find(|&k| !in_window(&c, k, am))?;
            Some((addr, outside))
        })
        .expect("a leaf with a key far from its maximum");
    let snap = snap_of(&mut c, addr);
    let am = snap.argmax();
    assert_eq!(lock_word(&mut c, addr).argmax(), am);

    // Argmax outside the window: no whole-node read, argmax unchanged.
    let reads = leaf_reads(&c);
    assert!(c.delete(outside).unwrap());
    assert_eq!(leaf_reads(&c), reads);
    assert_eq!(lock_word(&mut c, addr).argmax(), am);

    // The maximum: one whole-node read, argmax names the new maximum.
    let max = snap.max_key().unwrap();
    assert!(c.delete(max).unwrap());
    assert_eq!(leaf_reads(&c), reads + 1);
    let snap = snap_of(&mut c, addr);
    assert_ne!(snap.argmax(), am);
    assert_eq!(lock_word(&mut c, addr).argmax(), snap.argmax());

    // Argmax inside the window of a smaller key: a plain delete.
    let am = usize::from(snap.argmax());
    let max = snap.max_key().unwrap();
    if let Some(k) = snap.items().map(|(k, _)| k).find(|&k| k != max && in_window(&c, k, am)) {
        assert!(c.delete(k).unwrap());
        assert_eq!(leaf_reads(&c), reads + 1);
        assert_eq!(usize::from(lock_word(&mut c, addr).argmax()), am);
    }
    assert_eq!(c.search(max), Some(v(max)));
    assert_eq!(c.search(outside), None);
    c.check_integrity().unwrap();
}

/// A lease takeover is a full-word CAS with no READ behind it: the window
/// is read after it, before the write-back.
#[test]
fn a_lease_takeover_reads_the_window_after_its_cas() {
    let pool = pool();
    let cfg = ChimeConfig {
        lock_lease_spins: 4,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let mut a = t.client(&t.new_cn());
    for k in 1..=200u64 {
        a.insert(k, &v(k)).unwrap();
    }
    // A client of another CN dies holding the leaf of key 42.
    let mut dead = t.client(&t.new_cn());
    let addr = dead.locate_leaf(42).addr;
    dead.leaf().lock(&mut dead.ep, addr);
    a.ep.set_tracer(dmem::Tracer::new(0, 1024));
    assert!(a.update(42, &v(7)).unwrap());
    assert_eq!(a.ep.stats().stale_locks_reclaimed, 1);
    let spans = a.ep.tracer().unwrap().spans();
    let verbs: Vec<&str> = spans[0].verbs.iter().map(|v| v.verb).collect();
    // After the descent: one attempt to see the word, four more to see it
    // unchanged, the takeover, the window READ, the write-back.
    let mut want = vec!["masked_cas_read"; 5];
    want.extend(["cas", "read", "write"]);
    assert_eq!(verbs[verbs.len() - want.len()..], want);
    assert!(!verbs[..verbs.len() - want.len()].contains(&"masked_cas_read"));
    assert_eq!(a.search(42), Some(v(7)));
}

// ----------------------------------------------------------------------
// Inserts lock and read their neighborhood in one doorbell
// ----------------------------------------------------------------------

/// Keys 2, 4, …, 400 (odd keys are fresh) in a small-geometry tree, each
/// searched once so the client's cache routes without verbs.
fn even_tree(pool: &Arc<Pool>) -> (Chime, ChimeClient) {
    let t = Chime::create(pool, small_cfg(), 0);
    let mut c = t.client(&t.new_cn());
    for k in (2..=400u64).step_by(2) {
        c.insert(k, &v(k)).unwrap();
    }
    for k in (2..=400u64).step_by(2) {
        assert_eq!(c.search(k), Some(v(k)));
    }
    (t, c)
}

/// The first of `keys` whose leaf shows a vacancy and, read whole,
/// satisfies `pick(snapshot, window, key)`, where `window` lists the slots
/// an insert of the key reads in its lock's doorbell; with that leaf.
fn find_key(
    c: &mut ChimeClient,
    keys: impl IntoIterator<Item = u64>,
    pick: impl Fn(&crate::leaf::LeafSnapshot, &[usize], u64) -> bool,
) -> (u64, GlobalAddr) {
    let (span, h, vm) = (c.span(), c.h(), c.leaf().vm);
    keys.into_iter()
        .find_map(|k| {
            let (addr, home) = (c.locate_leaf(k).addr, dmem::hash::home_entry(k, span));
            vm.first_vacant_group(lock_word(c, addr), home)?;
            let snap = c.leaf().read_snapshot(&mut c.ep, addr, &mut Fetches::default());
            let (a, e) = vm.align_to_groups(home, (home + h - 1) % span);
            let window: Vec<usize> =
                (0..=crate::hopscotch::cyc_dist(a, e, span)).map(|d| (a + d) % span).collect();
            pick(&snap, &window, k).then_some((k, addr))
        })
        .expect("a key that fits")
}

/// Runs the operation `op` under a fresh tracer: the stats it moved and its
/// verbs, as `(name, wire bytes)`.
fn traced(c: &mut ChimeClient, op: impl FnOnce(&mut ChimeClient)) -> (dmem::ClientStats, Vec<(&'static str, u64)>) {
    c.ep.set_tracer(dmem::Tracer::new(0, 1024));
    let s0 = c.ep.stats().clone();
    op(c);
    let spans = c.ep.tracer().unwrap().spans();
    let verbs = spans[0].verbs.iter().map(|v| (v.verb, v.wire_bytes)).collect();
    (c.ep.stats().since(&s0), verbs)
}

/// The verbs' names.
fn names(verbs: &[(&'static str, u64)]) -> Vec<&'static str> {
    verbs.iter().map(|v| v.0).collect()
}

/// The raw bytes of leaf `addr`, lock word included.
fn leaf_bytes(c: &mut ChimeClient, addr: GlobalAddr) -> Vec<u8> {
    let mut b = vec![0u8; c.leaf().layout.node_size()];
    c.ep.read(addr, &mut b);
    b
}

/// An insert of a present key is an update: its neighborhood, read in the
/// lock's doorbell, holds the key, so it takes the lock and the write-back
/// (one masked CAS, no further READ) and leaves the leaf byte for byte as
/// an update of the key does.
#[test]
fn an_upsert_takes_two_round_trips_and_writes_what_an_update_writes() {
    let (pa, pb) = (pool(), pool());
    let (_ta, mut a) = even_tree(&pa);
    let (_tb, mut b) = even_tree(&pb);
    let (key, addr) = find_key(&mut a, (2..=400u64).step_by(2), |_, _, _| true);
    let (s, upsert) = traced(&mut a, |c| c.insert(key, &v(7)).unwrap());
    assert_eq!((s.rtts, s.atomics), (2, 1));
    assert_eq!(names(&upsert), ["masked_cas_read", "write"]);
    let (_, update) = traced(&mut b, |c| assert!(c.update(key, &v(7)).unwrap()));
    assert_eq!(upsert, update);
    assert_eq!(leaf_bytes(&mut a, addr), leaf_bytes(&mut b, addr));
    assert_eq!(a.search(key), Some(v(7)));
}

/// A fresh key whose window has room and holds a larger key: the window's
/// keys bound the node's maximum from below, so the argmax entry, outside
/// the window, is neither read nor moved.
#[test]
fn a_window_key_above_the_insert_spares_the_argmax_read() {
    let pool = pool();
    let (_t, mut c) = even_tree(&pool);
    let (key, addr) = find_key(&mut c, (1..400u64).step_by(2), |s, win, k| {
        let am = usize::from(s.argmax());
        win.iter().any(|&i| s.keys[i] == 0) && win.iter().any(|&i| s.keys[i] > k) && !win.contains(&am)
    });
    let word = lock_word(&mut c, addr);
    let reads = leaf_reads(&c);
    let (s, verbs) = traced(&mut c, |c| c.insert(key, &v(key)).unwrap());
    assert_eq!(s.rtts, 2);
    assert_eq!(names(&verbs), ["masked_cas_read", "write"]);
    assert_eq!(leaf_reads(&c), reads);
    assert_eq!(lock_word(&mut c, addr).argmax(), word.argmax());
    assert_eq!(c.search(key), Some(v(key)));
    assert_eq!(c.check_integrity().unwrap(), 201);
}

/// A fresh key above every key of its window, whose leaf's argmax slot lies
/// outside it, may be the new maximum: the argmax entry is read under the
/// lock, one entry in a third round trip.
#[test]
fn an_insert_above_its_window_reads_the_argmax_entry() {
    let pool = pool();
    let (_t, mut c) = even_tree(&pool);
    let (key, addr) = find_key(&mut c, (1..400u64).step_by(2), |s, win, k| {
        let am = usize::from(s.argmax());
        win.iter().any(|&i| s.keys[i] == 0) && win.iter().all(|&i| s.keys[i] < k) && !win.contains(&am)
    });
    let l = c.leaf().layout;
    let off = l.entry_off(usize::from(lock_word(&mut c, addr).argmax()));
    let (ps, pe) = l.versioned().phys_range(off, off + l.entry_size());
    let entry_read = (pe - ps) as u64 + pool.net().msg_overhead;
    let reads = leaf_reads(&c);
    let (s, verbs) = traced(&mut c, |c| c.insert(key, &v(key)).unwrap());
    assert_eq!(s.rtts, 3);
    assert_eq!(names(&verbs), ["masked_cas_read", "read", "write"]);
    assert_eq!(verbs[1].1, entry_read, "one entry");
    assert_eq!(leaf_reads(&c), reads + 1);
    assert_eq!(c.search(key), Some(v(key)));
    assert_eq!(c.check_integrity().unwrap(), 201);
}

/// A fresh key whose window has no empty slot at or after its home reads
/// the hop window the vacancy bitmap names and places the key where the
/// lock-then-hop-window insert does.
#[test]
fn an_insert_without_room_in_its_window_reads_the_hop_window() {
    let pool = pool();
    let (_t, mut c) = even_tree(&pool);
    let (key, addr) = find_key(&mut c, (1..400u64).step_by(2), |s, win, _| {
        win.iter().all(|&i| s.keys[i] != 0)
    });
    // The lock-then-hop-window insert, on a local copy of the window.
    let leaf = c.leaf();
    let home = dmem::hash::home_entry(key, c.span());
    let word = leaf.lock(&mut c.ep, addr);
    let s0 = c.ep.stats().clone();
    let mut lr = LockedRead::default();
    assert!(leaf.read_hop_window(&mut c.ep, addr, home, word, &mut lr), "room");
    let hop_bytes = c.ep.stats().since(&s0).wire_bytes;
    let empty = lr.w.first_empty_from(home).expect("room at or after home");
    let want = lr.w.insert(key, &v(key), empty).expect("a feasible hop");
    leaf.unlock(&mut c.ep, addr, word);
    let (s, verbs) = traced(&mut c, |c| c.insert(key, &v(key)).unwrap());
    assert_eq!(s.rtts, 3);
    assert_eq!(names(&verbs), ["masked_cas_read", "read", "write"]);
    assert_eq!(verbs[1].1, hop_bytes, "the hop window's READ");
    let snap = c.leaf().read_snapshot(&mut c.ep, addr, &mut Fetches::default());
    assert_eq!(snap.find(key).map(|(i, _)| i), Some(want));
    assert_eq!(c.check_integrity().unwrap(), 201);
}

/// A failed lock attempt's READ is dropped by inserts too. Another CN holds
/// the leaf; between our failed attempt, whose READ saw the first empty
/// slot of our key's neighborhood, and the retry that wins, it inserts a
/// key into that slot and releases. Placing ours by the failed attempt's
/// READ would overwrite theirs.
#[test]
fn an_insert_never_places_by_a_failed_lock_attempts_read() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let mut a = t.client(&t.new_cn());
    let mut b = t.client(&t.new_cn());
    for k in (2..=400u64).step_by(2) {
        a.insert(k, &v(k)).unwrap();
    }
    // Two fresh keys of one leaf whose neighborhoods' first empty slot is
    // the same.
    let (span, h) = (a.span(), a.h());
    let first_empty = |snap: &crate::leaf::LeafSnapshot, k: u64| {
        let home = dmem::hash::home_entry(k, span);
        (0..h).map(|d| (home + d) % span).find(|&i| snap.keys[i] == 0)
    };
    let (mine, theirs, addr, slot) = (1..400u64)
        .step_by(2)
        .find_map(|mine| {
            let addr = a.locate_leaf(mine).addr;
            let snap = a.leaf().read_snapshot(&mut a.ep, addr, &mut Fetches::default());
            let slot = first_empty(&snap, mine)?;
            let theirs = (1..400u64).step_by(2).find(|&k| {
                k != mine && first_empty(&snap, k) == Some(slot) && a.locate_leaf(k).addr == addr
            })?;
            Some((mine, theirs, addr, slot))
        })
        .expect("two fresh keys sharing a first empty slot");
    let (leaf, other) = (b.leaf(), t.clone());
    let word = leaf.lock(&mut b.ep, addr);
    let insert = Box::new(move || {
        leaf.unlock(&mut b.ep, addr, word);
        // A CN belongs to the thread that made it: this thread's insert
        // runs on a CN of its own.
        other.client(&other.new_cn()).insert(theirs, &v(theirs)).unwrap();
    });
    dmem::install_lane_hook(Box::new(AtFirstBackoff {
        net: *pool.net(),
        step: Some(insert),
    }));
    let retries = a.ep.stats().lock_retries;
    let r = a.insert(mine, &v(mine));
    dmem::uninstall_lane_hook();
    r.unwrap();
    assert_eq!(a.ep.stats().lock_retries - retries, 1, "exactly one failed lock attempt");
    let snap = a.leaf().read_snapshot(&mut a.ep, addr, &mut Fetches::default());
    assert_eq!(snap.find(theirs).map(|(i, _)| i), Some(slot), "their key took the slot");
    assert_ne!(snap.find(mine).map(|(i, _)| i), Some(slot));
    assert_eq!(a.search(mine), Some(v(mine)));
    assert_eq!(a.search(theirs), Some(v(theirs)));
    assert_eq!(a.check_integrity().unwrap(), 202);
}

// ----------------------------------------------------------------------
// Scans size their batches from the parent's pivots and the key density
// ----------------------------------------------------------------------

/// `(RTTs, wire bytes)` per scan of `count` rows from each of `starts`,
/// checking every scan against the sorted key set `keys`.
fn scan_cost(c: &mut ChimeClient, keys: &[u64], starts: &[u64], count: usize) -> (f64, f64) {
    let s0 = c.ep.stats().clone();
    for &start in starts {
        let mut out = Vec::new();
        c.scan(start, count, &mut out);
        let from = keys.partition_point(|&k| k < start);
        let want = &keys[from..keys.len().min(from + count)];
        assert!(out.iter().map(|r| r.0).eq(want.iter().copied()), "scan from {start}");
    }
    let s = c.ep.stats().since(&s0);
    let n = starts.len() as f64;
    (s.rtts as f64 / n, s.wire_bytes as f64 / n)
}

/// A client of a default-geometry tree built by inserting `keys` in the
/// order given, warmed by scans from every 37th key and from the last one;
/// and the keys, sorted.
fn scanned_tree(keys: impl Iterator<Item = u64>) -> (ChimeClient, Vec<u64>) {
    let t = Chime::create(&pool(), ChimeConfig::default(), 0);
    let mut c = t.client(&t.new_cn());
    let mut sorted: Vec<u64> = keys.inspect(|&k| c.insert(k, &v(k)).unwrap()).collect();
    sorted.sort_unstable();
    let warm: Vec<u64> = sorted.iter().step_by(37).chain(sorted.last()).copied().collect();
    scan_cost(&mut c, &sorted, &warm, 100);
    (c, sorted)
}

/// Hashed keys: the first leaf counts only above the start key and a leaf
/// holds the density seen, not ¾ of its span, so a 100-row scan is one
/// doorbell far more often. The fixed ¾ rule took 1.49 RTTs here (1.24 now).
#[test]
fn warmed_scans_of_hashed_keys_take_few_round_trips() {
    let (mut c, keys) = scanned_tree((1..=20_000u64).map(|k| dmem::hash::mix64(k) | 1));
    let starts: Vec<u64> = (0..400).map(|s| keys[s * 13 % keys.len()]).collect();
    let (rtts, _) = scan_cost(&mut c, &keys, &starts, 100);
    assert!(rtts <= 1.35, "{rtts} RTTs per 100-row scan");
}

/// Sequential keys: the rightmost leaf's range runs to `u64::MAX` and holds
/// a handful of keys. Counted in the density, it would make every leaf look
/// empty and every batch read the rest of its parent.
#[test]
fn scans_of_sequential_keys_move_no_more_bytes() {
    let (mut c, keys) = scanned_tree(1..=20_000u64);
    let starts: Vec<u64> = (0..400).map(|s| keys[s * 13 % keys.len()]).collect();
    let (_, bytes) = scan_cost(&mut c, &keys, &starts, 100);
    // Wire bytes per scan under the fixed ¾ rule (5 900.2 now).
    assert!(bytes <= 6_012.597_5, "{bytes} wire bytes per 100-row scan");
}

/// Crossing to the next parent reads it through the CN cache. Here the
/// cached copy is stale — another CN split it — and the scan still returns
/// every row once, in order: the stale copy lists leaves that moved to the
/// new right half (still valid, still chained), and the leaves it lacks are
/// bridged through the sibling chain.
#[test]
fn a_scan_across_a_stale_cached_parent_returns_every_row_once() {
    let pool = pool();
    let t = Chime::create(&pool, small_cfg(), 0);
    let (cn_a, cn_b) = (t.new_cn(), t.new_cn());
    let (mut a, mut b) = (t.client(&cn_a), t.client(&cn_b));
    for k in 1..=2_000u64 {
        a.insert(k * 10, &v(k)).unwrap();
    }
    let left = a.locate_parent(5_000).0;
    let right = a.locate_parent(left.fence_high).0;
    assert_eq!(right.addr, left.sibling, "A caches the right-hand parent");
    // B fills the right-hand parent's range until it splits.
    let filled = (right.fence_low..right.fence_high.min(20_000)).filter(|k| k % 10 != 0);
    for k in filled.clone() {
        b.insert(k, &v(k)).unwrap();
    }
    let fresh = b.shared.skeleton.internal.read(&mut b.ep, right.addr);
    assert!(fresh.fence_high < right.fence_high, "the right-hand parent split");
    let cached = cn_a.routes.cache().get(right.addr).expect("still cached");
    assert_eq!(cached, right, "A's copy is the stale one");
    // A scans from inside the left parent across the whole stale range.
    let mut keys: Vec<u64> = (1..=2_000u64).map(|k| k * 10).chain(filled).collect();
    keys.sort_unstable();
    let start = parent_node(&mut a, 5_000).entries[left.children().len() / 2].0;
    let count = keys.len() - keys.partition_point(|&k| k < start);
    scan_cost(&mut a, &keys, &[start], count.min(1_000));
}

/// Suffixes are offsets from a node's second pivot, so a dense run of keys
/// far above the tree's left edge (low fence 0) keeps every pivot whole:
/// once the routes are cached, no lookup misses and every search is one
/// leaf read.
#[test]
fn a_dense_run_far_from_the_low_fence_routes_exactly() {
    let pool = pool();
    let cfg = ChimeConfig {
        hotspot_bytes: 0,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let mut keys: Vec<u64> = (1..=3_000u64).map(|i| (1 << 40) | i).collect();
    keys.sort_by_key(|&k| dmem::hash::mix64(k));
    for &k in &keys {
        c.insert(k, &v(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(c.search(k), Some(v(k)));
    }
    let (misses, rtts) = (cn.cache_stats().1, c.stats().rtts);
    for &k in &keys {
        assert_eq!(c.search(k), Some(v(k)));
    }
    assert_eq!(cn.cache_stats().1, misses, "every route is cached and exact");
    assert_eq!(c.stats().rtts - rtts, keys.len() as u64, "one leaf read per search");
}

/// A cached route keeps each pivot as a 4-byte suffix, so with keys 2^40
/// apart a pivot shares its bucket with the keys next to it. CHIME's pivots
/// are a left half's maximum plus one: that maximum leans left onto its own
/// leaf at no cost, and a key just above the pivot leans left too — its
/// search's sibling validation turns that into one cache miss: the parent
/// is re-read, routes exactly, and the key is found in the right leaf.
#[test]
fn a_key_sharing_a_pivots_bucket_costs_one_cache_miss() {
    let pool = pool();
    let cfg = ChimeConfig {
        hotspot_bytes: 0,
        ..small_cfg()
    };
    let t = Chime::create(&pool, cfg, 0);
    let mut c = t.client(&t.new_cn());
    for i in 1..=300u64 {
        c.insert(i << 40, &v(i)).unwrap();
    }
    let pivot = {
        let node = parent_node(&mut c, 150 << 40);
        node.entries[node.entries.len() / 2].0
    };
    let (max, above) = (pivot - 1, pivot + 1);
    assert_eq!(c.search(max), Some(v(max >> 40)), "the left half's maximum");
    c.insert(above, &v(above)).unwrap();
    let node = parent_node(&mut c, above);
    let route = Route::new(&node);
    assert!(node.entries.iter().any(|e| e.0 == pivot), "the pivot stays");
    assert_eq!(route.select(max, Lean::Left).0, node.select(max).0);
    assert_ne!(route.select(above, Lean::Left), node.select(above), "a shared bucket");
    let stats = |c: &ChimeClient| (c.cn.routes.cache().hit_stats().1, c.counters.invalidations);
    assert_eq!(c.search(max), Some(v(max >> 40)));
    let before = stats(&c);
    assert_eq!(c.search(max), Some(v(max >> 40)));
    assert_eq!(stats(&c), before, "the maximum leans onto its own leaf");
    assert_eq!(c.search(above), Some(v(above)));
    assert_eq!(stats(&c), (before.0 + 1, before.1 + 1), "one miss re-reads the parent");
    // A scan from it starts one leaf early, on the left lean's child.
    let mut rows = Vec::new();
    c.scan(above, 2, &mut rows);
    assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), [above, max + (1 << 40)]);
    assert_eq!(c.check_integrity().unwrap(), 301);
}

// ----- the u64 scan ranks vs the u128 sort they replaced ---------------------

/// The first `count` row indices of `keys` as the scan ordered them before
/// ranks: `key << 64 | index` as a `u128`, sorted.
fn u128_order(keys: &[u64], count: usize) -> Vec<u64> {
    let mut rows: Vec<u128> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| u128::from(k) << 64 | i as u128)
        .collect();
    rows.sort_unstable();
    rows.iter().take(count).map(|&r| r as u64).collect()
}

/// The first `count` row indices of `keys` through the scan's ranks.
fn ranked_order(keys: &[u64], count: usize) -> Vec<u64> {
    let (or, and) = keys.iter().fold((0, u64::MAX), |(o, a), &k| (o | k, a & k));
    let rank = scan::Rank::new(or ^ and, keys.len() as u64);
    let mut ranks: Vec<u64> = keys.iter().enumerate().map(|(i, &k)| rank.of(k, i as u64)).collect();
    scan::order(rank, &mut ranks, count, |i| keys[i]);
    ranks
}

proptest::proptest! {
    /// Ranking rows by `u64`s orders them exactly as the `u128` sort did:
    /// random keys; clusters that differ only in the bits the index takes
    /// (with keys far apart beside them, so no shared prefix is shifted
    /// out); keys repeated across leaves; counts that cut a tie run, and
    /// counts at or past the number of rows.
    #[test]
    fn ranked_rows_come_out_in_the_u128_order(
        picks in proptest::collection::vec((0u8..5, proptest::prelude::any::<u64>(), 0u64..1024), 0..400),
        base0 in proptest::prelude::any::<u64>(),
        base1 in proptest::prelude::any::<u64>(),
        cut in 0usize..500,
    ) {
        let keys: Vec<u64> = picks
            .iter()
            .map(|&(kind, r, small)| match kind {
                0 => r,
                1 => base0 & !1023 | small,
                2 => base1.wrapping_add(small % 8),
                3 => small % 4,
                _ => u64::MAX - small % 2,
            })
            .collect();
        for count in [cut, keys.len(), keys.len() + 1, cut % (keys.len() + 1)] {
            proptest::prop_assert_eq!(ranked_order(&keys, count), u128_order(&keys, count), "count {}", count);
        }
    }
}

#[test]
fn ranked_rows_settle_ties_by_key_then_gather_order() {
    // Three copies of key 5 (one per "leaf"), keys that share every bit
    // but the last two, and 0 beside u64::MAX so no prefix is shared.
    let keys = [5, u64::MAX, 0b110, 5, 0, 0b101, 5, 0b111, 0b100];
    for count in 0..=keys.len() + 1 {
        assert_eq!(ranked_order(&keys, count), u128_order(&keys, count), "count {count}");
    }
    // One key everywhere: every row ties, and gather order decides.
    assert_eq!(ranked_order(&[9; 5], 3), [0, 1, 2]);
    assert!(ranked_order(&[], 3).is_empty());
}
