//! Edge-case tests for the CHIME tree: extreme keys, minimal geometries,
//! emptied leaves, wrap-around neighborhoods and boundary scans.

use chime::{Chime, ChimeConfig};
use dmem::{Pool, RangeIndex};

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

fn tree(cfg: ChimeConfig) -> (Chime, chime::ChimeClient) {
    let pool = Pool::with_defaults(1, 256 << 20);
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let c = t.client(&cn);
    (t, c)
}

#[test]
fn extreme_keys_roundtrip() {
    let (_t, mut c) = tree(ChimeConfig::default());
    for k in [1u64, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 48) + 5] {
        c.insert(k, &v(k)).unwrap();
    }
    for k in [1u64, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 48) + 5] {
        assert_eq!(c.search(k), Some(v(k)), "key {k:#x}");
    }
    let mut out = Vec::new();
    c.scan(u64::MAX - 10, 10, &mut out);
    assert_eq!(
        out.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        vec![u64::MAX - 1, u64::MAX]
    );
}

#[test]
#[should_panic(expected = "key 0 is reserved")]
fn key_zero_rejected() {
    let (_t, mut c) = tree(ChimeConfig::default());
    let _ = c.insert(0, &v(0));
}

#[test]
fn minimal_geometry_span_equals_h() {
    let cfg = ChimeConfig {
        span: 4,
        neighborhood: 4,
        internal_span: 4,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    for k in 1..=500u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=500u64 {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
    assert!(c.counters.splits > 10, "tiny leaves must split a lot");
}

#[test]
fn emptied_leaf_stays_usable() {
    let cfg = ChimeConfig {
        span: 8,
        neighborhood: 4,
        internal_span: 4,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    for k in 1..=300u64 {
        c.insert(k, &v(k)).unwrap();
    }
    // Delete everything, then rebuild.
    for k in 1..=300u64 {
        assert!(c.delete(k).unwrap());
    }
    for k in 1..=300u64 {
        assert_eq!(c.search(k), None);
    }
    let mut out = Vec::new();
    c.scan(1, 100, &mut out);
    assert!(out.is_empty());
    for k in 1..=300u64 {
        c.insert(k, &v(k + 1)).unwrap();
    }
    for k in 1..=300u64 {
        assert_eq!(c.search(k), Some(v(k + 1)));
    }
}

#[test]
fn value_padding_and_truncation() {
    let cfg = ChimeConfig {
        value_size: 16,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    // Short values are zero-padded to value_size.
    c.insert(1, &[7u8; 4]).unwrap();
    let got = c.search(1).unwrap();
    assert_eq!(got.len(), 16);
    assert_eq!(&got[..4], &[7u8; 4]);
    assert_eq!(&got[4..], &[0u8; 12]);
    // Long values are truncated to value_size.
    c.insert(2, &[9u8; 100]).unwrap();
    assert_eq!(c.search(2).unwrap(), vec![9u8; 16]);
}

#[test]
fn scan_count_zero_and_past_end() {
    let (_t, mut c) = tree(ChimeConfig::default());
    for k in 1..=100u64 {
        c.insert(k * 2, &v(k)).unwrap();
    }
    let mut out = Vec::new();
    c.scan(10, 0, &mut out);
    assert!(out.is_empty());
    c.scan(201, 50, &mut out);
    assert!(out.is_empty(), "scan past the last key returns nothing");
    c.scan(199, 50, &mut out);
    assert_eq!(out, vec![(200, v(100))]);
}

#[test]
fn dense_sequential_and_reverse_inserts() {
    // Sequential keys stress the right edge (argmax corner) in both
    // directions.
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 8,
        internal_span: 8,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    for k in 1..=2_000u64 {
        c.insert(k, &v(k)).unwrap();
    }
    for k in (2_001..=4_000u64).rev() {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=4_000u64 {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
    let mut out = Vec::new();
    c.scan(1, 4_000, &mut out);
    assert_eq!(out.len(), 4_000);
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn large_values_span_many_cache_lines() {
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 4,
        internal_span: 8,
        value_size: 512,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    for k in 1..=200u64 {
        c.insert(k, &vec![k as u8; 512]).unwrap();
    }
    for k in 1..=200u64 {
        assert_eq!(c.search(k), Some(vec![k as u8; 512]), "key {k}");
    }
    for k in 1..=50u64 {
        assert!(c.update(k, &vec![255 - k as u8; 512]).unwrap());
        assert_eq!(c.search(k), Some(vec![255 - k as u8; 512]));
    }
}

#[test]
fn neighborhood_wraparound_paths() {
    // With span == H * 2 many homes wrap; exercise search/insert there.
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 8,
        internal_span: 8,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    // Find keys whose home entry is near the span end.
    let mut wrapped = Vec::new();
    let mut k = 1u64;
    while wrapped.len() < 50 {
        if dmem::hash::home_entry(k, 16) >= 12 {
            wrapped.push(k);
        }
        k += 1;
    }
    for &k in &wrapped {
        c.insert(k, &v(k)).unwrap();
    }
    for &k in &wrapped {
        assert_eq!(c.search(k), Some(v(k)), "wrapped key {k}");
        assert!(c.update(k, &v(k + 1)).unwrap());
        assert_eq!(c.search(k), Some(v(k + 1)));
    }
    for &k in &wrapped {
        assert!(c.delete(k).unwrap());
    }
    for &k in &wrapped {
        assert_eq!(c.search(k), None);
    }
}

#[test]
fn random_order_inserts_interior_last_children() {
    // Regression: keys arriving out of order must not be misrouted when
    // they exceed the current max of an interior last-child leaf.
    let cfg = ChimeConfig {
        span: 8,
        neighborhood: 4,
        internal_span: 4,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    // Insert in a scrambled order.
    let mut keys: Vec<u64> = (1..=2_000u64).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..keys.len()).rev() {
        state = dmem::hash::mix64(state);
        keys.swap(i, (state % (i as u64 + 1)) as usize);
    }
    for &k in &keys {
        c.insert(k, &v(k)).unwrap();
    }
    for k in 1..=2_000u64 {
        assert_eq!(c.search(k), Some(v(k)), "key {k}");
    }
    let mut out = Vec::new();
    c.scan(1, 2_000, &mut out);
    assert_eq!(out.len(), 2_000, "scan must see every key exactly once");
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "no duplicates");
}

#[test]
fn many_cns_share_one_tree() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let t = Chime::create(&pool, ChimeConfig::default(), 0);
    let cns: Vec<_> = (0..8).map(|_| t.new_cn()).collect();
    // Round-robin inserts across CNs, then reads from every CN.
    let mut clients: Vec<_> = cns.iter().map(|cn| t.client(cn)).collect();
    for k in 1..=800u64 {
        clients[(k % 8) as usize].insert(k, &v(k)).unwrap();
    }
    for c in clients.iter_mut() {
        for k in (1..=800u64).step_by(37) {
            assert_eq!(c.search(k), Some(v(k)));
        }
    }
}

#[test]
fn integrity_checker_accepts_valid_trees() {
    let cfg = ChimeConfig {
        span: 8,
        neighborhood: 4,
        internal_span: 4,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    assert_eq!(c.check_integrity().unwrap(), 0);
    for k in 1..=1_500u64 {
        c.insert(k * 7 % 10_000 + 1, &v(k)).unwrap();
    }
    let n = c.check_integrity().unwrap();
    assert!(n > 1_000, "integrity walk saw {n} keys");
    for k in (1..=700u64).step_by(3) {
        c.delete(k * 7 % 10_000 + 1).unwrap();
    }
    c.check_integrity().unwrap();
}

#[test]
fn integrity_checker_after_concurrent_churn() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 8,
        internal_span: 8,
        ..Default::default()
    };
    let t = Chime::create(&pool, cfg, 0);
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..600u64 {
                    let k = 1 + dmem::hash::mix64(i * 4 + tid) % 1_000_000;
                    c.insert(k, &v(k)).unwrap();
                    if i % 5 == 0 {
                        c.delete(1 + dmem::hash::mix64(i * 2 + tid) % 1_000_000).unwrap();
                    }
                }
            });
        }
    });
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    c.check_integrity().unwrap();
}

#[test]
fn deletes_trigger_leaf_merges() {
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 8,
        internal_span: 8,
        ..Default::default()
    };
    let (_t, mut c) = tree(cfg);
    for k in 1..=3_000u64 {
        c.insert(k, &v(k)).unwrap();
    }
    // Delete from the top down so every node's max is repeatedly removed
    // (the merge check runs on full-window deletes).
    for k in (1..=2_900u64).rev() {
        assert!(c.delete(k).unwrap(), "delete {k}");
    }
    assert!(c.counters.merges > 0, "top-down deletes must trigger merges");
    c.check_integrity().unwrap();
    for k in 2_901..=3_000u64 {
        assert_eq!(c.search(k), Some(v(k)), "survivor {k}");
    }
    for k in (1..=2_900u64).step_by(97) {
        assert_eq!(c.search(k), None, "deleted {k}");
    }
    // The merged tree keeps working for inserts.
    for k in 1..=500u64 {
        c.insert(k, &v(k + 1)).unwrap();
    }
    for k in 1..=500u64 {
        assert_eq!(c.search(k), Some(v(k + 1)));
    }
    c.check_integrity().unwrap();
}

#[test]
fn concurrent_deletes_with_merges() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let cfg = ChimeConfig {
        span: 16,
        neighborhood: 8,
        internal_span: 8,
        ..Default::default()
    };
    let t = Chime::create(&pool, cfg, 0);
    {
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=4_000u64 {
            c.insert(k, &v(k)).unwrap();
        }
    }
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                // Each thread deletes its own stripe, top-down.
                for i in (0..1_000u64).rev() {
                    let k = 1 + i * 4 + tid;
                    if k <= 4_000 {
                        assert!(c.delete(k).unwrap(), "delete {k}");
                    }
                }
                // And re-inserts half of it.
                for i in 0..500u64 {
                    let k = 1 + i * 8 + tid;
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    });
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    c.check_integrity().unwrap();
    for tid in 0..4u64 {
        for i in 0..500u64 {
            let k = 1 + i * 8 + tid;
            assert_eq!(c.search(k), Some(v(k)), "reinserted {k}");
        }
    }
}

#[test]
fn root_slot_isolation_between_trees() {
    // Two trees in one pool must not interfere.
    let pool = Pool::with_defaults(1, 256 << 20);
    let t1 = Chime::create(&pool, ChimeConfig::default(), 0);
    let t2 = Chime::create(&pool, ChimeConfig::default(), 1);
    let cn1 = t1.new_cn();
    let cn2 = t2.new_cn();
    let mut c1 = t1.client(&cn1);
    let mut c2 = t2.client(&cn2);
    for k in 1..=300u64 {
        c1.insert(k, &v(k)).unwrap();
        c2.insert(k, &v(k * 2)).unwrap();
    }
    for k in 1..=300u64 {
        assert_eq!(c1.search(k), Some(v(k)));
        assert_eq!(c2.search(k), Some(v(k * 2)));
    }
}
