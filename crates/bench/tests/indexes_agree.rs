//! Model-equivalence tests: every index must agree with a `BTreeMap` under
//! randomized operation sequences (inserts, updates, deletes, searches and
//! scans). Every scan runs twice, as `scan_rows` into one arena reused for
//! the whole sequence and as the provided `scan`, and both must return the
//! model's rows; scans of 0 rows, from past the last key and — through the
//! partition router — across partition boundaries are checked at the end.

use std::collections::BTreeMap;
use dmem::{Pool, RangeIndex, Rows};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Keys of the default key space: slot `i` of 4 000 holds `1 + 3i`.
fn spaced(i: u64) -> u64 {
    1 + i * 3
}

/// Checks one scan both ways against the model.
fn assert_scan(
    idx: &mut dyn RangeIndex,
    arena: &mut Rows,
    model: &BTreeMap<u64, Vec<u8>>,
    start: u64,
    n: usize,
    at: &str,
) {
    let want: Vec<(u64, Vec<u8>)> = model
        .range(start..)
        .take(n)
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    arena.clear();
    idx.scan_rows(start, n, arena);
    let rows: Vec<(u64, Vec<u8>)> = arena.iter().map(|(k, v)| (k, v.to_vec())).collect();
    assert_eq!(rows, want, "scan_rows from {start} x{n} {at}");
    let mut got = Vec::new();
    idx.scan(start, n, &mut got);
    assert_eq!(got, want, "scan from {start} x{n} {at}");
}

/// Runs the randomized sequence over keys `key(0..4000)`, then the edge
/// scans: 0 rows, past the last key, and from the ten keys below each of
/// `boundaries`.
fn check_against_model(
    mut idx: Box<dyn RangeIndex>,
    seed: u64,
    preload: &[(u64, Vec<u8>)],
    key: fn(u64) -> u64,
    boundaries: &[u64],
) {
    let mut model: BTreeMap<u64, Vec<u8>> = preload.iter().cloned().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut arena = Rows::new();
    let key_of = |r: &mut SmallRng| key(r.gen_range(0..4_000u64));
    for step in 0..3_000 {
        match rng.gen_range(0..100) {
            0..=39 => {
                let k = key_of(&mut rng);
                let v = vec![(step % 251) as u8; 8];
                idx.insert(k, &v).unwrap();
                model.insert(k, v);
            }
            40..=59 => {
                let k = key_of(&mut rng);
                let v = vec![(step % 199) as u8; 8];
                let in_idx = idx.update(k, &v).unwrap();
                let in_model = model.contains_key(&k);
                assert_eq!(in_idx, in_model, "update presence for {k} at step {step}");
                if in_model {
                    model.insert(k, v);
                }
            }
            60..=74 => {
                let k = key_of(&mut rng);
                let in_idx = idx.delete(k).unwrap();
                let in_model = model.remove(&k).is_some();
                assert_eq!(in_idx, in_model, "delete presence for {k} at step {step}");
            }
            75..=94 => {
                let k = key_of(&mut rng);
                assert_eq!(
                    idx.search(k),
                    model.get(&k).cloned(),
                    "search {k} at step {step}"
                );
            }
            _ => {
                let start = key_of(&mut rng);
                let n = rng.gen_range(1..40);
                assert_scan(
                    idx.as_mut(),
                    &mut arena,
                    &model,
                    start,
                    n,
                    &format!("at step {step}"),
                );
            }
        }
    }
    // Final full sweep.
    for (k, v) in &model {
        assert_eq!(idx.search(*k).as_ref(), Some(v), "final sweep key {k}");
    }
    let (first, last) = (*model.keys().next().unwrap(), *model.keys().last().unwrap());
    assert_scan(idx.as_mut(), &mut arena, &model, first, 0, "of no rows");
    assert_scan(
        idx.as_mut(),
        &mut arena,
        &model,
        last + 1,
        10,
        "past the last key",
    );
    assert_scan(
        idx.as_mut(),
        &mut arena,
        &model,
        last,
        10,
        "from the last key",
    );
    for &b in boundaries {
        let below: Vec<u64> = model.range(..b).rev().take(10).map(|(k, _)| *k).collect();
        assert!(
            model.range(b..).next().is_some(),
            "no key above boundary {b}"
        );
        for start in below {
            assert_scan(
                idx.as_mut(),
                &mut arena,
                &model,
                start,
                25,
                &format!("across boundary {b}"),
            );
        }
    }
}

fn preload_items(n: u64) -> Vec<(u64, Vec<u8>)> {
    (0..n).map(|i| (spaced(i), vec![7u8; 8])).collect()
}

#[test]
fn chime_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = chime::ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        ..Default::default()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let pre = preload_items(2_000);
    for (k, v) in &pre {
        c.insert(*k, v).unwrap();
    }
    check_against_model(Box::new(c), 1, &pre, spaced, &[]);
}

#[test]
fn chime_baseline_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = chime::ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        ..chime::ChimeConfig::baseline()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let pre = preload_items(2_000);
    for (k, v) in &pre {
        c.insert(*k, v).unwrap();
    }
    check_against_model(Box::new(c), 2, &pre, spaced, &[]);
}

#[test]
fn sherman_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = sherman::ShermanConfig {
        span: 8,
        internal_span: 8,
        ..Default::default()
    };
    let t = sherman::Sherman::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let pre = preload_items(2_000);
    for (k, v) in &pre {
        c.insert(*k, v).unwrap();
    }
    check_against_model(Box::new(c), 3, &pre, spaced, &[]);
}

#[test]
fn smart_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let t = smart::Smart::create(&pool, smart::SmartConfig::default(), 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let pre = preload_items(2_000);
    for (k, v) in &pre {
        c.insert(*k, v).unwrap();
    }
    check_against_model(Box::new(c), 4, &pre, spaced, &[]);
}

#[test]
fn rolex_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let pre = preload_items(2_000);
    let t = rolex::Rolex::create(&pool, rolex::RolexConfig::default(), &pre);
    let c = t.client();
    check_against_model(Box::new(c), 5, &pre, spaced, &[]);
}

#[test]
fn chime_learned_matches_btreemap() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let pre = preload_items(2_000);
    let cfg = rolex::RolexConfig {
        hopscotch_leaves: true,
        ..Default::default()
    };
    let t = rolex::ChimeLearned::create(&pool, cfg, &pre);
    let c = t.client();
    check_against_model(Box::new(c), 6, &pre, spaced, &[]);
}

/// Slot `i` of 4 000 in quarter `i / 1 000` of the key space: each quarter
/// is one partition of a 4-way router.
fn quartered(i: u64) -> u64 {
    (i / 1_000) * (u64::MAX / 4) + spaced(i % 1_000)
}

#[test]
fn partition_router_matches_btreemap() {
    let pool = Pool::with_defaults(2, 512 << 20);
    let cfg = part::ClusterConfig {
        parts: 4,
        chime: chime::ChimeConfig {
            span: 16,
            internal_span: 8,
            neighborhood: 4,
            ..Default::default()
        },
        check_every: 8,
        migrate: None,
    };
    let cluster = part::Cluster::create(&pool, cfg);
    let mut c = cluster.client(&cluster.new_cn());
    let pre: Vec<(u64, Vec<u8>)> = (0..4_000)
        .step_by(2)
        .map(|i| (quartered(i), vec![7u8; 8]))
        .collect();
    for (k, v) in &pre {
        c.insert(*k, v).unwrap();
    }
    let boundaries: Vec<u64> = (1..4).map(|p| cluster.map().bounds(p).0).collect();
    assert_eq!(
        boundaries,
        [
            quartered(1_000) - 1,
            quartered(2_000) - 1,
            quartered(3_000) - 1
        ]
    );
    check_against_model(Box::new(c), 7, &pre, quartered, &boundaries);
}
