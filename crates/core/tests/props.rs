//! Property tests for CHIME's core data structures: hopscotch invariants,
//! lock-word algebra, leaf geometry and tree/model equivalence.

use std::collections::BTreeMap;

use chime::hopscotch::{build_table, check_invariants, cyc_dist, Window};
use chime::layout::LeafLayout;
use chime::leaf::{LeafMeta, LeafOps, LockedRead};
use chime::lockword::{LockWord, VacancyMap};
use chime::{Chime, ChimeConfig};
use dmem::hash::home_entry;
use dmem::versioned::{bump, Fetches};
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use proptest::prelude::*;

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

proptest! {
    /// Any key set below ~2/3 load builds a valid hopscotch table and every
    /// key is findable within its neighborhood.
    #[test]
    fn build_table_preserves_invariants(
        keys in proptest::collection::hash_set(1u64..u64::MAX, 1..40),
    ) {
        #[allow(clippy::disallowed_methods, reason = "every insertion order must hold")]
        let items: Vec<(u64, Vec<u8>)> = keys.iter().map(|&k| (k, v(k))).collect();
        if let Some(w) = build_table(64, 8, 8, &items) {
            check_invariants(&w).unwrap();
            for (k, val) in &items {
                let pos = w.find_in_neighborhood(*k).expect("key must be findable");
                let (kk, vv, _) = w.slot(pos);
                prop_assert_eq!(kk, *k);
                prop_assert_eq!(vv, &val[..]);
                prop_assert!(cyc_dist(home_entry(*k, 64), pos, 64) < 8);
            }
        } else {
            // Builds only fail near/above capacity.
            prop_assert!(items.len() > 32, "build failed at {} items", items.len());
        }
    }

    /// Random insert/remove sequences keep the bitmap-occupancy bijection.
    #[test]
    fn window_ops_preserve_invariants(ops in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..120)) {
        let mut w = Window::new(32, 8, 8, 0, 32);
        let mut present: Vec<u64> = Vec::new();
        for (seed, del) in ops {
            let key = 1 + seed % 1_000_003;
            if del && !present.is_empty() {
                let k = present.swap_remove((seed % present.len() as u64) as usize);
                let pos = w.find_in_neighborhood(k).expect("present key");
                w.remove(pos);
            } else if !present.contains(&key) {
                let home = home_entry(key, 32);
                let empty = (0..32).map(|d| (home + d) % 32).find(|&i| w.slot_empty(i));
                if let Some(empty) = empty {
                    if w.insert(key, &v(key), empty).is_ok() {
                        present.push(key);
                    }
                }
            }
        }
        check_invariants(&w).unwrap();
        for k in &present {
            prop_assert!(w.find_in_neighborhood(*k).is_some());
        }
    }

    /// Lock-word field updates never interfere with each other.
    #[test]
    fn lockword_field_independence(
        argmax in 0u16..1023,
        bits in proptest::collection::vec(0usize..chime::lockword::VACANCY_BITS, 0..10),
        locked in any::<bool>(),
        epoch in any::<u8>(),
    ) {
        let mut w = LockWord(0)
            .with_argmax(argmax)
            .with_locked(locked)
            .with_epoch(epoch);
        for &b in &bits {
            w = w.with_vacancy_bit(b, true);
        }
        prop_assert_eq!(w.argmax(), argmax);
        prop_assert_eq!(w.locked(), locked);
        prop_assert_eq!(w.epoch(), epoch);
        for &b in &bits {
            prop_assert!(w.vacancy_bit(b));
        }
        let w2 = w.with_argmax(7).with_epoch(epoch.wrapping_add(1));
        prop_assert_eq!(w2.locked(), locked);
        prop_assert_eq!(w2.epoch(), epoch.wrapping_add(1));
        for &b in &bits {
            prop_assert!(w2.vacancy_bit(b));
        }
    }

    /// Vacancy groups tile the span exactly.
    #[test]
    fn vacancy_groups_tile_span(span in 1usize..1024) {
        let vm = VacancyMap::new(span);
        let mut covered = vec![false; span];
        for g in 0..vm.groups() {
            let (s, t) = vm.group_range(g);
            for (i, c) in covered.iter_mut().enumerate().take(t + 1).skip(s) {
                prop_assert!(!*c, "entry {i} covered twice");
                *c = true;
                prop_assert_eq!(vm.group_of(i), g);
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// Leaf layout: entries and replicas never overlap and fill the payload.
    #[test]
    fn leaf_layout_partitions_payload(
        span_blocks in 1usize..16,
        h in 2usize..9,
        value_size in 1usize..64,
        replication in any::<bool>(),
        fences in any::<bool>(),
    ) {
        let span = span_blocks * h;
        let l = LeafLayout {
            span,
            h,
            key_size: 8,
            value_size,
            replication,
            fences,
            piggyback: true,
        };
        let mut covered = vec![false; l.payload_len()];
        let mut mark = |a: usize, b: usize| {
            for c in covered[a..b].iter_mut() {
                assert!(!*c, "overlap");
                *c = true;
            }
        };
        let blocks = if replication { span / h } else { 1 };
        for b in 0..blocks {
            let off = l.replica_off(b);
            mark(off, off + l.replica_size());
        }
        for i in 0..span {
            let off = l.entry_off(i);
            mark(off, off + l.entry_size());
        }
        prop_assert!(covered.iter().all(|&c| c), "payload has gaps");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The window's dirty marks are exact — a slot is marked iff an
    /// operation changed its (key, value, bitmap) — and they are what a
    /// write-back versions by: after it, a fresh whole-leaf read finds every
    /// dirty slot at `bump(old EV)` and every clean slot at its old EV.
    #[test]
    fn dirty_marks_are_exact_and_drive_entry_versions(
        rounds in proptest::collection::vec(
            (0usize..32, proptest::collection::vec((any::<u64>(), 0u8..3), 1..12)),
            1..4,
        ),
    ) {
        const SPAN: usize = 32;
        let leaf = LeafOps::new(LeafLayout {
            span: SPAN,
            h: 8,
            key_size: 8,
            value_size: 8,
            replication: true,
            fences: false,
            piggyback: true,
        });
        let meta = LeafMeta { sibling: GlobalAddr::NULL, valid: true, fences: None };
        let mut ep = Endpoint::new(Pool::with_defaults(1, 1 << 20));
        let addr = GlobalAddr::new(0, dmem::node::RESERVED_BYTES);
        let items: Vec<(u64, Vec<u8>)> = (1..=12u64).map(|k| (k * 7, v(k))).collect();
        leaf.write_new(&mut ep, addr, &build_table(SPAN, 8, 8, &items).unwrap(), &meta);
        let mut present: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let mut fresh = 1u64 << 40; // values no slot has held before
        // Each round is one locked write: a full-span window from a random
        // start (so the dirty range may wrap around), a few operations, one
        // write-back. The rounds share one `LockedRead`, as a client's
        // writes do.
        let mut lr = LockedRead::default();
        for (start, ops) in rounds {
            let word = leaf.lock(&mut ep, addr);
            leaf.locked_read(&mut ep, addr, start, (start + SPAN - 1) % SPAN, word, &mut lr);
            let content = |w: &Window| -> Vec<(u64, Vec<u8>, u16)> {
                (0..SPAN).map(|i| { let (k, val, bm) = w.slot(i); (k, val.to_vec(), bm) }).collect()
            };
            let old_evs: Vec<u8> = (0..SPAN).map(|i| lr.w.version(i).0).collect();
            let mut dirty = [false; SPAN];
            for (seed, op) in ops {
                let before = content(&lr.w);
                fresh += 1;
                let victim = (!present.is_empty()).then(|| (seed % present.len() as u64) as usize);
                match (op, victim) {
                    (0, Some(at)) => {
                        let pos = lr.w.find_in_neighborhood(present[at]).expect("present key");
                        lr.w.set_value(pos, &v(fresh));
                    }
                    (1, Some(at)) => {
                        let pos = lr.w.find_in_neighborhood(present.swap_remove(at)).expect("present key");
                        lr.w.remove(pos);
                    }
                    _ => {
                        let key = 1 + seed % 1_000_003;
                        let home = home_entry(key, SPAN);
                        let empty = (0..SPAN).map(|d| (home + d) % SPAN).find(|&i| lr.w.slot_empty(i));
                        if let (false, Some(empty)) = (present.contains(&key), empty) {
                            if lr.w.insert(key, &v(fresh), empty).is_ok() {
                                present.push(key);
                            }
                        }
                    }
                }
                for (i, (was, is)) in before.iter().zip(content(&lr.w)).enumerate() {
                    dirty[i] |= *was != is;
                    prop_assert_eq!(lr.w.version(i), (old_evs[i], dirty[i]), "slot {}", i);
                }
            }
            check_invariants(&lr.w).unwrap();
            lr.write_back(&leaf, &mut ep, addr, leaf.word_for(&lr.w));
            let snap = leaf.read_snapshot(&mut ep, addr, &mut Fetches::default());
            for i in 0..SPAN {
                let want = if dirty[i] { bump(old_evs[i]) } else { old_evs[i] };
                prop_assert_eq!(snap.ev(i), want, "EV of slot {} (dirty: {})", i, dirty[i]);
                prop_assert_eq!((snap.keys[i], snap.value(i), snap.bitmap(i)), lr.w.slot(i));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full tree agrees with a BTreeMap on random op sequences
    /// (smaller case count: each case builds a tree).
    #[test]
    fn tree_matches_model(ops in proptest::collection::vec((1u64..300, 0u8..4), 1..250)) {
        let pool = Pool::with_defaults(1, 128 << 20);
        let cfg = ChimeConfig {
            span: 8,
            internal_span: 4,
            neighborhood: 4,
            ..Default::default()
        };
        let t = Chime::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (key, op) in ops {
            match op {
                0 | 1 => {
                    c.insert(key, &v(key * 3)).unwrap();
                    model.insert(key, v(key * 3));
                }
                2 => {
                    let a = c.delete(key).unwrap();
                    let b = model.remove(&key).is_some();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    prop_assert_eq!(c.search(key), model.get(&key).cloned());
                }
            }
        }
        for (k, val) in &model {
            prop_assert_eq!(c.search(*k), Some(val.clone()));
        }
        let mut out = Vec::new();
        c.scan(1, model.len() + 5, &mut out);
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(out, want);
    }

    /// Scans from random starts for random counts agree with a BTreeMap,
    /// between rounds of inserts and deletes that split and merge leaves,
    /// on hashed and on sequential keys; small spans make scans cross
    /// parents. Each scan runs on a fresh client (no density seen yet, so a
    /// first batch of ¾-full leaves) and on one warmed by every scan before
    /// it, on a CN of its own whose cached parents go stale.
    #[test]
    fn scans_match_model(
        hashed in any::<bool>(),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u64..400, any::<bool>()), 0..80),
                proptest::collection::vec((1u64..450, 0usize..160), 1..6),
            ),
            1..5,
        ),
    ) {
        let key = |k: u64| if hashed { dmem::hash::mix64(k) | 1 } else { k };
        let pool = Pool::with_defaults(1, 128 << 20);
        let cfg = ChimeConfig {
            span: 8,
            internal_span: 4,
            neighborhood: 4,
            ..Default::default()
        };
        let t = Chime::create(&pool, cfg, 0);
        let mut writer = t.client(&t.new_cn());
        let mut warm = t.client(&t.new_cn());
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (writes, scans) in rounds {
            for (k, del) in writes {
                let k = key(k);
                if del {
                    prop_assert_eq!(writer.delete(k).unwrap(), model.remove(&k).is_some());
                } else {
                    writer.insert(k, &v(k)).unwrap();
                    model.insert(k, v(k));
                }
            }
            for (s, raw) in scans {
                // About one scan in fifteen asks for no rows; starts past the
                // largest key and counts past the end come up on their own.
                let (start, count) = (key(s), raw.saturating_sub(10));
                let want: Vec<(u64, Vec<u8>)> =
                    model.range(start..).take(count).map(|(k, v)| (*k, v.clone())).collect();
                for c in [&mut t.client(&t.new_cn()), &mut warm] {
                    let mut out = Vec::new();
                    c.scan(start, count, &mut out);
                    prop_assert_eq!(&out, &want);
                }
            }
        }
    }
}
