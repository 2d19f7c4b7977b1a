//! Property tests for the Sherman baseline: leaf serialization round-trips
//! and tree/model equivalence.

use std::collections::BTreeMap;

use dmem::node::RESERVED_BYTES;
use dmem::versioned::Fetches;
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use proptest::prelude::*;
use sherman::leaf::{ShermanLeafLayout, ShermanLeafOps};
use sherman::{Sherman, ShermanConfig};

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

proptest! {
    /// Leaf write/read round-trips arbitrary sorted key sets.
    #[test]
    fn leaf_roundtrip(
        keys in proptest::collection::btree_set(1u64..u64::MAX, 0..16),
        value_size in 1usize..64,
    ) {
        let ops = ShermanLeafOps {
            layout: ShermanLeafLayout { span: 16, value_size },
        };
        let pool = Pool::with_defaults(1, 4 << 20);
        let mut ep = Endpoint::new(pool);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let keys: Vec<u64> = keys.into_iter().collect();
        let values: Vec<Vec<u8>> = keys.iter().map(|&k| {
            let mut b = v(k);
            b.resize(value_size, 0);
            b
        }).collect();
        ops.write_full(&mut ep, addr, 0, &keys, &values, GlobalAddr::NULL, (0, u64::MAX), false);
        let snap = ops.read(&mut ep, addr, &mut Fetches::default());
        prop_assert_eq!(&snap.keys, &keys);
        prop_assert_eq!(&snap.values, &values);
        for &k in &keys {
            prop_assert!(snap.find(k).is_some());
        }
        prop_assert!(snap.find(0x7777_7777_7777_7777).is_none() || keys.contains(&0x7777_7777_7777_7777));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tree agrees with a BTreeMap on random op sequences.
    #[test]
    fn tree_matches_model(ops in proptest::collection::vec((1u64..400, 0u8..4), 1..250)) {
        let pool = Pool::with_defaults(1, 128 << 20);
        let cfg = ShermanConfig { span: 8, internal_span: 4, ..Default::default() };
        let t = Sherman::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (key, op) in ops {
            match op {
                0 | 1 => {
                    c.insert(key, &v(key)).unwrap();
                    model.insert(key, v(key));
                }
                2 => {
                    prop_assert_eq!(c.delete(key).unwrap(), model.remove(&key).is_some());
                }
                _ => {
                    prop_assert_eq!(c.search(key), model.get(&key).cloned());
                }
            }
        }
        let mut out = Vec::new();
        c.scan(1, model.len() + 5, &mut out);
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, val)| (*k, val.clone())).collect();
        prop_assert_eq!(out, want);
    }
}
