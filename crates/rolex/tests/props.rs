//! Property tests for ROLEX: the PLR error bound on arbitrary sorted key
//! sets and index/model equivalence for both leaf formats.

use std::collections::BTreeMap;

use dmem::{Pool, RangeIndex};
use proptest::prelude::*;
use rolex::{ChimeLearned, PlrModel, Rolex, RolexConfig};

proptest! {
    /// |predicted - actual| <= delta for every trained key, on arbitrary
    /// strictly-ascending key sets.
    #[test]
    fn plr_error_bound(
        raw in proptest::collection::btree_set(1u64..(1 << 50), 1..600),
        delta in 2u64..64,
    ) {
        let keys: Vec<u64> = raw.into_iter().collect();
        let m = PlrModel::train(&keys, delta);
        for (i, &k) in keys.iter().enumerate() {
            let p = m.predict(k) as i64;
            prop_assert!(
                (p - i as i64).abs() <= delta as i64,
                "key {k}: |{p} - {i}| > {delta}"
            );
        }
        prop_assert!(m.segments() >= 1);
        prop_assert_eq!(m.n(), keys.len() as u64);
    }
}

/// `key`'s bytes repeated to `len` bytes.
fn value_of(key: u64, len: usize) -> Vec<u8> {
    key.to_le_bytes().iter().copied().cycle().take(len).collect()
}

fn model_check(cfg: RolexConfig, seed_ops: Vec<(u64, u8)>) -> Result<(), TestCaseError> {
    let pool = Pool::with_defaults(1, 256 << 20);
    let v = |k: u64| value_of(k, cfg.value_size);
    let pre: Vec<(u64, Vec<u8>)> = (1..=500u64).map(|k| (k * 4, v(k))).collect();
    let mut model: BTreeMap<u64, Vec<u8>> = pre.iter().cloned().collect();
    let mut c: Box<dyn RangeIndex> = if cfg.hopscotch_leaves {
        Box::new(ChimeLearned::create(&pool, cfg, &pre).client())
    } else {
        Box::new(Rolex::create(&pool, cfg, &pre).client())
    };
    for (seed, op) in seed_ops {
        let key = 1 + seed % 2_500;
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
    for (k, val) in &model {
        prop_assert_eq!(c.search(*k), Some(val.clone()));
    }
    Ok(())
}

fn hopscotch(indirect_values: bool, value_size: usize) -> RolexConfig {
    RolexConfig {
        hopscotch_leaves: true,
        indirect_values,
        value_size,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sorted-leaf ROLEX agrees with a BTreeMap (synonym chains included).
    #[test]
    fn rolex_matches_model(ops in proptest::collection::vec((any::<u64>(), 0u8..4), 1..150)) {
        model_check(RolexConfig::default(), ops)?;
    }

    /// CHIME-Learned (hopscotch leaves) agrees with a BTreeMap.
    #[test]
    fn chime_learned_matches_model(ops in proptest::collection::vec((any::<u64>(), 0u8..4), 1..150)) {
        model_check(hopscotch(false, 8), ops)?;
    }

    /// ... and so it does with 32-byte values stored out of line: the leaf
    /// keeps an 8-byte pointer, and every value comes back whole.
    #[test]
    fn chime_learned_indirect_matches_model(ops in proptest::collection::vec((any::<u64>(), 0u8..4), 1..150)) {
        model_check(hopscotch(true, 32), ops)?;
    }
}
