//! The ROLEX learned index over disaggregated memory.
//!
//! Leaves are Sherman-format sorted nodes of a small span (default 16) laid
//! out **contiguously** at load time, so a leaf address is computable from
//! its index. Each compute node keeps only the piecewise-linear model: a
//! search predicts a position, derives the candidate leaf window from the
//! error bound (the span), and fetches those leaves in one doorbell batch
//! (the paper's "fetch two leaf nodes per search"). Overflow inserts go to
//! synonym leaves chained from the owner leaf's sibling pointer, protected
//! by the owner's lock; models are pre-trained and never retrained (the
//! paper likewise excludes ROLEX from YCSB LOAD).

use std::sync::Arc;

use dmem::{Endpoint, GlobalAddr, IndexError, Pool, RangeIndex, Rows};
use sherman::leaf::{LeafSnapshot, ShermanLeafLayout, ShermanLeafOps};

use crate::learned::{Client, Learned, RolexConfig, OP_RETRY_LIMIT};

/// A handle to a ROLEX index.
pub type Rolex = Learned<ShermanLeafOps>;

/// One ROLEX client.
pub type RolexClient = Client<ShermanLeafOps>;

impl Rolex {
    /// Bulk-loads `items` (sorted by key, unique, non-zero keys) and trains
    /// the model.
    pub fn create(pool: &Arc<Pool>, cfg: RolexConfig, items: &[(u64, Vec<u8>)]) -> Self {
        let leaf = ShermanLeafOps {
            layout: ShermanLeafLayout {
                span: cfg.span,
                value_size: cfg.values().slot_size(),
            },
        };
        let size = leaf.layout.node_size();
        Learned::load(pool, cfg, leaf, size, cfg.span, items, |leaf, ep, addr, entries, fences| {
            let (ks, vs): (Vec<u64>, Vec<Vec<u8>>) = entries.into_iter().unzip();
            leaf.write_full(ep, addr, 0, &ks, &vs, GlobalAddr::NULL, fences, false);
        })
    }
}

impl RolexClient {
    /// Reads the owner leaf (whose fences contain `key`), widening the
    /// candidate window on (rare) model non-monotonicity at segment joins.
    fn read_owner(&mut self, key: u64) -> (usize, LeafSnapshot) {
        for widen in 0..OP_RETRY_LIMIT {
            let (lo, hi) = self.dir.candidates(key, widen);
            let addrs: Vec<GlobalAddr> = (lo..=hi).map(|i| self.dir.leaf_addr(i)).collect();
            let snaps = self.dir.leaf.read_batch(&mut self.ep, &addrs, &mut self.reads);
            for (i, snap) in snaps.into_iter().enumerate() {
                if dmem::hash::in_range(key, snap.fences.0, snap.fences.1) {
                    return (lo + i, snap);
                }
            }
        }
        panic!("rolex owner not found for key {key}");
    }

    /// Follows the synonym chain of a leaf, returning each snapshot.
    fn chain(&mut self, head: GlobalAddr) -> Vec<(GlobalAddr, LeafSnapshot)> {
        let mut out = Vec::new();
        let mut addr = head;
        while !addr.is_null() {
            let snap = self.dir.leaf.read(&mut self.ep, addr, &mut self.reads);
            let next = snap.sibling;
            out.push((addr, snap));
            addr = next;
        }
        out
    }

    /// Locks the leaf holding `key` — the owner or a synonym — and returns
    /// it with the snapshot read under the lock and the key's position, or
    /// `None` when the key is absent.
    fn lock_holder(&mut self, key: u64) -> Option<(GlobalAddr, LeafSnapshot, usize)> {
        let leaf = self.dir.leaf;
        for _ in 0..OP_RETRY_LIMIT {
            let (owner_idx, owner) = self.read_owner(key);
            let addr = if owner.find(key).is_some() {
                self.dir.leaf_addr(owner_idx)
            } else {
                let chain = self.chain(owner.sibling);
                chain.into_iter().find(|(_, s)| s.find(key).is_some())?.0
            };
            leaf.lock(&mut self.ep, addr);
            let snap = leaf.read(&mut self.ep, addr, &mut self.reads);
            if let Some((i, _)) = snap.find(key) {
                return Some((addr, snap, i));
            }
            // The key moved (a racing delete and insert): retry.
            leaf.unlock(&mut self.ep, addr);
        }
        panic!("rolex retry limit for key {key}");
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let stored = self.dir.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        let leaf = self.dir.leaf;
        for _ in 0..OP_RETRY_LIMIT {
            let (owner_idx, _) = self.read_owner(key);
            let owner_addr = self.dir.leaf_addr(owner_idx);
            leaf.lock(&mut self.ep, owner_addr);
            let snap = leaf.read(&mut self.ep, owner_addr, &mut self.reads);
            if !dmem::hash::in_range(key, snap.fences.0, snap.fences.1) {
                leaf.unlock(&mut self.ep, owner_addr);
                continue;
            }
            // Duplicate in the owner?
            if let Some((i, _)) = snap.find(key) {
                leaf.write_entry_and_unlock(&mut self.ep, owner_addr, &snap, i, &stored);
                return Ok(());
            }
            // Duplicate in the synonym chain? (A key that overflowed while
            // the owner was full stays in the chain even after owner
            // deletions free up space.)
            let chain = self.chain(snap.sibling);
            if let Some((addr, cs, i)) = chain
                .iter()
                .find_map(|(a, cs)| cs.find(key).map(|(i, _)| (*a, cs, i)))
            {
                leaf.write_entry_and_unlock(&mut self.ep, addr, cs, i, &stored);
                leaf.unlock(&mut self.ep, owner_addr);
                return Ok(());
            }
            // Room in the owner?
            if snap.keys.len() < leaf.layout.span {
                let i = snap.keys.binary_search(&key).unwrap_err();
                leaf.splice_and_unlock(&mut self.ep, owner_addr, &snap, i, Some((key, stored)));
                return Ok(());
            }
            // A synonym with room. The owner's lock guards the chain, so
            // this re-read returns what the duplicate check read; it stays
            // because every ROLEX figure point counts its verbs.
            let chain = self.chain(snap.sibling);
            if let Some((addr, s)) = chain.iter().find(|(_, s)| s.keys.len() < leaf.layout.span) {
                let i = s.keys.binary_search(&key).unwrap_err();
                leaf.splice_and_unlock(&mut self.ep, *addr, s, i, Some((key, stored)));
                leaf.unlock(&mut self.ep, owner_addr);
                return Ok(());
            }
            // Allocate a new synonym leaf at the chain head.
            let syn_addr = self
                .alloc
                .alloc(&mut self.ep, leaf.layout.node_size() as u64)?;
            leaf.write_full(
                &mut self.ep,
                syn_addr,
                0,
                &[key],
                std::slice::from_ref(&stored),
                snap.sibling,
                snap.fences,
                false,
            );
            // Publish: rewrite the owner header (sibling -> new synonym) and
            // release the lock in the same round-trip.
            let mut owner = snap;
            owner.sibling = syn_addr;
            let at = owner.keys.len();
            leaf.write_suffix_and_unlock(
                &mut self.ep,
                owner_addr,
                &owner,
                at,
                &owner.keys,
                &owner.values,
            );
            return Ok(());
        }
        panic!("rolex insert retry limit for key {key}");
    }

    fn search_impl(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        let (_, snap) = self.read_owner(key);
        self.ep.note_app_bytes(self.dir.cfg.value_size as u64 + 8);
        let chain;
        let stored = match snap.find(key) {
            Some((_, v)) => v,
            // Overflow chain.
            None => {
                chain = self.chain(snap.sibling);
                match chain.iter().find_map(|(_, s)| s.find(key)) {
                    Some((_, v)) => v,
                    None => return false,
                }
            }
        };
        value.clear();
        self.dir.values.resolve_into(&mut self.ep, stored, value);
        true
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        let stored = self.dir.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        let Some((addr, snap, i)) = self.lock_holder(key) else {
            return Ok(false);
        };
        self.dir.leaf.write_entry_and_unlock(&mut self.ep, addr, &snap, i, &stored);
        Ok(true)
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        let Some((addr, snap, i)) = self.lock_holder(key) else {
            return Ok(false);
        };
        self.dir.leaf.splice_and_unlock(&mut self.ep, addr, &snap, i, None);
        Ok(true)
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Rows) {
        if count == 0 {
            return;
        }
        let (mut idx, _) = self.read_owner(start);
        // Every leaf read, and a `(key, leaf, slot)` per row `>= start`.
        let mut leaves: Vec<LeafSnapshot> = Vec::new();
        let mut collected: Vec<(u64, u32, u32)> = Vec::new();
        let (per_leaf, num_leaves) = (self.dir.cfg.span, self.dir.num_leaves);
        while idx < num_leaves {
            let need = count.saturating_sub(collected.len());
            let take = need.div_ceil(per_leaf).max(1).min(num_leaves - idx);
            let addrs: Vec<GlobalAddr> = (idx..idx + take).map(|i| self.dir.leaf_addr(i)).collect();
            let snaps = self.dir.leaf.read_batch(&mut self.ep, &addrs, &mut self.reads);
            for snap in snaps {
                let chain = self.chain(snap.sibling);
                for s in std::iter::once(snap).chain(chain.into_iter().map(|(_, s)| s)) {
                    let at = leaves.len() as u32;
                    let rows = s.keys.iter().enumerate().filter(|&(_, &k)| k >= start);
                    collected.extend(rows.map(|(i, &k)| (k, at, i as u32)));
                    leaves.push(s);
                }
            }
            idx += take;
            if collected.len() >= count {
                break;
            }
        }
        collected.sort_unstable();
        collected.truncate(count);
        let values = self.dir.values;
        for (k, at, i) in collected {
            let stored = &leaves[at as usize].values[i as usize];
            out.push_with(k, |bytes| values.resolve_into(&mut self.ep, stored, bytes));
        }
    }
}

impl RangeIndex for RolexClient {
    dmem::span_ops!();

    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    fn cache_bytes(&self) -> u64 {
        self.dir.model.cache_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    fn items(n: u64) -> Vec<(u64, Vec<u8>)> {
        let mut keys: Vec<u64> = (1..=n).map(dmem::hash::mix64).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter().map(|k| (k, v(k))).collect()
    }

    #[test]
    fn bulk_load_and_search() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(5_000);
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        for (k, val) in &data {
            assert_eq!(c.search(*k), Some(val.clone()), "key {k:#x}");
        }
        assert_eq!(c.search(3), None);
    }

    #[test]
    fn inserts_go_to_owner_or_synonym() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(2_000);
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        // Insert new keys interleaved with existing ones.
        let mut new_keys = Vec::new();
        for s in 10_000..10_500u64 {
            let k = dmem::hash::mix64(s) | 1;
            if c.search(k).is_none() {
                c.insert(k, &v(k)).unwrap();
                new_keys.push(k);
            }
        }
        for k in &new_keys {
            assert_eq!(c.search(*k), Some(v(*k)), "inserted {k:#x}");
        }
        for (k, val) in &data {
            assert_eq!(c.search(*k), Some(val.clone()), "preloaded {k:#x}");
        }
    }

    #[test]
    fn update_delete_roundtrip() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(1_000);
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        for (k, _) in data.iter().take(200) {
            assert!(c.update(*k, &v(k + 1)).unwrap());
            assert_eq!(c.search(*k), Some(v(k + 1)));
        }
        assert!(!c.update(3, &v(0)).unwrap());
        for (k, _) in data.iter().take(100) {
            assert!(c.delete(*k).unwrap());
            assert_eq!(c.search(*k), None);
        }
    }

    #[test]
    fn scan_sorted_across_leaves() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data: Vec<(u64, Vec<u8>)> = (1..=1_000u64).map(|k| (k * 2, v(k))).collect();
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        let mut out = Vec::new();
        c.scan(100, 30, &mut out);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (50..80).map(|k| k * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn search_reads_about_two_leaves() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(10_000);
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        let before = c.stats().clone();
        for (k, _) in data.iter().take(500) {
            c.search(*k).unwrap();
        }
        let d = c.stats().since(&before);
        let reads_per_op = d.reads as f64 / 500.0;
        assert!(
            (1.5..=3.5).contains(&reads_per_op),
            "reads/op = {reads_per_op}"
        );
        // All candidate leaves arrive in one round-trip.
        let rtts_per_op = d.rtts as f64 / 500.0;
        assert!(rtts_per_op < 1.5, "rtts/op = {rtts_per_op}");
    }

    #[test]
    fn concurrent_mixed_ops() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(2_000);
        let t = Rolex::create(&pool, RolexConfig::default(), &data);
        std::thread::scope(|s| {
            for tid in 0..3u64 {
                let t = t.clone();
                let data = data.clone();
                s.spawn(move || {
                    let mut c = t.client();
                    for i in 0..300u64 {
                        let (k, _) = &data[((i * 7 + tid * 13) % 2_000) as usize];
                        assert!(c.search(*k).is_some());
                        c.update(*k, &v(i)).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn indirect_values_roundtrip() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let cfg = RolexConfig {
            indirect_values: true,
            value_size: 64,
            ..Default::default()
        };
        let data: Vec<(u64, Vec<u8>)> = (1..=500u64).map(|k| (k * 3, vec![k as u8; 20])).collect();
        let t = Rolex::create(&pool, cfg, &data);
        let mut c = t.client();
        for (k, val) in &data {
            assert_eq!(c.search(*k), Some(val.clone()));
        }
        c.insert(1, &[7u8; 10]).unwrap();
        assert_eq!(c.search(1), Some(vec![7u8; 10]));
    }
}
