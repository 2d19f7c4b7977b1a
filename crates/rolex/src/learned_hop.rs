//! CHIME-Learned (Fig. 15b): a learned index with hopscotch leaf nodes.
//!
//! The final step of the paper's second factor analysis swaps ROLEX's
//! sorted leaves for CHIME's hopscotch leaves: searches fetch one
//! *neighborhood* per candidate leaf instead of whole leaves. Because the
//! model error spans several leaves, a search may fetch multiple
//! neighborhoods — which is exactly why the paper prefers the B+-tree
//! combination (plain CHIME) over the learned one.
//!
//! Leaves reuse `chime::leaf` in fence mode (replicas carry fence keys, so
//! ownership checks need no tree). Overflow inserts chain synonym leaves
//! from the owner's replica sibling pointer, all guarded by the owner lock.

use std::sync::Arc;

use chime::hopscotch::build_table;
use chime::layout::LeafLayout;
use chime::leaf::{LeafMeta, LeafOps};
use dmem::hash::home_entry;
use dmem::{ChunkAlloc, Endpoint, GlobalAddr, IndexError, Pool, RangeIndex};

use crate::plr::PlrModel;
use crate::tree::RolexConfig;

const OP_RETRY_LIMIT: usize = 100_000;
/// Target fill of a hopscotch leaf at load time.
const LOAD_FILL_NUM: usize = 3;
const LOAD_FILL_DEN: usize = 4;

struct Shared {
    pool: Arc<Pool>,
    cfg: RolexConfig,
    leaf: LeafOps,
    base: GlobalAddr,
    num_leaves: usize,
    items_per_leaf: usize,
    model: PlrModel,
}

/// A CHIME-Learned index handle.
#[derive(Clone)]
pub struct ChimeLearned {
    shared: Arc<Shared>,
}

/// One CHIME-Learned client.
pub struct ChimeLearnedClient {
    shared: Arc<Shared>,
    ep: Endpoint,
    alloc: ChunkAlloc,
}

impl ChimeLearned {
    /// Bulk-loads sorted `items` and trains the model.
    pub fn create(pool: &Arc<Pool>, cfg: RolexConfig, items: &[(u64, Vec<u8>)]) -> Self {
        assert!(!items.is_empty());
        // Hopscotch leaves use a span that is a multiple of H = 8; scale the
        // configured span up if needed.
        let span = cfg.span.max(16).div_ceil(8) * 8;
        let h = 8usize.min(span);
        let leaf = LeafOps::new(LeafLayout {
            span,
            h,
            key_size: 8,
            value_size: if cfg.indirect_values { 8 } else { cfg.value_size },
            replication: true,
            fences: true,
            piggyback: true,
        });
        let items_per_leaf = (span * LOAD_FILL_NUM / LOAD_FILL_DEN).max(1);
        let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let model = PlrModel::train(&keys, cfg.delta);
        let num_leaves = items.len().div_ceil(items_per_leaf);
        let node_size = leaf.layout.node_size().div_ceil(64) * 64;
        let base = pool
            .mn(0)
            .alloc((num_leaves * node_size) as u64)
            .expect("pool too small for CHIME-Learned load");
        let shared = Arc::new(Shared {
            pool: Arc::clone(pool),
            cfg,
            leaf,
            base,
            num_leaves,
            items_per_leaf,
            model,
        });
        let mut ep = Endpoint::new(Arc::clone(&shared.pool));
        for i in 0..num_leaves {
            let chunk = &items[i * items_per_leaf..((i + 1) * items_per_leaf).min(items.len())];
            let lo = if i == 0 { 0 } else { chunk[0].0 };
            let hi = items
                .get((i + 1) * items_per_leaf)
                .map(|&(k, _)| k)
                .unwrap_or(u64::MAX);
            let chunk_vec: Vec<(u64, Vec<u8>)> = chunk
                .iter()
                .map(|(k, v)| {
                    let mut v = v.clone();
                    v.resize(shared.leaf.layout.value_size, 0);
                    (*k, v)
                })
                .collect();
            let w = build_table(span, h, shared.leaf.layout.value_size, &chunk_vec)
                .expect("leaf fill below hopscotch capacity");
            let meta = LeafMeta {
                sibling: GlobalAddr::NULL,
                valid: true,
                fences: Some((lo, hi)),
            };
            shared.leaf.write_new(&mut ep, shared.leaf_addr(i), &w, &meta);
        }
        ChimeLearned { shared }
    }

    /// Creates a client.
    pub fn client(&self) -> ChimeLearnedClient {
        ChimeLearnedClient {
            shared: Arc::clone(&self.shared),
            ep: Endpoint::new(Arc::clone(&self.shared.pool)),
            alloc: ChunkAlloc::sim_scaled(),
        }
    }
}

impl Shared {
    fn leaf_addr(&self, i: usize) -> GlobalAddr {
        let node_size = (self.leaf.layout.node_size().div_ceil(64) * 64) as u64;
        self.base.add(i as u64 * node_size)
    }

    fn candidates(&self, key: u64, widen: usize) -> (usize, usize) {
        let pos = self.model.predict(key);
        let d = self.cfg.delta + (widen as u64) * self.items_per_leaf as u64;
        let lo = (pos.saturating_sub(d) as usize) / self.items_per_leaf;
        let hi = ((pos + d) as usize / self.items_per_leaf).min(self.num_leaves - 1);
        (lo.min(self.num_leaves - 1), hi)
    }
}

impl ChimeLearnedClient {
    /// Finds the owner leaf index by probing candidate neighborhoods:
    /// one neighborhood READ per candidate leaf (the CHIME-Learned cost).
    /// Returns `(owner index, search result within its chain)`.
    fn probe(&mut self, key: u64) -> (usize, Option<Vec<u8>>) {
        let leaf = self.shared.leaf;
        for widen in 0..OP_RETRY_LIMIT {
            let (lo, hi) = self.shared.candidates(key, widen);
            for i in lo..=hi {
                let r = leaf.read_neighborhood(&mut self.ep, self.shared.leaf_addr(i), key);
                let (flo, fhi) = r.meta.fences.expect("fence mode");
                if dmem::hash::in_range(key, flo, fhi) {
                    if let Some((_, v)) = r.found {
                        return (i, Some(v));
                    }
                    // Overflow chain.
                    let mut syn = r.meta.sibling;
                    while !syn.is_null() {
                        let rs = leaf.read_neighborhood(&mut self.ep, syn, key);
                        if let Some((_, v)) = rs.found {
                            return (i, Some(v));
                        }
                        syn = rs.meta.sibling;
                    }
                    return (i, None);
                }
            }
        }
        panic!("chime-learned owner not found for key {key}");
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let leaf = self.shared.leaf;
        let span = leaf.layout.span;
        let mut stored = value.to_vec();
        stored.resize(leaf.layout.value_size, 0);
        let home = home_entry(key, span);
        let (owner_idx, _) = self.probe(key);
        let owner = self.shared.leaf_addr(owner_idx);
        {
            let word = leaf.lock(&mut self.ep, owner);
            // Try the owner leaf first.
            if let Some(mut lr) = leaf.read_hop_window(&mut self.ep, owner, home, word) {
                if let Some(pos) = lr.w.find_in_neighborhood(key) {
                    lr.w.set_value(pos, &stored);
                    lr.write_back(&leaf, &mut self.ep, owner, word);
                    return Ok(());
                }
                // Duplicate in the synonym chain? (A key that overflowed
                // while the owner was full stays there even after owner
                // space frees up.)
                if !lr.meta.sibling.is_null()
                    && self.update_in_chain(owner, lr.meta.sibling, key, &stored, word)
                {
                    return Ok(());
                }
                if let Some(empty) = lr.w.first_empty_from(home) {
                    if let Ok(pos) = lr.w.insert(key, &stored, empty) {
                        let vm = leaf.vm;
                        let g = vm.group_of(empty);
                        let (gs, ge) = vm.group_range(g);
                        let any_empty = (gs..=ge)
                            .any(|i| lr.w.rel(i).map(|_| lr.w.slot_empty(i)).unwrap_or(false));
                        let mut nw = word.with_vacancy_bit(g, any_empty);
                        if lr.max_key.is_none_or(|mx| key > mx) {
                            nw = nw.with_argmax(pos as u16);
                        }
                        lr.write_back(&leaf, &mut self.ep, owner, nw);
                        return Ok(());
                    }
                }
                // No room/hop in the owner: fall through to the chain.
                let meta = lr.meta;
                if self.insert_into_chain(owner, meta, key, &stored, word)? {
                    return Ok(());
                }
                return Ok(());
            }
            // Owner full per vacancy bitmap: chain.
            let lr = leaf.read_full_locked(&mut self.ep, owner, word);
            let meta = lr.meta;
            // Duplicate may still live in the full owner.
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                let mut lr = lr;
                lr.w.set_value(pos, &stored);
                lr.write_back(&leaf, &mut self.ep, owner, word);
                return Ok(());
            }
            if self.insert_into_chain(owner, meta, key, &stored, word)? {
                return Ok(());
            }
            Ok(())
        }
    }

    fn search_impl(&mut self, key: u64) -> Option<Vec<u8>> {
        assert_ne!(key, 0, "key 0 is reserved");
        self.ep
            .note_app_bytes(self.shared.cfg.value_size as u64 + 8);
        let (_, v) = self.probe(key);
        v
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let leaf = self.shared.leaf;
        let mut stored = value.to_vec();
        stored.resize(leaf.layout.value_size, 0);
        let home = home_entry(key, leaf.layout.span);
        let (owner_idx, found) = self.probe(key);
        if found.is_none() {
            return Ok(false);
        }
        let owner = self.shared.leaf_addr(owner_idx);
        // Walk owner + chain under the owner lock; the owner's window rides
        // in the lock's doorbell.
        let (word, mut lr) = leaf.lock_nbh_window(&mut self.ep, owner, home);
        let mut addr = owner;
        loop {
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                lr.w.set_value(pos, &stored);
                // Only the owner's word is unlocked.
                lr.write_back(&leaf, &mut self.ep, addr, word.with_locked(addr != owner));
                if addr != owner {
                    leaf.unlock(&mut self.ep, owner, word);
                }
                return Ok(true);
            }
            if lr.meta.sibling.is_null() {
                leaf.unlock(&mut self.ep, owner, word);
                return Ok(false);
            }
            addr = lr.meta.sibling;
            lr = leaf.read_nbh_window(&mut self.ep, addr, home, word);
        }
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let leaf = self.shared.leaf;
        let home = home_entry(key, leaf.layout.span);
        let (owner_idx, found) = self.probe(key);
        if found.is_none() {
            return Ok(false);
        }
        let owner = self.shared.leaf_addr(owner_idx);
        let (word, mut lr) = leaf.lock_nbh_window(&mut self.ep, owner, home);
        let mut addr = owner;
        loop {
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                lr.w.remove(pos);
                let vm = leaf.vm;
                let nw = word.with_vacancy_bit(vm.group_of(pos), true);
                lr.write_back(&leaf, &mut self.ep, addr, nw.with_locked(addr != owner));
                if addr != owner {
                    leaf.unlock(&mut self.ep, owner, word);
                }
                return Ok(true);
            }
            if lr.meta.sibling.is_null() {
                leaf.unlock(&mut self.ep, owner, word);
                return Ok(false);
            }
            addr = lr.meta.sibling;
            lr = leaf.read_nbh_window(&mut self.ep, addr, home, word);
        }
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        assert_ne!(start, 0, "key 0 is reserved");
        if count == 0 {
            return;
        }
        let leaf = self.shared.leaf;
        let (mut idx, _) = self.probe(start);
        let mut collected: Vec<(u64, Vec<u8>)> = Vec::new();
        while idx < self.shared.num_leaves {
            let addr = self.shared.leaf_addr(idx);
            let snap = leaf.read_full(&mut self.ep, addr);
            for (k, v) in snap.items() {
                if k >= start {
                    collected.push((k, v.to_vec()));
                }
            }
            let mut syn = snap.meta.sibling;
            while !syn.is_null() {
                let s = leaf.read_full(&mut self.ep, syn);
                for (k, v) in s.items() {
                    if k >= start {
                        collected.push((k, v.to_vec()));
                    }
                }
                syn = s.meta.sibling;
            }
            idx += 1;
            if collected.len() >= count {
                break;
            }
        }
        collected.sort_by_key(|&(k, _)| k);
        collected.truncate(count);
        out.extend(collected);
    }
}

impl RangeIndex for ChimeLearnedClient {
    dmem::span_ops!();

    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    fn cache_bytes(&self) -> u64 {
        self.shared.model.cache_bytes()
    }
}

impl ChimeLearnedClient {
    /// Updates `key` in place if it lives in the synonym chain (owner lock
    /// held). Returns `true` (and unlocks the owner) when updated.
    fn update_in_chain(
        &mut self,
        owner: GlobalAddr,
        head: GlobalAddr,
        key: u64,
        stored: &[u8],
        word: chime::lockword::LockWord,
    ) -> bool {
        let leaf = self.shared.leaf;
        let home = home_entry(key, leaf.layout.span);
        let mut addr = head;
        while !addr.is_null() {
            let syn_word = chime::lockword::LockWord::initial(leaf.vm.groups());
            let mut lr = leaf.read_nbh_window(&mut self.ep, addr, home, syn_word);
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                lr.w.set_value(pos, stored);
                lr.write_back(&leaf, &mut self.ep, addr, syn_word);
                leaf.unlock(&mut self.ep, owner, word);
                return true;
            }
            addr = lr.meta.sibling;
        }
        false
    }

    /// Inserts into the synonym chain (owner lock held); always succeeds by
    /// appending a fresh synonym leaf when needed, then unlocks the owner.
    fn insert_into_chain(
        &mut self,
        owner: GlobalAddr,
        owner_meta: LeafMeta,
        key: u64,
        stored: &[u8],
        word: chime::lockword::LockWord,
    ) -> Result<bool, IndexError> {
        let leaf = self.shared.leaf;
        let span = leaf.layout.span;
        let h = leaf.layout.h;
        let home = home_entry(key, span);
        let mut addr = owner_meta.sibling;
        let mut last_meta = owner_meta;
        let mut last_addr = owner;
        while !addr.is_null() {
            // Synonym lock words are unused (the owner lock guards the
            // chain); read with a neutral word and write back in place.
            let syn_word = chime::lockword::LockWord::initial(leaf.vm.groups());
            if let Some(mut lr) = leaf.read_hop_window(&mut self.ep, addr, home, syn_word) {
                if let Some(pos) = lr.w.find_in_neighborhood(key) {
                    lr.w.set_value(pos, stored);
                    lr.write_back(&leaf, &mut self.ep, addr, syn_word);
                    leaf.unlock(&mut self.ep, owner, word);
                    return Ok(true);
                }
                if let Some(empty) = lr.w.first_empty_from(home) {
                    if lr.w.insert(key, stored, empty).is_ok() {
                        lr.write_back(&leaf, &mut self.ep, addr, syn_word);
                        leaf.unlock(&mut self.ep, owner, word);
                        return Ok(true);
                    }
                }
                last_meta = lr.meta;
            }
            last_addr = addr;
            addr = last_meta.sibling;
        }
        // Append a fresh synonym leaf holding just this key.
        let syn_addr = self
            .alloc
            .alloc(&mut self.ep, leaf.layout.node_size() as u64)?;
        let w = build_table(span, h, stored.len(), &[(key, stored.to_vec())]).expect("single item fits");
        let meta = LeafMeta {
            sibling: GlobalAddr::NULL,
            valid: true,
            fences: last_meta.fences,
        };
        leaf.write_new(&mut self.ep, syn_addr, &w, &meta);
        // Publish by pointing the chain tail (or owner) at it. For the
        // owner this rides on the unlock; for a tail synonym we rewrite its
        // replicas via a full rewrite.
        if last_addr == owner {
            // Rewrite owner replicas with the new sibling and unlock.
            let lr = leaf.read_full_locked(&mut self.ep, owner, word);
            let mut m = lr.meta;
            m.sibling = syn_addr;
            leaf.rewrite_and_unlock(&mut self.ep, owner, &lr.w, lr.nv, &m);
        } else {
            let syn_word = chime::lockword::LockWord::initial(leaf.vm.groups());
            let lr = leaf.read_full_locked(&mut self.ep, last_addr, syn_word);
            let mut m = lr.meta;
            m.sibling = syn_addr;
            leaf.rewrite_and_unlock(&mut self.ep, last_addr, &lr.w, lr.nv, &m);
            leaf.unlock(&mut self.ep, owner, word);
        }
        Ok(true)
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
    fn load_and_search() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(3_000);
        let t = ChimeLearned::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        for (k, val) in &data {
            assert_eq!(c.search(*k), Some(val.clone()), "key {k:#x}");
        }
        assert_eq!(c.search(3), None);
    }

    #[test]
    fn neighborhood_reads_are_smaller_than_leaves() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(5_000);
        let plain = crate::Rolex::create(&pool, RolexConfig::default(), &data);
        let hop = ChimeLearned::create(&pool, RolexConfig::default(), &data);
        let mut pc = plain.client();
        let mut hc = hop.client();
        for (k, _) in data.iter().take(300) {
            pc.search(*k).unwrap();
            hc.search(*k).unwrap();
        }
        let pb = pc.stats().wire_bytes / 300;
        let hb = hc.stats().wire_bytes / 300;
        assert!(
            hb < pb,
            "hopscotch leaves should read fewer bytes: {hb} vs {pb}"
        );
    }

    #[test]
    fn insert_update_delete() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data = items(1_000);
        let t = ChimeLearned::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        let mut new_keys = Vec::new();
        for s in 50_000..50_300u64 {
            let k = dmem::hash::mix64(s) | 1;
            if c.search(k).is_none() {
                c.insert(k, &v(k)).unwrap();
                new_keys.push(k);
            }
        }
        for k in &new_keys {
            assert_eq!(c.search(*k), Some(v(*k)), "inserted {k:#x}");
        }
        for (k, _) in data.iter().take(100) {
            assert!(c.update(*k, &v(k + 1)).unwrap());
            assert_eq!(c.search(*k), Some(v(k + 1)));
        }
        for (k, _) in data.iter().take(50) {
            assert!(c.delete(*k).unwrap());
            assert_eq!(c.search(*k), None);
        }
    }

    #[test]
    fn scan_sorted() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let data: Vec<(u64, Vec<u8>)> = (1..=500u64).map(|k| (k * 2, v(k))).collect();
        let t = ChimeLearned::create(&pool, RolexConfig::default(), &data);
        let mut c = t.client();
        let mut out = Vec::new();
        c.scan(100, 20, &mut out);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (50..70).map(|k| k * 2).collect();
        assert_eq!(got, want);
    }
}
