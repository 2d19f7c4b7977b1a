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

use chime::hopscotch::{build_table, Window};
use chime::layout::LeafLayout;
use chime::leaf::{LeafMeta, LeafOps, LockedRead};
use chime::lockword::LockWord;
use dmem::hash::home_entry;
use dmem::{Endpoint, GlobalAddr, IndexError, Pool, RangeIndex, Rows};

use crate::learned::{Client, Learned, RolexConfig, OP_RETRY_LIMIT};

/// Target fill of a hopscotch leaf at load time.
const LOAD_FILL_NUM: usize = 3;
const LOAD_FILL_DEN: usize = 4;

/// A CHIME-Learned index handle.
pub type ChimeLearned = Learned<LeafOps>;

/// One CHIME-Learned client.
pub type ChimeLearnedClient = Client<LeafOps>;

impl ChimeLearned {
    /// Bulk-loads sorted `items` and trains the model.
    pub fn create(pool: &Arc<Pool>, cfg: RolexConfig, items: &[(u64, Vec<u8>)]) -> Self {
        // Hopscotch leaves use a span that is a multiple of H = 8; scale the
        // configured span up if needed.
        let span = cfg.span.max(16).div_ceil(8) * 8;
        let h = 8usize.min(span);
        let leaf = LeafOps::new(LeafLayout {
            span,
            h,
            key_size: 8,
            value_size: cfg.values().slot_size(),
            replication: true,
            fences: true,
            piggyback: true,
        });
        let size = leaf.layout.node_size();
        let per_leaf = (span * LOAD_FILL_NUM / LOAD_FILL_DEN).max(1);
        Learned::load(pool, cfg, leaf, size, per_leaf, items, |leaf, ep, addr, entries, fences| {
            let w = build_table(span, h, leaf.layout.value_size, &entries)
                .expect("leaf fill below hopscotch capacity");
            leaf.write_new(ep, addr, &w, &leaf.meta(GlobalAddr::NULL, true, fences));
        })
    }
}

impl ChimeLearnedClient {
    /// Finds the owner leaf index by probing candidate neighborhoods:
    /// one neighborhood READ per candidate leaf (the CHIME-Learned cost),
    /// through the client's READ buffers. Returns the owner index and
    /// whether its chain holds `key`, whose stored value then replaces the
    /// contents of `value`.
    fn probe(&mut self, key: u64, value: &mut Vec<u8>) -> (usize, bool) {
        let (leaf, reads) = (self.dir.leaf, &mut self.reads);
        for widen in 0..OP_RETRY_LIMIT {
            let (lo, hi) = self.dir.candidates(key, widen);
            for i in lo..=hi {
                let addr = self.dir.leaf_addr(i);
                let mut r = leaf.read_neighborhood(&mut self.ep, addr, key, reads, value);
                let (flo, fhi) = r.meta.fences.expect("fence mode");
                if !dmem::hash::in_range(key, flo, fhi) {
                    continue;
                }
                // The owner, then its overflow chain.
                loop {
                    if r.found.is_some() || r.meta.sibling.is_null() {
                        return (i, r.found.is_some());
                    }
                    let next = r.meta.sibling;
                    r = leaf.read_neighborhood(&mut self.ep, next, key, reads, value);
                }
            }
        }
        panic!("chime-learned owner not found for key {key}");
    }

    /// [`Self::probe`] for the write paths and scans, which want the owner,
    /// not the value: it lands in the client's spare buffer.
    fn owner(&mut self, key: u64) -> (usize, bool) {
        let mut spare = std::mem::take(&mut self.spare);
        let found = self.probe(key, &mut spare);
        self.spare = spare;
        found
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let stored = self.dir.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        let (owner_idx, _) = self.owner(key);
        let owner = self.dir.leaf_addr(owner_idx);
        let word = self.dir.leaf.lock(&mut self.ep, owner);
        // The owner's window is out of the client while the write runs, so
        // that the chain steps may borrow the client beside it.
        let mut lr = std::mem::take(&mut self.owner_read);
        let done = self.insert_locked(owner, word, key, &stored, &mut lr);
        self.owner_read = lr;
        done
    }

    /// Inserts `key` under the owner's lock `word`: into the owner leaf,
    /// whose window `lr` reads, else into its synonym chain.
    fn insert_locked(
        &mut self,
        owner: GlobalAddr,
        word: LockWord,
        key: u64,
        stored: &[u8],
        lr: &mut LockedRead,
    ) -> Result<(), IndexError> {
        let leaf = self.dir.leaf;
        let home = home_entry(key, leaf.layout.span);
        // Try the owner leaf first.
        if !leaf.read_hop_window(&mut self.ep, owner, home, word, lr) {
            // Owner full per vacancy bitmap; a duplicate may still live in
            // it, else the chain.
            leaf.read_full_locked(&mut self.ep, owner, word, lr);
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                lr.w.set_value(pos, stored);
                lr.write_back(&leaf, &mut self.ep, owner, word);
                return Ok(());
            }
            return self.insert_into_chain(owner, lr.meta, key, stored, word);
        }
        if let Some(pos) = lr.w.find_in_neighborhood(key) {
            lr.w.set_value(pos, stored);
            lr.write_back(&leaf, &mut self.ep, owner, word);
            return Ok(());
        }
        // Duplicate in the synonym chain? (A key that overflowed while the
        // owner was full stays there even after owner space frees up.)
        if !lr.meta.sibling.is_null() && self.update_in_chain(owner, lr.meta.sibling, key, stored, word) {
            return Ok(());
        }
        if let Some(empty) = lr.w.first_empty_from(home) {
            if let Ok(pos) = lr.w.insert(key, stored, empty) {
                let vm = leaf.vm;
                let g = vm.group_of(empty);
                let (gs, ge) = vm.group_range(g);
                let any_empty = (gs..=ge).any(|i| lr.w.rel(i).map(|_| lr.w.slot_empty(i)).unwrap_or(false));
                let mut nw = word.with_vacancy_bit(g, any_empty);
                if lr.max_key.is_none_or(|mx| key > mx) {
                    nw = nw.with_argmax(pos as u16);
                }
                lr.write_back(&leaf, &mut self.ep, owner, nw);
                return Ok(());
            }
        }
        // No room/hop in the owner: the chain.
        self.insert_into_chain(owner, lr.meta, key, stored, word)
    }

    fn search_impl(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        self.ep.note_app_bytes(self.dir.cfg.value_size as u64 + 8);
        let (_, found) = self.probe(key, value);
        if found {
            self.dir.values.resolve_in_place(&mut self.ep, value);
        }
        found
    }

    /// Locks `key`'s owner, reading its neighborhood window in the lock's
    /// doorbell, and walks the owner and its synonym chain under that lock
    /// to the leaf holding `key`. There `edit` changes the window at the
    /// key's position and returns the lock word to write back; only the
    /// owner's word is unlocked. `false` when the key is absent.
    fn edit_locked(&mut self, key: u64, edit: impl FnOnce(&mut Window, usize, LockWord) -> LockWord) -> bool {
        let leaf = self.dir.leaf;
        let home = home_entry(key, leaf.layout.span);
        let (owner_idx, found) = self.owner(key);
        if !found {
            return false;
        }
        let owner = self.dir.leaf_addr(owner_idx);
        let lr = &mut self.owner_read;
        let word = leaf.lock_nbh_window(&mut self.ep, owner, home, lr);
        let mut addr = owner;
        loop {
            if let Some(pos) = lr.w.find_in_neighborhood(key) {
                let nw = edit(&mut lr.w, pos, word);
                lr.write_back(&leaf, &mut self.ep, addr, nw.with_locked(addr != owner));
                if addr != owner {
                    leaf.unlock(&mut self.ep, owner, word);
                }
                return true;
            }
            if lr.meta.sibling.is_null() {
                leaf.unlock(&mut self.ep, owner, word);
                return false;
            }
            addr = lr.meta.sibling;
            leaf.read_nbh_window(&mut self.ep, addr, home, word, lr);
        }
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        let stored = self.dir.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        Ok(self.edit_locked(key, |w, pos, word| {
            w.set_value(pos, &stored);
            word
        }))
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        let vm = self.dir.leaf.vm;
        Ok(self.edit_locked(key, |w, pos, word| {
            w.remove(pos);
            word.with_vacancy_bit(vm.group_of(pos), true)
        }))
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Rows) {
        if count == 0 {
            return;
        }
        let leaf = self.dir.leaf;
        let (mut idx, _) = self.owner(start);
        // Every leaf read, and a row per key `>= start`, in buffers the
        // client keeps.
        let (leaves, collected) = &mut self.scanned;
        while idx < self.dir.num_leaves {
            // The leaf, then its synonym chain.
            let mut addr = self.dir.leaf_addr(idx);
            while !addr.is_null() {
                let s = leaf.read_snapshot(&mut self.ep, addr, &mut self.leaf_reads);
                let at = leaves.len() as u32;
                let rows = s.slots().filter(|&(k, _)| k >= start);
                collected.extend(rows.map(|(k, off)| (k, at, off as u32)));
                addr = s.meta.sibling;
                leaves.push(s);
            }
            idx += 1;
            if collected.len() >= count {
                break;
            }
        }
        collected.sort_unstable();
        collected.truncate(count);
        let values = self.dir.values;
        for (k, at, off) in collected.drain(..) {
            let stored = leaves[at as usize].value_at(off as usize);
            out.push_with(k, |bytes| values.resolve_into(&mut self.ep, stored, bytes));
        }
        for s in leaves.drain(..) {
            s.recycle(&mut self.leaf_reads);
        }
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
        self.dir.model.cache_bytes()
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
        word: LockWord,
    ) -> bool {
        let leaf = self.dir.leaf;
        let home = home_entry(key, leaf.layout.span);
        let mut addr = head;
        let lr = &mut self.chain_read;
        while !addr.is_null() {
            let syn_word = LockWord::initial(leaf.vm.groups());
            leaf.read_nbh_window(&mut self.ep, addr, home, syn_word, lr);
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

    /// Inserts into the synonym chain (owner lock held), appending a fresh
    /// synonym leaf when needed, then unlocks the owner.
    fn insert_into_chain(
        &mut self,
        owner: GlobalAddr,
        owner_meta: LeafMeta,
        key: u64,
        stored: &[u8],
        word: LockWord,
    ) -> Result<(), IndexError> {
        let leaf = self.dir.leaf;
        let span = leaf.layout.span;
        let h = leaf.layout.h;
        let home = home_entry(key, span);
        let mut addr = owner_meta.sibling;
        let mut last_meta = owner_meta;
        let mut last_addr = owner;
        let lr = &mut self.chain_read;
        while !addr.is_null() {
            // Synonym lock words are unused (the owner lock guards the
            // chain); read with a neutral word and write back in place.
            let syn_word = LockWord::initial(leaf.vm.groups());
            if leaf.read_hop_window(&mut self.ep, addr, home, syn_word, lr) {
                if let Some(pos) = lr.w.find_in_neighborhood(key) {
                    lr.w.set_value(pos, stored);
                    lr.write_back(&leaf, &mut self.ep, addr, syn_word);
                    leaf.unlock(&mut self.ep, owner, word);
                    return Ok(());
                }
                if let Some(empty) = lr.w.first_empty_from(home) {
                    if lr.w.insert(key, stored, empty).is_ok() {
                        lr.write_back(&leaf, &mut self.ep, addr, syn_word);
                        leaf.unlock(&mut self.ep, owner, word);
                        return Ok(());
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
            leaf.read_full_locked(&mut self.ep, owner, word, lr);
            let mut m = lr.meta;
            m.sibling = syn_addr;
            leaf.rewrite_and_unlock(&mut self.ep, owner, &lr.w, lr.nv, &m);
        } else {
            let syn_word = LockWord::initial(leaf.vm.groups());
            leaf.read_full_locked(&mut self.ep, last_addr, syn_word, lr);
            let mut m = lr.meta;
            m.sibling = syn_addr;
            leaf.rewrite_and_unlock(&mut self.ep, last_addr, &lr.w, lr.nv, &m);
            leaf.unlock(&mut self.ep, owner, word);
        }
        Ok(())
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
