//! The ROLEX learned index over disaggregated memory.
//!
//! Leaves are Sherman-format sorted nodes of a small span (default 16) laid
//! out **contiguously** at load time, so a leaf address is computable from
//! its index. Each compute node keeps only the piecewise-linear model: a
//! search predicts a position, derives the candidate leaf window from the
//! error bound `delta`, and fetches those leaves in one doorbell batch (the
//! paper's "fetch two leaf nodes per search"). Overflow inserts go to
//! synonym leaves chained from the owner leaf's sibling pointer, protected
//! by the owner's lock; models are pre-trained and never retrained (the
//! paper likewise excludes ROLEX from YCSB LOAD).

use std::sync::Arc;

use dmem::{indirect, ChunkAlloc, Endpoint, GlobalAddr, IndexError, Pool, RangeIndex};
use sherman::leaf::{LeafSnapshot, ShermanLeafLayout, ShermanLeafOps};

use crate::plr::PlrModel;

const OP_RETRY_LIMIT: usize = 100_000;

/// ROLEX configuration.
#[derive(Debug, Clone, Copy)]
pub struct RolexConfig {
    /// Leaf span (entries per leaf). Paper default: 16.
    pub span: usize,
    /// Model error bound. Paper default: 16 (equal to the span).
    pub delta: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Store values out-of-line (ROLEX-Indirect).
    pub indirect_values: bool,
    /// Use hopscotch leaf nodes (CHIME-Learned, Fig. 15b). Handled by
    /// [`crate::learned_hop::ChimeLearned`]; plain [`Rolex`] ignores it.
    pub hopscotch_leaves: bool,
}

impl Default for RolexConfig {
    fn default() -> Self {
        RolexConfig {
            span: 16,
            delta: 16,
            value_size: 8,
            indirect_values: false,
            hopscotch_leaves: false,
        }
    }
}

struct Shared {
    pool: Arc<Pool>,
    cfg: RolexConfig,
    leaf: ShermanLeafOps,
    base: GlobalAddr,
    num_leaves: usize,
    model: PlrModel,
}

/// A handle to a ROLEX index.
#[derive(Clone)]
pub struct Rolex {
    shared: Arc<Shared>,
}

/// One ROLEX client.
pub struct RolexClient {
    shared: Arc<Shared>,
    ep: Endpoint,
    alloc: ChunkAlloc,
}

impl Rolex {
    /// Bulk-loads `items` (sorted by key, unique, non-zero keys) and trains
    /// the model.
    pub fn create(pool: &Arc<Pool>, cfg: RolexConfig, items: &[(u64, Vec<u8>)]) -> Self {
        assert!(!items.is_empty());
        assert!(items.windows(2).all(|p| p[0].0 < p[1].0), "items must be sorted");
        let leaf = ShermanLeafOps {
            layout: ShermanLeafLayout {
                span: cfg.span,
                value_size: if cfg.indirect_values { 8 } else { cfg.value_size },
            },
        };
        let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let model = PlrModel::train(&keys, cfg.delta);
        let num_leaves = items.len().div_ceil(cfg.span);
        let node_size = leaf.layout.node_size().div_ceil(64) * 64;
        let base = pool
            .mn(0)
            .alloc((num_leaves * node_size) as u64)
            .expect("pool too small for ROLEX load");
        let shared = Arc::new(Shared {
            pool: Arc::clone(pool),
            cfg,
            leaf,
            base,
            num_leaves,
            model,
        });
        let mut ep = Endpoint::new(Arc::clone(&shared.pool));
        let mut alloc = ChunkAlloc::with_defaults();
        for i in 0..num_leaves {
            let chunk = &items[i * cfg.span..((i + 1) * cfg.span).min(items.len())];
            let lo = if i == 0 { 0 } else { chunk[0].0 };
            let hi = items
                .get((i + 1) * cfg.span)
                .map(|&(k, _)| k)
                .unwrap_or(u64::MAX);
            let mut ks = Vec::with_capacity(chunk.len());
            let mut vs = Vec::with_capacity(chunk.len());
            for (k, v) in chunk {
                ks.push(*k);
                vs.push(if cfg.indirect_values {
                    indirect::store(&mut ep, &mut alloc, *k, v, cfg.value_size).expect("pool")
                } else {
                    indirect::inline(v, cfg.value_size)
                });
            }
            shared.leaf.write_full(
                &mut ep,
                shared.leaf_addr(i),
                0,
                &ks,
                &vs,
                GlobalAddr::NULL,
                (lo, hi),
                false,
            );
        }
        Rolex { shared }
    }

    /// Creates a client (the model is shared — it is the CN cache).
    pub fn client(&self) -> RolexClient {
        RolexClient {
            shared: Arc::clone(&self.shared),
            ep: Endpoint::new(Arc::clone(&self.shared.pool)),
            alloc: ChunkAlloc::sim_scaled(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RolexConfig {
        &self.shared.cfg
    }

    /// Number of model segments (Fig. 14 cache accounting).
    pub fn model_segments(&self) -> usize {
        self.shared.model.segments()
    }
}

impl Shared {
    fn leaf_addr(&self, i: usize) -> GlobalAddr {
        let node_size = (self.leaf.layout.node_size().div_ceil(64) * 64) as u64;
        self.base.add(i as u64 * node_size)
    }

    /// Candidate leaf-index window for `key` from the model.
    fn candidates(&self, key: u64, widen: usize) -> (usize, usize) {
        let pos = self.model.predict(key);
        let d = self.cfg.delta + (widen as u64) * self.cfg.span as u64;
        let lo = (pos.saturating_sub(d) as usize) / self.cfg.span;
        let hi = ((pos + d) as usize / self.cfg.span).min(self.num_leaves - 1);
        (lo.min(self.num_leaves - 1), hi)
    }
}

impl RolexClient {
    /// Reads the owner leaf (whose fences contain `key`), widening the
    /// candidate window on (rare) model non-monotonicity at segment joins.
    fn read_owner(&mut self, key: u64) -> (usize, LeafSnapshot) {
        for widen in 0..OP_RETRY_LIMIT {
            let (lo, hi) = self.shared.candidates(key, widen);
            let addrs: Vec<GlobalAddr> =
                (lo..=hi).map(|i| self.shared.leaf_addr(i)).collect();
            let snaps = self.shared.leaf.read_batch(&mut self.ep, &addrs);
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
            let snap = self.shared.leaf.read(&mut self.ep, addr);
            let next = snap.sibling;
            out.push((addr, snap));
            addr = next;
        }
        out
    }

    fn store_value(&mut self, key: u64, value: &[u8]) -> Result<Vec<u8>, IndexError> {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return Ok(indirect::inline(value, cfg.value_size));
        }
        Ok(indirect::store(&mut self.ep, &mut self.alloc, key, value, cfg.value_size)?)
    }

    fn resolve_value(&mut self, stored: Vec<u8>) -> Vec<u8> {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return stored;
        }
        indirect::load(&mut self.ep, &stored, cfg.value_size)
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let stored = self.store_value(key, value)?;
        let leaf = self.shared.leaf;
        for _ in 0..OP_RETRY_LIMIT {
            let (owner_idx, _) = self.read_owner(key);
            let owner_addr = self.shared.leaf_addr(owner_idx);
            leaf.lock(&mut self.ep, owner_addr);
            let snap = leaf.read(&mut self.ep, owner_addr);
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
            if !snap.sibling.is_null() {
                let chain = self.chain(snap.sibling);
                if let Some((addr, cs, i)) = chain
                    .iter()
                    .find_map(|(a, cs)| cs.find(key).map(|(i, _)| (*a, cs.clone(), i)))
                {
                    leaf.write_entry_and_unlock(&mut self.ep, addr, &cs, i, &stored);
                    leaf.unlock(&mut self.ep, owner_addr);
                    return Ok(());
                }
            }
            // Room in the owner?
            if snap.keys.len() < leaf.layout.span {
                let mut ks = snap.keys.clone();
                let mut vs = snap.values.clone();
                let i = ks.binary_search(&key).unwrap_err();
                ks.insert(i, key);
                vs.insert(i, stored);
                leaf.write_suffix_and_unlock(&mut self.ep, owner_addr, &snap, i, &ks, &vs);
                return Ok(());
            }
            // Walk the synonym chain under the owner's lock.
            let chain = self.chain(snap.sibling);
            for (addr, s) in &chain {
                if let Some((i, _)) = s.find(key) {
                    leaf.write_entry_and_unlock(&mut self.ep, *addr, s, i, &stored);
                    leaf.unlock(&mut self.ep, owner_addr);
                    return Ok(());
                }
            }
            for (addr, s) in &chain {
                if s.keys.len() < leaf.layout.span {
                    let mut ks = s.keys.clone();
                    let mut vs = s.values.clone();
                    let i = ks.binary_search(&key).unwrap_err();
                    ks.insert(i, key);
                    vs.insert(i, stored);
                    leaf.write_suffix_and_unlock(&mut self.ep, *addr, s, i, &ks, &vs);
                    leaf.unlock(&mut self.ep, owner_addr);
                    return Ok(());
                }
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

    fn search_impl(&mut self, key: u64) -> Option<Vec<u8>> {
        assert_ne!(key, 0, "key 0 is reserved");
        let (_, snap) = self.read_owner(key);
        self.ep
            .note_app_bytes(self.shared.cfg.value_size as u64 + 8);
        if let Some((_, v)) = snap.find(key) {
            let v = v.to_vec();
            return Some(self.resolve_value(v));
        }
        // Overflow chain.
        let chain = self.chain(snap.sibling);
        for (_, s) in &chain {
            if let Some((_, v)) = s.find(key) {
                let v = v.to_vec();
                return Some(self.resolve_value(v));
            }
        }
        None
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let stored = self.store_value(key, value)?;
        let leaf = self.shared.leaf;
        for _ in 0..OP_RETRY_LIMIT {
            let (owner_idx, owner) = self.read_owner(key);
            // Find the containing leaf (owner or synonym).
            let mut target = None;
            if owner.find(key).is_some() {
                target = Some(self.shared.leaf_addr(owner_idx));
            } else {
                for (addr, s) in self.chain(owner.sibling) {
                    if s.find(key).is_some() {
                        target = Some(addr);
                        break;
                    }
                }
            }
            let Some(addr) = target else {
                return Ok(false);
            };
            leaf.lock(&mut self.ep, addr);
            let snap = leaf.read(&mut self.ep, addr);
            match snap.find(key) {
                Some((i, _)) => {
                    leaf.write_entry_and_unlock(&mut self.ep, addr, &snap, i, &stored);
                    return Ok(true);
                }
                None => {
                    leaf.unlock(&mut self.ep, addr);
                    // Key moved (racing delete+insert); retry.
                }
            }
        }
        panic!("rolex update retry limit for key {key}");
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        assert_ne!(key, 0, "key 0 is reserved");
        let leaf = self.shared.leaf;
        for _ in 0..OP_RETRY_LIMIT {
            let (owner_idx, owner) = self.read_owner(key);
            let mut target = None;
            if owner.find(key).is_some() {
                target = Some(self.shared.leaf_addr(owner_idx));
            } else {
                for (addr, s) in self.chain(owner.sibling) {
                    if s.find(key).is_some() {
                        target = Some(addr);
                        break;
                    }
                }
            }
            let Some(addr) = target else {
                return Ok(false);
            };
            leaf.lock(&mut self.ep, addr);
            let snap = leaf.read(&mut self.ep, addr);
            match snap.find(key) {
                Some((i, _)) => {
                    let mut ks = snap.keys.clone();
                    let mut vs = snap.values.clone();
                    ks.remove(i);
                    vs.remove(i);
                    leaf.write_suffix_and_unlock(&mut self.ep, addr, &snap, i, &ks, &vs);
                    return Ok(true);
                }
                None => {
                    leaf.unlock(&mut self.ep, addr);
                }
            }
        }
        panic!("rolex delete retry limit for key {key}");
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        assert_ne!(start, 0, "key 0 is reserved");
        if count == 0 {
            return;
        }
        let (mut idx, _) = self.read_owner(start);
        let mut collected: Vec<(u64, Vec<u8>)> = Vec::new();
        let per_leaf = self.shared.cfg.span;
        while idx < self.shared.num_leaves {
            let need = count.saturating_sub(collected.len());
            let take = need
                .div_ceil(per_leaf)
                .max(1)
                .min(self.shared.num_leaves - idx);
            let addrs: Vec<GlobalAddr> = (idx..idx + take)
                .map(|i| self.shared.leaf_addr(i))
                .collect();
            let snaps = self.shared.leaf.read_batch(&mut self.ep, &addrs);
            for snap in snaps {
                for (k, v) in snap.keys.iter().zip(snap.values.iter()) {
                    if *k >= start {
                        collected.push((*k, v.clone()));
                    }
                }
                for (_, s) in self.chain(snap.sibling) {
                    for (k, v) in s.keys.iter().zip(s.values.iter()) {
                        if *k >= start {
                            collected.push((*k, v.clone()));
                        }
                    }
                }
            }
            idx += take;
            if collected.len() >= count {
                break;
            }
        }
        collected.sort_by_key(|&(k, _)| k);
        collected.truncate(count);
        for (k, v) in collected {
            let v = self.resolve_value(v);
            out.push((k, v));
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
        self.shared.model.cache_bytes()
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
