//! The compute-side internal-node cache.
//!
//! Each CN caches internal nodes (never leaves) under a byte budget shared
//! by all its clients. Eviction is LRU by last touch — a hit, an insert and
//! a replace-in-place each move the node to the young end of one list, and
//! the victim is always the other end. The cache is the only state the
//! Fig. 14 cache-consumption experiment measures for CHIME/Sherman-style
//! indexes.

use std::collections::HashMap;
use std::sync::Arc;

use dmem::GlobalAddr;

use crate::internal::InternalNode;
use crate::slablist::{FixedState, List, Slab};

/// An LRU cache of internal nodes with a byte budget.
pub struct NodeCache {
    map: HashMap<u64, u32, FixedState>,
    /// `None` only in released slab nodes.
    nodes: Slab<Option<Arc<InternalNode>>>,
    /// Every cached node, least recently touched first.
    lru: List,
    bytes: u64,
    budget: u64,
    hits: u64,
    misses: u64,
}

impl NodeCache {
    /// Creates a cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        NodeCache {
            map: HashMap::default(),
            nodes: Slab::new(),
            lru: List::EMPTY,
            bytes: 0,
            budget,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the node at `addr`, refreshing its recency. A hit shares
    /// the cached node instead of copying its entries.
    pub fn get(&mut self, addr: GlobalAddr) -> Option<Arc<InternalNode>> {
        let Some(&i) = self.map.get(&addr.raw()) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.nodes.unlink(&mut self.lru, i);
        self.nodes.push_back(&mut self.lru, i);
        self.nodes[i].clone()
    }

    /// Inserts (or replaces) a node, evicting LRU victims over budget.
    pub fn insert(&mut self, node: Arc<InternalNode>) {
        let key = node.addr.raw();
        let sz = node.cached_bytes();
        if sz > self.budget {
            return; // budget too small to cache anything of this size
        }
        self.remove(key);
        let i = self.nodes.alloc(Some(node));
        self.map.insert(key, i);
        self.nodes.push_back(&mut self.lru, i);
        self.bytes += sz;
        while self.bytes > self.budget {
            let victim = self.nodes[self.lru.head]
                .as_ref()
                .expect("linked nodes are live");
            self.remove(victim.addr.raw());
        }
    }

    /// Drops `addr` from the cache (sibling-validation invalidation).
    pub fn invalidate(&mut self, addr: GlobalAddr) {
        self.remove(addr.raw());
    }

    fn remove(&mut self, key: u64) {
        if let Some(i) = self.map.remove(&key) {
            self.nodes.unlink(&mut self.lru, i);
            let node = self.nodes[i].take().expect("mapped nodes are live");
            self.bytes -= node.cached_bytes();
            self.nodes.release(i);
        }
    }

    /// Current cache footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slablist::NIL;

    fn node(off: u64, entries: usize) -> Arc<InternalNode> {
        Arc::new(InternalNode {
            addr: GlobalAddr::new(0, off),
            level: 1,
            valid: true,
            fence_low: 0,
            fence_high: u64::MAX,
            sibling: GlobalAddr::NULL,
            entries: vec![(0, GlobalAddr::NULL); entries],
            nv: 0,
        })
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = NodeCache::new(10_000);
        c.insert(node(0x1000, 4));
        let got = c.get(GlobalAddr::new(0, 0x1000)).unwrap();
        assert_eq!(got.entries.len(), 4);
        assert!(c.get(GlobalAddr::new(0, 0x2000)).is_none());
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn eviction_respects_budget() {
        // Each node: 48 + 16*4 = 112 bytes; budget fits 3.
        let mut c = NodeCache::new(350);
        for i in 0..10 {
            c.insert(node(0x1000 * (i + 1), 4));
        }
        assert!(c.bytes() <= 350);
        assert!(c.len() <= 3);
        // Most recent stays.
        assert!(c.get(GlobalAddr::new(0, 0x1000 * 10)).is_some());
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = NodeCache::new(250); // fits 2 nodes of 112 B
        c.insert(node(0x1000, 4));
        c.insert(node(0x2000, 4));
        // Touch the first, then insert a third: the second must go.
        assert!(c.get(GlobalAddr::new(0, 0x1000)).is_some());
        c.insert(node(0x3000, 4));
        assert!(c.get(GlobalAddr::new(0, 0x1000)).is_some());
        assert!(c.get(GlobalAddr::new(0, 0x2000)).is_none());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = NodeCache::new(10_000);
        c.insert(node(0x1000, 4));
        c.invalidate(GlobalAddr::new(0, 0x1000));
        assert!(c.get(GlobalAddr::new(0, 0x1000)).is_none());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = NodeCache::new(10_000);
        c.insert(node(0x1000, 4));
        let b1 = c.bytes();
        c.insert(node(0x1000, 8));
        assert_eq!(c.bytes(), b1 + 64);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_node_not_cached() {
        let mut c = NodeCache::new(100);
        c.insert(node(0x1000, 64));
        assert!(c.is_empty());
    }

    /// Replays a fixed (SplitMix64) stream of hits, misses, inserts, replaces of another
    /// size and invalidations over 48 addresses against a budget of about a
    /// dozen nodes, folding what every operation can observe into one FNV
    /// hash.
    fn replay_trace() -> u64 {
        let mut c = NodeCache::new(2_000);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for i in 0..40_000u64 {
            let r = dmem::hash::mix64(i);
            let off = 0x1000 * (1 + (r >> 8) % 48);
            match r % 8 {
                0..=3 => fold(
                    c.get(GlobalAddr::new(0, off))
                        .map_or(0, |n| n.entries.len() as u64 + 1),
                ),
                4..=6 => c.insert(node(off, 2 + (r >> 20) as usize % 9)),
                _ => c.invalidate(GlobalAddr::new(0, off)),
            }
            fold(c.len() as u64);
            fold(c.bytes());
        }
        let (hits, misses) = c.hit_stats();
        fold(hits);
        fold(misses);
        h
    }

    /// Recorded from the stamp-queue cache this list replaced (commit
    /// `ad9c6dc`): the same hits, sizes and footprint at every step, so the
    /// same victims.
    #[test]
    fn evicts_what_the_stamp_queue_evicted_on_a_recorded_trace() {
        assert_eq!(replay_trace(), 0x4030_755b_6d44_0a3c);
    }

    impl NodeCache {
        /// The cached addresses, least recently touched first.
        fn lru_order(&self) -> Vec<u64> {
            let mut out = Vec::new();
            let mut i = self.lru.head;
            while i != NIL {
                let addr = self.nodes[i].as_ref().unwrap().addr.raw();
                assert_eq!(self.map.get(&addr), Some(&i));
                out.push(addr);
                i = self.nodes.next(i);
            }
            assert_eq!(out.len(), self.map.len());
            out
        }
    }

    proptest::proptest! {
        /// Against the reference LRU — a vector of `(address, bytes)` in
        /// order of last touch, evicted from the front — every stream of
        /// gets, inserts (new, replace-in-place, oversized) and
        /// invalidations leaves the same nodes in the same order, so every
        /// insert evicted the same victims.
        #[test]
        fn behaves_like_the_reference_lru(
            budget in 0u64..700,
            ops in proptest::collection::vec((0u8..8, 1u64..10, 0usize..12), 1..200),
        ) {
            let mut real = NodeCache::new(budget);
            let mut model: Vec<(u64, u64)> = Vec::new();
            let (mut hits, mut misses) = (0, 0);
            for (kind, off, entries) in ops {
                let addr = GlobalAddr::new(0, off * 0x1000);
                let at = model.iter().position(|e| e.0 == addr.raw());
                match kind {
                    0..=2 => {
                        let got = real.get(addr);
                        proptest::prop_assert_eq!(got.is_some(), at.is_some());
                        if let Some(at) = at {
                            let e = model.remove(at);
                            proptest::prop_assert_eq!(got.unwrap().cached_bytes(), e.1);
                            model.push(e);
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                    3..=6 => {
                        let n = node(addr.offset(), entries);
                        let sz = n.cached_bytes();
                        real.insert(n);
                        if sz <= budget {
                            at.map(|at| model.remove(at));
                            model.push((addr.raw(), sz));
                            while model.iter().map(|e| e.1).sum::<u64>() > budget {
                                model.remove(0);
                            }
                        }
                    }
                    _ => {
                        real.invalidate(addr);
                        at.map(|at| model.remove(at));
                    }
                }
                proptest::prop_assert_eq!(real.lru_order(), model.iter().map(|e| e.0).collect::<Vec<_>>());
                proptest::prop_assert_eq!(real.bytes(), model.iter().map(|e| e.1).sum::<u64>());
                proptest::prop_assert!(real.bytes() <= budget);
                proptest::prop_assert_eq!(real.hit_stats(), (hits, misses));
            }
        }
    }
}
