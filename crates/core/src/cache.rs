//! The compute-side internal-node cache.
//!
//! Each CN caches internal nodes (never leaves) under a byte budget shared
//! by all its clients. Eviction is LRU. The cache is the only state the
//! Fig. 14 cache-consumption experiment measures for CHIME/Sherman-style
//! indexes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dmem::GlobalAddr;

use crate::internal::InternalNode;

/// An LRU cache of internal nodes with a byte budget.
pub struct NodeCache {
    map: HashMap<u64, (Arc<InternalNode>, u64)>,
    lru: VecDeque<(u64, u64)>,
    tick: u64,
    bytes: u64,
    budget: u64,
    hits: u64,
    misses: u64,
}

impl NodeCache {
    /// Creates a cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        NodeCache {
            map: HashMap::new(),
            lru: VecDeque::new(),
            tick: 0,
            bytes: 0,
            budget,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the node at `addr`, refreshing its recency. A hit shares
    /// the cached node instead of copying its entries.
    pub fn get(&mut self, addr: GlobalAddr) -> Option<Arc<InternalNode>> {
        self.tick += 1;
        match self.map.get_mut(&addr.raw()) {
            Some((node, stamp)) => {
                *stamp = self.tick;
                self.lru.push_back((addr.raw(), self.tick));
                self.hits += 1;
                let node = Arc::clone(node);
                self.compact_lru();
                Some(node)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Drops superseded recency entries once the queue outgrows the map.
    ///
    /// Every hit pushes a fresh `(key, tick)` entry but stale ones are only
    /// consumed by `insert`'s eviction loop, so a read-mostly workload that
    /// never evicts would grow `lru` without bound. Compacting when the queue
    /// is more than twice the live-node count keeps it O(len()) while staying
    /// amortized O(1) per hit.
    fn compact_lru(&mut self) {
        if self.lru.len() > (2 * self.map.len()).max(16) {
            let map = &self.map;
            self.lru
                .retain(|(key, stamp)| matches!(map.get(key), Some((_, cur)) if cur == stamp));
        }
    }

    /// Inserts (or replaces) a node, evicting LRU victims over budget.
    pub fn insert(&mut self, node: Arc<InternalNode>) {
        let key = node.addr.raw();
        let sz = node.cached_bytes();
        if sz > self.budget {
            return; // budget too small to cache anything of this size
        }
        self.tick += 1;
        if let Some((old, _)) = self.map.insert(key, (node, self.tick)) {
            self.bytes -= old.cached_bytes();
        }
        self.bytes += sz;
        self.lru.push_back((key, self.tick));
        while self.bytes > self.budget {
            let Some((victim, stamp)) = self.lru.pop_front() else {
                break;
            };
            match self.map.get(&victim) {
                // Stale queue entry: the node was touched again later.
                Some((_, cur)) if *cur != stamp => continue,
                Some(_) => {
                    let (evicted, _) = self.map.remove(&victim).unwrap();
                    self.bytes -= evicted.cached_bytes();
                }
                None => continue,
            }
        }
    }

    /// Drops `addr` from the cache (sibling-validation invalidation).
    pub fn invalidate(&mut self, addr: GlobalAddr) {
        if let Some((node, _)) = self.map.remove(&addr.raw()) {
            self.bytes -= node.cached_bytes();
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

    /// Length of the internal recency queue (exposed for the growth
    /// regression test; stays within a small factor of `len()`).
    pub fn recency_queue_len(&self) -> usize {
        self.lru.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn read_mostly_workload_does_not_grow_recency_queue() {
        // Regression: get() used to push a recency entry per hit that was
        // only ever drained by insert()'s eviction loop, so a cache that
        // stopped evicting grew its queue by one entry per lookup.
        let mut c = NodeCache::new(10_000);
        for i in 0..8 {
            c.insert(node(0x1000 * (i + 1), 4));
        }
        for round in 0..10_000u64 {
            let i = round % 8;
            assert!(c.get(GlobalAddr::new(0, 0x1000 * (i + 1))).is_some());
        }
        assert!(
            c.recency_queue_len() <= (2 * c.len()).max(16),
            "recency queue grew to {} entries for {} cached nodes",
            c.recency_queue_len(),
            c.len()
        );
        // LRU order must survive compaction: touch node 1, insert over budget
        // repeatedly and check node 1 outlives the untouched ones.
        let mut small = NodeCache::new(250);
        small.insert(node(0x1000, 4));
        small.insert(node(0x2000, 4));
        for _ in 0..100 {
            assert!(small.get(GlobalAddr::new(0, 0x1000)).is_some());
        }
        small.insert(node(0x3000, 4));
        assert!(small.get(GlobalAddr::new(0, 0x1000)).is_some());
        assert!(small.get(GlobalAddr::new(0, 0x2000)).is_none());
    }
}
