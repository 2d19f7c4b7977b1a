//! The compute-side internal-node cache.
//!
//! Each CN caches internal nodes (never leaves) under a byte budget shared
//! by all its clients. A node is cached as a [`Route`]: its header and
//! children, with each pivot cut to a 4-byte suffix, so an entry costs 12
//! bytes instead of the remote node's 16. Eviction is LRU by last touch — a
//! hit, an insert and a replace-in-place each move the route to the young
//! end of one list, and the victim is always the other end. The cache is
//! the only state the Fig. 14 cache-consumption experiment measures for
//! CHIME/Sherman-style indexes; SMART caches its radix nodes in the same
//! [`NodeCache`], over its own [`Cached`] node type.

use std::collections::HashMap;
use std::sync::Arc;

use dmem::hash::FixedState;
use dmem::GlobalAddr;

use crate::internal::InternalNode;
use crate::slablist::{List, Slab};

/// Where an internal node sends a key: the child covering it and the child
/// after it (CHIME's expected leaf sibling; `None` for the last child).
pub type Hop = (GlobalAddr, Option<GlobalAddr>);

/// The side a route sends a key that shares its suffix bucket with a pivot:
/// the side of the pivot where the index's splits leave an existing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lean {
    /// Pivots are a left half's maximum plus one (CHIME), so `pivot - 1` is
    /// a key. The key routes as if the pivots in its bucket were absent: to
    /// the reader, a split not yet propagated, which leaf validation and
    /// B-link moves already handle.
    Left,
    /// Pivots are a right half's minimum (Sherman), so the pivot is a key.
    /// The key routes as if it were at or above every pivot in its bucket;
    /// a key below one lands on a node or leaf whose low fence is above it,
    /// and the index re-reads the route that sent it there.
    Right,
}

/// A cached internal node: fences, sibling, level, valid flag and children,
/// with each pivot kept as a 4-byte suffix `(pivot - base) >> shift`, where
/// `base` is the second pivot.
///
/// A key in no pivot's suffix bucket routes exactly as
/// [`InternalNode::select`]. A key that shares a bucket with a pivot after
/// the first two routes by [`Lean`]; the node read on the miss that
/// validation then forces routes exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Remote address of the node.
    pub addr: GlobalAddr,
    /// Level (1 = parent of leaves).
    pub level: u8,
    /// Valid flag.
    pub valid: bool,
    /// Low fence: smallest key the subtree may contain.
    pub fence_low: u64,
    /// High fence (exclusive; `u64::MAX` is unbounded).
    pub fence_high: u64,
    /// Right sibling at the same level.
    pub sibling: GlobalAddr,
    /// The second pivot (the low fence of a one-child node). Keys below it
    /// go to the first child; the suffixes are offsets from it, so a node
    /// whose pivots sit close together keeps them whole, however far they
    /// are from its low fence (0 on the left edge).
    base: u64,
    /// The fewest low bits of `pivot - base` to drop for the last pivot
    /// (not the high fence) to fit in 32 bits.
    shift: u32,
    /// `(pivot - base) >> shift` per child (0 for the first), non-decreasing.
    suffixes: Vec<u32>,
    children: Vec<GlobalAddr>,
}

impl Route {
    /// The route of `node`.
    pub fn new(node: &InternalNode) -> Route {
        let base = node.entries.get(1).map_or(node.fence_low, |e| e.0);
        let rel = |pivot: u64| pivot.saturating_sub(base);
        let last = node.entries.last().map_or(0, |e| rel(e.0));
        let shift = (u64::BITS - last.leading_zeros()).saturating_sub(32);
        Route {
            addr: node.addr,
            level: node.level,
            valid: node.valid,
            fence_low: node.fence_low,
            fence_high: node.fence_high,
            sibling: node.sibling,
            base,
            shift,
            suffixes: node
                .entries
                .iter()
                .map(|e| (rel(e.0) >> shift) as u32)
                .collect(),
            children: node.entries.iter().map(|e| e.1).collect(),
        }
    }

    /// Whether `key` falls inside the fences.
    pub fn covers(&self, key: u64) -> bool {
        dmem::hash::in_range(key, self.fence_low, self.fence_high)
    }

    /// The children, in key order.
    pub fn children(&self) -> &[GlobalAddr] {
        &self.children
    }

    /// `(below, tied)`: the pivots at or below `key` for certain (the
    /// first pivot, the low fence, always counts, and the second, the base,
    /// whenever `key` is not below it), and how many after them share its
    /// bucket without being known to. A key at the top of its bucket is at
    /// or above every pivot in it, so with no bits dropped nothing is tied.
    fn bucket_of(&self, key: u64) -> (usize, usize) {
        if key < self.base {
            return (1, 0);
        }
        let rel = key - self.base;
        let bucket = rel >> self.shift;
        let below = self
            .suffixes
            .partition_point(|&s| u64::from(s) < bucket)
            .max(self.suffixes.len().min(2));
        if self.suffixes.get(below).is_none_or(|&s| u64::from(s) != bucket) {
            return (below, 0);
        }
        let tied = self.suffixes[below..].partition_point(|&s| u64::from(s) == bucket);
        let top = (1u64 << self.shift) - 1;
        if rel & top == top {
            (below + tied, 0)
        } else {
            (below, tied)
        }
    }

    /// Selects the child covering `key` and the child after it, leaning
    /// `lean` when pivots share `key`'s bucket.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the fences or the node is empty.
    pub fn select(&self, key: u64, lean: Lean) -> Hop {
        assert!(self.covers(key) && !self.children.is_empty());
        let (below, tied) = self.bucket_of(key);
        let i = match lean {
            Lean::Left => below - 1,
            Lean::Right => below - 1 + tied,
        };
        (self.children[i], self.children.get(below + tied).copied())
    }

    /// Key range of child `i`, its bounds floored to their buckets: its
    /// pivot (the low fence for the first) to the next pivot or high fence.
    pub(crate) fn child_range(&self, i: usize) -> (u64, u64) {
        let floor = |s: u32| self.base + (u64::from(s) << self.shift);
        let hi = self
            .suffixes
            .get(i + 1)
            .map_or(self.fence_high, |&s| floor(s));
        let lo = if i == 0 { self.fence_low } else { floor(self.suffixes[i]) };
        (lo, hi)
    }
}

/// A node a [`NodeCache`] can hold: its remote address (the cache key) and
/// the compute-side bytes it is charged against the budget.
pub trait Cached {
    /// Remote address of the node.
    fn addr(&self) -> GlobalAddr;
    /// Accounted compute-side bytes.
    fn cached_bytes(&self) -> u64;
}

impl Cached for Route {
    fn addr(&self) -> GlobalAddr {
        self.addr
    }

    /// A 48-byte header plus a 4-byte suffix and an 8-byte child per entry.
    fn cached_bytes(&self) -> u64 {
        48 + 12 * self.children.len() as u64
    }
}

/// An LRU cache of nodes (internal-node routes unless `N` says otherwise)
/// with a byte budget.
pub struct NodeCache<N = Route> {
    map: HashMap<u64, u32, FixedState>,
    /// `None` only in released slab nodes.
    nodes: Slab<Option<Arc<N>>>,
    /// Every cached node, least recently touched first.
    lru: List,
    bytes: u64,
    budget: u64,
    hits: u64,
    misses: u64,
}

impl<N: Cached> NodeCache<N> {
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
    /// the cached node instead of copying it.
    pub fn get(&mut self, addr: GlobalAddr) -> Option<Arc<N>> {
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
    pub fn insert(&mut self, node: Arc<N>) {
        let key = node.addr().raw();
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
            self.remove(victim.addr().raw());
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

    fn node(off: u64, entries: usize) -> Arc<Route> {
        Arc::new(Route::new(&InternalNode {
            addr: GlobalAddr::new(0, off),
            level: 1,
            valid: true,
            fence_low: 0,
            fence_high: u64::MAX,
            sibling: GlobalAddr::NULL,
            entries: vec![(0, GlobalAddr::NULL); entries],
            nv: 0,
        }))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = NodeCache::new(10_000);
        c.insert(node(0x1000, 4));
        let got = c.get(GlobalAddr::new(0, 0x1000)).unwrap();
        assert_eq!(got.children().len(), 4);
        assert!(c.get(GlobalAddr::new(0, 0x2000)).is_none());
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn eviction_respects_budget() {
        // Each route: 48 + 12*4 = 96 bytes; budget fits 3.
        let mut c = NodeCache::new(300);
        for i in 0..10 {
            c.insert(node(0x1000 * (i + 1), 4));
        }
        assert_eq!(c.bytes(), 288);
        assert_eq!(c.len(), 3);
        // Most recent stays.
        assert!(c.get(GlobalAddr::new(0, 0x1000 * 10)).is_some());
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = NodeCache::new(200); // fits 2 routes of 96 B
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
        assert_eq!(c.bytes(), b1 + 48);
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
        let mut c: NodeCache = NodeCache::new(2_000);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for i in 0..40_000u64 {
            let r = dmem::hash::mix64(i);
            let off = 0x1000 * (1 + (r >> 8) % 48);
            match r % 8 {
                0..=3 => fold(
                    c.get(GlobalAddr::new(0, off))
                        .map_or(0, |n| n.children().len() as u64 + 1),
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
    /// same victims. Re-recorded once, from this list, when a cached entry
    /// went from 16 to 12 accounted bytes (the trace's budget then holds
    /// other victims); [`behaves_like_the_reference_lru`] is the oracle.
    #[test]
    fn evicts_what_the_stamp_queue_evicted_on_a_recorded_trace() {
        assert_eq!(replay_trace(), 0xaf09_a7d6_5540_b42f);
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

    /// A level-1 node with fences `(lo, hi)` and `pivots` (the first is
    /// `lo`) over children `0x1000 * (i + 1)`.
    fn internal((lo, hi): (u64, u64), pivots: &[u64]) -> InternalNode {
        InternalNode {
            addr: GlobalAddr::new(0, 0x100),
            level: 1,
            valid: true,
            fence_low: lo,
            fence_high: hi,
            sibling: GlobalAddr::NULL,
            entries: pivots
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, GlobalAddr::new(0, 0x1000 * (i as u64 + 1))))
                .collect(),
            nv: 0,
        }
    }

    /// The pivots after the first two that share `key`'s bucket (offsets
    /// from the second pivot), unless `key` is below the second pivot or at
    /// its bucket's top (and so at or above all of them).
    fn tied(node: &InternalNode, shift: u32, key: u64) -> Vec<u64> {
        let base = node.entries.get(1).map_or(node.fence_low, |e| e.0);
        let (bucket, top) = (|k: u64| (k - base) >> shift, (1u64 << shift) - 1);
        if key < base || (key - base) & top == top {
            return Vec::new();
        }
        let pivots = node.entries.iter().skip(2).map(|e| e.0);
        pivots.filter(|&p| bucket(p) == bucket(key)).collect()
    }

    /// What the route of `node` must send `key` to: `select`'s hop, unless
    /// pivots are [`tied`] with `key` — then `select` on the node without
    /// them (left), or as if `key` were at or above them (right).
    fn oracle(node: &InternalNode, shift: u32, key: u64, lean: Lean) -> Hop {
        let tied = tied(node, shift, key);
        match (lean, tied.last()) {
            (_, None) => node.select(key),
            (Lean::Left, Some(_)) => {
                let mut pruned = node.clone();
                pruned.entries.retain(|e| !tied.contains(&e.0));
                pruned.select(key)
            }
            (Lean::Right, Some(&last)) => node.select(key.max(last)),
        }
    }

    /// Pivot sets: hashed keys, dense sequential keys, two tight clusters,
    /// or a dense run 2^40 above the low fence, inside fences that include
    /// 0 and `u64::MAX`.
    fn pivots(kind: u8, seed: u64, n: usize, bounded: (bool, bool)) -> ((u64, u64), Vec<u64>) {
        let r = |i: u64| dmem::hash::mix64(seed ^ i.wrapping_mul(0x9E37_79B9));
        let lo = if bounded.0 { r(0) >> 2 } else { 0 };
        let hi = if bounded.1 {
            lo + (r(1) >> 2).max(1 << 40)
        } else {
            u64::MAX
        };
        let top = hi - lo - 1;
        let mut ps: Vec<u64> = (0..n as u64)
            .map(|i| match kind {
                0 => r(i + 2) % top,
                1 => i * (1 + seed % 4),
                2 => (1 << 40) + i * (1 + seed % 64),
                _ => {
                    let centre = if i % 2 == 0 { top / 7 } else { top / 7 * 5 };
                    centre + r(i + 2) % 64
                }
            })
            .map(|d| lo + 1 + d % top)
            .collect();
        ps.push(lo);
        ps.sort_unstable();
        ps.dedup();
        ((lo, hi), ps)
    }

    proptest::proptest! {
        /// Probed at, just below and just above every pivot and both
        /// fences, a route returns `select`'s hop except where pivots after
        /// the first two share the key's bucket (and the key is not its
        /// top), and there leans as its [`Lean`] says; pivots after the
        /// first that span less than 2^32 are kept whole, however far from
        /// the low fence. Where one pivot shares the bucket, each lean sends
        /// the keys on its side of it to the right child — those below it
        /// leaning left (with the next child past the dropped pivot, so
        /// leaf validation still runs), those at or above it leaning right.
        /// Child ranges are the exact ones floored to their buckets.
        #[test]
        fn a_route_selects_what_the_node_selects(
            kind in 0u8..4,
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..64,
            bounded in (0u8..2, 0u8..2),
        ) {
            let (fences, ps) = pivots(kind, seed, n, (bounded.0 == 1, bounded.1 == 1));
            let node = internal(fences, &ps);
            let route = Route::new(&node);
            proptest::prop_assert_eq!(route.cached_bytes(), 48 + 12 * ps.len() as u64);
            if ps.len() < 2 || ps[ps.len() - 1] - ps[1] < 1 << 32 {
                proptest::prop_assert_eq!(route.shift, 0);
            }
            let max = if fences.1 == u64::MAX { u64::MAX } else { fences.1 - 1 };
            let probes = ps
                .iter()
                .chain([&fences.0, &max])
                .flat_map(|&p| [p.saturating_sub(1), p, p.saturating_add(1)])
                .filter(|&k| node.covers(k));
            for key in probes {
                for lean in [Lean::Left, Lean::Right] {
                    proptest::prop_assert_eq!(route.select(key, lean), oracle(&node, route.shift, key, lean));
                }
                match tied(&node, route.shift, key)[..] {
                    [p] if key < p => {
                        proptest::prop_assert_eq!(route.select(key, Lean::Left).0, node.select(key).0);
                    }
                    [_] => proptest::prop_assert_eq!(route.select(key, Lean::Right), node.select(key)),
                    _ => {}
                }
            }
            for (i, &p) in ps.iter().enumerate() {
                let (lo, hi) = route.child_range(i);
                let exact_hi = ps.get(i + 1).copied().unwrap_or(fences.1);
                proptest::prop_assert!(lo <= p && p - lo < 1 << route.shift);
                proptest::prop_assert!(hi <= exact_hi && exact_hi - hi < 1 << route.shift);
            }
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
            let mut real: NodeCache = NodeCache::new(budget);
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
