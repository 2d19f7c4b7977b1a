//! The Sherman B+ tree: operations over sorted leaves with fence-key
//! validation, under the internal levels of [`chime::skeleton`].

use std::rc::Rc;
use std::sync::Arc;

use chime::cache::{Lean, Route};
use chime::skeleton::{Parts, Routes, Skeleton, SkeletonClient};
use dmem::indirect::Values;
use dmem::versioned::Fetches;
use dmem::{ChunkAlloc, Endpoint, GlobalAddr, IndexError, Phase, Pool, RangeIndex, Rows};

use crate::leaf::{LeafSnapshot, ShermanLeafLayout, ShermanLeafOps};

const OP_RETRY_LIMIT: usize = 100_000;

/// Sherman configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShermanConfig {
    /// Leaf span (entries per leaf). Paper default: 64.
    pub span: usize,
    /// Internal fan-out. Paper default: 64.
    pub internal_span: usize,
    /// Inline value size in bytes.
    pub value_size: usize,
    /// CN cache budget in bytes.
    pub cache_bytes: u64,
    /// Store values out-of-line behind an 8-byte pointer (Marlin-style
    /// variable-length support for Fig. 13 / Fig. 18d).
    pub indirect_values: bool,
}

impl Default for ShermanConfig {
    fn default() -> Self {
        ShermanConfig {
            span: 64,
            internal_span: 64,
            value_size: 8,
            cache_bytes: 100 << 20,
            indirect_values: false,
        }
    }
}

struct Shared {
    pool: Arc<Pool>,
    cfg: ShermanConfig,
    skeleton: Skeleton,
    leaf: ShermanLeafOps,
    values: Values,
}

/// A handle to a Sherman tree.
#[derive(Clone)]
pub struct Sherman {
    shared: Arc<Shared>,
}

/// Per-CN shared state: the route state of the skeleton, nothing else.
pub type CnState = Routes;

/// One Sherman client.
pub struct ShermanClient {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    ep: Endpoint,
    alloc: ChunkAlloc,
    /// READ buffers for leaves and internal nodes, kept between operations.
    reads: Fetches,
}

impl Sherman {
    /// Creates a new empty tree rooted at well-known slot `slot`.
    pub fn create(pool: &Arc<Pool>, cfg: ShermanConfig, slot: u64) -> Self {
        let values = Values {
            value_size: cfg.value_size,
            indirect: cfg.indirect_values,
        };
        let leaf = ShermanLeafOps {
            layout: ShermanLeafLayout {
                span: cfg.span,
                value_size: values.slot_size(),
            },
        };
        let shared = Shared {
            pool: Arc::clone(pool),
            cfg,
            skeleton: Skeleton::new(slot, cfg.internal_span),
            leaf,
            values,
        };
        let mut ep = Endpoint::new(Arc::clone(pool));
        let mut alloc = ChunkAlloc::with_defaults();
        let leaf_size = leaf.layout.node_size();
        shared.skeleton.bootstrap(&mut ep, &mut alloc, leaf_size, |ep, addr| {
            let fences = (0, u64::MAX);
            leaf.write_full(ep, addr, 0, &[], &[], GlobalAddr::NULL, fences, false)
        });
        Sherman {
            shared: Arc::new(shared),
        }
    }

    /// Creates the shared state for one compute node.
    pub fn new_cn(&self) -> Arc<CnState> {
        Arc::new(Routes::new(self.shared.cfg.cache_bytes))
    }

    /// Creates a client attached to `cn`.
    pub fn client(&self, cn: &Arc<CnState>) -> ShermanClient {
        ShermanClient {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            ep: Endpoint::new(Arc::clone(&self.shared.pool)),
            alloc: ChunkAlloc::sim_scaled(),
            reads: Fetches::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShermanConfig {
        &self.shared.cfg
    }
}

/// Sherman's pivots are a right half's minimum, so a cached route leans
/// right; a stale route costs nothing beyond the re-read.
impl SkeletonClient for ShermanClient {
    const LEAN: Lean = Lean::Right;

    fn parts(&mut self) -> Parts<'_> {
        Parts {
            ep: &mut self.ep,
            alloc: &mut self.alloc,
            skeleton: &self.shared.skeleton,
            routes: &self.cn,
            reads: &mut self.reads,
        }
    }

    fn on_stale_route(&mut self) {}
}

impl ShermanClient {
    /// The leaf for `key` and its parent.
    fn locate_leaf(&mut self, key: u64) -> (GlobalAddr, GlobalAddr) {
        let (route, (child, _), _) = self.in_phase(Phase::Traversal, |me| me.descend(key));
        (child, route.addr)
    }

    /// Reads the leaf owning `key`, chasing fences laterally.
    fn read_owner(&mut self, key: u64) -> (GlobalAddr, LeafSnapshot) {
        let (mut addr, parent) = self.locate_leaf(key);
        for _ in 0..OP_RETRY_LIMIT {
            let snap = self.shared.leaf.read(&mut self.ep, addr, &mut self.reads);
            if !snap.valid {
                self.cn.cache().invalidate(parent);
                let (a, _) = self.locate_leaf(key);
                addr = a;
                continue;
            }
            if key < snap.fences.0 {
                // Stale cache routed us too far right.
                self.cn.cache().invalidate(parent);
                self.refresh_root();
                let (a, _) = self.locate_leaf(key);
                addr = a;
                continue;
            }
            if !dmem::hash::in_range(key, snap.fences.0, snap.fences.1) {
                self.cn.cache().invalidate(parent);
                addr = snap.sibling;
                continue;
            }
            return (addr, snap);
        }
        panic!("sherman read_owner retry limit for key {key}");
    }

    /// Locks and reads the leaf owning `key` (write paths).
    fn lock_owner(&mut self, key: u64) -> (GlobalAddr, LeafSnapshot) {
        let (mut addr, mut parent) = self.locate_leaf(key);
        for _ in 0..OP_RETRY_LIMIT {
            let _lk = self.local_lock(addr);
            self.shared.leaf.lock(&mut self.ep, addr);
            let snap = self.shared.leaf.read(&mut self.ep, addr, &mut self.reads);
            if !snap.valid || key < snap.fences.0 {
                self.shared.leaf.unlock(&mut self.ep, addr);
                if key < snap.fences.0 {
                    // The cached parent leaned right past a pivot.
                    self.cn.cache().invalidate(parent);
                }
                self.refresh_root();
                (addr, parent) = self.locate_leaf(key);
                continue;
            }
            if !dmem::hash::in_range(key, snap.fences.0, snap.fences.1) {
                self.shared.leaf.unlock(&mut self.ep, addr);
                addr = snap.sibling;
                continue;
            }
            return (addr, snap);
        }
        panic!("sherman lock_owner retry limit for key {key}");
    }

    fn split_and_insert(
        &mut self,
        addr: GlobalAddr,
        snap: &LeafSnapshot,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), IndexError> {
        let leaf = self.shared.leaf;
        let mut keys = snap.keys.clone();
        let mut values = snap.values.clone();
        match keys.binary_search(&key) {
            Ok(i) => {
                values[i] = value;
            }
            Err(i) => {
                keys.insert(i, key);
                values.insert(i, value);
            }
        }
        let mid = keys.len() / 2;
        let pivot = keys[mid];
        let new_addr = self
            .alloc
            .alloc(&mut self.ep, leaf.layout.node_size() as u64)?;
        // Right node first (unreachable until the old node points to it).
        leaf.write_full(
            &mut self.ep,
            new_addr,
            0,
            &keys[mid..],
            &values[mid..],
            snap.sibling,
            (pivot, snap.fences.1),
            false,
        );
        let mut left = snap.clone();
        left.sibling = new_addr;
        left.fences = (snap.fences.0, pivot);
        leaf.write_full(
            &mut self.ep,
            addr,
            dmem::versioned::bump(snap.nv),
            &keys[..mid],
            &values[..mid],
            new_addr,
            (snap.fences.0, pivot),
            true,
        );
        self.insert_into_parent(1, pivot, new_addr)
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let stored = self.shared.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        let (addr, snap) = self.lock_owner(key);
        let leaf = self.shared.leaf;
        match snap.keys.binary_search(&key) {
            Ok(i) => {
                leaf.write_entry_and_unlock(&mut self.ep, addr, &snap, i, &stored);
                Ok(())
            }
            Err(i) if snap.keys.len() < leaf.layout.span => {
                leaf.splice_and_unlock(&mut self.ep, addr, &snap, i, Some((key, stored)));
                Ok(())
            }
            Err(_) => self.split_and_insert(addr, &snap, key, stored),
        }
    }

    fn search_impl(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        let (_, snap) = self.read_owner(key);
        self.ep
            .note_app_bytes(self.shared.cfg.value_size as u64 + 8);
        let Some((_, v)) = snap.find(key) else {
            return false;
        };
        value.clear();
        self.shared.values.resolve_into(&mut self.ep, v, value);
        true
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        let stored = self.shared.values.store(&mut self.ep, &mut self.alloc, key, value)?;
        let (addr, snap) = self.lock_owner(key);
        match snap.keys.binary_search(&key) {
            Ok(i) => {
                self.shared
                    .leaf
                    .write_entry_and_unlock(&mut self.ep, addr, &snap, i, &stored);
                Ok(true)
            }
            Err(_) => {
                self.shared.leaf.unlock(&mut self.ep, addr);
                Ok(false)
            }
        }
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        let (addr, snap) = self.lock_owner(key);
        match snap.keys.binary_search(&key) {
            Ok(i) => {
                self.shared.leaf.splice_and_unlock(&mut self.ep, addr, &snap, i, None);
                Ok(true)
            }
            Err(_) => {
                self.shared.leaf.unlock(&mut self.ep, addr);
                Ok(false)
            }
        }
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Rows) {
        if count == 0 {
            return;
        }
        // Every leaf read, and a `(key, leaf, slot)` per row `>= start`.
        let mut leaves: Vec<LeafSnapshot> = Vec::new();
        let mut collected: Vec<(u64, u32, u32)> = Vec::new();
        let (mut parent, mut idx) = self.locate_parent(start);
        let mut first = true;
        let per_leaf = (self.shared.cfg.span * 3) / 4;
        loop {
            let need = count.saturating_sub(collected.len());
            let take = need
                .div_ceil(per_leaf)
                .max(1)
                .min(parent.children().len() - idx);
            let addrs = &parent.children()[idx..idx + take];
            let snaps = self.shared.leaf.read_batch(&mut self.ep, addrs, &mut self.reads);
            if std::mem::take(&mut first) && snaps[0].fences.0 > start {
                // The cached parent leaned right past a pivot: re-read it.
                self.cn.cache().invalidate(parent.addr);
                (parent, idx) = self.locate_parent(start);
                first = true;
                continue;
            }
            for snap in snaps {
                let at = leaves.len() as u32;
                let rows = snap.keys.iter().enumerate().filter(|&(_, &k)| k >= start);
                collected.extend(rows.map(|(i, &k)| (k, at, i as u32)));
                leaves.push(snap);
            }
            idx += take;
            if collected.len() >= count {
                break;
            }
            if idx >= parent.children().len() {
                if parent.sibling.is_null() {
                    break;
                }
                let node = self.read_internal(parent.sibling);
                parent = Rc::new(Route::new(&node));
                if !parent.valid {
                    break;
                }
                idx = 0;
            }
        }
        // Ties (a key seen in two leaves) keep gather order.
        collected.sort_unstable();
        collected.truncate(count);
        let values = self.shared.values;
        for (k, at, i) in collected {
            let stored = &leaves[at as usize].values[i as usize];
            out.push_with(k, |bytes| values.resolve_into(&mut self.ep, stored, bytes));
        }
    }
}

impl RangeIndex for ShermanClient {
    dmem::span_ops!();

    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    fn cache_bytes(&self) -> u64 {
        self.cn.cache_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShermanConfig {
        ShermanConfig {
            span: 8,
            internal_span: 8,
            value_size: 8,
            cache_bytes: 1 << 20,
            indirect_values: false,
        }
    }

    fn v(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    #[test]
    fn insert_search_update_delete() {
        let pool = Pool::with_defaults(1, 128 << 20);
        let t = Sherman::create(&pool, small(), 1);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=2_000u64 {
            c.insert(k * 3, &v(k)).unwrap();
        }
        for k in 1..=2_000u64 {
            assert_eq!(c.search(k * 3), Some(v(k)));
        }
        assert_eq!(c.search(1), None);
        for k in 1..=100u64 {
            assert!(c.update(k * 3, &v(k + 7)).unwrap());
            assert_eq!(c.search(k * 3), Some(v(k + 7)));
        }
        for k in 1..=100u64 {
            assert!(c.delete(k * 3).unwrap());
            assert_eq!(c.search(k * 3), None);
        }
        assert!(!c.delete(3).unwrap());
    }

    #[test]
    fn scan_sorted() {
        let pool = Pool::with_defaults(1, 128 << 20);
        let t = Sherman::create(&pool, small(), 1);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=1_000u64 {
            c.insert(k * 2, &v(k)).unwrap();
        }
        let mut out = Vec::new();
        c.scan(100, 25, &mut out);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (50..75).map(|k| k * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_inserts() {
        let pool = Pool::with_defaults(1, 128 << 20);
        let t = Sherman::create(&pool, small(), 1);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    let cn = t.new_cn();
                    let mut c = t.client(&cn);
                    for i in 0..500u64 {
                        let k = 1 + i * 4 + tid;
                        c.insert(k, &v(k)).unwrap();
                    }
                });
            }
        });
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=2_000u64 {
            assert_eq!(c.search(k), Some(v(k)), "key {k}");
        }
    }

    #[test]
    fn indirect_values() {
        let pool = Pool::with_defaults(1, 128 << 20);
        let cfg = ShermanConfig {
            indirect_values: true,
            value_size: 64,
            ..small()
        };
        let t = Sherman::create(&pool, cfg, 1);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=200u64 {
            c.insert(k, &[k as u8; 33]).unwrap();
        }
        for k in 1..=200u64 {
            assert_eq!(c.search(k), Some(vec![k as u8; 33]));
        }
    }

    /// A cached route keeps each pivot as a 4-byte suffix, so with keys about
    /// 2^40 apart a pivot shares its bucket with the keys next to it. Sherman's
    /// pivots are a right half's minimum: the pivot leans right onto its own
    /// leaf at no cost, and a key just below leans right too — the node it
    /// lands on starts above it, so the route that sent it there is dropped
    /// and re-read once, at the root and at level 1 alike, and a scan from
    /// it starts over.
    #[test]
    fn a_key_sharing_a_pivots_bucket_costs_one_cache_miss() {
        let pool = Pool::with_defaults(1, 128 << 20);
        let t = Sherman::create(&pool, small(), 1);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        const STEP: u64 = 0x0123_4567_89ab;
        for i in 1..=300u64 {
            c.insert(i * STEP, &v(i)).unwrap();
        }
        let root_addr = c.refresh_root();
        let root = c.read_internal(root_addr);
        assert!(root.level >= 2, "a root above level 1");
        let (_, parent) = c.locate_leaf(150 * STEP);
        let level1 = c.read_internal(parent);
        for node in [root, level1] {
            let pivot = node.entries[node.entries.len() / 2].0;
            let route = Route::new(&node);
            assert_eq!(route.select(pivot, Lean::Right), node.select(pivot));
            assert_ne!(route.select(pivot - 1, Lean::Right), node.select(pivot - 1));
            c.insert(pivot - 1, &v(pivot - 1)).unwrap();
            assert_eq!(c.search(pivot), Some(v(pivot / STEP)));
            let misses = cn.cache_stats().1;
            assert_eq!(c.search(pivot), Some(v(pivot / STEP)));
            assert_eq!(cn.cache_stats().1, misses, "the pivot leans onto its own leaf");
            assert_eq!(c.search(pivot - 1), Some(v(pivot - 1)));
            assert_eq!(cn.cache_stats().1, misses + 1, "one miss re-reads the route");
            let mut rows = Vec::new();
            c.scan(pivot - 1, 2, &mut rows);
            let keys: Vec<u64> = rows.iter().map(|r| r.0).collect();
            assert_eq!(keys, [pivot - 1, pivot], "a scan re-reads a parent that leaned past its start");
        }
    }

    #[test]
    fn whole_leaf_read_amplification() {
        // Sherman's defining cost: one point read fetches span * entry.
        let pool = Pool::with_defaults(1, 128 << 20);
        let t = Sherman::create(&pool, ShermanConfig::default(), 1);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=500u64 {
            c.insert(k, &v(k)).unwrap();
        }
        let before = c.stats().clone();
        for k in 1..=100u64 {
            c.search(k).unwrap();
        }
        let d = c.stats().since(&before);
        let bytes_per_op = d.wire_bytes / 100;
        // 64 entries * 17 B each plus versions/header: >1 KB per search.
        assert!(bytes_per_op > 1_000, "bytes/op = {bytes_per_op}");
        assert!(d.app_bytes / 100 == 16);
    }
}
