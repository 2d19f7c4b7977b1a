//! The SMART tree: ART operations over disaggregated memory.

use std::rc::Rc;
use std::sync::Arc;

use chime::cache::NodeCache;

use dmem::{ChunkAlloc, CnCell, Endpoint, GlobalAddr, IndexError, Pool, RangeIndex, Rows};

use crate::node::{ArtNode, ArtOps, Child, NodeType};

const OP_RETRY_LIMIT: usize = 100_000;

/// Internal node holding a leaf's slot: (node address, node type, slot byte).
type ParentSlot = (GlobalAddr, NodeType, u8);

/// SMART configuration.
#[derive(Debug, Clone, Copy)]
pub struct SmartConfig {
    /// Value size in bytes.
    pub value_size: usize,
    /// CN cache budget in bytes.
    pub cache_bytes: u64,
}

impl Default for SmartConfig {
    fn default() -> Self {
        SmartConfig {
            value_size: 8,
            cache_bytes: 100 << 20,
        }
    }
}

struct Shared {
    pool: Arc<Pool>,
    cfg: SmartConfig,
    /// The root is a Node256 that is never replaced, so its tagged pointer
    /// is resolved once at creation (no per-op root-slot READ).
    root: (GlobalAddr, NodeType),
    ops: ArtOps,
}

/// A handle to a SMART tree.
#[derive(Clone)]
pub struct Smart {
    shared: Arc<Shared>,
}

/// Per-CN shared state: an LRU cache of ART nodes under a byte budget,
/// owned by the thread that called [`Smart::new_cn`] ([`CnCell`]).
pub struct CnState {
    cache: CnCell<NodeCache<ArtNode>>,
}

impl CnState {
    /// Compute-side cache footprint in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.borrow_mut().bytes()
    }

    /// `(hits, misses)` of the node cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow_mut().hit_stats()
    }
}

/// One SMART client.
pub struct SmartClient {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    ep: Endpoint,
    alloc: ChunkAlloc,
}

impl Smart {
    /// Creates a new empty tree rooted at well-known slot `slot`.
    pub fn create(pool: &Arc<Pool>, cfg: SmartConfig, slot: u64) -> Self {
        let ops = ArtOps {
            value_size: cfg.value_size,
        };
        let mut ep = Endpoint::new(Arc::clone(pool));
        let mut alloc = ChunkAlloc::with_defaults();
        let root_addr = alloc
            .alloc(&mut ep, NodeType::N256.size() as u64)
            .expect("pool too small");
        let tagged = ops.write_node(&mut ep, root_addr, NodeType::N256, &[], &[]);
        ep.write(dmem::root_slot(slot), &tagged.to_le_bytes());
        let shared = Arc::new(Shared {
            pool: Arc::clone(pool),
            cfg,
            root: (root_addr, NodeType::N256),
            ops,
        });
        Smart { shared }
    }

    /// Creates the shared state for one compute node.
    pub fn new_cn(&self) -> Arc<CnState> {
        Arc::new(CnState {
            cache: CnCell::new(NodeCache::new(self.shared.cfg.cache_bytes)),
        })
    }

    /// Creates a client attached to `cn`.
    pub fn client(&self, cn: &Arc<CnState>) -> SmartClient {
        SmartClient {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            ep: Endpoint::new(Arc::clone(&self.shared.pool)),
            alloc: ChunkAlloc::sim_scaled(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SmartConfig {
        &self.shared.cfg
    }
}

fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

impl SmartClient {
    fn ops(&self) -> ArtOps {
        self.shared.ops
    }

    fn root(&mut self) -> (GlobalAddr, NodeType) {
        self.shared.root
    }

    /// Reads a node through the CN cache; `trusted` reads bypass it.
    fn read_cached(
        &mut self,
        addr: GlobalAddr,
        ty: NodeType,
        use_cache: bool,
        from_cache: &mut bool,
    ) -> Rc<ArtNode> {
        if use_cache {
            if let Some(n) = self.cn.cache.borrow_mut().get(addr) {
                *from_cache = true;
                return n;
            }
        }
        *from_cache = false;
        let n = Rc::new(self.ops().read_node(&mut self.ep, addr, ty));
        if !n.obsolete {
            self.cn.cache.borrow_mut().insert(Rc::clone(&n));
        }
        n
    }

    /// Descends to the leaf for `key`. Returns the leaf address plus the
    /// node holding its slot, or `None` when the key is absent.
    ///
    /// `use_cache = false` forces a fully remote descent (retry path).
    fn descend(
        &mut self,
        key: u64,
        use_cache: bool,
        path: &mut Vec<GlobalAddr>,
    ) -> Option<(GlobalAddr, (GlobalAddr, NodeType, u8))> {
        let kb = key.to_be_bytes();
        let (mut addr, mut ty) = self.root();
        let mut depth = 0usize;
        for _ in 0..16 {
            let mut from_cache = false;
            let node = self.read_cached(addr, ty, use_cache, &mut from_cache);
            if from_cache {
                path.push(addr);
            }
            let p = common_len(&node.prefix, &kb[depth..]);
            if p < node.prefix.len() {
                return None;
            }
            depth += node.prefix.len();
            let byte = kb[depth];
            match Child::decode(node.child(byte)) {
                Child::Empty => return None,
                Child::Leaf(l) => return Some((l, (addr, ty, byte))),
                Child::Node(a, t) => {
                    addr = a;
                    ty = t;
                    depth += 1;
                }
            }
        }
        panic!("radix descent exceeded key depth");
    }

    fn invalidate_path(&mut self, path: &[GlobalAddr]) {
        let mut c = self.cn.cache.borrow_mut();
        for a in path {
            c.invalidate(*a);
        }
    }

    /// Finds `key`'s leaf (and its value) with cache-miss retry;
    /// `None` = truly absent.
    fn find_leaf(&mut self, key: u64) -> Option<(GlobalAddr, Vec<u8>, ParentSlot)> {
        let mut path = Vec::new();
        if let Some(hit) = self.descend(key, true, &mut path) {
            let (k, v) = self.ops().read_leaf(&mut self.ep, hit.0);
            if k == key {
                return Some((hit.0, v, hit.1));
            }
        }
        if path.is_empty() {
            return None; // fully remote miss is authoritative
        }
        // The cached path may be stale: invalidate and re-descend remotely.
        self.invalidate_path(&path);
        let hit = self.descend(key, false, &mut Vec::new())?;
        let (k, v) = self.ops().read_leaf(&mut self.ep, hit.0);
        (k == key).then_some((hit.0, v, hit.1))
    }

    fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let kb = key.to_be_bytes();
        let ops = self.ops();
        'restart: for attempt in 0..OP_RETRY_LIMIT {
            // Descend through the CN cache like a search; every other
            // attempt goes fully remote so stale paths cannot loop.
            let use_cache = attempt % 2 == 0;
            let mut path: Vec<GlobalAddr> = Vec::new();
            let mut parent: Option<(GlobalAddr, NodeType, u8)> = None;
            let (mut addr, mut ty) = self.root();
            let mut depth = 0usize;
            loop {
                let mut from_cache = false;
                let node = self.read_cached(addr, ty, use_cache, &mut from_cache);
                if from_cache {
                    path.push(addr);
                }
                if node.obsolete {
                    self.invalidate_path(&path);
                    self.cn.cache.borrow_mut().invalidate(addr);
                    continue 'restart;
                }
                let p = common_len(&node.prefix, &kb[depth..]);
                if p < node.prefix.len() {
                    if self.prefix_split(parent, &node, depth, p, key, value)? {
                        return Ok(());
                    }
                    self.invalidate_path(&path);
                    continue 'restart;
                }
                depth += node.prefix.len();
                let byte = kb[depth];
                match Child::decode(node.child(byte)) {
                    Child::Empty => {
                        if self.insert_into_slot(parent, addr, ty, byte, key, value)? {
                            return Ok(());
                        }
                        self.invalidate_path(&path);
                        self.cn.cache.borrow_mut().invalidate(addr);
                        continue 'restart;
                    }
                    Child::Leaf(laddr) => {
                        let (k2, _) = ops.read_leaf(&mut self.ep, laddr);
                        if k2 == key {
                            ops.update_leaf(&mut self.ep, laddr, value);
                            return Ok(());
                        }
                        if self.branch_leaf(addr, ty, byte, laddr, k2, depth, key, value)? {
                            return Ok(());
                        }
                        self.invalidate_path(&path);
                        self.cn.cache.borrow_mut().invalidate(addr);
                        continue 'restart;
                    }
                    Child::Node(a, t) => {
                        parent = Some((addr, ty, byte));
                        addr = a;
                        ty = t;
                        depth += 1;
                    }
                }
            }
        }
        panic!("smart insert retry limit for key {key}");
    }

    /// Inserts a fresh leaf into an empty slot; grows the node when full.
    /// Returns `Ok(false)` to restart the descent.
    fn insert_into_slot(
        &mut self,
        parent: Option<(GlobalAddr, NodeType, u8)>,
        addr: GlobalAddr,
        ty: NodeType,
        byte: u8,
        key: u64,
        value: &[u8],
    ) -> Result<bool, IndexError> {
        let ops = self.ops();
        // Write the leaf first: it is unreachable until the slot points at
        // it, so this hides outside the lock's critical section.
        let leaf_addr = self.alloc.alloc(&mut self.ep, ops.leaf_size() as u64)?;
        ops.write_leaf(&mut self.ep, leaf_addr, key, value);
        if !ops.lock_node(&mut self.ep, addr, ty) {
            return Ok(false);
        }
        match ops.insert_slot_locked(
            &mut self.ep,
            addr,
            ty,
            byte,
            Child::Leaf(leaf_addr).encode(),
        ) {
            crate::node::SlotOutcome::Inserted => {
                self.cn.cache.borrow_mut().invalidate(addr);
                return Ok(true);
            }
            crate::node::SlotOutcome::Occupied => return Ok(false),
            crate::node::SlotOutcome::Full => {}
        }
        // Grow: copy-on-write to the next node type (parent lock first, so
        // the lock was released by the slot attempt).
        let Some((paddr, pty, pbyte)) = parent else {
            panic!("root Node256 can never be full");
        };
        if !ops.lock_node(&mut self.ep, paddr, pty) {
            return Ok(false);
        }
        let mut pfresh = ops.read_node(&mut self.ep, paddr, pty);
        if pfresh.child(pbyte) != Child::Node(addr, ty).encode() {
            ops.unlock_node(&mut self.ep, paddr, pty);
            return Ok(false);
        }
        if !ops.lock_node(&mut self.ep, addr, ty) {
            ops.unlock_node(&mut self.ep, paddr, pty);
            return Ok(false);
        }
        let fresh = ops.read_node(&mut self.ep, addr, ty);
        if !fresh.full() || fresh.child(byte) != 0 {
            ops.unlock_node(&mut self.ep, addr, ty);
            ops.unlock_node(&mut self.ep, paddr, pty);
            return Ok(false);
        }
        let gty = ty.grown();
        let gaddr = self.alloc.alloc(&mut self.ep, gty.size() as u64)?;
        // The leaf was already written before the fast-path attempt.
        let mut kids = fresh.children.clone();
        kids.push((byte, Child::Leaf(leaf_addr).encode()));
        let tagged = ops.write_node(&mut self.ep, gaddr, gty, &fresh.prefix, &kids);
        ops.write_slot(&mut self.ep, &mut pfresh, pbyte, tagged);
        ops.retire_node(&mut self.ep, addr, ty);
        ops.unlock_node(&mut self.ep, paddr, pty);
        let mut c = self.cn.cache.borrow_mut();
        c.invalidate(addr);
        c.invalidate(paddr);
        Ok(true)
    }

    /// Replaces a diverging leaf with a Node4 holding both keys.
    #[allow(clippy::too_many_arguments)]
    fn branch_leaf(
        &mut self,
        addr: GlobalAddr,
        ty: NodeType,
        byte: u8,
        old_leaf: GlobalAddr,
        old_key: u64,
        depth: usize,
        key: u64,
        value: &[u8],
    ) -> Result<bool, IndexError> {
        let ops = self.ops();
        let kb = key.to_be_bytes();
        let ob = old_key.to_be_bytes();
        let d2 = depth + 1;
        let cl = common_len(&kb[d2..], &ob[d2..]);
        assert!(d2 + cl < 8, "distinct keys must diverge");
        if !ops.lock_node(&mut self.ep, addr, ty) {
            return Ok(false);
        }
        let mut fresh = ops.read_node(&mut self.ep, addr, ty);
        if fresh.child(byte) != Child::Leaf(old_leaf).encode() {
            ops.unlock_node(&mut self.ep, addr, ty);
            return Ok(false);
        }
        let leaf_addr = self.alloc.alloc(&mut self.ep, ops.leaf_size() as u64)?;
        ops.write_leaf(&mut self.ep, leaf_addr, key, value);
        let baddr = self.alloc.alloc(&mut self.ep, NodeType::N4.size() as u64)?;
        let mut kids = vec![
            (kb[d2 + cl], Child::Leaf(leaf_addr).encode()),
            (ob[d2 + cl], Child::Leaf(old_leaf).encode()),
        ];
        kids.sort_by_key(|e| e.0);
        let tagged = ops.write_node(&mut self.ep, baddr, NodeType::N4, &kb[d2..d2 + cl], &kids);
        ops.write_slot(&mut self.ep, &mut fresh, byte, tagged);
        ops.unlock_node(&mut self.ep, addr, ty);
        self.cn.cache.borrow_mut().invalidate(addr);
        Ok(true)
    }

    /// Splits a node's compressed path at position `p` (copy-on-write).
    fn prefix_split(
        &mut self,
        parent: Option<(GlobalAddr, NodeType, u8)>,
        node: &ArtNode,
        depth: usize,
        p: usize,
        key: u64,
        value: &[u8],
    ) -> Result<bool, IndexError> {
        let ops = self.ops();
        let kb = key.to_be_bytes();
        let (paddr, pty, pbyte) = parent.expect("root has an empty prefix");
        if !ops.lock_node(&mut self.ep, paddr, pty) {
            return Ok(false);
        }
        let mut pfresh = ops.read_node(&mut self.ep, paddr, pty);
        if pfresh.child(pbyte) != Child::Node(node.addr, node.ty).encode() {
            ops.unlock_node(&mut self.ep, paddr, pty);
            return Ok(false);
        }
        if !ops.lock_node(&mut self.ep, node.addr, node.ty) {
            ops.unlock_node(&mut self.ep, paddr, pty);
            return Ok(false);
        }
        let fresh = ops.read_node(&mut self.ep, node.addr, node.ty);
        // Copy of the old node with the prefix shortened past the split.
        let copy_addr = self.alloc.alloc(&mut self.ep, fresh.ty.size() as u64)?;
        let copy_tagged = ops.write_node(
            &mut self.ep,
            copy_addr,
            fresh.ty,
            &fresh.prefix[p + 1..],
            &fresh.children,
        );
        let leaf_addr = self.alloc.alloc(&mut self.ep, ops.leaf_size() as u64)?;
        ops.write_leaf(&mut self.ep, leaf_addr, key, value);
        let baddr = self.alloc.alloc(&mut self.ep, NodeType::N4.size() as u64)?;
        let mut kids = vec![
            (fresh.prefix[p], copy_tagged),
            (kb[depth + p], Child::Leaf(leaf_addr).encode()),
        ];
        kids.sort_by_key(|e| e.0);
        let tagged = ops.write_node(&mut self.ep, baddr, NodeType::N4, &fresh.prefix[..p], &kids);
        ops.write_slot(&mut self.ep, &mut pfresh, pbyte, tagged);
        ops.retire_node(&mut self.ep, node.addr, node.ty);
        ops.unlock_node(&mut self.ep, paddr, pty);
        let mut c = self.cn.cache.borrow_mut();
        c.invalidate(node.addr);
        c.invalidate(paddr);
        Ok(true)
    }

    /// In-order collection of leaf pointers for keys >= `start`.
    fn collect_leaves(&mut self, start: u64, want: usize) -> Vec<GlobalAddr> {
        let kb = start.to_be_bytes();
        let (raddr, rty) = self.root();
        let mut out = Vec::new();
        let mut stack: Vec<(u64, usize, Vec<u8>, bool)> = vec![(
            Child::Node(raddr, rty).encode(),
            0,
            Vec::new(),
            true, // `tight`: still on the lower-bound path
        )];
        while let Some((raw, depth, path, tight)) = stack.pop() {
            if out.len() >= want {
                break;
            }
            match Child::decode(raw) {
                Child::Empty => {}
                Child::Leaf(l) => out.push(l),
                Child::Node(a, t) => {
                    let mut from_cache = false;
                    let node = self.read_cached(a, t, true, &mut from_cache);
                    let mut tight = tight;
                    if tight {
                        // Compare the compressed path against the bound.
                        let lim = node.prefix.len().min(8 - depth);
                        match node.prefix[..lim].cmp(&kb[depth..depth + lim]) {
                            std::cmp::Ordering::Less => continue, // below range
                            std::cmp::Ordering::Greater => tight = false,
                            std::cmp::Ordering::Equal => {}
                        }
                    }
                    let d2 = depth + node.prefix.len();
                    let bound = if tight && d2 < 8 { kb[d2] } else { 0 };
                    // Push children in reverse so the smallest pops first.
                    for &(b, c) in node.children.iter().rev() {
                        if b < bound {
                            continue;
                        }
                        let child_tight = tight && b == bound;
                        let mut cp = path.clone();
                        cp.extend_from_slice(&node.prefix);
                        cp.push(b);
                        stack.push((c, d2 + 1, cp, child_tight));
                    }
                }
            }
        }
        out
    }

    fn search_impl(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        let Some((_, v, _)) = self.find_leaf(key) else {
            return false;
        };
        self.ep
            .note_app_bytes(self.shared.cfg.value_size as u64 + 8);
        *value = v;
        true
    }

    fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        match self.find_leaf(key) {
            Some((leaf, _, _)) => {
                self.ops().update_leaf(&mut self.ep, leaf, value);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        let ops = self.ops();
        for _ in 0..OP_RETRY_LIMIT {
            let Some((leaf, _, (naddr, nty, byte))) = self.find_leaf(key) else {
                return Ok(false);
            };
            if !ops.lock_node(&mut self.ep, naddr, nty) {
                continue;
            }
            let mut fresh = ops.read_node(&mut self.ep, naddr, nty);
            if fresh.child(byte) != Child::Leaf(leaf).encode() {
                ops.unlock_node(&mut self.ep, naddr, nty);
                continue;
            }
            ops.clear_slot(&mut self.ep, &mut fresh, byte);
            ops.unlock_node(&mut self.ep, naddr, nty);
            self.cn.cache.borrow_mut().invalidate(naddr);
            return Ok(true);
        }
        panic!("smart delete retry limit for key {key}");
    }

    fn scan_impl(&mut self, start: u64, count: usize, out: &mut Rows) {
        if count == 0 {
            return;
        }
        // Collect a margin of leaves (keys below `start` inside the first
        // subtree get filtered after the reads).
        let leaves = self.collect_leaves(start, count + 16);
        let ops = self.ops();
        let mut collected = Vec::new();
        for chunk in leaves.chunks(16) {
            // One doorbell batch of single-KV reads per chunk.
            let mut bufs: Vec<(GlobalAddr, Vec<u8>)> = chunk
                .iter()
                .map(|a| {
                    let l = ops.leaf_layout();
                    let ps = l.phys_start(0);
                    let pe = l.phys_of(9 + self.shared.cfg.value_size - 1) + 1;
                    (a.add(ps as u64), vec![0u8; pe - ps])
                })
                .collect();
            {
                let mut reqs: Vec<(GlobalAddr, &mut [u8])> =
                    bufs.iter_mut().map(|(a, b)| (*a, &mut b[..])).collect();
                self.ep.read_batch(&mut reqs);
            }
            for (_, buf) in bufs {
                let l = ops.leaf_layout();
                let f = l.from_raw(0, 9 + self.shared.cfg.value_size, buf);
                let k = f.u64_at(1);
                if k >= start && k != 0 {
                    collected.push((k, f));
                }
            }
            if collected.len() >= count {
                break;
            }
        }
        collected.sort_by_key(|&(k, _)| k);
        collected.truncate(count);
        for (k, f) in &collected {
            out.push(*k, f.bytes(9, self.shared.cfg.value_size));
        }
    }
}

impl RangeIndex for SmartClient {
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

    fn v(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    fn mk() -> (Smart, SmartClient) {
        let pool = Pool::with_defaults(1, 256 << 20);
        let t = Smart::create(&pool, SmartConfig::default(), 2);
        let cn = t.new_cn();
        let c = t.client(&cn);
        (t, c)
    }

    #[test]
    fn insert_search_sequential() {
        let (_t, mut c) = mk();
        for k in 1..=3_000u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for k in 1..=3_000u64 {
            assert_eq!(c.search(k), Some(v(k)), "key {k}");
        }
        assert_eq!(c.search(100_000), None);
    }

    #[test]
    fn insert_search_random_keys() {
        let (_t, mut c) = mk();
        // Hashed keys exercise prefix splits and every node type.
        let keys: Vec<u64> = (1..=3_000u64).map(dmem::hash::mix64).collect();
        for &k in &keys {
            c.insert(k, &v(k)).unwrap();
        }
        for &k in &keys {
            assert_eq!(c.search(k), Some(v(k)), "key {k:#x}");
        }
    }

    #[test]
    fn update_and_delete() {
        let (_t, mut c) = mk();
        for k in 1..=500u64 {
            c.insert(k, &v(k)).unwrap();
        }
        for k in 1..=500u64 {
            assert!(c.update(k, &v(k + 5)).unwrap());
            assert_eq!(c.search(k), Some(v(k + 5)));
        }
        assert!(!c.update(9_999, &v(0)).unwrap());
        for k in (1..=500u64).step_by(3) {
            assert!(c.delete(k).unwrap());
            assert_eq!(c.search(k), None);
        }
        assert!(!c.delete(1).unwrap());
        assert_eq!(c.search(2), Some(v(7)));
    }

    #[test]
    fn scan_ordered() {
        let (_t, mut c) = mk();
        for k in 1..=1_000u64 {
            c.insert(k * 3, &v(k)).unwrap();
        }
        let mut out = Vec::new();
        c.scan(150, 20, &mut out);
        let got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (50..70).map(|k| k * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_grows_with_keys() {
        let (t, mut c) = mk();
        for k in 1..=2_000u64 {
            c.insert(dmem::hash::mix64(k), &v(k)).unwrap();
        }
        // Warm the cache with searches.
        for k in 1..=2_000u64 {
            c.search(dmem::hash::mix64(k));
        }
        let bytes = c.cache_bytes();
        // KV-discrete indexes cache far more per key than B+ trees: one
        // pointer-plus-key-byte per key at the bottom level alone.
        assert!(
            bytes > 2_000 * 9,
            "SMART cache should be large, got {bytes}"
        );
        drop(t);
    }

    #[test]
    fn read_amplification_near_one() {
        let (_t, mut c) = mk();
        for k in 1..=500u64 {
            c.insert(dmem::hash::mix64(k), &v(k)).unwrap();
        }
        // Warm cache.
        for k in 1..=500u64 {
            c.search(dmem::hash::mix64(k));
        }
        let before = c.stats().clone();
        for k in 1..=500u64 {
            assert!(c.search(dmem::hash::mix64(k)).is_some());
        }
        let d = c.stats().since(&before);
        let bytes_per_op = d.wire_bytes as f64 / 500.0;
        // One ~17 B leaf plus overheads: far below a 64-entry node fetch.
        assert!(bytes_per_op < 200.0, "bytes/op {bytes_per_op}");
    }

    #[test]
    fn concurrent_inserts_random() {
        let pool = Pool::with_defaults(1, 256 << 20);
        let t = Smart::create(&pool, SmartConfig::default(), 2);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    let cn = t.new_cn();
                    let mut c = t.client(&cn);
                    for i in 0..400u64 {
                        let k = dmem::hash::mix64(1 + i * 4 + tid);
                        c.insert(k, &v(k)).unwrap();
                    }
                });
            }
        });
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for s in 1..=1_600u64 {
            let k = dmem::hash::mix64(s);
            assert_eq!(c.search(k), Some(v(k)), "seq {s}");
        }
    }
}
