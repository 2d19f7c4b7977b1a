//! The internal levels of a B+ tree on disaggregated memory, written once
//! for every index whose leaves hang under B-link internal nodes: CHIME
//! (hopscotch leaves) and Sherman (sorted leaves). The paper builds CHIME
//! from Sherman by changing only the leaves (Fig. 15a); this module is the
//! part the two share.
//!
//! * [`Skeleton`] — one tree's root pointer slot and internal-node geometry,
//!   and the bootstrap of its one-leaf tree;
//! * [`Routes`] — one compute node's route state: the internal-node cache,
//!   the root hint and the local lock table, shared by its clients;
//! * [`SkeletonClient`] — the steps over both: root refresh, the cached
//!   descent with B-link moves, pivot up-propagation, internal split and
//!   root growth.
//!
//! The indexes differ in two ways, and a client type states both:
//! [`SkeletonClient::LEAN`] (the side a cached route sends a key sharing a
//! pivot's bucket) and [`SkeletonClient::on_stale_route`] (what a route
//! that proved stale costs). Everything about the leaves stays with the
//! index. Each step opens the same phase frame whichever index runs it;
//! frames attribute time and never charge it.
//!
//! | | CHIME ([`crate::tree`]) | Sherman (`sherman::tree`) |
//! |---|---|---|
//! | `LEAN` of a cached route | `Left`: a pivot is a left half's maximum + 1 | `Right`: a pivot is a right half's minimum; a node that starts above the key drops the parent that leaned past it |
//! | `on_stale_route` | `on_op_conflict(StaleRoute)`: a noted retry + seeded backoff | nothing |
//! | `descent_origin` | a migration forward, else the root | the root (default) |
//!
//! | step | frame |
//! |---|---|
//! | `in_phase`, `local_lock` | — |
//! | `refresh_root`, `read_internal`; `root` (hint, else the slot) | `traversal` |
//! | `read_internal_cached` — a cached route leaning by `LEAN`, or a node read, routed exactly and cached | `cache_lookup`; the miss's READ in the caller's frame |
//! | `descend` — the one descent under CHIME's `locate_leaf` / `locate_parent` and Sherman's `locate_leaf` / scan origin | the caller's `traversal` |
//! | `locate_parent` | `traversal` |
//! | `find_at_level` (uncached walk to the pivot's node), `insert_into_parent`, `split_internal` with root growth | `traversal` reads, `lock_acquire`, `write_back`; the in-place parent write stays frameless |
//! | `alloc_remote`, `new_internal`, `unlock_internal` | `write_back` |
//!
//! What each index keeps private is what the paper compares it on. CHIME
//! keeps its migration forward pointer, `first_child_of` (the expected
//! sibling of a last child, for sibling validation), leaf merges and the
//! hopscotch leaf; Sherman keeps its fence-key `read_owner` / `lock_owner`
//! and the sorted-leaf split — exactly what Fig. 16 compares (fence keys
//! against sibling validation). The other baselines share the same way:
//! SMART shares the CN cache ([`crate::cache::NodeCache`] over its radix
//! node); ROLEX and CHIME-Learned share `rolex::learned` and the value path
//! `dmem::indirect::Values`. Each baseline crate's docs say what it keeps.

use std::cell::RefMut;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmem::{
    ChunkAlloc, CnCell, Endpoint, GlobalAddr, IndexError, LocalLockGuard, LocalLockTable, Phase,
};

use crate::cache::{Hop, Lean, NodeCache, Route};
use crate::internal::{InternalNode, InternalOps};
use crate::layout::InternalLayout;

/// Attempts any retry loop over the internal levels makes before it
/// declares a livelock.
pub(crate) const OP_RETRY_LIMIT: usize = 100_000;

/// Where one remote tree's internal levels live: the root pointer slot and
/// the internal-node geometry.
pub struct Skeleton {
    /// The well-known slot holding the root node's address.
    pub root_slot: GlobalAddr,
    /// Internal-node operations (the layout's span is the fan-out).
    pub internal: InternalOps,
}

impl Skeleton {
    /// The internal levels of a tree whose root pointer lives in well-known
    /// slot `slot`, with `internal_span` entries per internal node.
    pub fn new(slot: u64, internal_span: usize) -> Self {
        Skeleton {
            root_slot: dmem::root_slot(slot),
            internal: InternalOps {
                layout: InternalLayout {
                    span: internal_span,
                },
            },
        }
    }

    /// Writes an empty tree: one leaf of `leaf_size` bytes, written by
    /// `write_leaf`, under a level-1 root that covers every key, and then
    /// the root pointer.
    pub fn bootstrap(
        &self,
        ep: &mut Endpoint,
        alloc: &mut ChunkAlloc,
        leaf_size: usize,
        write_leaf: impl FnOnce(&mut Endpoint, GlobalAddr),
    ) {
        let leaf_addr = alloc
            .alloc(ep, leaf_size as u64)
            .expect("pool too small for bootstrap");
        write_leaf(ep, leaf_addr);
        let root_addr = alloc
            .alloc(ep, self.internal.layout.node_size() as u64)
            .expect("pool too small for bootstrap");
        let root = InternalNode::fresh(
            root_addr,
            1,
            (0, u64::MAX),
            GlobalAddr::NULL,
            vec![(0, leaf_addr)],
        );
        self.internal.write_new(ep, &root);
        ep.write(self.root_slot, &root_addr.raw().to_le_bytes());
    }
}

/// One compute node's route state, shared by all its clients of one tree.
/// The cache belongs to the thread that created it ([`CnCell`]).
pub struct Routes {
    cache: CnCell<NodeCache>,
    /// The raw address of the root as this CN last saw it; 0 for none.
    /// Stored with `Release` and loaded with `Acquire`: a client that takes
    /// the hint also sees what the client that stored it did before.
    root_hint: AtomicU64,
    lock_table: Arc<LocalLockTable>,
}

impl Routes {
    /// Empty route state with a `cache_bytes` internal-node cache budget.
    pub fn new(cache_bytes: u64) -> Self {
        Routes {
            cache: CnCell::new(NodeCache::new(cache_bytes)),
            root_hint: AtomicU64::new(GlobalAddr::NULL.raw()),
            lock_table: Arc::new(LocalLockTable::new()),
        }
    }

    /// The internal-node cache.
    pub fn cache(&self) -> RefMut<'_, NodeCache> {
        self.cache.borrow_mut()
    }

    /// Bytes of compute-side memory the internal-node cache holds.
    pub fn cache_bytes(&self) -> u64 {
        self.cache().bytes()
    }

    /// `(hits, misses)` of the internal-node cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache().hit_stats()
    }

    fn root_hint(&self) -> GlobalAddr {
        GlobalAddr::from_raw(self.root_hint.load(Ordering::Acquire))
    }

    fn set_root_hint(&self, root: GlobalAddr) {
        self.root_hint.store(root.raw(), Ordering::Release);
    }
}

/// A client's parts the shared steps work with, borrowed apart.
pub struct Parts<'a> {
    /// The client's verb endpoint.
    pub ep: &'a mut Endpoint,
    /// The allocator that places the tree's new nodes.
    pub alloc: &'a mut ChunkAlloc,
    /// The tree's internal levels.
    pub skeleton: &'a Skeleton,
    /// The client's compute-node route state.
    pub routes: &'a Routes,
}

/// A client of a B+ tree whose internal levels are a [`Skeleton`]: the
/// index supplies its parts and its two policies, and gets every step over
/// the internal levels.
pub trait SkeletonClient: Sized {
    /// The side a cached route sends a key that shares its suffix bucket
    /// with a pivot: the side where the index's splits leave an existing
    /// key. A right lean can overshoot; a node reached that way starts
    /// above the key, and the descent drops the route that sent it there.
    const LEAN: Lean;

    /// The endpoint, allocator, tree and route state, borrowed apart.
    fn parts(&mut self) -> Parts<'_>;

    /// Called after a route proved stale and the root slot was re-read,
    /// before the step tries again.
    fn on_stale_route(&mut self);

    /// Where the next descent starts; the (hinted) root by default.
    fn descent_origin(&mut self) -> GlobalAddr {
        self.root()
    }

    /// Runs `f` with `phase` as the active attribution phase.
    fn in_phase<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let fr = self.parts().ep.phase_begin(phase);
        let r = f(self);
        self.parts().ep.phase_end(fr);
        r
    }

    /// Queues locally for a remote node lock (Sherman's local lock table):
    /// contending clients of one CN hand the lock over locally instead of
    /// hammering the MN with CAS retries.
    fn local_lock(&mut self, addr: GlobalAddr) -> LocalLockGuard {
        let p = self.parts();
        p.routes.lock_table.acquire_with(addr.raw(), p.ep)
    }

    /// Allocates `size` bytes of remote memory for a new node or block.
    fn alloc_remote(&mut self, size: usize) -> Result<GlobalAddr, IndexError> {
        Ok(self.in_phase(Phase::WriteBack, |me| {
            let p = me.parts();
            p.alloc.alloc(p.ep, size as u64)
        })?)
    }

    /// Reads the root pointer slot and refreshes the CN-wide hint.
    fn refresh_root(&mut self) -> GlobalAddr {
        let mut b = [0u8; 8];
        self.in_phase(Phase::Traversal, |me| {
            let p = me.parts();
            p.ep.read(p.skeleton.root_slot, &mut b)
        });
        let addr = GlobalAddr::from_raw(u64::from_le_bytes(b));
        self.parts().routes.set_root_hint(addr);
        addr
    }

    /// The root: the CN-wide hint, or the root slot when there is none.
    fn root(&mut self) -> GlobalAddr {
        let hint = self.parts().routes.root_hint();
        if hint.is_null() {
            self.refresh_root()
        } else {
            hint
        }
    }

    /// Reads an internal node from remote memory, bypassing the CN cache.
    fn read_internal(&mut self, addr: GlobalAddr) -> InternalNode {
        self.in_phase(Phase::Traversal, |me| {
            let p = me.parts();
            p.skeleton.internal.read(p.ep, addr)
        })
    }

    /// Releases an internal node's lock without writing it (abort paths).
    fn unlock_internal(&mut self, addr: GlobalAddr) {
        self.in_phase(Phase::WriteBack, |me| {
            let p = me.parts();
            p.skeleton.internal.unlock(p.ep, addr)
        });
    }

    /// Reads the internal node at `addr` through the CN cache and routes
    /// `key` in it; the hop is `None` when the node is invalid or does not
    /// cover `key`. A cached route leans by [`Self::LEAN`] where a pivot
    /// shares `key`'s bucket; a remote read populates the cache and routes
    /// exactly on the full node, so the re-read a wrong lean forces lands
    /// right. The flag says whether the route came from the cache.
    fn read_internal_cached(
        &mut self,
        addr: GlobalAddr,
        key: u64,
    ) -> (Rc<Route>, Option<Hop>, bool) {
        let hit = self.in_phase(Phase::CacheLookup, |me| {
            me.parts()
                .routes
                .cache()
                .get(addr)
                .filter(|r| r.covers(key))
        });
        if let Some(r) = hit {
            let hop = r.select(key, Self::LEAN);
            return (r, Some(hop), true);
        }
        let p = self.parts();
        let node = p.skeleton.internal.read(p.ep, addr);
        let hop = (node.valid && node.covers(key)).then(|| node.select(key));
        let route = Rc::new(Route::new(&node));
        if node.valid {
            p.routes.cache().insert(Rc::clone(&route));
        }
        (route, hop, false)
    }

    /// Descends from [`Self::descent_origin`] to the level-1 node covering
    /// `key`, moving laterally over half-split levels (B-link) and
    /// restarting from a fresh root when the route proves stale. Returns
    /// the node, the hop it gives `key` and whether it came from the CN
    /// cache. Runs inside the caller's traversal frame.
    fn descend(&mut self, key: u64) -> (Rc<Route>, Hop, bool) {
        let mut addr = self.descent_origin();
        let mut from = GlobalAddr::NULL;
        for _ in 0..OP_RETRY_LIMIT {
            let (route, hop, via_cache) = self.read_internal_cached(addr, key);
            if !route.valid {
                self.parts().routes.cache().invalidate(addr);
                addr = self.refresh_root();
                self.on_stale_route();
            } else if let Some(hop) = hop {
                if route.level == 1 {
                    return (route, hop, via_cache);
                }
                (from, addr) = (addr, hop.0);
            } else if key >= route.fence_high && !route.sibling.is_null() {
                addr = route.sibling;
            } else {
                if Self::LEAN == Lean::Right && key < route.fence_low {
                    // The parent leaned right past a pivot: re-read it.
                    self.parts().routes.cache().invalidate(from);
                }
                addr = self.refresh_root();
                self.on_stale_route();
            }
        }
        panic!("descent retry limit for key {key}");
    }

    /// The level-1 node covering `key` and the index of the child `key`
    /// routes to (scans batch-read consecutive leaves from there; merges
    /// lock the parent).
    fn locate_parent(&mut self, key: u64) -> (Rc<Route>, usize) {
        self.in_phase(Phase::Traversal, |me| {
            let (route, (child, _), _) = me.descend(key);
            let at = route.children().iter().position(|&c| c == child);
            (route, at.expect("a hop goes to a child"))
        })
    }

    /// Reads down from the live root to the valid node at `level` covering
    /// `pivot` (uncached: the authoritative copies are about to change).
    /// `None` when the walk raced a root growth or fell off a stale route.
    fn find_at_level(&mut self, root: GlobalAddr, level: u8, pivot: u64) -> Option<InternalNode> {
        let mut node = self.read_internal(root);
        if node.level < level {
            return None; // racing root growth; re-read the slot
        }
        // Descend to `level`, then move laterally there.
        while node.level > level || (node.valid && !node.covers(pivot)) {
            let next = if node.covers(pivot) {
                node.select(pivot).0
            } else if pivot >= node.fence_high && !node.sibling.is_null() {
                node.sibling
            } else {
                return None;
            };
            node = self.read_internal(next);
        }
        (node.valid && node.level == level).then_some(node)
    }

    /// Inserts `(pivot, child)` into the internal node at `level` covering
    /// `pivot`, splitting upward as needed (Sherman's Steps 1–3).
    fn insert_into_parent(
        &mut self,
        level: u8,
        pivot: u64,
        child: GlobalAddr,
    ) -> Result<(), IndexError> {
        for _ in 0..OP_RETRY_LIMIT {
            let root_addr = self.refresh_root();
            let Some(node) = self.find_at_level(root_addr, level, pivot) else {
                continue;
            };
            // Lock and re-read the authoritative copy.
            let addr = node.addr;
            let _lk = self.local_lock(addr);
            self.in_phase(Phase::LockAcquire, |me| {
                let p = me.parts();
                p.skeleton.internal.lock(p.ep, addr)
            });
            let mut fresh = self.read_internal(addr);
            if !fresh.valid || !fresh.covers(pivot) {
                self.unlock_internal(addr);
                self.on_stale_route();
                continue;
            }
            let p = self.parts();
            match fresh.entries.binary_search_by_key(&pivot, |e| e.0) {
                Ok(i) => {
                    // Idempotent re-insert of the same pivot.
                    assert_eq!(fresh.entries[i].1, child, "pivot collision");
                    self.unlock_internal(addr);
                    return Ok(());
                }
                Err(i) if fresh.entries.len() < p.skeleton.internal.layout.span => {
                    fresh.entries.insert(i, (pivot, child));
                    // Deliberately frameless: this write-back has always
                    // been attributed to the ambient phase.
                    p.skeleton.internal.write_and_unlock(p.ep, &fresh);
                    p.routes.cache().invalidate(addr);
                    return Ok(());
                }
                // Node full: split it (unlocks), then retry this insert.
                Err(_) => self.split_internal(&mut fresh, root_addr)?,
            }
        }
        panic!("insert_into_parent retry limit (pivot {pivot})");
    }

    /// Splits a locked, full internal node and up-propagates (or grows a
    /// new root). Leaves the node unlocked.
    fn split_internal(
        &mut self,
        node: &mut InternalNode,
        root_addr: GlobalAddr,
    ) -> Result<(), IndexError> {
        let mid = node.entries.len() / 2;
        let split_key = node.entries[mid].0;
        let upper: Vec<_> = node.entries.split_off(mid);
        let fences = (split_key, node.fence_high);
        let new_addr = self.new_internal(node.level, fences, node.sibling, upper)?;
        node.fence_high = split_key;
        node.sibling = new_addr;
        self.in_phase(Phase::WriteBack, |me| {
            let p = me.parts();
            p.skeleton.internal.write_and_unlock(p.ep, node)
        });
        self.parts().routes.cache().invalidate(node.addr);
        if node.addr == root_addr {
            // Grow a new root.
            let entries = vec![(node.fence_low, node.addr), (split_key, new_addr)];
            let new_root_addr =
                self.new_internal(node.level + 1, (0, u64::MAX), GlobalAddr::NULL, entries)?;
            let old = self.in_phase(Phase::WriteBack, |me| {
                let p = me.parts();
                p.ep.cas(p.skeleton.root_slot, root_addr.raw(), new_root_addr.raw())
            });
            if old == root_addr.raw() {
                self.parts().routes.set_root_hint(new_root_addr);
                return Ok(());
            }
            // Someone else grew the root first: insert into the new tree.
        }
        self.insert_into_parent(node.level + 1, split_key, new_addr)
    }

    /// Allocates and writes a fresh internal node; returns its address.
    fn new_internal(
        &mut self,
        level: u8,
        fences: (u64, u64),
        sibling: GlobalAddr,
        entries: Vec<(u64, GlobalAddr)>,
    ) -> Result<GlobalAddr, IndexError> {
        let size = self.parts().skeleton.internal.layout.node_size();
        let node = InternalNode::fresh(self.alloc_remote(size)?, level, fences, sibling, entries);
        self.in_phase(Phase::WriteBack, |me| {
            let p = me.parts();
            p.skeleton.internal.write_new(p.ep, &node)
        });
        Ok(node.addr)
    }
}
