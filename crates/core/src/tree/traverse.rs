//! Root/route maintenance and the descent through the internal levels.

use std::sync::Arc;

use dmem::{GlobalAddr, Phase, RetryCause};

use super::{ChimeClient, OP_RETRY_LIMIT};
use crate::internal::InternalNode;

/// Where a traversal landed: the leaf plus validation context.
pub(super) struct LeafLoc {
    pub(super) addr: GlobalAddr,
    /// The next child pointer in the parent (sibling-validation expectation);
    /// `None` when the leaf is the parent's last child.
    pub(super) expected: Option<GlobalAddr>,
    pub(super) via_cache: bool,
    pub(super) parent: GlobalAddr,
}

impl ChimeClient {
    /// Reads the root pointer slot and refreshes the CN-wide hint.
    pub(super) fn refresh_root(&mut self) -> GlobalAddr {
        let mut b = [0u8; 8];
        self.in_phase(Phase::Traversal, |me| {
            me.ep.read(me.shared.root_slot, &mut b)
        });
        let addr = GlobalAddr::from_raw(u64::from_le_bytes(b));
        *self.cn.root_hint.lock() = addr;
        addr
    }

    /// Where the next traversal starts: a pending forwarding target if a
    /// migration tombstone installed one, otherwise the (hinted) root.
    fn descent_origin(&mut self) -> GlobalAddr {
        if let Some(forward) = self.forward.take() {
            return forward;
        }
        let hint = *self.cn.root_hint.lock();
        if hint.is_null() {
            self.refresh_root()
        } else {
            hint
        }
    }

    /// Drops the cached route through `parent`, re-reads the root slot and
    /// records a stale-route retry: the reaction to a leaf or parent view
    /// that no longer matches the remote tree.
    pub(super) fn reroute(&mut self, parent: GlobalAddr) {
        self.cn.cache.lock().invalidate(parent);
        self.refresh_root();
        self.on_op_conflict(RetryCause::StaleRoute);
    }

    /// Reacts to an invalid leaf observed mid-operation. A leaf retired by
    /// a partition migration carries a forwarding pointer (invalid, sibling
    /// non-null: the destination tree's root internal node) — when `follow`
    /// is set, the next descent restarts from there, keeping the operation
    /// wait-free while a crashed migration leaves the live root stale.
    /// Searches, updates and deletes follow (they never split, so they
    /// cannot up-propagate pivots into the wrong tree's internals); inserts
    /// and scans do not — they retry through the live root until recovery
    /// republishes it. A leaf retired by a merge (sibling null) always
    /// falls back to a root refresh.
    ///
    /// Either way the cached parent route is dropped and the root slot is
    /// re-read: a tombstone means this partition is (or was) migrating,
    /// and once the switch has published, the refreshed CN-wide hint sends
    /// every subsequent descent straight to the live tree instead of
    /// chasing the forward on each operation. Before the switch the slot
    /// still names the old root and the chase repeats — correct, just
    /// slower.
    pub(super) fn on_invalid_leaf(
        &mut self,
        parent: GlobalAddr,
        tombstone_sibling: GlobalAddr,
        follow: bool,
    ) {
        if follow && !tombstone_sibling.is_null() {
            self.counters.chases += 1;
            self.forward = Some(tombstone_sibling);
        }
        self.reroute(parent);
    }

    /// Reads an internal node through the CN cache; remote reads populate it.
    pub(super) fn read_internal_cached(
        &mut self,
        addr: GlobalAddr,
        key: u64,
    ) -> (Arc<InternalNode>, bool) {
        let hit = self.in_phase(Phase::CacheLookup, |me| {
            me.cn.cache.lock().get(addr).filter(|n| n.covers(key))
        });
        if let Some(n) = hit {
            return (n, true);
        }
        let n = Arc::new(self.shared.internal.read(&mut self.ep, addr));
        if n.valid {
            self.cn.cache.lock().insert(Arc::clone(&n));
        }
        (n, false)
    }

    /// Descends from the origin to the level-1 node covering `key`, moving
    /// laterally over half-split levels (B-link) and restarting from a
    /// fresh root when the route proves stale. Returns the node and whether
    /// it came from the CN cache. Runs inside the caller's traversal frame.
    fn descend(&mut self, key: u64) -> (Arc<InternalNode>, bool) {
        let mut addr = self.descent_origin();
        for _ in 0..OP_RETRY_LIMIT {
            let (node, via_cache) = self.read_internal_cached(addr, key);
            if !node.valid {
                self.cn.cache.lock().invalidate(addr);
                addr = self.refresh_root();
                self.on_op_conflict(RetryCause::StaleRoute);
            } else if node.covers(key) {
                if node.level == 1 {
                    return (node, via_cache);
                }
                addr = node.select(key).0;
            } else if key >= node.fence_high && !node.sibling.is_null() {
                addr = node.sibling;
            } else {
                addr = self.refresh_root();
                self.on_op_conflict(RetryCause::StaleRoute);
            }
        }
        panic!("descent retry limit for key {key}");
    }

    /// Traverses internal levels down to the parent of the target leaf.
    pub(super) fn locate_leaf(&mut self, key: u64) -> LeafLoc {
        self.in_phase(Phase::Traversal, |me| {
            let (node, via_cache) = me.descend(key);
            let (addr, mut expected) = node.select(key);
            if expected.is_none() && !node.sibling.is_null() {
                // The leaf is its parent's last child: the expected
                // sibling pointer is the *first child of the parent's
                // B-link sibling* (usually cached). Without it, every
                // interior last-child access would look half-split.
                expected = me.first_child_of(node.sibling);
            }
            LeafLoc {
                addr,
                expected,
                via_cache,
                parent: node.addr,
            }
        })
    }

    /// First child pointer of the internal node at `addr` (cached when
    /// possible). Used to resolve the expected sibling of last children.
    fn first_child_of(&mut self, addr: GlobalAddr) -> Option<GlobalAddr> {
        if let Some(n) = self.cn.cache.lock().get(addr) {
            return n.entries.first().map(|e| e.1);
        }
        let n = Arc::new(self.shared.internal.read(&mut self.ep, addr));
        if !n.valid {
            return None;
        }
        let first = n.entries.first().map(|e| e.1);
        self.cn.cache.lock().insert(n);
        first
    }

    /// Like [`Self::locate_leaf`] but returns the parent node itself
    /// (scans batch-read its consecutive leaves; merges lock it).
    pub(super) fn locate_parent(&mut self, key: u64) -> Arc<InternalNode> {
        self.in_phase(Phase::Traversal, |me| me.descend(key).0)
    }
}
