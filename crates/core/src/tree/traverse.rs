//! Root/route maintenance and the descent through the internal levels.

use std::sync::Arc;

use dmem::{GlobalAddr, Phase, RetryCause};

use super::{ChimeClient, OP_RETRY_LIMIT};
use crate::cache::{Hop, Lean, Route};

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

    /// Reads the internal node at `addr` through the CN cache and routes
    /// `key` in it; the hop is `None` when the node is invalid or does not
    /// cover `key`. A cached route leans left where a pivot shares `key`'s
    /// bucket (CHIME's pivots are a left half's maximum plus one); a remote
    /// read populates the cache and routes exactly on the full node, so the
    /// re-read that validation forces after a wrong lean lands right.
    pub(super) fn read_internal_cached(
        &mut self,
        addr: GlobalAddr,
        key: u64,
    ) -> (Arc<Route>, Option<Hop>, bool) {
        let hit = self.in_phase(Phase::CacheLookup, |me| {
            me.cn.cache.lock().get(addr).filter(|r| r.covers(key))
        });
        if let Some(r) = hit {
            let hop = r.select(key, Lean::Left);
            return (r, Some(hop), true);
        }
        let node = self.shared.internal.read(&mut self.ep, addr);
        let hop = (node.valid && node.covers(key)).then(|| node.select(key));
        let route = Arc::new(Route::new(&node));
        if node.valid {
            self.cn.cache.lock().insert(Arc::clone(&route));
        }
        (route, hop, false)
    }

    /// Descends from the origin to the level-1 node covering `key`, moving
    /// laterally over half-split levels (B-link) and restarting from a
    /// fresh root when the route proves stale. Returns the node, the hop
    /// it gives `key` and whether it came from the CN cache. Runs inside
    /// the caller's traversal frame.
    fn descend(&mut self, key: u64) -> (Arc<Route>, Hop, bool) {
        let mut addr = self.descent_origin();
        for _ in 0..OP_RETRY_LIMIT {
            let (route, hop, via_cache) = self.read_internal_cached(addr, key);
            if !route.valid {
                self.cn.cache.lock().invalidate(addr);
                addr = self.refresh_root();
                self.on_op_conflict(RetryCause::StaleRoute);
            } else if let Some(hop) = hop {
                if route.level == 1 {
                    return (route, hop, via_cache);
                }
                addr = hop.0;
            } else if key >= route.fence_high && !route.sibling.is_null() {
                addr = route.sibling;
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
            let (route, (addr, mut expected), via_cache) = me.descend(key);
            if expected.is_none() && !route.sibling.is_null() {
                // The leaf is its parent's last child: the expected
                // sibling pointer is the *first child of the parent's
                // B-link sibling* (usually cached). Without it, every
                // interior last-child access would look half-split.
                expected = me.first_child_of(route.sibling);
            }
            LeafLoc {
                addr,
                expected,
                via_cache,
                parent: route.addr,
            }
        })
    }

    /// First child pointer of the internal node at `addr` (cached when
    /// possible). Used to resolve the expected sibling of last children.
    fn first_child_of(&mut self, addr: GlobalAddr) -> Option<GlobalAddr> {
        if let Some(r) = self.cn.cache.lock().get(addr) {
            return r.children().first().copied();
        }
        let node = self.shared.internal.read(&mut self.ep, addr);
        if !node.valid {
            return None;
        }
        self.cn.cache.lock().insert(Arc::new(Route::new(&node)));
        node.entries.first().map(|e| e.1)
    }

    /// Like [`Self::locate_leaf`] but returns the parent's route itself and
    /// the index of the child `key` routes to (scans batch-read consecutive
    /// leaves from there; merges lock the parent).
    pub(super) fn locate_parent(&mut self, key: u64) -> (Arc<Route>, usize) {
        self.in_phase(Phase::Traversal, |me| {
            let (route, (child, _), _) = me.descend(key);
            let at = route.children().iter().position(|&c| c == child);
            (route, at.expect("a hop goes to a child"))
        })
    }
}
