//! CHIME's side of the descent: the skeleton client impl (left lean,
//! backoff on a stale route, the migration forward as descent origin),
//! stale-route reactions and leaf location with its validation context.

use std::rc::Rc;

use dmem::{GlobalAddr, Phase, RetryCause};

use super::ChimeClient;
use crate::cache::{Lean, Route};
use crate::skeleton::{Parts, SkeletonClient};

/// Where a traversal landed: the leaf plus validation context.
pub(super) struct LeafLoc {
    pub(super) addr: GlobalAddr,
    /// The next child pointer in the parent (sibling-validation expectation);
    /// `None` when the leaf is the parent's last child.
    pub(super) expected: Option<GlobalAddr>,
    pub(super) via_cache: bool,
    pub(super) parent: GlobalAddr,
}

/// CHIME's pivots are a left half's maximum plus one, so a cached route
/// leans left; a stale route is a whole-operation retry with backoff.
impl SkeletonClient for ChimeClient {
    const LEAN: Lean = Lean::Left;

    fn parts(&mut self) -> Parts<'_> {
        Parts {
            ep: &mut self.ep,
            alloc: &mut self.alloc,
            skeleton: &self.shared.skeleton,
            routes: &self.cn.routes,
            reads: &mut self.reads,
        }
    }

    fn on_stale_route(&mut self) {
        self.on_op_conflict(RetryCause::StaleRoute);
    }

    /// A pending forwarding target if a migration tombstone installed one,
    /// otherwise the (hinted) root.
    fn descent_origin(&mut self) -> GlobalAddr {
        match self.forward.take() {
            Some(forward) => forward,
            None => self.root(),
        }
    }
}

impl ChimeClient {
    /// Drops the cached route through `parent`, re-reads the root slot and
    /// records a stale-route retry: the reaction to a leaf or parent view
    /// that no longer matches the remote tree.
    pub(super) fn reroute(&mut self, parent: GlobalAddr) {
        self.cn.routes.cache().invalidate(parent);
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
        if let Some(r) = self.cn.routes.cache().get(addr) {
            return r.children().first().copied();
        }
        let node = self.shared.skeleton.internal.read_with(&mut self.ep, addr, &mut self.reads);
        if !node.valid {
            return None;
        }
        self.cn.routes.cache().insert(Rc::new(Route::new(&node)));
        node.entries.first().map(|e| e.1)
    }
}
