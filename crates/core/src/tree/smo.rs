//! Leaf structure-modifying operations: the hopscotch leaf split, whose
//! pivots go up through the skeleton's up-propagation (Sherman's Steps
//! 1–3), and leaf merge.

use dmem::{GlobalAddr, IndexError, Phase};

use super::ChimeClient;
use crate::hopscotch::{build_table, Window};
use crate::layout::LeafLayout;
use crate::leaf::LockedRead;
use crate::skeleton::SkeletonClient;

/// One built leaf chunk: its hopscotch window and its largest key.
type Chunk = (Window, u64);

/// Recursively builds hopscotch tables for `items` (sorted by key) into
/// `out`, splitting chunks that do not fit, in key order.
fn build_chunks(l: &LeafLayout, items: &[(u64, &[u8])], out: &mut Vec<Chunk>) {
    if let Some(w) = build_table(l.span, l.h, l.value_size, items) {
        return out.push((w, items.last().expect("chunk cannot be empty").0));
    }
    assert!(items.len() >= 2, "cannot split a single unfittable item");
    let mid = items.len() / 2;
    build_chunks(l, &items[..mid], out);
    build_chunks(l, &items[mid..], out);
}

impl ChimeClient {
    /// Splits the locked leaf `addr` (whose full content is in `lr`),
    /// releases its lock and up-propagates the new pivots. The halves are
    /// rebuilt from `lr`'s window: its items are sorted by key as borrowed
    /// slices, and each value is copied once, into its new table.
    pub(super) fn split_leaf(
        &mut self,
        addr: GlobalAddr,
        lr: &LockedRead,
    ) -> Result<(), IndexError> {
        self.counters.splits += 1;
        let mut items = Vec::with_capacity(lr.w.len());
        items.extend(lr.w.occupied());
        items.sort_unstable_by_key(|&(k, _)| k);
        assert!(items.len() >= 2, "splitting a near-empty node");
        let mid = items.len() / 2;
        // Build chains (usually exactly one chunk per half).
        let layout = self.leaf().layout;
        let mut chunks = Vec::with_capacity(2);
        build_chunks(&layout, &items[..mid], &mut chunks);
        build_chunks(&layout, &items[mid..], &mut chunks);
        assert!(chunks.len() >= 2);
        // Boundary pivots: max of previous chunk + 1 (argmax-corner rule).
        let mut pivots = Vec::with_capacity(chunks.len());
        pivots.push(0u64); // unused for chunk 0 (keeps the old low bound)
        for (_, prev_max) in &chunks[..chunks.len() - 1] {
            pivots.push(prev_max + 1);
        }
        // Allocate the new nodes (all but chunk 0, which reuses `addr`).
        let node_size = self.leaf().layout.node_size();
        let mut addrs = vec![addr];
        for _ in 1..chunks.len() {
            addrs.push(self.alloc_remote(node_size)?);
        }
        let (old_lo, old_hi) = lr.meta.fences.unwrap_or((0, u64::MAX));
        // Write new nodes right-to-left so each points at an already
        // written sibling; the old node is rewritten last (publish point).
        for i in (1..chunks.len()).rev() {
            let (sibling, hi) = match addrs.get(i + 1) {
                Some(&next) => (next, pivots[i + 1]),
                None => (lr.meta.sibling, old_hi),
            };
            let meta = self.leaf().meta(sibling, true, (pivots[i], hi));
            self.in_phase(Phase::WriteBack, |me| {
                me.leaf()
                    .write_new(&mut me.ep, addrs[i], &chunks[i].0, &meta)
            });
        }
        let meta0 = self.leaf().meta(addrs[1], true, (old_lo, pivots[1]));
        self.rewrite(addr, &chunks[0].0, lr.nv, &meta0);
        // Up-propagate every new pivot.
        for i in 1..chunks.len() {
            self.insert_into_parent(1, pivots[i], addrs[i])?;
        }
        Ok(())
    }

    /// Best-effort merge of the underflowed leaf `addr` with its right
    /// sibling *under the same parent* (merging across parent boundaries
    /// would break routing).
    ///
    /// Lock order: parent -> left leaf -> right leaf. Holding the parent
    /// throughout pins both pivots (no racing parent split can move them),
    /// so the pivot removal is a plain in-place rewrite. Leaf locks are
    /// taken without the CN-local table here: remote holders always release
    /// their leaf lock before waiting on a parent, so the spin is bounded
    /// and the parent-first order introduces no cycle.
    pub(super) fn try_merge(&mut self, addr: GlobalAddr, probe_key: u64) {
        let cfg = self.shared.cfg;
        let span = cfg.span;
        // Find and lock the (fresh) parent of `addr`.
        let parent_addr = self.locate_parent(probe_key).0.addr;
        let _pk = self.local_lock(parent_addr);
        self.in_phase(Phase::LockAcquire, |me| {
            me.shared.skeleton.internal.lock(&mut me.ep, parent_addr)
        });
        let mut parent = self.read_internal(parent_addr);
        // The right partner and its pivot; a last child's partner lives
        // under another parent.
        let partner = parent
            .entries
            .iter()
            .position(|e| e.1 == addr)
            .filter(|_| parent.valid)
            .and_then(|i| Some((i + 1, *parent.entries.get(i + 1)?)));
        let Some((sib_idx, (sib_pivot, sib))) = partner else {
            return self.unlock_internal(parent_addr);
        };
        // Lock and re-validate the left leaf.
        let xword = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, addr));
        let (mut xlr, mut slr) = (LockedRead::default(), LockedRead::default());
        self.read_whole(addr, xword, &mut xlr);
        let mut items: Vec<(u64, &[u8])> = xlr.w.occupied().collect();
        if !xlr.meta.valid || xlr.meta.sibling != sib || items.len() > span / 4 {
            self.unlock(&[(addr, xword)]);
            return self.unlock_internal(parent_addr);
        }
        // Lock the right leaf and check the combined fit.
        let sword = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, sib));
        self.read_whole(sib, sword, &mut slr);
        items.extend(slr.w.occupied());
        let merged = if !slr.meta.valid || items.len() > (span * 2) / 3 {
            None
        } else {
            build_table(span, cfg.neighborhood, self.leaf().layout.value_size, &items)
        };
        let Some(merged) = merged else {
            self.unlock(&[(sib, sword), (addr, xword)]);
            return self.unlock_internal(parent_addr);
        };
        self.counters.merges += 1;
        // Publish order: merged left node (all keys stay reachable) ->
        // invalidate the right node -> drop its pivot from the parent.
        let (old_lo, _) = xlr.meta.fences.unwrap_or((0, u64::MAX));
        let (_, sib_hi) = slr.meta.fences.unwrap_or((0, u64::MAX));
        let meta = self.leaf().meta(slr.meta.sibling, true, (old_lo, sib_hi));
        self.rewrite(addr, &merged, xlr.nv, &meta);
        let empty = self.leaf().layout.window(0, span);
        let dead = self
            .leaf()
            .meta(GlobalAddr::NULL, false, (sib_pivot, sib_pivot));
        self.rewrite(sib, &empty, slr.nv, &dead);
        parent.entries.remove(sib_idx);
        self.in_phase(Phase::WriteBack, |me| {
            me.shared.skeleton.internal.write_and_unlock(&mut me.ep, &parent)
        });
        self.cn.routes.cache().invalidate(parent_addr);
    }
}
