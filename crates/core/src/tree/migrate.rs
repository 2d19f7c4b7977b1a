//! Hooks for partitioned deployments: what a partition router and its
//! migrator need from a client beyond the five data operations.

use dmem::{GlobalAddr, IndexError, Phase, RangeIndex};

use super::{ChimeClient, TreeBinding};
use crate::leaf::{LeafMeta, LockedRead};
use crate::skeleton::SkeletonClient;

impl ChimeClient {
    /// Re-reads the live root pointer slot. Migrators use this to snapshot
    /// the root of the tree they are about to move.
    pub fn current_root(&mut self) -> GlobalAddr {
        self.refresh_root()
    }

    /// Retargets this client's pinned allocator to `mn` (no-op for
    /// round-robin allocators); see [`dmem::ChunkAlloc::retarget`].
    pub fn retarget_alloc(&mut self, mn: u16) {
        self.alloc.retarget(mn);
    }

    /// Advances this client's virtual clock to `ns` if it lags behind.
    /// A partition router multiplexes one logical client over several
    /// per-partition clients and keeps their clocks on one timeline.
    pub fn sync_clock_to(&mut self, ns: u64) {
        let now = self.ep.clock_ns();
        if ns > now {
            self.ep.advance_clock(ns - now);
        }
    }

    /// Swaps this client's tree binding — root slot, CN cache state and
    /// allocator — returning the previous one. The endpoint stays put:
    /// its clock, verb statistics and phase profile span every tree the
    /// client serves, which is exactly what a partition router wants.
    /// Any pending forwarding override is dropped (it pointed into the
    /// previous binding's tree).
    pub fn rebind(&mut self, b: TreeBinding) -> TreeBinding {
        debug_assert_eq!(
            self.shared.cfg.span, b.shared.cfg.span,
            "rebind across trees of different geometry"
        );
        self.forward = None;
        TreeBinding {
            shared: std::mem::replace(&mut self.shared, b.shared),
            cn: std::mem::replace(&mut self.cn, b.cn),
            alloc: std::mem::replace(&mut self.alloc, b.alloc),
        }
    }

    /// Reads raw bytes at `addr` on this client's endpoint, attributed to
    /// `phase`. Partition routers read routing-table words through the
    /// operating client so the cost lands on its timeline and profile.
    pub fn read_raw(&mut self, addr: GlobalAddr, dst: &mut [u8], phase: Phase) {
        self.in_phase(phase, |me| me.ep.read(addr, dst));
    }

    /// Leaf addresses reachable through the level-1 entries of the tree
    /// rooted at `root`, left to right (tombstoned leaves included; the
    /// caller filters). Pivot up-propagation completes before any index
    /// operation returns, so between operations the level-1 entries are
    /// the complete leaf set — unlike the leaf sibling chain, which
    /// forwarding tombstones sever, this enumeration stays sound while a
    /// partition is half-migrated (crash recovery relies on that).
    pub fn leaf_addrs_under(&mut self, root: GlobalAddr) -> Vec<GlobalAddr> {
        self.in_phase(Phase::Traversal, |me| {
            let mut node = me.shared.skeleton.internal.read(&mut me.ep, root);
            while node.level > 1 {
                let child = node.entries[0].1;
                node = me.shared.skeleton.internal.read(&mut me.ep, child);
            }
            let mut out: Vec<GlobalAddr> = Vec::new();
            loop {
                out.extend(node.entries.iter().map(|e| e.1));
                if node.sibling.is_null() {
                    return out;
                }
                let sib = node.sibling;
                node = me.shared.skeleton.internal.read(&mut me.ep, sib);
            }
        })
    }

    /// Atomically moves one leaf into `dst`'s tree: locks the leaf, copies
    /// every item over (inserts upsert, so a crash-recovery re-drive of a
    /// partially copied leaf converges), then retires the leaf behind a
    /// forwarding tombstone whose sibling pointer names `forward` — the
    /// destination tree's root internal node. Point operations landing on
    /// the tombstone restart their descent from `forward`. Returns the
    /// number of items moved, or `None` if the leaf was already retired.
    pub fn move_leaf_into(
        &mut self,
        addr: GlobalAddr,
        dst: &mut ChimeClient,
        forward: GlobalAddr,
    ) -> Result<Option<u64>, IndexError> {
        let _lk = self.local_lock(addr);
        let word = self.in_phase(Phase::LockAcquire, |me| me.leaf().lock(&mut me.ep, addr));
        let mut lr = LockedRead::default();
        self.read_whole(addr, word, &mut lr);
        if !lr.meta.valid {
            self.unlock(&[(addr, word)]);
            return Ok(None);
        }
        let mut items: Vec<(u64, &[u8])> = lr.w.occupied().collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        let mut moved = 0u64;
        for (k, stored) in items {
            let mut v = stored.to_vec();
            self.resolve_in_place(&mut v);
            if let Err(e) = dst.insert(k, &v) {
                // Abort without tombstoning: the source leaf stays live and
                // authoritative; the half-built destination is abandoned.
                self.unlock(&[(addr, word)]);
                return Err(e);
            }
            moved += 1;
        }
        let empty = self.leaf().layout.window(0, self.span());
        let dead = LeafMeta {
            sibling: forward,
            valid: false,
            ..lr.meta
        };
        self.rewrite(addr, &empty, lr.nv, &dead);
        Ok(Some(moved))
    }
}
