//! Internal (B+-tree) nodes: parsing, serialization and remote operations.
//!
//! Internal nodes follow the Sherman design the paper reuses: a header with
//! level / valid / fence keys / sibling pointer (B-link), sorted pivot
//! entries, and a lock word. Internal nodes are modified rarely (only by
//! structure-modifying operations), so writers rewrite the whole node with
//! the node-level version bumped; readers fetch the whole node and check NV
//! consistency, retrying a torn image through [`crate::backoff::read_node`].

use dmem::versioned::{bump, pack_ver, Fetched, Fetches};
use dmem::{Endpoint, GlobalAddr};

use crate::backoff::read_node;
use crate::layout::{internal_field as f, InternalLayout};
use crate::lockword;

/// A parsed internal node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalNode {
    /// Remote address of the node.
    pub addr: GlobalAddr,
    /// Level (1 = parent of leaves).
    pub level: u8,
    /// Valid flag (false once merged away; merges are not implemented, so
    /// this stays true).
    pub valid: bool,
    /// Low fence: smallest key this subtree may contain.
    pub fence_low: u64,
    /// High fence: exclusive upper bound of this subtree.
    pub fence_high: u64,
    /// Right sibling at the same level.
    pub sibling: GlobalAddr,
    /// Sorted `(pivot, child)` entries; `entries[0].0 == fence_low`.
    pub entries: Vec<(u64, GlobalAddr)>,
    /// Node-level version observed when reading (used to bump on write).
    pub nv: u8,
}

impl InternalNode {
    /// A valid node not yet written (node version 0).
    pub fn fresh(
        addr: GlobalAddr,
        level: u8,
        (fence_low, fence_high): (u64, u64),
        sibling: GlobalAddr,
        entries: Vec<(u64, GlobalAddr)>,
    ) -> Self {
        InternalNode {
            addr,
            level,
            valid: true,
            fence_low,
            fence_high,
            sibling,
            entries,
            nv: 0,
        }
    }

    /// Selects the child covering `key` and the *next* child pointer
    /// (CHIME's expected sibling for leaf validation; `None` when `key`
    /// routes to the last child).
    ///
    /// # Panics
    ///
    /// Panics if `key < fence_low` (the caller routed incorrectly) or the
    /// node is empty.
    pub fn select(&self, key: u64) -> (GlobalAddr, Option<GlobalAddr>) {
        assert!(self.covers(key));
        assert!(!self.entries.is_empty());
        let i = match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => i,
            Err(0) => unreachable!("key below first pivot"),
            Err(i) => i - 1,
        };
        let next = self.entries.get(i + 1).map(|e| e.1);
        (self.entries[i].1, next)
    }

    /// Whether `key` falls inside this node's fences (a high fence of
    /// `u64::MAX` is unbounded, so the global maximum key is covered).
    pub fn covers(&self, key: u64) -> bool {
        dmem::hash::in_range(key, self.fence_low, self.fence_high)
    }

    /// Serializes the node into its logical payload image.
    pub fn serialize(&self, layout: &InternalLayout, nv: u8) -> Vec<u8> {
        assert!(self.entries.len() <= layout.span);
        let mut img = vec![0u8; layout.payload_len()];
        let ver = pack_ver(nv, 0);
        img[f::VER] = ver;
        img[f::LEVEL] = self.level;
        img[f::VALID] = self.valid as u8;
        img[f::COUNT..f::COUNT + 2].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        img[f::FENCE_LOW..f::FENCE_LOW + 8].copy_from_slice(&self.fence_low.to_le_bytes());
        img[f::FENCE_HIGH..f::FENCE_HIGH + 8].copy_from_slice(&self.fence_high.to_le_bytes());
        img[f::SIBLING..f::SIBLING + 8].copy_from_slice(&self.sibling.raw().to_le_bytes());
        for (i, (pivot, child)) in self.entries.iter().enumerate() {
            let off = layout.entry_off(i);
            img[off] = ver;
            img[off + 1..off + 9].copy_from_slice(&pivot.to_le_bytes());
            img[off + 9..off + 17].copy_from_slice(&child.raw().to_le_bytes());
        }
        // Unused entries still carry the node version byte.
        for i in self.entries.len()..layout.span {
            img[layout.entry_off(i)] = ver;
        }
        img
    }

    fn parse(layout: &InternalLayout, addr: GlobalAddr, fetch: &Fetched) -> Option<InternalNode> {
        let nv = fetch.check_nv([f::VER])?;
        let count = fetch.u16_at(f::COUNT) as usize;
        if count > layout.span {
            return None; // torn beyond NV detection granularity; retry
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let off = layout.entry_off(i);
            entries.push((
                fetch.u64_at(off + 1),
                GlobalAddr::from_raw(fetch.u64_at(off + 9)),
            ));
        }
        Some(InternalNode {
            addr,
            level: fetch.get(f::LEVEL),
            valid: fetch.get(f::VALID) != 0,
            fence_low: fetch.u64_at(f::FENCE_LOW),
            fence_high: fetch.u64_at(f::FENCE_HIGH),
            sibling: GlobalAddr::from_raw(fetch.u64_at(f::SIBLING)),
            entries,
            nv,
        })
    }
}

/// Remote operations on internal nodes.
pub struct InternalOps {
    /// Node geometry.
    pub layout: InternalLayout,
}

impl InternalOps {
    /// Reads and parses an internal node, retrying torn reads, through
    /// the client's READ buffers `reads`.
    pub fn read_with(&self, ep: &mut Endpoint, addr: GlobalAddr, reads: &mut Fetches) -> InternalNode {
        read_node(ep, &self.layout.versioned(), addr, reads, |f, _| {
            InternalNode::parse(&self.layout, addr, f)
        })
    }

    /// [`Self::read_with`] through fresh buffers (tools and tests).
    pub fn read(&self, ep: &mut Endpoint, addr: GlobalAddr) -> InternalNode {
        self.read_with(ep, addr, &mut Fetches::default())
    }

    /// Acquires the node's lock (bit 0) with [`lockword::acquire`]; the
    /// caller releases it with [`Self::unlock`] or [`Self::write_and_unlock`].
    pub fn lock(&self, ep: &mut Endpoint, addr: GlobalAddr) {
        let _held = lockword::acquire(ep, addr.add(self.layout.lock_off() as u64), 0);
    }

    /// Releases the node lock with a plain WRITE.
    pub fn unlock(&self, ep: &mut Endpoint, addr: GlobalAddr) {
        ep.write(addr.add(self.layout.lock_off() as u64), &0u64.to_le_bytes());
    }

    /// Writes the whole node (NV bumped by the caller inside `node.nv`) and
    /// releases its lock in one doorbell batch.
    pub fn write_and_unlock(&self, ep: &mut Endpoint, node: &InternalNode) {
        let nv = bump(node.nv);
        let img = node.serialize(&self.layout, nv);
        let (pstart, phys) = self
            .layout
            .versioned()
            .build_phys(0, &img, |_| pack_ver(nv, 0));
        let lock_addr = node.addr.add(self.layout.lock_off() as u64);
        ep.write_batch(&[
            (node.addr.add(pstart as u64), &phys),
            (lock_addr, &0u64.to_le_bytes()),
        ]);
    }

    /// Writes a brand-new node (no lock interaction; the node is not yet
    /// reachable).
    pub fn write_new(&self, ep: &mut Endpoint, node: &InternalNode) {
        let img = node.serialize(&self.layout, 0);
        let (pstart, phys) = self
            .layout
            .versioned()
            .build_phys(0, &img, |_| pack_ver(0, 0));
        ep.write(node.addr.add(pstart as u64), &phys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem::node::RESERVED_BYTES;
    use dmem::Pool;

    fn setup() -> (Endpoint, InternalOps, GlobalAddr) {
        let pool = Pool::with_defaults(1, 1 << 20);
        let ep = Endpoint::new(pool);
        let ops = InternalOps {
            layout: InternalLayout { span: 8 },
        };
        (ep, ops, GlobalAddr::new(0, RESERVED_BYTES))
    }

    fn sample(addr: GlobalAddr) -> InternalNode {
        InternalNode {
            addr,
            level: 1,
            valid: true,
            fence_low: 0,
            fence_high: u64::MAX,
            sibling: GlobalAddr::NULL,
            entries: vec![
                (0, GlobalAddr::new(0, 0x10000)),
                (100, GlobalAddr::new(0, 0x20000)),
                (200, GlobalAddr::new(0, 0x30000)),
            ],
            nv: 0,
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let (mut ep, ops, addr) = setup();
        let node = sample(addr);
        ops.write_new(&mut ep, &node);
        let got = ops.read(&mut ep, addr);
        assert_eq!(got.level, 1);
        assert!(got.valid);
        assert_eq!(got.fence_high, u64::MAX);
        assert_eq!(got.entries, node.entries);
    }

    #[test]
    fn select_routes_by_pivot() {
        let node = sample(GlobalAddr::NULL);
        let (c, next) = node.select(0);
        assert_eq!(c.offset(), 0x10000);
        assert_eq!(next.unwrap().offset(), 0x20000);
        let (c, next) = node.select(150);
        assert_eq!(c.offset(), 0x20000);
        assert_eq!(next.unwrap().offset(), 0x30000);
        let (c, next) = node.select(5000);
        assert_eq!(c.offset(), 0x30000);
        assert!(next.is_none());
        let (c, _) = node.select(200);
        assert_eq!(c.offset(), 0x30000);
    }

    #[test]
    fn write_and_unlock_bumps_nv() {
        let (mut ep, ops, addr) = setup();
        let mut node = sample(addr);
        ops.write_new(&mut ep, &node);
        let before = ops.read(&mut ep, addr);
        ops.lock(&mut ep, addr);
        node.entries.push((300, GlobalAddr::new(0, 0x40000)));
        node.nv = before.nv;
        ops.write_and_unlock(&mut ep, &node);
        let after = ops.read(&mut ep, addr);
        assert_eq!(after.nv, bump(before.nv));
        assert_eq!(after.entries.len(), 4);
        // Lock is released.
        ops.lock(&mut ep, addr);
        ops.unlock(&mut ep, addr);
    }

    #[test]
    fn lock_excludes_second_acquirer() {
        let (mut ep, ops, addr) = setup();
        ops.write_new(&mut ep, &sample(addr));
        ops.lock(&mut ep, addr);
        let lock_addr = addr.add(ops.layout.lock_off() as u64);
        // A second CAS must fail while held.
        assert_eq!(lockword::try_acquire(&mut ep, lock_addr, 0, &mut []) & 1, 1);
        ops.unlock(&mut ep, addr);
        assert_eq!(lockword::try_acquire(&mut ep, lock_addr, 0, &mut []) & 1, 0);
    }

    #[test]
    fn lock_counts_each_conflict_as_a_lock_retry() {
        // The first four masked CASes report the lock held.
        let mut plan = dmem::FaultPlan::seeded(1);
        let mut rule = dmem::FaultRule::always("held", Some(dmem::VerbKind::MaskedCas), dmem::FaultAction::FailCas);
        rule.max_fires = 4;
        plan.rules.push(rule);
        let session = std::sync::Arc::new(dmem::FaultSession::new(plan));
        let (ep, ops, addr) = setup();
        let mut ep = Endpoint::with_faults(std::sync::Arc::clone(ep.pool()), session, 0);
        ops.write_new(&mut ep, &sample(addr));
        ops.lock(&mut ep, addr);
        assert_eq!(ep.stats().lock_retries, 4);
        assert_eq!(ep.profile().retry_count(dmem::RetryCause::LockConflict), 4);
        ops.unlock(&mut ep, addr);
    }
}
