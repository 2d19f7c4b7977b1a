//! Sherman's sorted leaf nodes.
//!
//! Layout (logical payload, striped over versioned cache lines exactly like
//! CHIME's nodes):
//!
//! ```text
//! [header: ver | sibling | valid | fence_low | fence_high | count]
//! [entry 0: ver | key | value] ... [entry span-1]  [8-byte lock word]
//! ```
//!
//! Point queries fetch the whole node; inserts shift the sorted suffix and
//! write back only the changed region plus the header (Sherman's
//! fine-grained write optimization); updates write a single entry.

use chime::backoff::{read_node, read_nodes};
use chime::lockword;
use dmem::versioned::{bump, ev, pack_ver, Fetched, Fetches, Layout};
use dmem::{Endpoint, GlobalAddr};

/// Byte offsets inside the leaf header.
pub mod header {
    /// Version byte.
    pub const VER: usize = 0;
    /// Sibling pointer.
    pub const SIBLING: usize = 1;
    /// Valid flag.
    pub const VALID: usize = 9;
    /// Low fence key.
    pub const FENCE_LOW: usize = 10;
    /// High fence key.
    pub const FENCE_HIGH: usize = 18;
    /// Entry count (u16).
    pub const COUNT: usize = 26;
    /// Header size.
    pub const SIZE: usize = 28;
}

/// Geometry of a Sherman leaf.
#[derive(Debug, Clone, Copy)]
pub struct ShermanLeafLayout {
    /// Maximum entries per leaf (the span size).
    pub span: usize,
    /// Value size in bytes.
    pub value_size: usize,
}

impl ShermanLeafLayout {
    /// Bytes per entry.
    pub fn entry_size(&self) -> usize {
        1 + 8 + self.value_size
    }

    /// Logical payload length.
    pub fn payload_len(&self) -> usize {
        header::SIZE + self.span * self.entry_size()
    }

    /// The versioned layout.
    pub fn versioned(&self) -> Layout {
        Layout::new(self.payload_len())
    }

    /// Physical lock-word offset.
    pub fn lock_off(&self) -> usize {
        self.versioned().lock_offset()
    }

    /// Total physical node size.
    pub fn node_size(&self) -> usize {
        self.versioned().node_size()
    }

    /// Logical offset of entry `i`.
    pub fn entry_off(&self, i: usize) -> usize {
        debug_assert!(i < self.span);
        header::SIZE + i * self.entry_size()
    }
}

/// A consistent whole-leaf snapshot.
#[derive(Debug, Clone)]
pub struct LeafSnapshot {
    /// Sorted keys (`count` of them).
    pub keys: Vec<u64>,
    /// Values, parallel to `keys`.
    pub values: Vec<Vec<u8>>,
    /// Per-entry EVs for all `span` slots.
    pub evs: Vec<u8>,
    /// Header EV.
    pub header_ev: u8,
    /// Node-level version.
    pub nv: u8,
    /// Right sibling.
    pub sibling: GlobalAddr,
    /// Valid flag.
    pub valid: bool,
    /// `[fence_low, fence_high)`.
    pub fences: (u64, u64),
}

impl LeafSnapshot {
    /// Binary-searches for `key`.
    pub fn find(&self, key: u64) -> Option<(usize, &[u8])> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|i| (i, &self.values[i][..]))
    }
}

/// Remote operations on Sherman leaves.
#[derive(Debug, Clone, Copy)]
pub struct ShermanLeafOps {
    /// Node geometry.
    pub layout: ShermanLeafLayout,
}

impl ShermanLeafOps {
    fn parse(&self, f: &Fetched) -> Option<LeafSnapshot> {
        let l = self.layout;
        let leads = (0..l.span).map(|i| l.entry_off(i));
        let nv = f.check_nv(std::iter::once(header::VER).chain(leads))?;
        if !f.check_ev(0, header::SIZE) {
            return None;
        }
        for i in 0..l.span {
            let off = l.entry_off(i);
            if !f.check_ev(off, off + l.entry_size()) {
                return None;
            }
        }
        let count = f.u16_at(header::COUNT) as usize;
        if count > l.span {
            return None;
        }
        let mut keys = Vec::with_capacity(count);
        let mut values = Vec::with_capacity(count);
        let mut evs = Vec::with_capacity(l.span);
        for i in 0..l.span {
            let off = l.entry_off(i);
            evs.push(ev(f.get(off)));
            if i < count {
                keys.push(f.u64_at(off + 1));
                values.push(f.copy(off + 9, l.value_size));
            }
        }
        // A torn count/shift can momentarily break sortedness; retry.
        if keys.windows(2).any(|p| p[0] >= p[1]) {
            return None;
        }
        Some(LeafSnapshot {
            keys,
            values,
            evs,
            header_ev: ev(f.get(header::VER)),
            nv,
            sibling: GlobalAddr::from_raw(f.u64_at(header::SIBLING)),
            valid: f.get(header::VALID) != 0,
            fences: (f.u64_at(header::FENCE_LOW), f.u64_at(header::FENCE_HIGH)),
        })
    }

    /// Reads and validates the whole leaf (the Sherman search path)
    /// through the client's READ buffers `reads`, retrying a torn image.
    pub fn read(&self, ep: &mut Endpoint, addr: GlobalAddr, reads: &mut Fetches) -> LeafSnapshot {
        read_node(ep, &self.layout.versioned(), addr, reads, |f, _| self.parse(f))
    }

    /// Batched whole-leaf reads (scans): one doorbell per round, a round
    /// re-reading only the torn leaves.
    pub fn read_batch(&self, ep: &mut Endpoint, addrs: &[GlobalAddr], reads: &mut Fetches) -> Vec<LeafSnapshot> {
        let mut out = Vec::with_capacity(addrs.len());
        let layout = self.layout.versioned();
        read_nodes(ep, &layout, addrs, addrs.len() as u64, reads, &mut out, |f, _| self.parse(f));
        out
    }

    /// Acquires the leaf lock with [`chime::lockword::acquire`].
    ///
    /// Its retries back off with seeded jitter where the paper spins, which
    /// convoys under contention; the backoff only charges the virtual clock
    /// on an actual retry, so uncontended acquisitions are byte-identical
    /// to the bare loop.
    pub fn lock(&self, ep: &mut Endpoint, addr: GlobalAddr) {
        let _held = lockword::acquire(ep, addr.add(self.layout.lock_off() as u64), 0);
    }

    /// Releases the leaf lock with a plain WRITE.
    pub fn unlock(&self, ep: &mut Endpoint, addr: GlobalAddr) {
        ep.write(addr.add(self.layout.lock_off() as u64), &0u64.to_le_bytes());
    }

    fn entry_image(&self, nv: u8, entry_ev: u8, key: u64, value: &[u8]) -> Vec<u8> {
        let l = self.layout;
        let mut b = vec![0u8; l.entry_size()];
        b[0] = pack_ver(nv, entry_ev);
        b[1..9].copy_from_slice(&key.to_le_bytes());
        b[9..9 + value.len().min(l.value_size)]
            .copy_from_slice(&value[..value.len().min(l.value_size)]);
        b
    }

    fn header_bytes(&self, nv: u8, header_ev: u8, snap: &LeafSnapshot, count: usize) -> Vec<u8> {
        let mut b = vec![0u8; header::SIZE];
        b[header::VER] = pack_ver(nv, header_ev);
        b[header::SIBLING..header::SIBLING + 8].copy_from_slice(&snap.sibling.raw().to_le_bytes());
        b[header::VALID] = snap.valid as u8;
        b[header::FENCE_LOW..header::FENCE_LOW + 8].copy_from_slice(&snap.fences.0.to_le_bytes());
        b[header::FENCE_HIGH..header::FENCE_HIGH + 8].copy_from_slice(&snap.fences.1.to_le_bytes());
        b[header::COUNT..header::COUNT + 2].copy_from_slice(&(count as u16).to_le_bytes());
        b
    }

    /// Writes one updated entry and releases the lock (update path).
    pub fn write_entry_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        snap: &LeafSnapshot,
        idx: usize,
        value: &[u8],
    ) {
        let l = self.layout;
        let e = bump(snap.evs[idx]);
        let bytes = self.entry_image(snap.nv, e, snap.keys[idx], value);
        let (pstart, phys) =
            l.versioned()
                .build_phys(l.entry_off(idx), &bytes, |_| pack_ver(snap.nv, e));
        ep.write_batch(&[
            (addr.add(pstart as u64), &phys),
            (addr.add(l.lock_off() as u64), &0u64.to_le_bytes()),
        ]);
    }

    /// Writes back entries `[from..count]` (post-shift suffix) plus the
    /// header, and releases the lock, in one doorbell batch (insert/delete).
    #[allow(clippy::too_many_arguments)]
    pub fn write_suffix_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        snap: &LeafSnapshot,
        from: usize,
        keys: &[u64],
        values: &[Vec<u8>],
    ) {
        let l = self.layout;
        let count = keys.len();
        assert!(count <= l.span && from <= count);
        // Suffix image with bumped EVs for every rewritten slot. Slots that
        // shrank away (delete) are rewritten with key 0.
        let touched_end = count.max(snap.keys.len());
        let mut data = Vec::new();
        let mut vers: Vec<u8> = vec![0; l.span.max(1)];
        for i in from..touched_end {
            let e = bump(snap.evs[i]);
            vers[i] = e;
            if i < count {
                data.extend_from_slice(&self.entry_image(snap.nv, e, keys[i], &values[i]));
            } else {
                data.extend_from_slice(&self.entry_image(snap.nv, e, 0, &[]));
            }
        }
        let hev = bump(snap.header_ev);
        let hdr = self.header_bytes(snap.nv, hev, snap, count);
        let (hp, hphys) = l.versioned().build_phys(0, &hdr, |p| {
            if p < header::SIZE {
                pack_ver(snap.nv, hev)
            } else {
                pack_ver(snap.nv, 0)
            }
        });
        let mut batch: Vec<(GlobalAddr, Vec<u8>)> = vec![(addr.add(hp as u64), hphys)];
        if from < touched_end {
            let (sp, sphys) = l.versioned().build_phys(l.entry_off(from), &data, |p| {
                let i = if p < header::SIZE {
                    0
                } else {
                    (p - header::SIZE) / l.entry_size()
                };
                pack_ver(snap.nv, vers.get(i).copied().unwrap_or(0))
            });
            batch.push((addr.add(sp as u64), sphys));
        }
        batch.push((addr.add(l.lock_off() as u64), 0u64.to_le_bytes().to_vec()));
        let refs: Vec<(GlobalAddr, &[u8])> = batch.iter().map(|(a, b)| (*a, &b[..])).collect();
        ep.write_batch(&refs);
    }

    /// Inserts `(key, value)` at sorted position `i`, or removes entry `i`
    /// when `entry` is `None`, then writes back the shifted suffix and the
    /// header and releases the lock ([`Self::write_suffix_and_unlock`]).
    pub fn splice_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        snap: &LeafSnapshot,
        i: usize,
        entry: Option<(u64, Vec<u8>)>,
    ) {
        let mut keys = snap.keys.clone();
        let mut values = snap.values.clone();
        match entry {
            Some((key, value)) => {
                keys.insert(i, key);
                values.insert(i, value);
            }
            None => {
                keys.remove(i);
                values.remove(i);
            }
        }
        self.write_suffix_and_unlock(ep, addr, snap, i, &keys, &values);
    }

    /// Serializes and writes a whole node (new nodes: plain write; split
    /// rewrites: NV bumped, lock released).
    #[allow(clippy::too_many_arguments)]
    pub fn write_full(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        nv: u8,
        keys: &[u64],
        values: &[Vec<u8>],
        sibling: GlobalAddr,
        fences: (u64, u64),
        unlock: bool,
    ) {
        let l = self.layout;
        assert!(keys.len() <= l.span);
        let mut data = vec![0u8; l.payload_len()];
        let snap_hdr = LeafSnapshot {
            keys: vec![],
            values: vec![],
            evs: vec![],
            header_ev: 0,
            nv,
            sibling,
            valid: true,
            fences,
        };
        data[..header::SIZE].copy_from_slice(&self.header_bytes(nv, 0, &snap_hdr, keys.len()));
        for (i, k) in keys.iter().enumerate() {
            let off = l.entry_off(i);
            let b = self.entry_image(nv, 0, *k, &values[i]);
            data[off..off + b.len()].copy_from_slice(&b);
        }
        for i in keys.len()..l.span {
            data[l.entry_off(i)] = pack_ver(nv, 0);
        }
        let (pstart, phys) = l.versioned().build_phys(0, &data, |_| pack_ver(nv, 0));
        if unlock {
            ep.write_batch(&[
                (addr.add(pstart as u64), &phys),
                (addr.add(l.lock_off() as u64), &0u64.to_le_bytes()),
            ]);
        } else {
            ep.write(addr.add(pstart as u64), &phys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem::node::RESERVED_BYTES;
    use dmem::Pool;

    fn setup() -> (Endpoint, ShermanLeafOps, GlobalAddr) {
        let pool = Pool::with_defaults(1, 4 << 20);
        let ops = ShermanLeafOps {
            layout: ShermanLeafLayout {
                span: 16,
                value_size: 8,
            },
        };
        (Endpoint::new(pool), ops, GlobalAddr::new(0, RESERVED_BYTES))
    }

    fn v(k: u64) -> Vec<u8> {
        k.to_le_bytes().to_vec()
    }

    #[test]
    fn write_full_then_read() {
        let (mut ep, ops, addr) = setup();
        let keys: Vec<u64> = (1..=10).map(|k| k * 5).collect();
        let values: Vec<Vec<u8>> = keys.iter().map(|&k| v(k)).collect();
        ops.write_full(
            &mut ep,
            addr,
            0,
            &keys,
            &values,
            GlobalAddr::NULL,
            (0, u64::MAX),
            false,
        );
        let snap = ops.read(&mut ep, addr, &mut Fetches::default());
        assert_eq!(snap.keys, keys);
        assert_eq!(snap.values, values);
        assert!(snap.valid);
        assert_eq!(snap.fences, (0, u64::MAX));
        assert_eq!(snap.find(25).unwrap().0, 4);
        assert!(snap.find(26).is_none());
    }

    #[test]
    fn entry_update_bumps_ev_only() {
        let (mut ep, ops, addr) = setup();
        let keys: Vec<u64> = (1..=10).collect();
        let values: Vec<Vec<u8>> = keys.iter().map(|&k| v(k)).collect();
        ops.write_full(&mut ep, addr, 0, &keys, &values, GlobalAddr::NULL, (0, u64::MAX), false);
        let snap = ops.read(&mut ep, addr, &mut Fetches::default());
        ops.lock(&mut ep, addr);
        ops.write_entry_and_unlock(&mut ep, addr, &snap, 3, &v(999));
        let snap2 = ops.read(&mut ep, addr, &mut Fetches::default());
        assert_eq!(snap2.nv, snap.nv, "entry write must not bump NV");
        assert_eq!(snap2.evs[3], bump(snap.evs[3]));
        assert_eq!(snap2.values[3], v(999));
        assert_eq!(snap2.values[2], v(3));
    }

    #[test]
    fn suffix_insert_shifts_right() {
        let (mut ep, ops, addr) = setup();
        let keys: Vec<u64> = vec![10, 20, 30, 40];
        let values: Vec<Vec<u8>> = keys.iter().map(|&k| v(k)).collect();
        ops.write_full(&mut ep, addr, 0, &keys, &values, GlobalAddr::NULL, (0, u64::MAX), false);
        let snap = ops.read(&mut ep, addr, &mut Fetches::default());
        // Insert 25 at position 2.
        ops.lock(&mut ep, addr);
        ops.splice_and_unlock(&mut ep, addr, &snap, 2, Some((25, v(25))));
        let snap2 = ops.read(&mut ep, addr, &mut Fetches::default());
        assert_eq!(snap2.keys, vec![10, 20, 25, 30, 40]);
        assert_eq!(snap2.values[2], v(25));
        assert_eq!(snap2.values[4], v(40));
    }

    #[test]
    fn suffix_delete_shifts_left() {
        let (mut ep, ops, addr) = setup();
        let keys: Vec<u64> = vec![10, 20, 30, 40];
        let values: Vec<Vec<u8>> = keys.iter().map(|&k| v(k)).collect();
        ops.write_full(&mut ep, addr, 0, &keys, &values, GlobalAddr::NULL, (0, u64::MAX), false);
        let snap = ops.read(&mut ep, addr, &mut Fetches::default());
        ops.lock(&mut ep, addr);
        ops.splice_and_unlock(&mut ep, addr, &snap, 1, None);
        let snap2 = ops.read(&mut ep, addr, &mut Fetches::default());
        assert_eq!(snap2.keys, vec![10, 30, 40]);
    }

    #[test]
    fn batched_reads_one_rtt() {
        let (mut ep, ops, addr) = setup();
        let addr2 = GlobalAddr::new(0, RESERVED_BYTES + 4096);
        for (a, base) in [(addr, 10u64), (addr2, 100u64)] {
            let keys: Vec<u64> = (1..=5).map(|k| base + k).collect();
            let values: Vec<Vec<u8>> = keys.iter().map(|&k| v(k)).collect();
            ops.write_full(&mut ep, a, 0, &keys, &values, GlobalAddr::NULL, (0, u64::MAX), false);
        }
        let before = ep.stats().rtts;
        let snaps = ops.read_batch(&mut ep, &[addr, addr2], &mut Fetches::default());
        assert_eq!(ep.stats().rtts, before + 1);
        assert_eq!(snaps[0].keys[0], 11);
        assert_eq!(snaps[1].keys[0], 101);
    }

    #[test]
    fn lock_mutual_exclusion() {
        let (mut ep, ops, addr) = setup();
        ops.write_full(&mut ep, addr, 0, &[], &[], GlobalAddr::NULL, (0, u64::MAX), false);
        ops.lock(&mut ep, addr);
        let lock_addr = addr.add(ops.layout.lock_off() as u64);
        assert_eq!(lockword::try_acquire(&mut ep, lock_addr, 0, &mut []) & 1, 1);
        ops.unlock(&mut ep, addr);
    }

    #[test]
    fn uncontended_lock_is_one_atomic_without_backoff() {
        let (mut ep, ops, addr) = setup();
        let (before, clock) = (ep.stats().clone(), ep.clock_ns());
        ops.lock(&mut ep, addr);
        let d = ep.stats().since(&before);
        assert_eq!((d.rtts, d.atomics, d.lock_retries), (1, 1, 0));
        assert_eq!(ep.clock_ns() - clock, ep.pool().net().verb_latency_ns(1, d.wire_bytes));
    }

    #[test]
    fn lock_counts_each_conflict_as_a_lock_retry() {
        // The first two masked CASes report the lock held.
        let mut plan = dmem::FaultPlan::seeded(1);
        let mut rule = dmem::FaultRule::always("held", Some(dmem::VerbKind::MaskedCas), dmem::FaultAction::FailCas);
        rule.max_fires = 2;
        plan.rules.push(rule);
        let session = std::sync::Arc::new(dmem::FaultSession::new(plan));
        let (ep, ops, addr) = setup();
        let mut ep = Endpoint::with_faults(std::sync::Arc::clone(ep.pool()), session, 0);
        ops.lock(&mut ep, addr);
        assert_eq!((ep.stats().lock_retries, ep.stats().atomics), (2, 3));
        let lock_addr = addr.add(ops.layout.lock_off() as u64);
        assert_eq!(lockword::try_acquire(&mut ep, lock_addr, 0, &mut []) & 1, 1, "held");
    }

    /// A leaf torn by a stalled node write — its second line already on the
    /// next node version — holds its reader in the retry loop, which counts
    /// each torn image, until the write completes; the reader then returns
    /// the written leaf.
    #[test]
    #[allow(clippy::disallowed_methods, reason = "the reader must spin on a real stall")]
    fn read_retries_a_torn_leaf_until_healed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (mut ep, ops, addr) = setup();
        let (old, new): (Vec<u64>, Vec<u64>) = ((1..=4).collect(), (11..=16).collect());
        let values = |keys: &[u64]| keys.iter().map(|&k| v(k)).collect::<Vec<_>>();
        let fences = (0, u64::MAX);
        ops.write_full(&mut ep, addr, 0, &old, &values(&old), GlobalAddr::NULL, fences, false);
        ops.layout
            .versioned()
            .write(&mut ep, addr, 63, &[0xAB; 63], |_| pack_ver(1, 0));
        let healed = Arc::new(AtomicBool::new(false));
        let reader = {
            let pool = Arc::clone(ep.pool());
            let healed = Arc::clone(&healed);
            std::thread::spawn(move || {
                let mut ep = Endpoint::new(pool);
                let snap = ops.read(&mut ep, addr, &mut Fetches::default());
                assert!(healed.load(Ordering::SeqCst), "reader accepted a torn leaf");
                (snap.keys, ep.stats().torn_reads_detected)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(!reader.is_finished(), "the torn leaf must force retries");
        healed.store(true, Ordering::SeqCst);
        ops.write_full(&mut ep, addr, 1, &new, &values(&new), GlobalAddr::NULL, fences, false);
        let (keys, torn_reads) = reader.join().unwrap();
        assert_eq!(keys, new);
        assert!(torn_reads > 0, "the retries must be counted as torn reads");
    }
}
