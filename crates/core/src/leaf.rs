//! Remote operations on hopscotch leaf nodes.
//!
//! This module turns the geometric layout of [`crate::layout::LeafLayout`]
//! into verb sequences: neighborhood reads with the full three-level
//! optimistic validation (NV / EV / reused hopscotch bitmaps), speculative
//! single-entry reads, lock acquisition with vacancy-bitmap piggybacking,
//! group-aligned hop-range reads, minimal dirty-range write-back, and
//! whole-node reads/writes for splits and sibling chases.

use dmem::hash::home_entry;
use dmem::versioned::{bump, ev, pack_ver, Fetched};
use dmem::{Endpoint, GlobalAddr};

use crate::backoff::Backoff;
use crate::hopscotch::{cyc_dist, Window};
use crate::layout::{entry_field, replica_field, LeafLayout};
use crate::lockword::{LockWord, VacancyMap, ARGMAX_NONE};

/// Crash-point label hit immediately after a leaf lock is acquired (the
/// moment a dying client leaves a stale lock behind).
pub const CRASH_LEAF_LOCKED: &str = "leaf.lock.acquired";

/// Crash-point label hit just before a locked mutation publishes its write
/// batch (content + unlock): a crash here leaves the node content untouched
/// but the lock stale.
pub const CRASH_LEAF_WRITE_BACK: &str = "leaf.write_back";

/// Leaf metadata carried by every replica (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafMeta {
    /// Right sibling leaf.
    pub sibling: GlobalAddr,
    /// Deleted-state flag.
    pub valid: bool,
    /// Fence keys (present only when sibling validation is disabled).
    pub fences: Option<(u64, u64)>,
}

/// Outcome of a validated neighborhood read.
#[derive(Debug)]
pub struct NbhRead {
    /// Leaf metadata from the covered replica.
    pub meta: LeafMeta,
    /// `(entry index, value)` when the key was found.
    pub found: Option<(usize, Vec<u8>)>,
}

/// A consistent whole-leaf snapshot.
#[derive(Debug)]
pub struct LeafSnapshot {
    /// Per-entry keys (0 = empty).
    pub keys: Vec<u64>,
    /// Per-entry values.
    pub values: Vec<Vec<u8>>,
    /// Per-entry hopscotch bitmaps.
    pub bitmaps: Vec<u16>,
    /// Per-entry entry-level versions.
    pub evs: Vec<u8>,
    /// Node-level version.
    pub nv: u8,
    /// Leaf metadata.
    pub meta: LeafMeta,
}

impl LeafSnapshot {
    /// Looks `key` up via its home entry's bitmap.
    pub fn find(&self, key: u64, h: usize) -> Option<(usize, &[u8])> {
        let span = self.keys.len();
        let home = home_entry(key, span);
        let bm = self.bitmaps[home];
        (0..h)
            .filter(|&d| bm & (1 << d) != 0)
            .map(|d| (home + d) % span)
            .find(|&p| self.keys[p] == key)
            .map(|p| (p, &self.values[p][..]))
    }

    /// The maximum stored key, if any.
    pub fn max_key(&self) -> Option<u64> {
        self.keys.iter().copied().filter(|&k| k != 0).max()
    }

    /// Entry index of the maximum key (`ARGMAX_NONE` when empty).
    pub fn argmax(&self) -> u16 {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != 0)
            .max_by_key(|(_, &k)| k)
            .map(|(i, _)| i as u16)
            .unwrap_or(ARGMAX_NONE)
    }

    /// All `(key, value)` items, unsorted.
    pub fn items(&self) -> Vec<(u64, Vec<u8>)> {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(&k, _)| k != 0)
            .map(|(&k, v)| (k, v.clone()))
            .collect()
    }

    /// Converts the snapshot into a full-span hopscotch window.
    pub fn into_window(self, h: usize) -> (Window, Vec<u8>) {
        let span = self.keys.len();
        let mut w = Window::new(span, h, 0, span);
        for i in 0..span {
            w.set_slot(i, self.keys[i], self.values[i].clone(), self.bitmaps[i]);
        }
        (w, self.evs)
    }
}

/// A window read performed while holding the node lock.
#[derive(Debug)]
pub struct LockedRead {
    /// The covered entries as a mutable hopscotch window.
    pub w: Window,
    /// Per-entry EVs, window-relative.
    pub evs: Vec<u8>,
    /// Node-level version.
    pub nv: u8,
    /// Leaf metadata from a covered replica.
    pub meta: LeafMeta,
    /// Value of the node's maximum key (`None` when the node is empty),
    /// fetched via the lock word's `argmax_keys` in the same doorbell.
    pub max_key: Option<u64>,
}

/// Remote leaf operations for one leaf geometry.
#[derive(Debug, Clone, Copy)]
pub struct LeafOps {
    /// Node geometry.
    pub layout: LeafLayout,
    /// Vacancy-group mapping.
    pub vm: VacancyMap,
    /// Consecutive failed lock-CAS attempts observing an identical locked
    /// word before the waiter reclaims the lock via the lease epoch
    /// (0 = never reclaim). See [`crate::config::ChimeConfig::lock_lease_spins`].
    pub lease_spins: u32,
}

/// Which object a logical payload offset belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Object {
    Replica(usize),
    Entry(usize),
}

impl LeafOps {
    /// Creates the ops for `layout` (lock reclamation disabled).
    pub fn new(layout: LeafLayout) -> Self {
        LeafOps {
            layout,
            vm: VacancyMap::new(layout.span),
            lease_spins: 0,
        }
    }

    /// Returns the ops with stale-lock reclamation after `spins` identical
    /// observations of a locked word (0 disables it).
    pub fn with_lease_spins(mut self, spins: u32) -> Self {
        self.lease_spins = spins;
        self
    }

    /// Leaf metadata for this layout: the `(low, high)` fence keys are kept
    /// only when the layout stores fences (sibling validation disabled).
    pub fn meta(&self, sibling: GlobalAddr, valid: bool, fences: (u64, u64)) -> LeafMeta {
        LeafMeta {
            sibling,
            valid,
            fences: self.layout.fences.then_some(fences),
        }
    }

    fn object_at(&self, l: usize) -> Object {
        let e = self.layout.entry_size();
        let r = self.layout.replica_size();
        if self.layout.replication {
            let block = r + self.layout.h * e;
            let b = l / block;
            let within = l % block;
            if within < r {
                Object::Replica(b)
            } else {
                Object::Entry(b * self.layout.h + (within - r) / e)
            }
        } else if l < r {
            Object::Replica(0)
        } else {
            Object::Entry((l - r) / e)
        }
    }

    // ----- parsing ---------------------------------------------------------

    fn parse_meta(&self, fetch: &Fetched, replica_off: usize) -> LeafMeta {
        LeafMeta {
            sibling: GlobalAddr::from_raw(fetch.u64_at(replica_off + replica_field::SIBLING)),
            valid: fetch.get(replica_off + replica_field::VALID) != 0,
            fences: self.layout.fences.then(|| {
                (
                    fetch.u64_at(replica_off + replica_field::FENCE_LOW),
                    fetch.u64_at(replica_off + replica_field::FENCE_LOW + self.layout.key_size),
                )
            }),
        }
    }

    fn entry_key(&self, fetch: &Fetched, i: usize) -> u64 {
        fetch.u64_at(self.layout.entry_off(i) + entry_field::KEY)
    }

    fn entry_bitmap(&self, fetch: &Fetched, i: usize) -> u16 {
        fetch.u16_at(self.layout.entry_off(i) + entry_field::BITMAP)
    }

    fn entry_value(&self, fetch: &Fetched, i: usize) -> Vec<u8> {
        let off = self.layout.entry_off(i) + entry_field::KEY + self.layout.key_size;
        fetch.copy(off, self.layout.value_size)
    }

    fn entry_ev(&self, fetch: &Fetched, i: usize) -> u8 {
        ev(fetch.get(self.layout.entry_off(i)))
    }

    /// Serializes one entry into its logical bytes.
    fn entry_bytes(&self, nv: u8, entry_ev: u8, bitmap: u16, key: u64, value: &[u8]) -> Vec<u8> {
        let mut b = vec![0u8; self.layout.entry_size()];
        b[entry_field::VER] = pack_ver(nv, entry_ev);
        b[entry_field::BITMAP..entry_field::BITMAP + 2].copy_from_slice(&bitmap.to_le_bytes());
        b[entry_field::KEY..entry_field::KEY + 8].copy_from_slice(&key.to_le_bytes());
        let voff = entry_field::KEY + self.layout.key_size;
        b[voff..voff + value.len().min(self.layout.value_size)]
            .copy_from_slice(&value[..value.len().min(self.layout.value_size)]);
        b
    }

    fn replica_bytes(&self, nv: u8, meta: &LeafMeta) -> Vec<u8> {
        let mut b = vec![0u8; self.layout.replica_size()];
        b[replica_field::VER] = pack_ver(nv, 0);
        b[replica_field::SIBLING..replica_field::SIBLING + 8]
            .copy_from_slice(&meta.sibling.raw().to_le_bytes());
        b[replica_field::VALID] = meta.valid as u8;
        if let Some((lo, hi)) = meta.fences {
            assert!(self.layout.fences);
            let o = replica_field::FENCE_LOW;
            b[o..o + 8].copy_from_slice(&lo.to_le_bytes());
            let o = o + self.layout.key_size;
            b[o..o + 8].copy_from_slice(&hi.to_le_bytes());
        }
        b
    }

    /// Entries fully covered by logical `[a, b)`.
    fn entries_in(&self, a: usize, b: usize) -> Vec<usize> {
        (0..self.layout.span)
            .filter(|&i| {
                let off = self.layout.entry_off(i);
                off >= a && off + self.layout.entry_size() <= b
            })
            .collect()
    }

    /// Checks NV uniformity across all fetched pieces; returns the NV.
    fn check_all_nv(&self, pieces: &[Fetched]) -> Option<u8> {
        let mut expect = None;
        for p in pieces {
            let mut leads: Vec<usize> = self
                .entries_in(p.lstart(), p.lend())
                .iter()
                .map(|&i| self.layout.entry_off(i))
                .collect();
            for b in self.layout.replicas_in(p.lstart(), p.lend()) {
                leads.push(self.layout.replica_off(b));
            }
            let nv = p.check_nv(&leads)?;
            match expect {
                None => expect = Some(nv),
                Some(e) if e != nv => return None,
                _ => {}
            }
        }
        expect
    }

    /// Checks EV consistency of every entry covered by every piece.
    fn check_all_ev(&self, pieces: &[Fetched]) -> bool {
        pieces.iter().all(|p| {
            self.entries_in(p.lstart(), p.lend()).iter().all(|&i| {
                let off = self.layout.entry_off(i);
                p.check_ev(off, off + self.layout.entry_size())
            })
        })
    }

    /// Finds the piece covering entry `i`.
    fn piece_for<'a>(&self, pieces: &'a [Fetched], i: usize) -> &'a Fetched {
        let off = self.layout.entry_off(i);
        pieces
            .iter()
            .find(|p| off >= p.lstart() && off + self.layout.entry_size() <= p.lend())
            .expect("entry not covered by fetch")
    }

    /// First covered replica across pieces.
    fn meta_from(&self, pieces: &[Fetched]) -> Option<LeafMeta> {
        for p in pieces {
            if let Some(&b) = self.layout.replicas_in(p.lstart(), p.lend()).first() {
                return Some(self.parse_meta(p, self.layout.replica_off(b)));
            }
        }
        None
    }

    // ----- lock-free reads -------------------------------------------------

    /// Validated neighborhood read for `key` (the paper's search fast path).
    ///
    /// Retries internally on torn reads or observed intermediate hop states
    /// (third-level bitmap check).
    pub fn read_neighborhood(&self, ep: &mut Endpoint, addr: GlobalAddr, key: u64) -> NbhRead {
        let span = self.layout.span;
        let h = self.layout.h;
        let home = home_entry(key, span);
        let mut ranges = self.layout.neighborhood_ranges(home);
        if !self.layout.replication {
            // Dedicated leaf-metadata access (Fig. 4b), same doorbell.
            ranges.push((0, self.layout.replica_size()));
        }
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ addr.raw());
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "neighborhood read livelock at {addr:?}");
            let pieces = self.layout.versioned().fetch_many(ep, addr, &ranges);
            if self.check_all_nv(&pieces).is_none() || !self.check_all_ev(&pieces) {
                ep.note_torn_read();
                backoff.wait(ep);
                continue;
            }
            let meta = self.meta_from(&pieces).expect("no replica covered");
            // Third level: reconstruct the home bitmap from actual keys.
            let hp = self.piece_for(&pieces, home);
            let bm = self.entry_bitmap(hp, home);
            let mut consistent = true;
            let mut found = None;
            for d in 0..h {
                if bm & (1 << d) == 0 {
                    continue;
                }
                let pos = (home + d) % span;
                let p = self.piece_for(&pieces, pos);
                let k = self.entry_key(p, pos);
                if k == 0 || home_entry(k, span) != home {
                    consistent = false;
                    break;
                }
                if k == key {
                    found = Some((pos, self.entry_value(p, pos)));
                }
            }
            if !consistent {
                ep.note_torn_read();
                backoff.wait(ep);
                continue;
            }
            return NbhRead { meta, found };
        }
    }

    /// Speculative single-entry read (§4.3). Returns the value if the entry
    /// is EV-consistent and holds `key`; `None` sends the caller down the
    /// normal neighborhood path.
    pub fn spec_read(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        idx: usize,
        key: u64,
    ) -> Option<Vec<u8>> {
        let off = self.layout.entry_off(idx);
        for _ in 0..3 {
            let f =
                self.layout
                    .versioned()
                    .fetch(ep, addr, off, off + self.layout.entry_size());
            if !f.check_ev(off, off + self.layout.entry_size()) {
                ep.note_torn_read();
                continue;
            }
            if self.entry_key(&f, idx) == key {
                return Some(self.entry_value(&f, idx));
            }
            return None;
        }
        None
    }

    /// Whole-leaf read with full validation (chases, scans).
    pub fn read_full(&self, ep: &mut Endpoint, addr: GlobalAddr) -> LeafSnapshot {
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ addr.raw());
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "full leaf read livelock at {addr:?}");
            let pieces = self
                .layout
                .versioned()
                .fetch_many(ep, addr, &[(0, self.layout.payload_len())]);
            if let Some(nv) = self.check_all_nv(&pieces) {
                if self.check_all_ev(&pieces) {
                    let snap = self.snapshot_from(&pieces[0], nv);
                    if self.bitmaps_consistent(&snap) {
                        return snap;
                    }
                }
            }
            ep.note_torn_read();
            backoff.wait(ep);
        }
    }

    /// Whole-leaf reads of several nodes with one doorbell batch per round;
    /// torn leaves are re-fetched in follow-up rounds (scans).
    pub fn read_full_batch(&self, ep: &mut Endpoint, addrs: &[GlobalAddr]) -> Vec<LeafSnapshot> {
        let n = addrs.len();
        let mut out: Vec<Option<LeafSnapshot>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ n as u64);
        while !pending.is_empty() {
            spins += 1;
            assert!(spins < 1_000_000, "batched leaf read livelock");
            if spins > 1 {
                backoff.wait(ep);
            }
            // One READ per pending leaf, all in one doorbell batch.
            let full = (0usize, self.layout.payload_len());
            let mut bufs: Vec<Vec<Fetched>> = Vec::with_capacity(pending.len());
            {
                // fetch_many targets a single node; issue per-node fetches
                // but charge one round-trip by batching at the verb layer.
                let layout = self.layout.versioned();
                let mut raw: Vec<(GlobalAddr, Vec<u8>)> = pending
                    .iter()
                    .map(|&i| {
                        let ps = layout.phys_start(full.0);
                        let pe = layout.phys_of(full.1 - 1) + 1;
                        (addrs[i].add(ps as u64), vec![0u8; pe - ps])
                    })
                    .collect();
                {
                    let mut reqs: Vec<(GlobalAddr, &mut [u8])> = raw
                        .iter_mut()
                        .map(|(a, b)| (*a, &mut b[..]))
                        .collect();
                    ep.read_batch(&mut reqs);
                }
                for (_, buf) in raw {
                    bufs.push(vec![layout.from_raw(full.0, full.1, buf)]);
                }
            }
            let mut still = Vec::new();
            for (slot, pieces) in pending.iter().zip(bufs.iter()) {
                let ok = self.check_all_nv(pieces).is_some() && self.check_all_ev(pieces);
                if ok {
                    let nv = self.check_all_nv(pieces).unwrap();
                    let snap = self.snapshot_from(&pieces[0], nv);
                    if self.bitmaps_consistent(&snap) {
                        out[*slot] = Some(snap);
                        continue;
                    }
                }
                ep.note_torn_read();
                still.push(*slot);
            }
            pending = still;
        }
        out.into_iter().map(|s| s.unwrap()).collect()
    }

    fn snapshot_from(&self, f: &Fetched, nv: u8) -> LeafSnapshot {
        let span = self.layout.span;
        let mut snap = LeafSnapshot {
            keys: Vec::with_capacity(span),
            values: Vec::with_capacity(span),
            bitmaps: Vec::with_capacity(span),
            evs: Vec::with_capacity(span),
            nv,
            meta: self.parse_meta(f, self.layout.replica_off(0)),
        };
        for i in 0..span {
            snap.keys.push(self.entry_key(f, i));
            snap.values.push(self.entry_value(f, i));
            snap.bitmaps.push(self.entry_bitmap(f, i));
            snap.evs.push(self.entry_ev(f, i));
        }
        snap
    }

    /// Full bitmap/occupancy cross-check of a snapshot.
    fn bitmaps_consistent(&self, s: &LeafSnapshot) -> bool {
        let span = self.layout.span;
        // Every claimed slot holds a key homed there...
        for i in 0..span {
            for d in 0..16 {
                if s.bitmaps[i] & (1 << d) != 0 {
                    let pos = (i + d) % span;
                    if s.keys[pos] == 0 || home_entry(s.keys[pos], span) != i {
                        return false;
                    }
                }
            }
        }
        // ...and every key is claimed by its home.
        for (pos, &k) in s.keys.iter().enumerate() {
            if k != 0 {
                let hm = home_entry(k, span);
                let d = cyc_dist(hm, pos, span);
                if d >= 16 || s.bitmaps[hm] & (1 << d) == 0 {
                    return false;
                }
            }
        }
        true
    }

    // ----- locking ---------------------------------------------------------

    /// Acquires the lock word at `lock_addr`, counting retries, backing off
    /// exponentially and — when `lease_spins > 0` — reclaiming a stale lock
    /// whose word stayed bit-identical across that many failed attempts:
    /// the holder is presumed dead and a full-word CAS bumps the lease
    /// epoch while keeping the lock bit set, transferring ownership to us.
    fn acquire(&self, ep: &mut Endpoint, addr: GlobalAddr, lock_addr: GlobalAddr) -> LockWord {
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ lock_addr.raw());
        let mut observed = 0u64;
        let mut unchanged = 0u32;
        loop {
            let old = ep.masked_cas(lock_addr, 0, 1, 1, 1);
            if old & 1 == 0 {
                ep.crash_point(CRASH_LEAF_LOCKED);
                return LockWord(old);
            }
            ep.note_lock_retry();
            if self.lease_spins > 0 {
                if old == observed {
                    unchanged += 1;
                } else {
                    observed = old;
                    unchanged = 0;
                }
                if unchanged >= self.lease_spins {
                    // A live holder would have released (or at least changed
                    // the word) by now; take over. The full-word compare
                    // makes the takeover race-free: a concurrent release
                    // clears the lock bit, a concurrent reclaimer bumps the
                    // epoch — either way our CAS fails harmlessly.
                    let next = LockWord(old).reclaimed();
                    if ep.cas(lock_addr, old, next.0) == old {
                        ep.note_stale_lock_reclaimed();
                        ep.crash_point(CRASH_LEAF_LOCKED);
                        return next;
                    }
                    unchanged = 0;
                }
            }
            spins += 1;
            backoff.wait(ep);
            assert!(spins < 10_000_000, "leaf lock livelock at {addr:?}");
        }
    }

    /// Acquires the leaf lock, returning the piggybacked lock word
    /// (vacancy bitmap + argmax). With piggybacking disabled this costs an
    /// extra READ for the separate vacancy word.
    pub fn lock(&self, ep: &mut Endpoint, addr: GlobalAddr) -> LockWord {
        let lock_addr = addr.add(self.layout.lock_off() as u64);
        let word = self.acquire(ep, addr, lock_addr);
        if self.layout.piggyback {
            return word;
        }
        // Dedicated vacancy-bitmap access (Fig. 4a).
        let mut b = [0u8; 8];
        ep.read(addr.add(self.layout.vacancy_off() as u64), &mut b);
        LockWord(u64::from_le_bytes(b))
    }

    /// The WRITEs releasing the lock and persisting `word` (vacancy +
    /// argmax, lock bit cleared), to append to a write batch.
    pub fn unlock_writes(&self, addr: GlobalAddr, word: LockWord) -> Vec<(GlobalAddr, Vec<u8>)> {
        let word = word.with_locked(false);
        let lock_addr = addr.add(self.layout.lock_off() as u64);
        if self.layout.piggyback {
            vec![(lock_addr, word.0.to_le_bytes().to_vec())]
        } else {
            // One contiguous 16-byte write covers lock + vacancy word.
            let mut b = Vec::with_capacity(16);
            b.extend_from_slice(&0u64.to_le_bytes());
            b.extend_from_slice(&word.0.to_le_bytes());
            vec![(lock_addr, b)]
        }
    }

    /// Acquires the leaf lock without fetching any vacancy metadata
    /// (the no-piggyback baseline locks and then reads the whole node).
    pub fn lock_plain(&self, ep: &mut Endpoint, addr: GlobalAddr) -> LockWord {
        let lock_addr = addr.add(self.layout.lock_off() as u64);
        self.acquire(ep, addr, lock_addr)
    }

    /// Releases the lock immediately (abort paths).
    pub fn unlock(&self, ep: &mut Endpoint, addr: GlobalAddr, word: LockWord) {
        let writes = self.unlock_writes(addr, word);
        let refs: Vec<(GlobalAddr, &[u8])> = writes.iter().map(|(a, b)| (*a, &b[..])).collect();
        ep.write_batch(&refs);
    }

    // ----- hop-range access (under lock) ------------------------------------

    /// Reads the group-aligned hop window for inserting a key with home
    /// entry `home`, given the piggybacked lock word. The window covers the
    /// hop candidates before `home`, the whole neighborhood (duplicate
    /// check) and everything up to the end of the first vacant group; the
    /// argmax entry rides along in the same doorbell batch. Returns `None`
    /// when the vacancy bitmap shows a full node.
    pub fn read_hop_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        home: usize,
        word: LockWord,
    ) -> Option<LockedRead> {
        let span = self.layout.span;
        let h = self.layout.h;
        let g = self.vm.first_vacant_group(word, home)?;
        let a0 = (home + span - (h - 1)) % span;
        let (_, ge) = self.vm.group_range(g);
        // Forward distance from home to the vacant group's end; always cover
        // the whole neighborhood (duplicate check).
        let d_e = cyc_dist(home, ge, span).max(h - 1);
        // Entries from a0 forward through the vacant group, plus group
        // alignment slack. If that wraps onto itself, read the whole table.
        let needed = (h - 1) + d_e + 1 + 2 * (self.vm.group_size() - 1);
        let (a, e) = if needed >= span {
            (0, span - 1)
        } else {
            self.vm.align_to_groups(a0, (home + d_e) % span)
        };
        Some(self.locked_read(ep, addr, a, e, word))
    }

    /// Reads the neighborhood window of `home` under the lock (updates and
    /// deletes), argmax entry included.
    pub fn read_nbh_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        home: usize,
        word: LockWord,
    ) -> LockedRead {
        let span = self.layout.span;
        let e = (home + self.layout.h - 1) % span;
        self.locked_read(ep, addr, home, e, word)
    }

    /// Reads the whole node under the lock (delete-of-max, split prep).
    pub fn read_full_locked(&self, ep: &mut Endpoint, addr: GlobalAddr, word: LockWord) -> LockedRead {
        self.locked_read(ep, addr, 0, self.layout.span - 1, word)
    }

    /// Reads cyclic entries `[a, e]` plus the argmax entry into a window
    /// (under lock; one doorbell batch).
    pub fn locked_read(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        a: usize,
        e: usize,
        word: LockWord,
    ) -> LockedRead {
        let span = self.layout.span;
        let mut ranges = self.layout.hop_ranges(a, e);
        if !self.layout.replication && !ranges.iter().any(|&(s, _)| s == 0) {
            // Dedicated leaf-metadata access (replication disabled).
            ranges.push((0, self.layout.replica_size()));
        }
        // Piggyback the argmax entry when it is outside the window.
        let argmax = word.argmax();
        let len = cyc_dist(a, e, span) + 1;
        let argmax_extra = argmax != ARGMAX_NONE
            && cyc_dist(a, argmax as usize % span, span) >= len;
        if argmax_extra {
            let off = self.layout.entry_off(argmax as usize);
            ranges.push((off, off + self.layout.entry_size()));
        }
        let pieces = self.layout.versioned().fetch_many(ep, addr, &ranges);
        // Under the lock no writer races us; the checks are sanity asserts.
        let nv = self
            .check_all_nv(&pieces)
            .expect("locked leaf read observed torn NV");
        assert!(
            self.check_all_ev(&pieces),
            "locked leaf read observed torn EV"
        );
        let meta = self.meta_from(&pieces).expect("no replica in hop range");
        let mut w = Window::new(span, self.layout.h, a, len);
        let mut evs = vec![0u8; len];
        for (r, ev) in evs.iter_mut().enumerate() {
            let i = (a + r) % span;
            let p = self.piece_for(&pieces, i);
            w.set_slot(i, self.entry_key(p, i), self.entry_value(p, i), self.entry_bitmap(p, i));
            *ev = self.entry_ev(p, i);
        }
        let max_key = if len == span {
            // Full-node window: compute the true maximum directly (also
            // covers the no-piggyback mode where argmax is unavailable).
            (0..span)
                .filter(|&i| !w.slot_empty(i))
                .map(|i| w.slot(i).0)
                .max()
        } else if argmax == ARGMAX_NONE {
            None
        } else {
            let i = argmax as usize % span;
            let p = self.piece_for(&pieces, i);
            Some(self.entry_key(p, i))
        };
        LockedRead {
            w,
            evs,
            nv,
            meta,
            max_key,
        }
    }

    /// Writes back the dirty part of a window, updates the lock word
    /// (vacancy + argmax) and releases the lock, all in one doorbell batch.
    ///
    /// Dirty entries get their EV bumped; clean entries inside the covering
    /// range are rewritten byte-identically.
    #[allow(clippy::too_many_arguments)]
    pub fn write_window_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        w: &Window,
        evs: &[u8],
        nv: u8,
        meta: &LeafMeta,
        word: LockWord,
    ) {
        ep.crash_point(CRASH_LEAF_WRITE_BACK);
        let span = self.layout.span;
        let dirty = w.dirty_slots();
        let mut writes: Vec<(GlobalAddr, Vec<u8>)> = Vec::new();
        if !dirty.is_empty() {
            // Contiguous (cyclic) cover of the dirty slots, in window space.
            let rmin = dirty
                .iter()
                .map(|&i| w.rel(i).unwrap())
                .min()
                .unwrap();
            let rmax = dirty
                .iter()
                .map(|&i| w.rel(i).unwrap())
                .max()
                .unwrap();
            let amin = (w.start() + rmin) % span;
            let amax = (w.start() + rmax) % span;
            let dirty_set: std::collections::HashSet<usize> = dirty.iter().copied().collect();
            for (s, t) in cyclic_segments(amin, amax, span) {
                writes.push(self.segment_write(w, evs, nv, meta, &dirty_set, s, t, addr));
            }
        }
        writes.extend(self.unlock_writes(addr, word));
        let refs: Vec<(GlobalAddr, &[u8])> = writes.iter().map(|(a, b)| (*a, &b[..])).collect();
        ep.write_batch(&refs);
    }

    /// Builds the physical write for contiguous entries `[s, t]`.
    #[allow(clippy::too_many_arguments)]
    fn segment_write(
        &self,
        w: &Window,
        evs: &[u8],
        nv: u8,
        meta: &LeafMeta,
        dirty_set: &std::collections::HashSet<usize>,
        s: usize,
        t: usize,
        addr: GlobalAddr,
    ) -> (GlobalAddr, Vec<u8>) {
        let lstart = self.layout.entry_off(s);
        let lend = self.layout.entry_off(t) + self.layout.entry_size();
        let mut data = vec![0u8; lend - lstart];
        let mut entry_ver = vec![0u8; self.layout.span];
        #[allow(clippy::needless_range_loop)] // `i` also drives offsets/slots
        for i in s..=t {
            let off = self.layout.entry_off(i);
            let (key, value, bitmap) = w.slot(i);
            let rel = w.rel(i).unwrap();
            let e = if dirty_set.contains(&i) {
                bump(evs[rel])
            } else {
                evs[rel]
            };
            entry_ver[i] = pack_ver(nv, e);
            let bytes = self.entry_bytes(nv, e, bitmap, key, value);
            data[off - lstart..off - lstart + bytes.len()].copy_from_slice(&bytes);
            // Replica between entries: rewrite identically.
            if self.layout.replication && i > s && i % self.layout.h == 0 {
                let roff = self.layout.replica_off(i / self.layout.h);
                let rb = self.replica_bytes(nv, meta);
                data[roff - lstart..roff - lstart + rb.len()].copy_from_slice(&rb);
            }
        }
        let (pstart, phys) = self.layout.versioned().build_phys(lstart, &data, |p| {
            // Version byte for the line slot guarding logical offset `p`.
            match self.object_at(p.min(self.layout.payload_len() - 1)) {
                Object::Replica(_) => pack_ver(nv, 0),
                Object::Entry(i) if i >= s && i <= t => entry_ver[i],
                Object::Entry(_) => pack_ver(nv, 0),
            }
        });
        (addr.add(pstart as u64), phys)
    }

    // ----- whole-node writes -------------------------------------------------

    /// Serializes a full node image (all replicas + entries) at version
    /// `nv` with zeroed EVs.
    pub fn full_image(&self, w: &Window, nv: u8, meta: &LeafMeta) -> Vec<u8> {
        assert_eq!(w.len(), self.layout.span);
        assert_eq!(w.start(), 0);
        let mut data = vec![0u8; self.layout.payload_len()];
        let nblocks = if self.layout.replication {
            self.layout.span / self.layout.h
        } else {
            1
        };
        for b in 0..nblocks {
            let off = self.layout.replica_off(b);
            let rb = self.replica_bytes(nv, meta);
            data[off..off + rb.len()].copy_from_slice(&rb);
        }
        for i in 0..self.layout.span {
            let off = self.layout.entry_off(i);
            let (key, value, bitmap) = w.slot(i);
            let bytes = self.entry_bytes(nv, 0, bitmap, key, value);
            data[off..off + bytes.len()].copy_from_slice(&bytes);
        }
        data
    }

    /// The lock word describing window `w` (vacancy + argmax), unlocked.
    pub fn word_for(&self, w: &Window) -> LockWord {
        assert_eq!(w.len(), self.layout.span);
        let mut word = LockWord(0);
        for g in 0..self.vm.groups() {
            let (s, t) = self.vm.group_range(g);
            word = word.with_vacancy_bit(g, (s..=t).any(|i| w.slot_empty(i)));
        }
        let argmax = (0..self.layout.span)
            .filter(|&i| !w.slot_empty(i))
            .max_by_key(|&i| w.slot(i).0)
            .map(|i| i as u16)
            .unwrap_or(ARGMAX_NONE);
        word.with_argmax(argmax)
    }

    /// Writes a brand-new leaf (image + lock word); the node is not yet
    /// reachable so plain writes suffice. One round-trip.
    pub fn write_new(&self, ep: &mut Endpoint, addr: GlobalAddr, w: &Window, meta: &LeafMeta) {
        let data = self.full_image(w, 0, meta);
        let (pstart, phys) = self
            .layout
            .versioned()
            .build_phys(0, &data, |_| pack_ver(0, 0));
        let word = self.word_for(w);
        let writes = self.unlock_writes(addr, word);
        let mut batch: Vec<(GlobalAddr, &[u8])> = vec![(addr.add(pstart as u64), &phys)];
        batch.extend(writes.iter().map(|(a, b)| (*a, &b[..])));
        ep.write_batch(&batch);
    }

    /// Rewrites a locked leaf in place (split path): bumps NV everywhere,
    /// updates vacancy/argmax and releases the lock. One round-trip.
    pub fn rewrite_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        w: &Window,
        old_nv: u8,
        meta: &LeafMeta,
    ) {
        ep.crash_point(CRASH_LEAF_WRITE_BACK);
        let nv = bump(old_nv);
        let data = self.full_image(w, nv, meta);
        let (pstart, phys) = self
            .layout
            .versioned()
            .build_phys(0, &data, |_| pack_ver(nv, 0));
        let word = self.word_for(w);
        let writes = self.unlock_writes(addr, word);
        let mut batch: Vec<(GlobalAddr, &[u8])> = vec![(addr.add(pstart as u64), &phys)];
        batch.extend(writes.iter().map(|(a, b)| (*a, &b[..])));
        ep.write_batch(&batch);
    }
}

/// Splits cyclic entry range `[a, e]` into ascending contiguous segments.
fn cyclic_segments(a: usize, e: usize, span: usize) -> Vec<(usize, usize)> {
    if a <= e {
        vec![(a, e)]
    } else {
        vec![(a, span - 1), (0, e)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopscotch::build_table;
    use dmem::node::RESERVED_BYTES;
    use dmem::Pool;

    fn ops() -> LeafOps {
        LeafOps::new(LeafLayout {
            span: 64,
            h: 8,
            key_size: 8,
            value_size: 8,
            replication: true,
            fences: false,
            piggyback: true,
        })
    }

    fn setup() -> (Endpoint, LeafOps, GlobalAddr) {
        let pool = Pool::with_defaults(1, 4 << 20);
        (Endpoint::new(pool), ops(), GlobalAddr::new(0, RESERVED_BYTES))
    }

    fn meta() -> LeafMeta {
        LeafMeta {
            sibling: GlobalAddr::new(0, 0xBEEF00),
            valid: true,
            fences: None,
        }
    }

    fn populated(ep: &mut Endpoint, ops: &LeafOps, addr: GlobalAddr, n: u64) -> Vec<(u64, Vec<u8>)> {
        let items: Vec<(u64, Vec<u8>)> =
            (1..=n).map(|k| (k * 7, (k * 7).to_le_bytes().to_vec())).collect();
        let w = build_table(64, 8, &items).unwrap();
        ops.write_new(ep, addr, &w, &meta());
        items
    }

    #[test]
    fn write_new_then_neighborhood_reads() {
        let (mut ep, ops, addr) = setup();
        let items = populated(&mut ep, &ops, addr, 40);
        for (k, v) in &items {
            let r = ops.read_neighborhood(&mut ep, addr, *k);
            let (_, got) = r.found.expect("key must be found");
            assert_eq!(&got, v);
            assert_eq!(r.meta.sibling.offset(), 0xBEEF00);
            assert!(r.meta.valid);
        }
        // Absent keys miss cleanly.
        assert!(ops.read_neighborhood(&mut ep, addr, 999_999).found.is_none());
    }

    #[test]
    fn full_read_matches_items() {
        let (mut ep, ops, addr) = setup();
        let items = populated(&mut ep, &ops, addr, 40);
        let snap = ops.read_full(&mut ep, addr);
        let mut got = snap.items();
        got.sort();
        let mut want = items.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(snap.max_key(), Some(40 * 7));
        assert_eq!(snap.keys[snap.argmax() as usize], 40 * 7);
    }

    #[test]
    fn lock_piggybacks_vacancy_and_argmax() {
        let (mut ep, ops, addr) = setup();
        populated(&mut ep, &ops, addr, 30);
        let word = ops.lock(&mut ep, addr);
        // 30 of 64 entries used: every group must still report vacancy in
        // aggregate, and argmax must point at the true maximum.
        assert!(ops.vm.first_vacant_group(word, 0).is_some());
        let snap = ops.read_full(&mut ep, addr);
        assert_eq!(word.argmax(), snap.argmax());
        ops.unlock(&mut ep, addr, word);
        // Lock can be re-acquired after release.
        let w2 = ops.lock(&mut ep, addr);
        ops.unlock(&mut ep, addr, w2);
    }

    #[test]
    fn hop_insert_roundtrip() {
        let (mut ep, ops, addr) = setup();
        populated(&mut ep, &ops, addr, 30);
        let key = 424_242u64;
        let home = home_entry(key, 64);
        let word = ops.lock(&mut ep, addr);
        let mut lr = ops
            .read_hop_window(&mut ep, addr, home, word)
            .expect("node not full");
        assert_eq!(lr.max_key, Some(30 * 7), "argmax entry piggybacked");
        let empty = lr.w.first_empty_from(home).expect("space available");
        let pos = lr.w.insert(key, vec![9u8; 8], empty).unwrap();
        let w = &lr.w;
        let new_word = ops
            .vm
            .recompute(word, w.start(), empty, |i| !w.slot_empty(i))
            .with_argmax(if key > lr.max_key.unwrap() {
                pos as u16
            } else {
                word.argmax()
            });
        ops.write_window_and_unlock(&mut ep, addr, &lr.w, &lr.evs, lr.nv, &lr.meta, new_word);
        let r = ops.read_neighborhood(&mut ep, addr, key);
        assert_eq!(r.found.expect("inserted key readable").1, vec![9u8; 8]);
        // All earlier keys are still readable.
        for k in 1..=30u64 {
            assert!(ops.read_neighborhood(&mut ep, addr, k * 7).found.is_some());
        }
    }

    #[test]
    fn spec_read_hit_and_miss() {
        let (mut ep, ops, addr) = setup();
        let items = populated(&mut ep, &ops, addr, 40);
        let (k, v) = &items[3];
        let snap = ops.read_full(&mut ep, addr);
        let (idx, _) = snap.find(*k, 8).unwrap();
        assert_eq!(ops.spec_read(&mut ep, addr, idx, *k), Some(v.clone()));
        // Wrong slot: speculation fails, no false positive.
        let wrong = (idx + 1) % 64;
        assert_eq!(ops.spec_read(&mut ep, addr, wrong, *k), None);
    }

    #[test]
    fn rewrite_bumps_nv_and_preserves_content() {
        let (mut ep, ops, addr) = setup();
        let items = populated(&mut ep, &ops, addr, 20);
        let snap0 = ops.read_full(&mut ep, addr);
        let word = ops.lock(&mut ep, addr);
        let _ = word;
        let (w, _evs) = ops.read_full(&mut ep, addr).into_window(8);
        ops.rewrite_and_unlock(&mut ep, addr, &w, snap0.nv, &meta());
        let snap1 = ops.read_full(&mut ep, addr);
        assert_eq!(snap1.nv, bump(snap0.nv));
        let mut got = snap1.items();
        got.sort();
        let mut want = items;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn no_piggyback_uses_separate_vacancy_word() {
        let pool = Pool::with_defaults(1, 4 << 20);
        let mut ep = Endpoint::new(pool);
        let ops = LeafOps::new(LeafLayout {
            span: 64,
            h: 8,
            key_size: 8,
            value_size: 8,
            replication: true,
            fences: false,
            piggyback: false,
        });
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let items: Vec<(u64, Vec<u8>)> = (1..=10).map(|k| (k, vec![k as u8; 8])).collect();
        let w = build_table(64, 8, &items).unwrap();
        ops.write_new(&mut ep, addr, &w, &meta());
        let r0 = ep.stats().reads;
        let word = ops.lock(&mut ep, addr);
        assert_eq!(ep.stats().reads, r0 + 1, "dedicated vacancy READ");
        assert!(ops.vm.first_vacant_group(word, 0).is_some());
        ops.unlock(&mut ep, addr, word);
    }

    #[test]
    fn cyclic_segment_helper() {
        assert_eq!(cyclic_segments(3, 10, 64), vec![(3, 10)]);
        assert_eq!(cyclic_segments(60, 2, 64), vec![(60, 63), (0, 2)]);
    }
}
