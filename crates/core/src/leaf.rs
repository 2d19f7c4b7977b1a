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

/// A consistent whole-leaf snapshot: the validated, de-striped node image
/// plus its decoded keys. Values, bitmaps and EVs are read from the image.
#[derive(Debug)]
pub struct LeafSnapshot {
    /// Per-entry keys (0 = empty).
    pub keys: Vec<u64>,
    /// Node-level version.
    pub nv: u8,
    /// Leaf metadata.
    pub meta: LeafMeta,
    layout: LeafLayout,
    image: Fetched,
}

impl LeafSnapshot {
    /// Stored value bytes of entry `i`.
    pub fn value(&self, i: usize) -> &[u8] {
        entry_value(&self.layout, &self.image, i)
    }

    /// Hopscotch bitmap of entry `i`.
    pub fn bitmap(&self, i: usize) -> u16 {
        entry_bitmap(&self.layout, &self.image, i)
    }

    /// Entry-level version of entry `i`.
    pub fn ev(&self, i: usize) -> u8 {
        entry_ev(&self.layout, &self.image, i)
    }

    /// Looks `key` up via its home entry's bitmap.
    pub fn find(&self, key: u64) -> Option<(usize, &[u8])> {
        let span = self.keys.len();
        let home = home_entry(key, span);
        let bm = self.bitmap(home);
        (0..self.layout.h)
            .filter(|&d| bm & (1 << d) != 0)
            .map(|d| (home + d) % span)
            .find(|&p| self.keys[p] == key)
            .map(|p| (p, self.value(p)))
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

    /// All `(key, value)` items in slot order (unsorted by key).
    pub fn items(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != 0)
            .map(|(i, &k)| (k, self.value(i)))
    }

    /// Converts the snapshot into a full-span hopscotch window.
    pub fn into_window(self) -> (Window, Vec<u8>) {
        let span = self.keys.len();
        let mut w = Window::new(span, self.layout.h, 0, span);
        for i in 0..span {
            w.set_slot(i, self.keys[i], self.value(i).to_vec(), self.bitmap(i));
        }
        (w, (0..span).map(|i| self.ev(i)).collect())
    }
}

fn entry_key(l: &LeafLayout, f: &Fetched, i: usize) -> u64 {
    f.u64_at(l.entry_off(i) + entry_field::KEY)
}

fn entry_bitmap(l: &LeafLayout, f: &Fetched, i: usize) -> u16 {
    f.u16_at(l.entry_off(i) + entry_field::BITMAP)
}

fn entry_value<'a>(l: &LeafLayout, f: &'a Fetched, i: usize) -> &'a [u8] {
    f.bytes(l.entry_off(i) + entry_field::KEY + l.key_size, l.value_size)
}

fn entry_ev(l: &LeafLayout, f: &Fetched, i: usize) -> u8 {
    ev(f.get(l.entry_off(i)))
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

    /// Checks NV uniformity across all fetched pieces; returns the NV.
    fn check_all_nv(&self, pieces: &[Fetched]) -> Option<u8> {
        let l = &self.layout;
        let mut nvs = pieces.iter().map(|p| {
            let (a, b) = (p.lstart(), p.lend());
            let entries = l.entries_in(a, b).map(|i| l.entry_off(i));
            p.check_nv(entries.chain(l.replicas_in(a, b).map(|k| l.replica_off(k))))
        });
        let nv = nvs.next()??;
        nvs.all(|other| other == Some(nv)).then_some(nv)
    }

    /// Checks EV consistency of every entry covered by every piece.
    fn check_all_ev(&self, pieces: &[Fetched]) -> bool {
        let l = &self.layout;
        pieces.iter().all(|p| {
            l.entries_in(p.lstart(), p.lend()).all(|i| {
                let off = l.entry_off(i);
                p.check_ev(off, off + l.entry_size())
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
        pieces.iter().find_map(|p| {
            let k = self.layout.replicas_in(p.lstart(), p.lend()).next()?;
            Some(self.parse_meta(p, self.layout.replica_off(k)))
        })
    }

    /// Validates a whole-leaf image and decodes it: every version byte
    /// carries one NV, every entry is EV-consistent, and bitmaps and
    /// occupancy are a bijection — each set bit lies below H and names a
    /// key homed at that entry, and every key is named. `None` is a torn or
    /// intermediate image.
    fn decode(&self, image: Fetched) -> Option<LeafSnapshot> {
        let l = &self.layout;
        debug_assert_eq!((image.lstart(), image.lend()), (0, l.payload_len()));
        let replicas = l.replicas_in(0, l.payload_len()).map(|k| l.replica_off(k));
        let nv = image.check_nv(replicas.chain(l.entry_offsets()))?;
        let mut keys = Vec::with_capacity(l.span);
        for off in l.entry_offsets() {
            if !image.check_ev(off, off + l.entry_size()) {
                return None;
            }
            keys.push(image.u64_at(off + entry_field::KEY));
        }
        let mut named = 0;
        for (home, off) in l.entry_offsets().enumerate() {
            let mut bits = image.u16_at(off + entry_field::BITMAP);
            if u32::from(bits) >> l.h != 0 {
                return None;
            }
            while bits != 0 {
                let pos = home + bits.trailing_zeros() as usize;
                let k = keys[if pos < l.span { pos } else { pos - l.span }];
                if k == 0 || home_entry(k, l.span) != home {
                    return None;
                }
                bits &= bits - 1;
                named += 1;
            }
        }
        // Set bits name distinct occupied slots, so equal counts mean every
        // key is named by its home.
        if named != keys.iter().filter(|&&k| k != 0).count() {
            return None;
        }
        Some(LeafSnapshot {
            nv,
            meta: self.parse_meta(&image, l.replica_off(0)),
            keys,
            layout: *l,
            image,
        })
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
        let (first, wrap) = self.layout.neighborhood_range_pair(home);
        // Dedicated leaf-metadata access (Fig. 4b), same doorbell.
        let header = (!self.layout.replication).then(|| (0, self.layout.replica_size()));
        let mut ranges = [first; 3];
        let mut n = 1;
        for r in [wrap, header].into_iter().flatten() {
            ranges[n] = r;
            n += 1;
        }
        let ranges = &ranges[..n];
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ addr.raw());
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "neighborhood read livelock at {addr:?}");
            let pieces = self.layout.versioned().fetch_many(ep, addr, ranges);
            if self.check_all_nv(&pieces).is_none() || !self.check_all_ev(&pieces) {
                ep.note_torn_read();
                backoff.wait(ep);
                continue;
            }
            let meta = self.meta_from(&pieces).expect("no replica covered");
            // Third level: reconstruct the home bitmap from actual keys.
            let hp = self.piece_for(&pieces, home);
            let bm = entry_bitmap(&self.layout, hp, home);
            let mut consistent = true;
            let mut found = None;
            for d in 0..h {
                if bm & (1 << d) == 0 {
                    continue;
                }
                let pos = (home + d) % span;
                let p = self.piece_for(&pieces, pos);
                let k = entry_key(&self.layout, p, pos);
                if k == 0 || home_entry(k, span) != home {
                    consistent = false;
                    break;
                }
                if k == key {
                    found = Some((pos, entry_value(&self.layout, p, pos).to_vec()));
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
            if entry_key(&self.layout, &f, idx) == key {
                return Some(entry_value(&self.layout, &f, idx).to_vec());
            }
            return None;
        }
        None
    }

    /// Whole-leaf read with full validation (chases, scans).
    pub fn read_full(&self, ep: &mut Endpoint, addr: GlobalAddr) -> LeafSnapshot {
        let mut snaps = self.read_full_rounds(ep, &[addr], addr.raw());
        snaps.pop().expect("one snapshot per address")
    }

    /// Whole-leaf reads of several nodes with one doorbell batch per round;
    /// torn leaves are re-fetched in follow-up rounds (scans).
    pub fn read_full_batch(&self, ep: &mut Endpoint, addrs: &[GlobalAddr]) -> Vec<LeafSnapshot> {
        self.read_full_rounds(ep, addrs, addrs.len() as u64)
    }

    /// The whole-leaf read loop: each round READs every still-pending leaf
    /// in one doorbell batch and keeps the images that decode; `site`
    /// seeds the backoff between rounds.
    fn read_full_rounds(&self, ep: &mut Endpoint, addrs: &[GlobalAddr], site: u64) -> Vec<LeafSnapshot> {
        let layout = self.layout.versioned();
        let (pstart, pend) = layout.phys_range(0, layout.payload_len());
        let mut out: Vec<Option<LeafSnapshot>> = addrs.iter().map(|_| None).collect();
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ site);
        for round in 0.. {
            assert!(round < 1_000_000, "full leaf read livelock at {addrs:?}");
            // The leaves still without a snapshot, each with a READ buffer.
            let undecoded = out.iter().enumerate().filter(|(_, snap)| snap.is_none());
            let mut raw: Vec<(usize, Vec<u8>)> =
                undecoded.map(|(i, _)| (i, vec![0u8; pend - pstart])).collect();
            if raw.is_empty() {
                break;
            }
            if round > 0 {
                backoff.wait(ep);
            }
            {
                let mut reqs: Vec<(GlobalAddr, &mut [u8])> = raw
                    .iter_mut()
                    .map(|(i, buf)| (addrs[*i].add(pstart as u64), &mut buf[..]))
                    .collect();
                ep.read_batch(&mut reqs);
            }
            for (i, buf) in raw {
                out[i] = self.decode(layout.from_raw(0, layout.payload_len(), buf));
                if out[i].is_none() {
                    ep.note_torn_read();
                }
            }
        }
        out.into_iter().map(|s| s.expect("every leaf decoded")).collect()
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
        if a == 0 && e == span - 1 {
            // Whole node: the body, preceded by the separately fetched
            // header when replication is off.
            let mut pieces = pieces.into_iter();
            let body = pieces.next().expect("fetch_many returns a piece per range");
            let image = match pieces.next() {
                Some(header) => header.join(body),
                None => body,
            };
            let snap = self
                .decode(image)
                .expect("locked leaf read observed a torn image");
            let (nv, meta, max_key) = (snap.nv, snap.meta, snap.max_key());
            let (w, evs) = snap.into_window();
            return LockedRead {
                w,
                evs,
                nv,
                meta,
                max_key,
            };
        }
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
            let l = &self.layout;
            w.set_slot(i, entry_key(l, p, i), entry_value(l, p, i).to_vec(), entry_bitmap(l, p, i));
            *ev = entry_ev(l, p, i);
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
            Some(entry_key(&self.layout, p, i))
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
mod tests;
