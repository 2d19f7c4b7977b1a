//! Remote operations on hopscotch leaf nodes.
//!
//! This module turns the geometric layout of [`crate::layout::LeafLayout`]
//! into verb sequences: neighborhood reads with the full three-level
//! optimistic validation (NV / EV / reused hopscotch bitmaps), speculative
//! single-entry reads, lock acquisition with vacancy-bitmap piggybacking
//! (and, for writes, with a window READ whose address does not depend on
//! the lock word in the CAS's doorbell), group-aligned hop-range reads,
//! minimal dirty-range write-back, and whole-node reads/writes for splits
//! and sibling chases.
//!
//! One codec serves all of them. Whatever was fetched — an entry, a
//! neighborhood, a hop range, a whole node — passes `validate` once, one
//! pass over each piece's line slots and entry leads; a whole image
//! additionally passes the bitmap/occupancy bijection, which compares the
//! stored bitmaps with those rebuilt from each occupied slot's home.
//! Lock-free reads then answer from the fetched slices ([`LeafSnapshot`],
//! its keys and bitmaps decoded once); whole-leaf reads borrow their buffers
//! from a `LeafReads`, which a scanning client keeps, so its warm scans
//! allocate nothing. Locked reads copy the covered entries once into the
//! [`Window`] of a [`LockedRead`], the only mutable form of leaf content,
//! which carries each slot's EV and dirty mark. A writing client keeps one
//! `LockedRead` — window, READ buffers and outgoing images — and every
//! locked read refills it, so its warm writes allocate none of them; entry
//! offsets are walked and cyclic indices wrapped without a division. Every
//! write — dirty hop range, new node, node rewrite — leaves through
//! `encode`, straight into its outgoing buffer.
//!
//! Both crash points ([`CRASH_LEAF_LOCKED`], [`CRASH_LEAF_WRITE_BACK`]) sit
//! before any publish: content and unlock land in one doorbell, so a crash
//! at either leaves the content untouched and only the lock word stale. A
//! crashed operation is a logical no-op, which keeps the chaos oracle exact.

use dmem::hash::home_entry;
use dmem::versioned::{self, bump, ev, pack_ver, Fetched, LINE_PAYLOAD, MAX_RANGES};
use dmem::{Endpoint, GlobalAddr};

use crate::backoff::Backoff;
use crate::hopscotch::{cyc_dist, wrap, Window};
use crate::layout::{entry_field, replica_field, LeafLayout, LeafLocator};
use crate::lockword::{try_acquire, LockWord, VacancyMap, ARGMAX_NONE};

/// Crash-point label hit immediately after a leaf lock is acquired (the
/// moment a dying client leaves a stale lock behind).
pub const CRASH_LEAF_LOCKED: &str = "leaf.lock.acquired";

/// Crash-point label hit just before a locked mutation publishes its write
/// batch (content + unlock): a crash here leaves the node content untouched
/// but the lock stale.
pub const CRASH_LEAF_WRITE_BACK: &str = "leaf.write_back";

/// Leaf metadata carried by every replica (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// The entry index when the key was found; its stored value is then in
    /// the caller's buffer.
    pub found: Option<usize>,
}

/// What a speculative single-entry read found in the slot.
#[derive(Debug, PartialEq, Eq)]
pub enum SpecRead {
    /// The key; its stored value is in the caller's buffer.
    Hit,
    /// Another key (0: the slot is empty) — the description that pointed
    /// here is stale.
    Occupant(u64),
    /// No EV-consistent image in three tries.
    Torn,
}

/// A consistent whole-leaf snapshot: the validated, de-striped node image
/// plus its decoded keys and bitmaps. Values and EVs are read from the image.
#[derive(Debug)]
pub struct LeafSnapshot {
    /// Per-entry keys (0 = empty).
    pub keys: Vec<u64>,
    /// Node-level version.
    pub nv: u8,
    /// Leaf metadata.
    pub meta: LeafMeta,
    bitmaps: Vec<u16>,
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
        self.bitmaps[i]
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

    /// Every slot in order, as its key (0 when empty) with the logical
    /// offset of its stored value ([`Self::value_at`]).
    pub fn slots(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let l = &self.layout;
        let value = entry_field::KEY + l.key_size;
        self.keys
            .iter()
            .copied()
            .zip(l.entry_offsets(0..l.span).map(move |off| off + value))
    }

    /// The stored value at the logical offset [`Self::slots`] gave.
    pub fn value_at(&self, off: usize) -> &[u8] {
        self.image.bytes(off, self.layout.value_size)
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
    pub fn into_window(self) -> Window {
        let l = &self.layout;
        let mut w = l.window(0, l.span);
        load(l, &l.locator(), std::slice::from_ref(&self.image), &mut w);
        w
    }
}

/// A snapshot's buffers: its READ image, keys and bitmaps.
type Spare = (Vec<u8>, Vec<u64>, Vec<u16>);

/// The buffers whole-leaf reads reuse: the image, key and bitmap vectors of
/// snapshots handed back (`recycle`), and each round's
/// bookkeeping. A scanning client keeps one, so a warm scan allocates for
/// neither.
#[derive(Debug, Default)]
pub(crate) struct LeafReads {
    spare: Vec<Spare>,
    decoded: Vec<Option<LeafSnapshot>>,
    pending: Vec<(usize, Spare)>,
    reqs: Vec<(GlobalAddr, &'static mut [u8])>,
}

impl LeafReads {
    /// Takes back `snap`'s buffers for later reads.
    pub(crate) fn recycle(&mut self, snap: LeafSnapshot) {
        self.spare
            .push((snap.image.into_buf(), snap.keys, snap.bitmaps));
    }
}

/// `v`'s allocation, re-typed to hold borrows of another lifetime. `v` is
/// empty, and a vector's in-place `collect` keeps the buffer of the vector
/// it consumes when the element layouts agree, as they do for two
/// lifetimes of one type: the work requests of each doorbell reuse one
/// buffer.
fn reuse<'b>(v: Vec<(GlobalAddr, &mut [u8])>) -> Vec<(GlobalAddr, &'b mut [u8])> {
    debug_assert!(v.is_empty());
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// `first` and whichever of `rest` are present, packed to the front for
/// one fetch, with their count.
fn pack_ranges(
    first: (usize, usize),
    rest: [Option<(usize, usize)>; MAX_RANGES - 1],
) -> ([(usize, usize); MAX_RANGES], usize) {
    let mut ranges = [first; MAX_RANGES];
    let mut n = 1;
    for r in rest.into_iter().flatten() {
        ranges[n] = r;
        n += 1;
    }
    (ranges, n)
}

/// Every entry `pieces` cover, with the piece holding it.
fn covered<'a>(loc: &'a LeafLocator, pieces: &'a [Fetched]) -> impl Iterator<Item = (usize, &'a Fetched)> {
    let entries = |p: &'a Fetched| loc.entries_in(p.lstart(), p.lend()).map(move |i| (i, p));
    pieces.iter().flat_map(entries)
}

/// Copies every entry of `pieces` that `w` covers into it, walking each
/// piece's entry offsets.
fn load(l: &LeafLayout, loc: &LeafLocator, pieces: &[Fetched], w: &mut Window) {
    let (value, esize) = (entry_field::KEY + l.key_size, l.entry_size());
    for p in pieces {
        let entries = loc.entries_in(p.lstart(), p.lend());
        for (i, off) in entries.clone().zip(l.entry_offsets(entries)) {
            let Some(r) = w.rel(i) else { continue };
            let e = p.bytes(off, esize);
            let key = u64::from_le_bytes(e[entry_field::KEY..][..8].try_into().expect("8 bytes"));
            let bitmap = u16::from_le_bytes(e[entry_field::BITMAP..][..2].try_into().expect("2 bytes"));
            w.set_rel(r, key, &e[value..], bitmap, ev(e[entry_field::VER]));
        }
    }
}


/// Bitmaps and occupancy are a bijection: the stored bitmaps equal the
/// ones rebuilt from each occupied slot's home. Every key lies under `h`
/// slots from its home and its bit is stored, so the rebuilt bits are a
/// subset of the stored ones; equal counts leave no stored bit over (a bit
/// at or above `h`, or one naming an empty or foreign slot).
fn bijective(
    span: usize,
    h: usize,
    key: impl Fn(usize) -> u64,
    bitmap: impl Fn(usize) -> u16,
) -> bool {
    // Four bitmaps to a word: a quarter of the bit counts.
    let word = |i: usize| (i..(i + 4).min(span)).fold(0u64, |w, j| w << 16 | u64::from(bitmap(j)));
    let bits: u32 = (0..span).step_by(4).map(|i| word(i).count_ones()).sum();
    let mut keys = 0;
    for pos in 0..span {
        let k = key(pos);
        if k == 0 {
            continue;
        }
        let home = home_entry(k, span);
        let d = if pos >= home {
            pos - home
        } else {
            pos + span - home
        };
        if d >= h || bitmap(home) & (1 << d) == 0 {
            return false;
        }
        keys += 1;
    }
    keys == bits
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

/// The READ buffers a client keeps for its leaf reads: the pieces of its
/// last fetch and spare buffers for the next, so once they have grown to
/// its largest fetch, a fetch allocates nothing.
#[derive(Debug, Default)]
pub struct Fetches {
    pieces: Vec<Fetched>,
    spare: Vec<Vec<u8>>,
}

impl Fetches {
    /// READs logical `ranges` of the leaf at `addr` with one doorbell
    /// batch; the pieces replace the last fetch's.
    fn fetch(
        &mut self,
        ep: &mut Endpoint,
        l: &LeafLayout,
        addr: GlobalAddr,
        ranges: &[(usize, usize)],
    ) -> &[Fetched] {
        let kept = self.post(l, addr, ranges, |reqs| {
            ep.read_batch(reqs);
            true
        });
        debug_assert!(kept);
        &self.pieces
    }

    /// [`dmem::versioned::Layout::fetch_into`] over these buffers: `post`
    /// issues the READs and says whether their pieces are kept.
    fn post(
        &mut self,
        l: &LeafLayout,
        addr: GlobalAddr,
        ranges: &[(usize, usize)],
        post: impl FnOnce(&mut [(GlobalAddr, &mut [u8])]) -> bool,
    ) -> bool {
        let (pieces, spare) = (&mut self.pieces, &mut self.spare);
        l.versioned().fetch_into(addr, ranges, pieces, spare, post)
    }
}

/// A window read performed while holding the node lock, with the buffers
/// it is read and written back through. A writer keeps one and every
/// locked read refills it, so once its buffers have grown to the largest
/// window a warm write allocates for neither its READs, its window nor
/// its outgoing images.
#[derive(Debug, Default)]
pub struct LockedRead {
    /// The covered entries as a mutable hopscotch window.
    pub w: Window,
    /// Node-level version.
    pub nv: u8,
    /// Leaf metadata from a covered replica.
    pub meta: LeafMeta,
    /// Value of the node's maximum key (`None` when the node is empty): the
    /// maximum of a whole-node window, else the key in the lock word's
    /// `argmax_keys` slot — from the window, or from that entry fetched in
    /// the window's doorbell. A window locked in one doorbell with its CAS
    /// ([`LeafOps::lock_window`]) could not name the entry before the CAS
    /// returned: when it lies outside the window, this is `None` and
    /// `max_unread` holds its slot until [`LeafOps::max_key`] reads it.
    /// The window's keys are exact, so its largest key bounds the maximum
    /// from below; a writer reads the entry only when that bound does not
    /// settle its question.
    pub max_key: Option<u64>,
    /// The argmax slot neither the window nor its doorbell covered.
    pub max_unread: Option<usize>,
    /// The READ buffers.
    reads: Fetches,
    /// The outgoing images of the last write-back, one per run.
    images: [Vec<u8>; 2],
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
    /// `layout`'s covered-object math.
    locator: LeafLocator,
}

impl LeafOps {
    /// Creates the ops for `layout` (lock reclamation disabled).
    pub fn new(layout: LeafLayout) -> Self {
        LeafOps {
            layout,
            vm: VacancyMap::new(layout.span),
            lease_spins: 0,
            locator: layout.locator(),
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

    /// The one NV/EV check: every version byte `pieces` cover (line slots,
    /// entry and replica leads) carries one NV and every covered entry is
    /// EV-consistent. Returns that NV with the metadata of the first covered
    /// replica; `None` is a torn read.
    ///
    /// One pass per piece walks its entries and line slots together: a
    /// line's slot at logical `line * 63` belongs to the entry whose bytes
    /// `[off, off + entry_size)` hold that offset (the slot in front of an
    /// entry that starts on a payload boundary is the entry's own).
    fn validate(&self, pieces: &[Fetched]) -> Option<(u8, Option<LeafMeta>)> {
        let l = &self.layout;
        let (mut nv, mut meta) = (None, None);
        for p in pieces {
            let ((first_line, slots), (a, b)) = (p.line_slots(), (p.lstart(), p.lend()));
            let payload = p.bytes(a, b - a);
            let ver = |off: usize| payload[off - a];
            let entries = || l.entry_offsets(self.locator.entries_in(a, b));
            let replicas = self.locator.replicas_in(a, b).map(|k| l.replica_off(k));
            // The NV to match: the piece's first line slot, else its first
            // lead; a piece without a version byte is no read.
            let first = slots
                .first()
                .copied()
                .or_else(|| entries().chain(replicas.clone()).next().map(ver))?;
            let piece_nv = *nv.get_or_insert(versioned::nv(first));
            let (mut next, esize) = (first_line * LINE_PAYLOAD, l.entry_size());
            let mut slots = slots.iter();
            for off in entries() {
                let lead = ver(off);
                if versioned::nv(lead) != piece_nv {
                    return None;
                }
                // The slots before the entry carry the NV, those inside it
                // the whole lead byte (NV and EV).
                while next < off + esize {
                    let Some(&v) = slots.next() else { break };
                    let carried = if next < off {
                        versioned::nv(v) == piece_nv
                    } else {
                        v == lead
                    };
                    if !carried {
                        return None;
                    }
                    next += LINE_PAYLOAD;
                }
            }
            if slots.any(|&v| versioned::nv(v) != piece_nv) {
                return None;
            }
            for off in replicas {
                if versioned::nv(ver(off)) != piece_nv {
                    return None;
                }
                meta = meta.or_else(|| Some(self.parse_meta(p, off)));
            }
        }
        Some((nv?, meta))
    }

    /// Validates a whole-leaf image and decodes its keys and bitmaps into
    /// the vectors of `spare`: [`Self::validate`] plus the bitmap/occupancy
    /// bijection. `None` is a torn or intermediate image.
    fn decode(&self, image: Fetched, (_, mut keys, mut bitmaps): Spare) -> Option<LeafSnapshot> {
        let l = &self.layout;
        debug_assert_eq!((image.lstart(), image.lend()), (0, l.payload_len()));
        let (nv, meta) = self.validate(std::slice::from_ref(&image))?;
        keys.clear();
        keys.resize(l.span, 0);
        bitmaps.clear();
        bitmaps.resize(l.span, 0);
        let fields = keys.iter_mut().zip(&mut bitmaps);
        for ((key, bitmap), off) in fields.zip(l.entry_offsets(0..l.span)) {
            *key = image.u64_at(off + entry_field::KEY);
            *bitmap = image.u16_at(off + entry_field::BITMAP);
        }
        bijective(l.span, l.h, |i| keys[i], |i| bitmaps[i]).then(|| LeafSnapshot {
            nv,
            meta: meta.expect("a whole image holds replica 0"),
            keys,
            bitmaps,
            layout: *l,
            image,
        })
    }

    /// Encodes the replicas and entries inside logical `[lstart, lend)`
    /// into their physical image in `buf` — the one place leaf bytes are
    /// written. An entry write (`entry_write`) bumps the EV of `w`'s dirty
    /// slots and rewrites clean ones byte-identically; a node write restarts
    /// every EV at 0 under the new `nv`. Returns the image's physical offset.
    fn encode(
        &self,
        w: &Window,
        (lstart, lend): (usize, usize),
        nv: u8,
        meta: &LeafMeta,
        entry_write: bool,
        buf: &mut Vec<u8>,
    ) -> usize {
        let l = &self.layout;
        let ver = |i: usize| match (entry_write, w.version(i)) {
            (false, _) => pack_ver(nv, 0),
            (true, (ev, dirty)) => pack_ver(nv, if dirty { bump(ev) } else { ev }),
        };
        let put = |b: &mut [u8], at: usize, bytes: &[u8]| b[at..at + bytes.len()].copy_from_slice(bytes);
        let (pstart, pend) = l.versioned().phys_range(lstart, lend);
        buf.clear();
        buf.reserve(pend - pstart);
        buf.resize(lend - lstart, 0);
        for k in self.locator.replicas_in(lstart, lend) {
            let b = &mut buf[l.replica_off(k) - lstart..][..l.replica_size()];
            b[replica_field::VER] = pack_ver(nv, 0);
            put(b, replica_field::SIBLING, &meta.sibling.raw().to_le_bytes());
            b[replica_field::VALID] = meta.valid as u8;
            if let Some((lo, hi)) = meta.fences {
                assert!(l.fences);
                put(b, replica_field::FENCE_LOW, &lo.to_le_bytes());
                put(b, replica_field::FENCE_LOW + l.key_size, &hi.to_le_bytes());
            }
        }
        let entries = self.locator.entries_in(lstart, lend);
        for (i, off) in entries.clone().zip(l.entry_offsets(entries)) {
            let (key, value, bitmap) = w.slot(i);
            let b = &mut buf[off - lstart..][..l.entry_size()];
            b[entry_field::VER] = ver(i);
            put(b, entry_field::BITMAP, &bitmap.to_le_bytes());
            put(b, entry_field::KEY, &key.to_le_bytes());
            put(b, entry_field::KEY + l.key_size, &value[..l.value_size]);
        }
        // A line version belongs to the object its first payload byte is in.
        let line_ver = |p| l.entry_at(p).map_or(pack_ver(nv, 0), ver);
        l.versioned().stripe(lstart, buf, line_ver);
        pstart
    }

    // ----- lock-free reads -------------------------------------------------

    /// Validated neighborhood read for `key` (the paper's search fast path),
    /// through the caller's READ buffers `reads`; a found key's stored value
    /// replaces the contents of `value`.
    ///
    /// Retries internally on torn reads or observed intermediate hop states
    /// (third-level bitmap check).
    pub fn read_neighborhood(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        key: u64,
        reads: &mut Fetches,
        value: &mut Vec<u8>,
    ) -> NbhRead {
        let span = self.layout.span;
        let h = self.layout.h;
        let home = home_entry(key, span);
        let (first, wrap) = self.layout.neighborhood_range_pair(home);
        // Dedicated leaf-metadata access (Fig. 4b), same doorbell.
        let header = (!self.layout.replication).then(|| (0, self.layout.replica_size()));
        let (ranges, n) = pack_ranges(first, [wrap, header, None]);
        let ranges = &ranges[..n];
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ addr.raw());
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "neighborhood read livelock at {addr:?}");
            let pieces = reads.fetch(ep, &self.layout, addr, ranges);
            let checked = self.validate(pieces).and_then(|(_, meta)| {
                // Third level: every bit of the home bitmap (`home` leads
                // the first range) must name a key homed there.
                let bm = entry_bitmap(&self.layout, &pieces[0], home);
                let mut found = None;
                for (pos, p) in covered(&self.locator, pieces) {
                    let d = cyc_dist(home, pos, span);
                    if d >= h || bm & (1 << d) == 0 {
                        continue;
                    }
                    let k = entry_key(&self.layout, p, pos);
                    if k == 0 || home_entry(k, span) != home {
                        return None;
                    }
                    if k == key {
                        found = Some((pos, p));
                    }
                }
                Some((meta.expect("no replica covered"), found))
            });
            let Some((meta, found)) = checked else {
                ep.note_torn_read();
                backoff.wait(ep);
                continue;
            };
            if let Some((pos, p)) = found {
                entry_value(&self.layout, p, pos).clone_into(value);
            }
            return NbhRead {
                meta,
                found: found.map(|(pos, _)| pos),
            };
        }
    }

    /// Speculative single-entry read (§4.3): what the slot at `idx` holds,
    /// once it is EV-consistent, read through the caller's buffers `reads`;
    /// a hit's stored value replaces the contents of `value`. Anything but
    /// a hit sends the caller down the normal neighborhood path.
    pub fn spec_read(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        idx: usize,
        key: u64,
        reads: &mut Fetches,
        value: &mut Vec<u8>,
    ) -> SpecRead {
        let l = &self.layout;
        let off = l.entry_off(idx);
        for _ in 0..3 {
            let pieces = reads.fetch(ep, l, addr, &[(off, off + l.entry_size())]);
            if self.validate(pieces).is_none() {
                ep.note_torn_read();
                continue;
            }
            return match entry_key(l, &pieces[0], idx) {
                k if k == key => {
                    entry_value(l, &pieces[0], idx).clone_into(value);
                    SpecRead::Hit
                }
                k => SpecRead::Occupant(k),
            };
        }
        SpecRead::Torn
    }

    /// Whole-leaf read with full validation (chases).
    pub fn read_full(&self, ep: &mut Endpoint, addr: GlobalAddr) -> LeafSnapshot {
        let mut snaps = Vec::with_capacity(1);
        self.read_full_rounds(
            ep,
            &[addr],
            addr.raw(),
            &mut LeafReads::default(),
            &mut snaps,
        );
        snaps.pop().expect("one snapshot per address")
    }

    /// Whole-leaf reads of several nodes with one doorbell batch per round,
    /// appended to `out` in `addrs` order; torn leaves are re-fetched in
    /// follow-up rounds (scans). `reads` lends the buffers.
    pub(crate) fn read_full_batch(
        &self,
        ep: &mut Endpoint,
        addrs: &[GlobalAddr],
        reads: &mut LeafReads,
        out: &mut Vec<LeafSnapshot>,
    ) {
        self.read_full_rounds(ep, addrs, addrs.len() as u64, reads, out);
    }

    /// The whole-leaf read loop: each round READs every still-pending leaf
    /// in one doorbell batch and keeps the images that decode; `site`
    /// seeds the backoff between rounds.
    fn read_full_rounds(
        &self,
        ep: &mut Endpoint,
        addrs: &[GlobalAddr],
        site: u64,
        reads: &mut LeafReads,
        out: &mut Vec<LeafSnapshot>,
    ) {
        let layout = self.layout.versioned();
        let (pstart, pend) = layout.phys_range(0, layout.payload_len());
        let LeafReads {
            spare,
            decoded,
            pending,
            reqs,
        } = reads;
        decoded.clear();
        decoded.resize_with(addrs.len(), || None);
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ site);
        for round in 0.. {
            assert!(round < 1_000_000, "full leaf read livelock at {addrs:?}");
            // The leaves still without a snapshot, each with a READ buffer.
            pending.clear();
            for (i, _) in decoded
                .iter()
                .enumerate()
                .filter(|(_, snap)| snap.is_none())
            {
                let mut buffers: Spare = spare.pop().unwrap_or_default();
                buffers.0.resize(pend - pstart, 0);
                pending.push((i, buffers));
            }
            if pending.is_empty() {
                break;
            }
            if round > 0 {
                backoff.wait(ep);
            }
            let mut batch = reuse(std::mem::take(reqs));
            batch.extend(
                pending
                    .iter_mut()
                    .map(|(i, (image, ..))| (addrs[*i].add(pstart as u64), &mut image[..])),
            );
            ep.read_batch(&mut batch);
            batch.clear();
            *reqs = reuse(batch);
            for (i, mut buffers) in pending.drain(..) {
                let image =
                    layout.from_raw(0, layout.payload_len(), std::mem::take(&mut buffers.0));
                decoded[i] = self.decode(image, buffers);
                if decoded[i].is_none() {
                    ep.note_torn_read();
                }
            }
        }
        out.extend(decoded.drain(..).map(|s| s.expect("every leaf decoded")));
    }

    // ----- locking ---------------------------------------------------------

    /// Acquires the leaf's lock word, counting retries, backing off
    /// exponentially and — when `lease_spins > 0` — reclaiming a stale lock
    /// whose word stayed bit-identical across that many failed attempts:
    /// the holder is presumed dead and a full-word CAS bumps the lease
    /// epoch while keeping the lock bit set, transferring ownership to us.
    ///
    /// Every attempt posts the READs of `ranges` behind its CAS in one
    /// doorbell; the winning attempt leaves their pieces in `lr`, a failed
    /// attempt's are dropped. A takeover's CAS carries no READs: `false`.
    fn acquire(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        ranges: &[(usize, usize)],
        lr: &mut LockedRead,
    ) -> (LockWord, bool) {
        let lock_addr = addr.add(self.layout.lock_off() as u64);
        let mut spins = 0u32;
        let mut backoff = Backoff::new(ep.client_id() as u64 ^ lock_addr.raw());
        let mut observed = 0u64;
        let mut unchanged = 0u32;
        loop {
            let mut old = 0;
            let locked = lr.reads.post(&self.layout, addr, ranges, |reqs| {
                old = try_acquire(ep, lock_addr, 0, reqs);
                old & 1 == 0
            });
            if locked {
                ep.crash_point(CRASH_LEAF_LOCKED);
                return (LockWord(old), true);
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
                        return (next, false);
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
        let (word, _) = self.acquire(ep, addr, &[], &mut LockedRead::default());
        if self.layout.piggyback {
            return word;
        }
        // Dedicated vacancy-bitmap access (Fig. 4a).
        let mut b = [0u8; 8];
        ep.read(addr.add(self.layout.vacancy_off() as u64), &mut b);
        LockWord(u64::from_le_bytes(b))
    }

    /// The WRITE releasing the lock and persisting `word` (vacancy +
    /// argmax, lock bit cleared), to append to a write batch: its address
    /// and its bytes, of which the first `len` are in use.
    pub fn unlock_writes(&self, addr: GlobalAddr, word: LockWord) -> (GlobalAddr, [u8; 16], usize) {
        let word = word.with_locked(false).0.to_le_bytes();
        let mut bytes = [0u8; 16];
        // Without piggybacking one contiguous 16-byte write covers the
        // (zeroed) lock word and the vacancy word behind it.
        let len = if self.layout.piggyback { 8 } else { 16 };
        bytes[len - 8..len].copy_from_slice(&word);
        (addr.add(self.layout.lock_off() as u64), bytes, len)
    }

    /// Acquires the leaf lock and reads cyclic entries `[a, e]` into `lr` in
    /// the same doorbell. A window whose address does not depend on the lock
    /// word rides behind the CAS, and the pair costs one round trip; the
    /// separate vacancy word of the no-piggyback layout is never fetched.
    /// The argmax entry is not in the batch — the CAS is what names it — see
    /// [`LockedRead::max_key`].
    pub fn lock_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        a: usize,
        e: usize,
        lr: &mut LockedRead,
    ) -> LockWord {
        let (ranges, n) = self.window_ranges(a, e, None);
        let ranges = &ranges[..n];
        let (word, fetched) = self.acquire(ep, addr, ranges, lr);
        if !fetched {
            // A takeover reads after its full-word CAS.
            lr.reads.fetch(ep, &self.layout, addr, ranges);
        }
        self.load_locked(lr, (a, e), word);
        word
    }

    /// Acquires the leaf lock and reads the neighborhood window of `home`
    /// into `lr` in the same doorbell ([`Self::lock_window`]; updates and
    /// deletes).
    pub fn lock_nbh_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        home: usize,
        lr: &mut LockedRead,
    ) -> LockWord {
        let span = self.layout.span;
        self.lock_window(ep, addr, home, wrap(home + self.layout.h - 1, span), lr)
    }

    /// Releases the lock immediately (abort paths).
    pub fn unlock(&self, ep: &mut Endpoint, addr: GlobalAddr, word: LockWord) {
        let (lock_addr, bytes, len) = self.unlock_writes(addr, word);
        ep.write_batch(&[(lock_addr, &bytes[..len])]);
    }

    // ----- hop-range access (under lock) ------------------------------------

    /// Reads into `lr` the group-aligned hop window for inserting a key
    /// with home entry `home`, given the piggybacked lock word. The window
    /// covers the hop candidates before `home`, the whole neighborhood
    /// (duplicate check) and everything up to the end of the first vacant
    /// group; the argmax entry rides along in the same doorbell batch.
    /// Returns `false`, reading nothing, when the vacancy bitmap shows a
    /// full node.
    pub fn read_hop_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        home: usize,
        word: LockWord,
        lr: &mut LockedRead,
    ) -> bool {
        let span = self.layout.span;
        let h = self.layout.h;
        let Some(g) = self.vm.first_vacant_group(word, home) else {
            return false;
        };
        let a0 = wrap(home + span - (h - 1), span);
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
            self.vm.align_to_groups(a0, wrap(home + d_e, span))
        };
        self.locked_read(ep, addr, a, e, word, lr);
        true
    }

    /// Reads the neighborhood window of `home` into `lr` under a lock
    /// already held (CHIME-Learned's synonym leaves, guarded by their
    /// owner's lock), argmax entry included.
    pub fn read_nbh_window(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        home: usize,
        word: LockWord,
        lr: &mut LockedRead,
    ) {
        let e = wrap(home + self.layout.h - 1, self.layout.span);
        self.locked_read(ep, addr, home, e, word, lr);
    }

    /// Reads the whole node into `lr` under the lock (delete-of-max, split
    /// prep).
    pub fn read_full_locked(&self, ep: &mut Endpoint, addr: GlobalAddr, word: LockWord, lr: &mut LockedRead) {
        self.locked_read(ep, addr, 0, self.layout.span - 1, word, lr);
    }

    /// Reads cyclic entries `[a, e]` plus the argmax entry into `lr`'s
    /// window (under lock; one doorbell batch).
    pub fn locked_read(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        a: usize,
        e: usize,
        word: LockWord,
        lr: &mut LockedRead,
    ) {
        let l = &self.layout;
        // Piggyback the argmax entry when it is outside the window.
        let argmax = (word.argmax() != ARGMAX_NONE).then(|| word.argmax() as usize % l.span);
        let argmax_extra = argmax
            .filter(|&i| cyc_dist(a, i, l.span) > cyc_dist(a, e, l.span))
            .map(|i| (l.entry_off(i), l.entry_off(i) + l.entry_size()));
        let (ranges, n) = self.window_ranges(a, e, argmax_extra);
        lr.reads.fetch(ep, l, addr, &ranges[..n]);
        self.load_locked(lr, (a, e), word);
    }

    /// The READ ranges of cyclic entries `[a, e]`: one or two runs, the
    /// dedicated leaf header when replication is disabled, and `extra`.
    fn window_ranges(
        &self,
        a: usize,
        e: usize,
        extra: Option<(usize, usize)>,
    ) -> ([(usize, usize); MAX_RANGES], usize) {
        let l = &self.layout;
        let (first, wrap) = l.hop_ranges(a, e);
        let header = (!l.replication).then(|| (0, l.replica_size()));
        pack_ranges(first, [wrap, header, extra])
    }

    /// Loads the pieces of a locked read of cyclic entries `[a, e]` into
    /// `lr`'s window, with the node's maximum key if they cover it.
    fn load_locked(&self, lr: &mut LockedRead, (a, e): (usize, usize), word: LockWord) {
        let l = &self.layout;
        let len = cyc_dist(a, e, l.span) + 1;
        // Under the lock no writer races us; the checks are sanity asserts.
        let (nv, meta) = self
            .validate(&lr.reads.pieces)
            .expect("locked leaf read observed a torn image");
        lr.w.reset(l.span, l.h, l.value_size, a, len);
        load(l, &self.locator, &lr.reads.pieces, &mut lr.w);
        let w = &lr.w;
        (lr.max_key, lr.max_unread) = if len == l.span {
            // Whole node: bitmaps must describe the occupancy, and the true
            // maximum is at hand (also covers the no-piggyback mode, where
            // argmax is unavailable).
            assert!(
                bijective(l.span, l.h, |i| w.slot(i).0, |i| w.slot(i).2),
                "locked leaf read observed a torn image"
            );
            (w.max_key(), None)
        } else if word.argmax() == ARGMAX_NONE {
            (None, None)
        } else {
            // In the window, or in the argmax entry the doorbell carried.
            let i = word.argmax() as usize % l.span;
            let (off, esize) = (l.entry_off(i), l.entry_size());
            let holds = |p: &&Fetched| p.lstart() <= off && off + esize <= p.lend();
            match lr.reads.pieces.iter().find(holds) {
                Some(p) => (Some(entry_key(l, p, i)), None),
                None => (None, Some(i)),
            }
        };
        lr.nv = nv;
        lr.meta = meta.expect("no replica in hop range");
    }

    /// The node's maximum key: [`LockedRead::max_key`], after reading the
    /// argmax entry under the lock if the window's doorbell left it out.
    pub fn max_key(&self, ep: &mut Endpoint, addr: GlobalAddr, lr: &mut LockedRead) -> Option<u64> {
        if let Some(i) = lr.max_unread.take() {
            let l = &self.layout;
            let off = l.entry_off(i);
            let pieces = lr.reads.fetch(ep, l, addr, &[(off, off + l.entry_size())]);
            self.validate(pieces)
                .expect("locked leaf read observed a torn image");
            lr.max_key = Some(entry_key(l, &pieces[0], i));
        }
        lr.max_key
    }

    // ----- writes ------------------------------------------------------------

    /// The lock word describing window `w` (vacancy + argmax), unlocked.
    pub fn word_for(&self, w: &Window) -> LockWord {
        assert_eq!(w.len(), self.layout.span);
        // One pass over the slots, group by group.
        let (mut word, mut max) = (LockWord(0), None);
        for g in 0..self.vm.groups() {
            let (s, t) = self.vm.group_range(g);
            let mut vacant = false;
            for i in s..=t {
                match w.slot(i).0 {
                    0 => vacant = true,
                    k if max.is_none_or(|(m, _)| k > m) => max = Some((k, i)),
                    _ => {}
                }
            }
            word = word.with_vacancy_bit(g, vacant);
        }
        word.with_argmax(max.map_or(ARGMAX_NONE, |(_, i)| i as u16))
    }

    /// Writes the full-span window `w` as the whole node at version `nv`
    /// (every EV zeroed) together with its lock word, unlocked. One
    /// round-trip.
    fn write_whole(&self, ep: &mut Endpoint, addr: GlobalAddr, w: &Window, nv: u8, meta: &LeafMeta) {
        assert_eq!((w.start(), w.len()), (0, self.layout.span));
        let mut image = Vec::new();
        let pstart = self.encode(w, (0, self.layout.payload_len()), nv, meta, false, &mut image);
        let (lock_addr, unlock, len) = self.unlock_writes(addr, self.word_for(w));
        ep.write_batch(&[(addr.add(pstart as u64), &image), (lock_addr, &unlock[..len])]);
    }

    /// Writes a brand-new leaf (image + lock word); the node is not yet
    /// reachable so plain writes suffice.
    pub fn write_new(&self, ep: &mut Endpoint, addr: GlobalAddr, w: &Window, meta: &LeafMeta) {
        self.write_whole(ep, addr, w, 0, meta);
    }

    /// Rewrites a locked leaf in place (split path): bumps NV everywhere,
    /// updates vacancy/argmax and releases the lock.
    pub fn rewrite_and_unlock(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        w: &Window,
        old_nv: u8,
        meta: &LeafMeta,
    ) {
        ep.crash_point(CRASH_LEAF_WRITE_BACK);
        self.write_whole(ep, addr, w, bump(old_nv), meta);
    }
}

impl LockedRead {
    /// Writes back the dirty part of the window, updates the lock word to
    /// `word` (vacancy + argmax) and releases the lock, all in one doorbell
    /// batch.
    ///
    /// The write covers the contiguous (cyclic) range from the first to the
    /// last dirty slot: dirty entries get their EV bumped, clean entries
    /// in between are rewritten byte-identically.
    pub fn write_back(&mut self, ops: &LeafOps, ep: &mut Endpoint, addr: GlobalAddr, word: LockWord) {
        ep.crash_point(CRASH_LEAF_WRITE_BACK);
        let l = &ops.layout;
        // One image per contiguous run of the cyclic range from the first
        // dirty slot to the last.
        let mut dirty = self.w.dirty_slots();
        let cover = dirty.next().map(|a| (a, dirty.last().unwrap_or(a)));
        let runs = match cover.map(|(a, e)| l.cyclic_split(a, e)) {
            Some((first, wrap)) => [Some(first), wrap],
            None => [None, None],
        };
        let mut starts = [0; 2];
        let mut n = 0;
        for ((s, t), image) in runs.into_iter().flatten().zip(&mut self.images) {
            let range = (l.entry_off(s), l.entry_off(t) + l.entry_size());
            starts[n] = ops.encode(&self.w, range, self.nv, &self.meta, true, image);
            n += 1;
        }
        let (lock_addr, unlock, len) = ops.unlock_writes(addr, word);
        let mut batch = [(lock_addr, &unlock[..len]); 3];
        for (i, (pstart, image)) in starts.iter().zip(&self.images).take(n).enumerate() {
            batch[i] = (addr.add(*pstart as u64), image);
        }
        ep.write_batch(&batch[..=n]);
    }
}

#[cfg(test)]
pub(crate) mod tests;
