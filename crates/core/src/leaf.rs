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
//! One codec serves all of them, over the geometry's leaf plan
//! ([`crate::layout::LeafLocator`]: every entry's and replica's offset and
//! each line slot's owner). Whatever was fetched — an entry, a
//! neighborhood, a hop range, a whole node — passes `validate` once, one
//! fold over each piece's version bytes; a whole image extracts its keys
//! and bitmaps in the same fold and additionally passes the
//! bitmap/occupancy bijection, which compares the stored bitmaps with those
//! rebuilt from each occupied slot's home.
//! Lock-free reads then answer from the fetched slices ([`LeafSnapshot`],
//! its keys and bitmaps decoded once), and retry a torn image through
//! [`crate::backoff::until_consistent`]; they borrow their buffers from a
//! [`Fetches`] the client keeps (a scanning client's also recycles its
//! snapshots' keys and bitmaps, [`LeafFields`]), so its warm searches and
//! scans allocate nothing. Locked reads copy the covered entries once into the
//! [`Window`] of a [`LockedRead`], the only mutable form of leaf content,
//! which carries each slot's EV and dirty mark. A writing client keeps one
//! `LockedRead` — window, READ buffers and outgoing images — and every
//! locked read refills it, so its warm writes allocate none of them; entry
//! offsets come from the plan and cyclic indices are wrapped without a
//! division. Every
//! write — dirty hop range, new node, node rewrite — leaves through
//! `encode`, straight into its outgoing buffer.
//!
//! Both crash points ([`CRASH_LEAF_LOCKED`], [`CRASH_LEAF_WRITE_BACK`]) sit
//! before any publish: content and unlock land in one doorbell, so a crash
//! at either leaves the content untouched and only the lock word stale. A
//! crashed operation is a logical no-op, which keeps the chaos oracle exact.

use std::ops::Range;

use dmem::hash::home_entry;
use dmem::versioned::{self, bump, ev, pack_ver, Fetched, Fetches, LINE_PAYLOAD, MAX_RANGES};
use dmem::{Endpoint, GlobalAddr};

use crate::backoff::{read_node, read_nodes, until_consistent, Backoff};
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
    occupied: usize,
    bitmaps: Vec<u16>,
    plan: LeafLocator,
    image: Fetched,
}

impl LeafSnapshot {
    /// Stored value bytes of entry `i`.
    pub fn value(&self, i: usize) -> &[u8] {
        let l = self.plan.layout();
        self.value_at(self.plan.entry_offs()[i] as usize + entry_field::KEY + l.key_size)
    }

    /// How many slots hold a key.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Hopscotch bitmap of entry `i`.
    pub fn bitmap(&self, i: usize) -> u16 {
        self.bitmaps[i]
    }

    /// Entry-level version of entry `i`.
    pub fn ev(&self, i: usize) -> u8 {
        entry_ev(self.plan.layout(), &self.image, i)
    }

    /// Looks `key` up via its home entry's bitmap.
    pub fn find(&self, key: u64) -> Option<(usize, &[u8])> {
        let span = self.keys.len();
        let home = home_entry(key, span);
        let bm = self.bitmap(home);
        (0..self.plan.layout().h)
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
        let value = entry_field::KEY + self.plan.layout().key_size;
        let offs = self.plan.entry_offs().iter();
        self.keys.iter().copied().zip(offs.map(move |&off| off as usize + value))
    }

    /// The stored value at the logical offset [`Self::slots`] gave.
    pub fn value_at(&self, off: usize) -> &[u8] {
        self.image.bytes(off, self.plan.layout().value_size)
    }

    /// All `(key, value)` items in slot order (unsorted by key).
    pub fn items(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != 0)
            .map(|(i, &k)| (k, self.value(i)))
    }

    /// Hands the snapshot's image, keys and bitmaps back to `reads` for
    /// later whole-leaf reads.
    pub fn recycle(self, reads: &mut Fetches<LeafFields>) {
        reads.recycle(self.image, (self.keys, self.bitmaps));
    }

    /// Converts the snapshot into a full-span hopscotch window.
    pub fn into_window(self) -> Window {
        let l = self.plan.layout();
        let mut w = l.window(0, l.span);
        load(l, &self.plan, std::slice::from_ref(&self.image), &mut w);
        w
    }
}

/// A whole-leaf read's side table: the snapshot's keys and bitmaps, which
/// a reader's [`Fetches`] recycles beside the images.
pub type LeafFields = (Vec<u64>, Vec<u16>);

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

/// Every entry `pieces` cover, with its logical offset and the piece
/// holding it.
fn covered<'a>(loc: &'a LeafLocator, pieces: &'a [Fetched]) -> impl Iterator<Item = (usize, usize, &'a Fetched)> {
    let entries = |p: &'a Fetched| {
        let covered = loc.entries_in(p.lstart(), p.lend());
        let offs = &loc.entry_offs()[covered.clone()];
        covered.zip(offs).map(move |(i, &off)| (i, off as usize, p))
    };
    pieces.iter().flat_map(entries)
}

/// Copies every entry of `pieces` that `w` covers into it, walking the
/// plan's entry offsets.
fn load(l: &LeafLayout, loc: &LeafLocator, pieces: &[Fetched], w: &mut Window) {
    let (value, esize) = (entry_field::KEY + l.key_size, l.entry_size());
    for (i, off, p) in covered(loc, pieces) {
        let Some(r) = w.rel(i) else { continue };
        let e = p.bytes(off, esize);
        w.set_rel(r, entry_key_of(e), &e[value..], entry_bitmap_of(e), ev(e[entry_field::VER]));
    }
}

/// The key of an entry's bytes.
fn entry_key_of(e: &[u8]) -> u64 {
    u64::from_le_bytes(e[entry_field::KEY..][..8].try_into().expect("8 bytes"))
}

/// The hopscotch bitmap of an entry's bytes.
fn entry_bitmap_of(e: &[u8]) -> u16 {
    u16::from_le_bytes(e[entry_field::BITMAP..][..2].try_into().expect("2 bytes"))
}

/// Bitmaps and occupancy are a bijection: the stored bitmaps equal the
/// ones rebuilt from each occupied slot's home. Every key lies under `h`
/// slots from its home and its bit is stored, so the rebuilt bits are a
/// subset of the stored ones; equal counts leave no stored bit over (a bit
/// at or above `h`, or one naming an empty or foreign slot). Returns the
/// number of occupied slots when they are a bijection.
///
/// Every slot is folded the same way, empty or not, so the pass takes no
/// branch per slot: an empty slot's home is computed and its verdict masked.
fn bijective(h: usize, keys: &[u64], bitmaps: &[u16]) -> Option<usize> {
    let span = keys.len();
    let bitmaps = &bitmaps[..span];
    // Four bitmaps to a word: a quarter of the bit counts.
    let mut words = bitmaps.chunks_exact(4);
    let word = |w: &[u16]| w.iter().fold(0u64, |acc, &b| acc << 16 | u64::from(b)).count_ones();
    let bits: u32 = words.by_ref().map(word).sum::<u32>() + word(words.remainder());
    let (mut occupied, mut unnamed) = (0, 0);
    for (pos, &k) in keys.iter().enumerate() {
        let home = home_entry(k, span);
        let d = pos + span * usize::from(pos < home) - home;
        // A bit at `d & 15` counts only below `h` (at most 16).
        let named = u32::from(bitmaps[home]) >> (d & 15) & u32::from(d < h);
        let full = u32::from(k != 0);
        occupied += full;
        unnamed |= full & !named;
    }
    (unnamed & 1 == 0 && occupied == bits).then_some(occupied as usize)
}

/// The fold of every version byte one read covers: their AND and OR (the
/// NVs agree exactly when `(and ^ or) >> 4 == 0`) and the OR of every owned
/// slot's difference from its owner's lead byte (zero when every covered
/// entry is EV-consistent).
#[derive(Debug, Clone, Copy)]
struct Versions {
    and: u8,
    or: u8,
    torn: u8,
}

impl Versions {
    /// The fold of no byte.
    const NONE: Versions = Versions { and: 0xFF, or: 0, torn: 0 };

    /// The NV every byte carries, when the read is consistent.
    fn nv(self) -> Option<u8> {
        let agree = (self.and ^ self.or) >> 4 == 0 && self.torn == 0;
        agree.then_some(versioned::nv(self.or))
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
    /// The keys and bitmaps of a whole-node window, for its bijection check.
    fields: (Vec<u64>, Vec<u16>),
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
    /// `layout`'s plan, shared by every leaf of this geometry.
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
    fn validate(&self, pieces: &[Fetched]) -> Option<(u8, Option<LeafMeta>)> {
        let (mut v, mut meta) = (Versions::NONE, None);
        for p in pieces {
            let replicas = self.fold(p, &mut v, |_| {});
            if meta.is_none() {
                let first = self.locator.replica_offs()[replicas].first();
                meta = first.map(|&off| self.parse_meta(p, off as usize));
            }
        }
        Some((v.nv()?, meta))
    }

    /// The validation pass over piece `p`, folded into `v`: one walk over
    /// the plan's offsets of its covered entries and replicas, then one
    /// over its line slots. A slot a covered entry owns must equal that
    /// entry's lead byte (NV and EV); any other carries the NV only.
    /// `entry` sees each covered entry's bytes on the way. Returns the
    /// covered replicas.
    fn fold(&self, p: &Fetched, v: &mut Versions, mut entry: impl FnMut(&[u8])) -> Range<usize> {
        let loc = &self.locator;
        let (a, b) = (p.lstart(), p.lend());
        let payload = p.bytes(a, b - a);
        let (entries, replicas) = (loc.entries_in(a, b), loc.replicas_in(a, b));
        let (first_line, slots) = p.line_slots();
        let (offs, esize) = (loc.entry_offs(), self.layout.entry_size());
        let (mut and, mut or, mut torn) = (v.and, v.or, v.torn);
        for &off in &offs[entries.clone()] {
            let e = &payload[off as usize - a..][..esize];
            (and, or) = (and & e[entry_field::VER], or | e[entry_field::VER]);
            entry(e);
        }
        for &off in &loc.replica_offs()[replicas.clone()] {
            let lead = payload[off as usize - a + replica_field::VER];
            (and, or) = (and & lead, or | lead);
        }
        for (&slot, &owner) in slots.iter().zip(loc.owners(first_line, slots.len())) {
            (and, or) = (and & slot, or | slot);
            if entries.contains(&(owner as usize)) {
                torn |= slot ^ payload[offs[owner as usize] as usize - a];
            }
        }
        *v = Versions { and, or, torn };
        replicas
    }

    /// Validates a whole-leaf image and decodes its keys and bitmaps into
    /// `fields`, in the one pass of [`Self::validate`], then checks the
    /// bitmap/occupancy bijection over them. A consistent image becomes a
    /// snapshot that takes the image and the fields; `None` is a torn or
    /// intermediate image, left in place.
    fn decode(&self, image: &mut Fetched, (keys, bitmaps): &mut LeafFields) -> Option<LeafSnapshot> {
        let l = &self.layout;
        debug_assert_eq!((image.lstart(), image.lend()), (0, l.payload_len()));
        keys.clear();
        keys.reserve(l.span);
        bitmaps.clear();
        bitmaps.reserve(l.span);
        let mut v = Versions::NONE;
        self.fold(image, &mut v, |e| {
            keys.push(entry_key_of(e));
            bitmaps.push(entry_bitmap_of(e));
        });
        let nv = v.nv()?;
        let occupied = bijective(l.h, keys, bitmaps)?;
        Some(LeafSnapshot {
            nv,
            occupied,
            meta: self.parse_meta(image, self.locator.replica_offs()[0] as usize),
            keys: std::mem::take(keys),
            bitmaps: std::mem::take(bitmaps),
            plan: self.locator,
            image: std::mem::take(image),
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
        let loc = &self.locator;
        for &off in &loc.replica_offs()[loc.replicas_in(lstart, lend)] {
            let b = &mut buf[off as usize - lstart..][..l.replica_size()];
            b[replica_field::VER] = pack_ver(nv, 0);
            put(b, replica_field::SIBLING, &meta.sibling.raw().to_le_bytes());
            b[replica_field::VALID] = meta.valid as u8;
            if let Some((lo, hi)) = meta.fences {
                assert!(l.fences);
                put(b, replica_field::FENCE_LOW, &lo.to_le_bytes());
                put(b, replica_field::FENCE_LOW + l.key_size, &hi.to_le_bytes());
            }
        }
        let entries = loc.entries_in(lstart, lend);
        for (i, &off) in entries.clone().zip(&loc.entry_offs()[entries]) {
            let (key, value, bitmap) = w.slot(i);
            let b = &mut buf[off as usize - lstart..][..l.entry_size()];
            b[entry_field::VER] = ver(i);
            put(b, entry_field::BITMAP, &bitmap.to_le_bytes());
            put(b, entry_field::KEY, &key.to_le_bytes());
            put(b, entry_field::KEY + l.key_size, &value[..l.value_size]);
        }
        // A line version belongs to the object its first payload byte is
        // in: the plan's slot owner.
        let line_ver = |p: usize| loc.owner(p / LINE_PAYLOAD).map_or(pack_ver(nv, 0), ver);
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
        let layout = self.layout.versioned();
        until_consistent(ep, addr.raw(), |ep| {
            let pieces = reads.fetch(ep, &layout, addr, ranges);
            let (meta, found) = self.validate(pieces).and_then(|(_, meta)| {
                // Third level: every bit of the home bitmap (`home` leads
                // the first range) must name a key homed there.
                let bm = entry_bitmap(&self.layout, &pieces[0], home);
                let mut found = None;
                for (pos, off, p) in covered(&self.locator, pieces) {
                    let d = cyc_dist(home, pos, span);
                    if d >= h || bm & (1 << d) == 0 {
                        continue;
                    }
                    let k = p.u64_at(off + entry_field::KEY);
                    if k == 0 || home_entry(k, span) != home {
                        return None;
                    }
                    if k == key {
                        found = Some((pos, off, p));
                    }
                }
                Some((meta.expect("no replica covered"), found))
            }).ok_or(1usize)?;
            if let Some((_, off, p)) = found {
                let l = &self.layout;
                p.bytes(off + entry_field::KEY + l.key_size, l.value_size).clone_into(value);
            }
            Ok(NbhRead {
                meta,
                found: found.map(|(pos, ..)| pos),
            })
        })
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
            let pieces = reads.fetch(ep, &l.versioned(), addr, &[(off, off + l.entry_size())]);
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

    /// Whole-leaf read with full validation (chases), through `reads`'
    /// buffers: [`LeafSnapshot::recycle`] hands them back.
    pub fn read_snapshot(&self, ep: &mut Endpoint, addr: GlobalAddr, reads: &mut Fetches<LeafFields>) -> LeafSnapshot {
        read_node(ep, &self.layout.versioned(), addr, reads, |f, fields| self.decode(f, fields))
    }

    /// Whole-leaf reads of several nodes with one doorbell batch per round,
    /// appended to `out` in `addrs` order; torn leaves are re-fetched in
    /// follow-up rounds (scans). `reads` lends the buffers.
    pub fn read_snapshots(
        &self,
        ep: &mut Endpoint,
        addrs: &[GlobalAddr],
        reads: &mut Fetches<LeafFields>,
        out: &mut Vec<LeafSnapshot>,
    ) {
        let layout = self.layout.versioned();
        read_nodes(ep, &layout, addrs, addrs.len() as u64, reads, out, |f, fields| self.decode(f, fields));
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
            let locked = lr.reads.post(&self.layout.versioned(), addr, ranges, |reqs| {
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
            lr.reads.fetch(ep, &self.layout.versioned(), addr, ranges);
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
        lr.reads.fetch(ep, &l.versioned(), addr, &ranges[..n]);
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
            .validate(lr.reads.pieces())
            .expect("locked leaf read observed a torn image");
        lr.w.reset(l.span, l.h, l.value_size, a, len);
        load(l, &self.locator, lr.reads.pieces(), &mut lr.w);
        let w = &lr.w;
        (lr.max_key, lr.max_unread) = if len == l.span {
            // Whole node: bitmaps must describe the occupancy, and the true
            // maximum is at hand (also covers the no-piggyback mode, where
            // argmax is unavailable).
            let (keys, bitmaps) = &mut lr.fields;
            keys.clear();
            bitmaps.clear();
            for (key, _, bitmap) in (0..l.span).map(|i| w.slot(i)) {
                keys.push(key);
                bitmaps.push(bitmap);
            }
            assert!(
                bijective(l.h, keys, bitmaps).is_some(),
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
            match lr.reads.pieces().iter().find(holds) {
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
            let pieces = lr.reads.fetch(ep, &l.versioned(), addr, &[(off, off + l.entry_size())]);
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
