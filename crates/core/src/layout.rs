//! Node layouts (Fig. 6 / Fig. 10 of the paper).
//!
//! All offsets below are *logical* (payload-space) offsets; the versioned
//! layout of [`dmem::versioned`] interleaves the physical cache-line version
//! bytes. Each object (header/replica/entry) begins with its own version
//! byte.
//!
//! Leaf node (optimized, Fig. 10): blocks of `[metadata replica][H entries]`
//! so that every neighborhood read covers or abuts a replica, followed by the
//! 8-byte lock word (vacancy bitmap + argmax + lock bit). With metadata
//! replication disabled there is a single header at offset 0. With
//! sibling-based validation disabled the replicas additionally carry fence
//! keys (Fig. 16's comparison).
//!
//! Internal node (Fig. 6): header with level/valid/fence keys/sibling
//! followed by `span` pivot entries and the lock word.

use std::ops::Range;
use std::sync::Mutex;

use dmem::versioned::{Layout, LINE_PAYLOAD};

use crate::hopscotch::Window;

/// Geometry of a hopscotch leaf node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafLayout {
    /// Entries per node.
    pub span: usize,
    /// Neighborhood size H.
    pub h: usize,
    /// Stored key size in bytes (>= 8; the first 8 hold the `u64` key).
    pub key_size: usize,
    /// Inline value (or indirect pointer) size in bytes.
    pub value_size: usize,
    /// Metadata replicas every H entries (vs a single header).
    pub replication: bool,
    /// Replicas carry fence keys (sibling validation disabled).
    pub fences: bool,
    /// Vacancy bitmap shares the lock word (vs a separate word).
    pub piggyback: bool,
}

impl LeafLayout {
    /// Bytes per entry: version byte, hopscotch bitmap, key, value.
    pub fn entry_size(&self) -> usize {
        1 + 2 + self.key_size + self.value_size
    }

    /// Bytes per metadata replica: version byte, sibling pointer, valid
    /// flag, and (without sibling validation) low/high fence keys.
    pub fn replica_size(&self) -> usize {
        1 + 8 + 1 + if self.fences { 2 * self.key_size } else { 0 }
    }

    fn block_size(&self) -> usize {
        self.replica_size() + self.h * self.entry_size()
    }

    /// An empty hopscotch window over `len` cyclic entries from `start` of
    /// a leaf of this geometry.
    pub fn window(&self, start: usize, len: usize) -> Window {
        Window::new(self.span, self.h, self.value_size, start, len)
    }

    /// Total logical payload bytes.
    pub fn payload_len(&self) -> usize {
        if self.replication {
            (self.span / self.h) * self.block_size()
        } else {
            self.replica_size() + self.span * self.entry_size()
        }
    }

    /// The versioned layout of the payload.
    pub fn versioned(&self) -> Layout {
        Layout::new(self.payload_len())
    }

    /// Physical offset of the 8-byte lock word.
    pub fn lock_off(&self) -> usize {
        self.versioned().lock_offset()
    }

    /// Physical offset of the separate vacancy word (piggybacking off).
    pub fn vacancy_off(&self) -> usize {
        assert!(!self.piggyback);
        self.lock_off() + 8
    }

    /// Total physical node size.
    pub fn node_size(&self) -> usize {
        self.versioned().node_size() + if self.piggyback { 0 } else { 8 }
    }

    /// Logical offset of entry `i`.
    pub fn entry_off(&self, i: usize) -> usize {
        debug_assert!(i < self.span);
        if self.replication {
            (i / self.h) * self.block_size()
                + self.replica_size()
                + (i % self.h) * self.entry_size()
        } else {
            self.replica_size() + i * self.entry_size()
        }
    }

    /// Logical offset of the metadata replica of block `b`.
    pub fn replica_off(&self, b: usize) -> usize {
        if self.replication {
            debug_assert!(b < self.span / self.h);
            b * self.block_size()
        } else {
            debug_assert_eq!(b, 0);
            0
        }
    }

    /// Logical ranges to fetch for a neighborhood read of home entry `home`.
    ///
    /// With replication on, exactly one replica is covered; the ranges are
    /// `[a, b)` pairs, two of them when the neighborhood wraps around the
    /// table (fetched with one doorbell batch).
    pub fn neighborhood_ranges(&self, home: usize) -> Vec<(usize, usize)> {
        let (first, wrap) = self.neighborhood_range_pair(home);
        std::iter::once(first).chain(wrap).collect()
    }

    /// [`Self::neighborhood_ranges`] without the `Vec`: the range holding
    /// `home`, and the one from the start of the table when the
    /// neighborhood wraps around.
    pub fn neighborhood_range_pair(&self, home: usize) -> ((usize, usize), Option<(usize, usize)>) {
        debug_assert!(home < self.span);
        let last = home + self.h - 1;
        if last < self.span {
            let start = if self.replication && home.is_multiple_of(self.h) {
                self.replica_off(home / self.h)
            } else {
                self.entry_off(home)
            };
            ((start, self.entry_off(last) + self.entry_size()), None)
        } else {
            // Wrap-around: [home, span) plus [0, last % span].
            (
                (
                    self.entry_off(home),
                    self.entry_off(self.span - 1) + self.entry_size(),
                ),
                Some((
                    self.replica_off(0),
                    self.entry_off(last % self.span) + self.entry_size(),
                )),
            )
        }
    }

    /// Splits cyclic entries `[a, e]` (inclusive) into ascending contiguous
    /// runs: the one from `a`, and the one from entry 0 when the range
    /// wraps around the table.
    pub fn cyclic_split(&self, a: usize, e: usize) -> ((usize, usize), Option<(usize, usize)>) {
        debug_assert!(a < self.span && e < self.span);
        if a <= e {
            ((a, e), None)
        } else {
            ((a, self.span - 1), Some((0, e)))
        }
    }

    /// Logical ranges to fetch for a hop-range read covering cyclic entries
    /// `[a, e]` (inclusive), one per run of [`Self::cyclic_split`]. At least
    /// one replica is always covered when replication is on.
    pub fn hop_ranges(&self, a: usize, e: usize) -> ((usize, usize), Option<(usize, usize)>) {
        let range = |(s, t): (usize, usize)| {
            let start = if self.replication && (s % self.h == 0 || s / self.h == t / self.h) {
                // Same block (no interior replica) or block-aligned:
                // begin at the block's replica.
                self.replica_off(s / self.h)
            } else {
                self.entry_off(s)
            };
            (start, self.entry_off(t) + self.entry_size())
        };
        let (first, wrap) = self.cyclic_split(a, e);
        (range(first), wrap.map(range))
    }

    /// The entry holding logical byte `l`; `None` inside a replica.
    pub fn entry_at(&self, l: usize) -> Option<usize> {
        let (block, within) = if self.replication {
            (l / self.block_size(), l % self.block_size())
        } else {
            (0, l)
        };
        let body = within.checked_sub(self.replica_size())?;
        Some(block * self.h + body / self.entry_size())
    }

    /// This geometry's plan: its covered-object math, divisors inverted,
    /// and its offset and slot-owner tables. A plan is built once per
    /// geometry and kept for the life of the process, so every tree and
    /// snapshot of one geometry shares it: take it with the ops, not per
    /// lookup.
    pub fn locator(&self) -> LeafLocator {
        static PLANS: Mutex<Vec<&'static Plan>> = Mutex::new(Vec::new());
        // A panic while building a plan pushes nothing: a poisoned list is
        // still whole.
        let mut plans = PLANS.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&plan) = plans.iter().find(|p| p.layout == *self) {
            return LeafLocator(plan);
        }
        let plan: &'static Plan = Box::leak(Box::new(self.plan()));
        plans.push(plan);
        LeafLocator(plan)
    }

    fn plan(&self) -> Plan {
        // Every offset it is asked about (plus a block, in `replicas_in`)
        // must stay inside `Divisor`'s exact range.
        assert!(
            self.payload_len() + self.block_size() < 1 << 32,
            "leaf too large: {self:?}"
        );
        let blocks = if self.replication { self.span / self.h } else { 1 };
        let owner = |line: usize| self.entry_at(line * LINE_PAYLOAD).map_or(NO_ENTRY, |i| i as u32);
        Plan {
            layout: *self,
            block: Divisor::new(self.block_size()),
            entry: Divisor::new(self.entry_size()),
            entries: (0..self.span).map(|i| self.entry_off(i) as u32).collect(),
            replicas: (0..blocks).map(|k| self.replica_off(k) as u32).collect(),
            owners: (0..self.versioned().lines()).map(owner).collect(),
        }
    }

    /// Metadata bytes per node (everything that is not key/value payload),
    /// used by the Fig. 16 comparison.
    pub fn metadata_bytes(&self) -> usize {
        let replicas = if self.replication {
            (self.span / self.h) * self.replica_size()
        } else {
            self.replica_size()
        };
        // Per-entry metadata: version byte + hopscotch bitmap.
        let per_entry = 3 * self.span;
        // Cache-line version bytes.
        let line_bytes = self.versioned().lines();
        replicas + per_entry + line_bytes + 8
    }
}

/// `n / d` and `n % d` for a divisor `d` fixed at construction, by
/// widening multiplies instead of a division: with `m = ⌊(2⁶⁴ − 1) / d⌋ + 1`,
/// `⌊n / d⌋ = ⌊m·n / 2⁶⁴⌋` for every `n < 2³²` (Lemire, Kaser and Kurz,
/// "Faster remainder by direct computation", 2019).
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: usize,
    m: u64,
}

impl Divisor {
    fn new(d: usize) -> Self {
        assert!((2..1 << 32).contains(&d), "divisor {d} out of range");
        Divisor {
            d,
            m: u64::MAX / d as u64 + 1,
        }
    }

    #[inline]
    fn div_rem(self, n: usize) -> (usize, usize) {
        debug_assert!(n < 1 << 32);
        let q = ((u128::from(self.m) * n as u128) >> 64) as usize;
        (q, n - q * self.d)
    }
}

/// The slot owner of a line whose version slot falls inside a replica.
const NO_ENTRY: u32 = u32::MAX;

/// The plan of a [`LeafLayout`] ([`LeafLayout::locator`]): which entries
/// and replicas a logical byte range fully covers, each entry's and each
/// replica's logical offset, and which entry owns each line-version slot.
/// Every fetched piece asks the covered-object math once or twice, so its
/// two divisors — the block and the entry size — are inverted when the
/// plan is built and each query multiplies; every codec pass walks the
/// offset tables instead of dividing per entry.
#[derive(Debug, Clone, Copy)]
pub struct LeafLocator(&'static Plan);

/// What a [`LeafLocator`] names, one per geometry.
#[derive(Debug)]
struct Plan {
    layout: LeafLayout,
    block: Divisor,
    entry: Divisor,
    entries: Box<[u32]>,
    replicas: Box<[u32]>,
    owners: Box<[u32]>,
}

impl LeafLocator {
    /// How many entries end at or before logical `l`, and whether `l` is
    /// not strictly inside an entry (the next one starts at or after it).
    #[inline]
    fn locate(&self, l: usize) -> (usize, bool) {
        let g = self.layout();
        let (blocks, within) = if g.replication {
            self.0.block.div_rem(l)
        } else {
            (0, l)
        };
        let (entries, into) = self.0.entry.div_rem(within.saturating_sub(g.replica_size()));
        ((blocks * g.h + entries).min(g.span), into == 0)
    }

    /// Indices of the entries fully covered by logical `[a, b)`.
    #[inline]
    pub fn entries_in(&self, a: usize, b: usize) -> Range<usize> {
        let (ended, on_boundary) = self.locate(a);
        let first = if on_boundary { ended } else { ended + 1 };
        let end = self.locate(b).0;
        first.min(end)..end
    }

    /// Block indices whose replica is fully covered by logical `[a, b)`.
    #[inline]
    pub fn replicas_in(&self, a: usize, b: usize) -> Range<usize> {
        let g = self.layout();
        if !g.replication {
            return 0..usize::from(a == 0 && b >= g.replica_size());
        }
        let (q, r) = self.0.block.div_rem(a);
        let first = q + usize::from(r > 0);
        let end = self.0.block.div_rem(b + g.h * g.entry_size()).0;
        first..end.max(first)
    }

    /// The geometry this plan is of.
    #[inline]
    pub fn layout(&self) -> &'static LeafLayout {
        &self.0.layout
    }

    /// Logical offset of every entry, in entry order.
    #[inline]
    pub fn entry_offs(&self) -> &'static [u32] {
        &self.0.entries
    }

    /// Logical offset of every replica (the single header without
    /// replication), in block order.
    #[inline]
    pub fn replica_offs(&self) -> &'static [u32] {
        &self.0.replicas
    }

    /// The entry whose lead byte line `line`'s version slot carries: the
    /// entry holding the slot's logical offset `line * 63`, the first byte
    /// of the line's payload ([`LeafLayout::entry_at`]); `None` inside a
    /// replica.
    #[inline]
    pub fn owner(&self, line: usize) -> Option<usize> {
        let i = self.0.owners[line];
        (i != NO_ENTRY).then_some(i as usize)
    }

    /// [`Self::owner`] of lines `first..first + n` at once, each as its
    /// entry index or an index past every entry.
    #[inline]
    pub(crate) fn owners(&self, first: usize, n: usize) -> &'static [u32] {
        &self.0.owners[first..first + n]
    }
}

/// Field offsets inside a leaf entry (relative to the entry start).
pub mod entry_field {
    /// Version byte.
    pub const VER: usize = 0;
    /// 2-byte hopscotch bitmap.
    pub const BITMAP: usize = 1;
    /// Key (first 8 bytes of the key field).
    pub const KEY: usize = 3;
}

/// Field offsets inside a leaf metadata replica / header.
pub mod replica_field {
    /// Version byte.
    pub const VER: usize = 0;
    /// 8-byte sibling pointer.
    pub const SIBLING: usize = 1;
    /// Valid flag.
    pub const VALID: usize = 9;
    /// Low fence key (fence mode only).
    pub const FENCE_LOW: usize = 10;
}

/// Geometry of an internal (B+-tree) node.
#[derive(Debug, Clone, Copy)]
pub struct InternalLayout {
    /// Maximum number of pivot entries.
    pub span: usize,
}

/// Field offsets inside an internal-node header.
pub mod internal_field {
    /// Version byte.
    pub const VER: usize = 0;
    /// Node level (leaves are level 0, their parents level 1, ...).
    pub const LEVEL: usize = 1;
    /// Valid flag.
    pub const VALID: usize = 2;
    /// Number of used entries (u16).
    pub const COUNT: usize = 3;
    /// Low fence key.
    pub const FENCE_LOW: usize = 5;
    /// High fence key.
    pub const FENCE_HIGH: usize = 13;
    /// Sibling pointer.
    pub const SIBLING: usize = 21;
    /// Header size.
    pub const SIZE: usize = 29;
}

impl InternalLayout {
    /// Bytes per pivot entry: version byte, pivot key, child pointer.
    pub const ENTRY_SIZE: usize = 17;

    /// Total logical payload bytes.
    pub fn payload_len(&self) -> usize {
        internal_field::SIZE + self.span * Self::ENTRY_SIZE
    }

    /// The versioned layout of the payload.
    pub fn versioned(&self) -> Layout {
        Layout::new(self.payload_len())
    }

    /// Physical offset of the lock word.
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
        internal_field::SIZE + i * Self::ENTRY_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_leaf() -> LeafLayout {
        LeafLayout {
            span: 64,
            h: 8,
            key_size: 8,
            value_size: 8,
            replication: true,
            fences: false,
            piggyback: true,
        }
    }

    #[test]
    fn leaf_geometry_defaults() {
        let l = default_leaf();
        assert_eq!(l.entry_size(), 19);
        assert_eq!(l.replica_size(), 10);
        assert_eq!(l.payload_len(), 8 * (10 + 8 * 19));
        assert_eq!(l.node_size(), l.versioned().node_size());
    }

    #[test]
    fn entry_offsets_monotone_and_disjoint() {
        let l = default_leaf();
        let plan = l.locator();
        assert!(plan.entry_offs().iter().map(|&o| o as usize).eq((0..l.span).map(|i| l.entry_off(i))));
        assert!(plan.replica_offs().iter().map(|&o| o as usize).eq((0..l.span / l.h).map(|k| l.replica_off(k))));
        assert!(std::ptr::eq(plan.entry_offs(), l.locator().entry_offs()), "one table per geometry");
        let mut prev_end = 0;
        for i in 0..l.span {
            if i % l.h == 0 {
                assert_eq!(l.replica_off(i / l.h), prev_end);
                prev_end += l.replica_size();
            }
            assert_eq!(l.entry_off(i), prev_end);
            prev_end += l.entry_size();
        }
        assert_eq!(prev_end, l.payload_len());
    }

    #[test]
    fn neighborhood_covers_exactly_h_entries_plus_replica() {
        let l = default_leaf();
        for home in 0..l.span {
            let ranges = l.neighborhood_ranges(home);
            let total: usize = ranges.iter().map(|&(a, b)| b - a).sum();
            // H entries plus at least one replica; wrap may include the
            // block-0 replica as well.
            assert!(total >= l.h * l.entry_size() + l.replica_size());
            assert!(total <= l.h * l.entry_size() + 2 * l.replica_size());
            // Exactly one replica must be fully covered per read.
            let loc = l.locator();
            let covered: usize = ranges.iter().map(|&(a, b)| loc.replicas_in(a, b).len()).sum();
            assert!(covered >= 1, "home {home} covers no replica");
        }
    }

    #[test]
    fn divisor_divides_exactly() {
        let ns = (0..3_000).chain([1 << 20, (1 << 31) + 12_345, (1 << 32) - 1]);
        for d in (2..700).chain([4_095, 65_537, (1 << 31) + 1]) {
            let div = Divisor::new(d);
            for n in ns.clone() {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn covered_objects_match_a_brute_force_filter() {
        let small = LeafLayout {
            span: 16,
            h: 4,
            ..default_leaf()
        };
        for l in [
            small,
            LeafLayout { replication: false, ..small },
            LeafLayout { fences: true, ..small },
        ] {
            let blocks = if l.replication { l.span / l.h } else { 1 };
            let loc = l.locator();
            for i in 0..l.span {
                let bytes = l.entry_off(i)..l.entry_off(i) + l.entry_size();
                assert!(bytes.clone().all(|at| l.entry_at(at) == Some(i)));
            }
            for k in 0..blocks {
                let bytes = l.replica_off(k)..l.replica_off(k) + l.replica_size();
                assert!(bytes.clone().all(|at| l.entry_at(at).is_none()));
            }
            for a in 0..l.payload_len() {
                for b in a + 1..=l.payload_len() {
                    let entries: Vec<usize> = (0..l.span)
                        .filter(|&i| l.entry_off(i) >= a && l.entry_off(i) + l.entry_size() <= b)
                        .collect();
                    assert_eq!(loc.entries_in(a, b).collect::<Vec<_>>(), entries, "[{a}, {b})");
                    let replicas: Vec<usize> = (0..blocks)
                        .filter(|&k| l.replica_off(k) >= a && l.replica_off(k) + l.replica_size() <= b)
                        .collect();
                    assert_eq!(loc.replicas_in(a, b).collect::<Vec<_>>(), replicas, "[{a}, {b})");
                }
            }
        }
    }

    /// Each line-version slot's owner as the validator used to find it:
    /// walking the entries in order beside the slots (one per 63 payload
    /// bytes), a slot belongs to the entry whose bytes `[off, off +
    /// entry_size)` hold its offset, and a slot in front of or between
    /// entries to none.
    fn walked_owners(l: &LeafLayout) -> Vec<Option<usize>> {
        let mut owners = vec![None; l.versioned().lines()];
        let mut next = 0;
        for i in 0..l.span {
            let off = l.entry_off(i);
            while next < off + l.entry_size() {
                if next >= off {
                    owners[next / LINE_PAYLOAD] = Some(i);
                }
                next += LINE_PAYLOAD;
            }
        }
        owners
    }

    /// The plan states the slot rule once; on every geometry the figures
    /// use — spans 16 to 512, H 2 to 16, replicas and fences on or off,
    /// values of 8 B to 8 KiB — its owners are `entry_at`'s and the walk's,
    /// and its offset tables are `entry_off`'s and `replica_off`'s.
    #[test]
    fn plan_slot_owners_follow_the_line_rule() {
        for span in [16, 32, 64, 128, 256, 512] {
            for h in [2, 4, 8, 16] {
                for value_size in [8, 64, 200, 1024, 8192] {
                    for (replication, fences) in [(true, false), (false, false), (true, true), (false, true)] {
                        let l = LeafLayout { span, h, key_size: 8, value_size, replication, fences, piggyback: true };
                        let plan = l.locator();
                        let owners: Vec<Option<usize>> = (0..l.versioned().lines()).map(|j| plan.owner(j)).collect();
                        let by_entry_at: Vec<Option<usize>> =
                            (0..l.versioned().lines()).map(|j| l.entry_at(j * LINE_PAYLOAD)).collect();
                        assert_eq!(owners, by_entry_at, "{l:?}");
                        assert_eq!(owners, walked_owners(&l), "{l:?}");
                        assert!(plan.entry_offs().iter().enumerate().all(|(i, &o)| o as usize == l.entry_off(i)));
                        let blocks = if replication { span / h } else { 1 };
                        assert!(plan.replica_offs().iter().map(|&o| o as usize).eq((0..blocks).map(|k| l.replica_off(k))));
                    }
                }
            }
        }
    }

    #[test]
    fn neighborhood_wraps_into_two_ranges() {
        let l = default_leaf();
        assert_eq!(l.neighborhood_ranges(0).len(), 1);
        assert_eq!(l.neighborhood_ranges(60).len(), 2);
    }

    #[test]
    fn hop_ranges_cover_requested_entries() {
        let l = default_leaf();
        for (a, e) in [(0, 10), (5, 5), (50, 63), (60, 3), (8, 15)] {
            let (first, wrap) = l.hop_ranges(a, e);
            let ranges: Vec<_> = std::iter::once(first).chain(wrap).collect();
            // Every entry in cyclic [a, e] falls inside some range.
            let mut i = a;
            loop {
                let off = l.entry_off(i);
                assert!(
                    ranges
                        .iter()
                        .any(|&(s, t)| off >= s && off + l.entry_size() <= t),
                    "entry {i} not covered for [{a},{e}]"
                );
                if i == e {
                    break;
                }
                i = (i + 1) % l.span;
            }
            let loc = l.locator();
            let covered: usize = ranges.iter().map(|&(s, t)| loc.replicas_in(s, t).len()).sum();
            assert!(covered >= 1, "hop range [{a},{e}] covers no replica");
        }
    }

    #[test]
    fn no_replication_layout() {
        let l = LeafLayout {
            replication: false,
            ..default_leaf()
        };
        assert_eq!(l.replica_off(0), 0);
        assert_eq!(l.entry_off(0), l.replica_size());
        assert_eq!(l.payload_len(), 10 + 64 * 19);
        // Most neighborhoods cover no replica.
        let ranges = l.neighborhood_ranges(20);
        assert!(l.locator().replicas_in(ranges[0].0, ranges[0].1).is_empty());
    }

    #[test]
    fn fences_enlarge_replicas() {
        let with = LeafLayout {
            fences: true,
            ..default_leaf()
        };
        assert_eq!(
            with.replica_size(),
            default_leaf().replica_size() + 16
        );
        assert!(with.metadata_bytes() > default_leaf().metadata_bytes());
    }

    #[test]
    fn separate_vacancy_word_when_no_piggyback() {
        let l = LeafLayout {
            piggyback: false,
            ..default_leaf()
        };
        assert_eq!(l.vacancy_off(), l.lock_off() + 8);
        assert_eq!(l.node_size(), l.versioned().node_size() + 8);
    }

    #[test]
    fn internal_geometry() {
        let il = InternalLayout { span: 64 };
        assert_eq!(il.payload_len(), 29 + 64 * 17);
        assert_eq!(il.entry_off(0), 29);
        assert_eq!(il.entry_off(1), 46);
        assert!(il.node_size() > il.payload_len());
    }
}
