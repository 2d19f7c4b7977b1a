//! The hotness-aware hotspot buffer (§4.3, Fig. 11).
//!
//! A small per-CN cache mapping `(leaf address, key index)` to a key
//! fingerprint and an access counter. Before a neighborhood read, the client
//! consults the buffer for hot entries inside the target neighborhood and,
//! on a fingerprint match, speculatively READs just that entry.
//!
//! Replacement is LFU — **least frequent, then oldest** — in the textbook
//! O(1) structure: a list of frequency nodes in ascending count order, each
//! the FIFO of the descriptions at that count. An access moves a description
//! to the tail of the next count's FIFO, the victim is the head of the first
//! one, and a description whose slot turns out to hold another key (its
//! fingerprint changed) re-enters at count 1.
//!
//! The tie rule is the policy, because almost every eviction is a tie: new
//! descriptions enter at count 1 and a full buffer evicts from count 1. An
//! earlier version ordered victims by `(count, leaf address, index)` — an
//! accident of its set's key — so the lowest-addressed leaves could never
//! keep a description long enough to be counted twice: 0.63 of lookups hit
//! on the Zipfian read benchmark, against 0.68 with oldest-first.
//!
//! The descriptions are found by group: one map entry per aligned run of
//! 16 key indices of a leaf that holds any, with a slot per index. A
//! neighborhood (H ≤ 16 contiguous indices, wrapping at the span) lies in
//! one or two groups (three for a few odd spans), so a lookup costs one or
//! two map probes where probing each index cost H, and finding a slot's
//! description costs the same however many of the leaf's keys are hot.

use std::collections::HashMap;
use std::ops::Range;

use dmem::hash::FixedState;
use dmem::GlobalAddr;

use crate::slablist::{List, Slab, NIL};

/// Bytes per buffer entry: 8 (leaf address) + 2 (key index) +
/// 2 (fingerprint) + 4 (counter), as in Fig. 11.
pub const ENTRY_BYTES: u64 = 16;

/// Key indices per group.
const GROUP: usize = 16;

/// A group's key: the leaf address and `index / GROUP`.
type GroupKey = (u64, u16);

/// The description of each index of a group, `NIL` where there is none.
type Group = [u32; GROUP];

fn group_key(leaf: u64, idx: usize) -> GroupKey {
    (leaf, (idx / GROUP) as u16)
}

/// One description. Its counter is its frequency node's.
#[derive(Clone, Copy)]
struct Desc {
    leaf: u64,
    idx: u16,
    fp: u16,
    /// Its frequency node; `NIL` once the description is removed.
    freq: u32,
}

/// The descriptions accessed `count` times, oldest access first.
struct Freq {
    count: u32,
    members: List,
}

/// A hotspot [`HotspotBuffer::lookup`] found: the key index to read
/// speculatively, and where its description sits so that recording the
/// access needs no second probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hot {
    /// The key index inside the leaf.
    pub idx: u16,
    desc: u32,
}

/// The LFU hotspot buffer.
pub struct HotspotBuffer {
    groups: HashMap<GroupKey, Group, FixedState>,
    descs: Slab<Desc>,
    freqs: Slab<Freq>,
    /// The frequency nodes, ascending by count; none is empty.
    order: List,
    len: usize,
    capacity: usize,
    hits: u64,
    lookups: u64,
}

impl HotspotBuffer {
    /// Creates a buffer with a byte budget (`bytes / 16` entries).
    pub fn new(bytes: u64) -> Self {
        HotspotBuffer {
            groups: HashMap::default(),
            descs: Slab::new(),
            freqs: Slab::new(),
            order: List::EMPTY,
            len: 0,
            capacity: (bytes / ENTRY_BYTES) as usize,
            hits: 0,
            lookups: 0,
        }
    }

    /// Number of descriptions currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * ENTRY_BYTES
    }

    /// The description of `(leaf, idx)`, if there is one.
    fn find(&self, leaf: u64, idx: u16) -> Option<u32> {
        let d = self.groups.get(&group_key(leaf, idx as usize))?[idx as usize % GROUP];
        (d != NIL).then_some(d)
    }

    /// Records an access to the KV at `(leaf, idx)` whose key has
    /// fingerprint `fp` (§4.3: called on every remote KV entry access).
    pub fn on_access(&mut self, leaf: GlobalAddr, idx: u16, fp: u16) {
        if self.capacity == 0 {
            return;
        }
        if let Some(d) = self.find(leaf.raw(), idx) {
            return self.touch(d, fp);
        }
        if self.len >= self.capacity {
            // Evict the least frequent, oldest description; the new one
            // takes over its slab node.
            let victim = self.freqs[self.order.head].members.head;
            let Desc { leaf, idx, .. } = self.descs[victim];
            self.remove(GlobalAddr::from_raw(leaf), idx);
        }
        let d = self.descs.alloc(Desc {
            leaf: leaf.raw(),
            idx,
            fp,
            freq: NIL,
        });
        let g = self.groups.entry(group_key(leaf.raw(), idx as usize));
        g.or_insert([NIL; GROUP])[idx as usize % GROUP] = d;
        self.len += 1;
        self.enter(d, NIL, 1);
    }

    /// [`Self::on_access`] for the slot a [`Self::lookup`] just returned,
    /// without probing for it again. (Another client of the CN may have
    /// evicted the description in between; then this is `on_access`.)
    pub fn on_access_at(&mut self, leaf: GlobalAddr, hot: Hot, fp: u16) {
        let d = self.descs[hot.desc];
        if d.freq != NIL && (d.leaf, d.idx) == (leaf.raw(), hot.idx) {
            self.touch(hot.desc, fp);
        } else {
            self.on_access(leaf, hot.idx, fp);
        }
    }

    /// Drops the description of `(leaf, idx)`, if there is one: the slot
    /// was found empty, or the description is the eviction victim.
    pub fn remove(&mut self, leaf: GlobalAddr, idx: u16) {
        let key = group_key(leaf.raw(), idx as usize);
        let Some(g) = self.groups.get_mut(&key) else {
            return;
        };
        let d = std::mem::replace(&mut g[idx as usize % GROUP], NIL);
        if d == NIL {
            return;
        }
        if g.iter().all(|&d| d == NIL) {
            self.groups.remove(&key);
        }
        self.len -= 1;
        let f = std::mem::replace(&mut self.descs[d].freq, NIL);
        self.descs.unlink(&mut self.freqs[f].members, d);
        self.prune(f);
        self.descs.release(d);
    }

    /// One more access to description `d`, or — when `fp` is not the
    /// fingerprint it holds — a new key moved into its slot: start over.
    fn touch(&mut self, d: u32, fp: u16) {
        let from = self.descs[d].freq;
        let (after, count) = if self.descs[d].fp == fp {
            (from, self.freqs[from].count.saturating_add(1))
        } else {
            self.descs[d].fp = fp;
            (NIL, 1)
        };
        self.descs.unlink(&mut self.freqs[from].members, d);
        self.enter(d, after, count);
        self.prune(from);
    }

    /// Appends `d` to the FIFO of `count`, whose frequency node is `after`
    /// itself (a saturated counter), the node following it, or a new node
    /// between the two. `after == NIL` stands for the front of the order.
    fn enter(&mut self, d: u32, after: u32, count: u32) {
        let next = if after == NIL {
            self.order.head
        } else {
            self.freqs.next(after)
        };
        let f = if after != NIL && self.freqs[after].count == count {
            after
        } else if next != NIL && self.freqs[next].count == count {
            next
        } else {
            let f = self.freqs.alloc(Freq {
                count,
                members: List::EMPTY,
            });
            self.freqs.insert_after(&mut self.order, after, f);
            f
        };
        self.descs.push_back(&mut self.freqs[f].members, d);
        self.descs[d].freq = f;
    }

    /// Drops frequency node `f` if its FIFO emptied.
    fn prune(&mut self, f: u32) {
        if self.freqs[f].members.is_empty() {
            self.freqs.unlink(&mut self.order, f);
            self.freqs.release(f);
        }
    }

    /// Looks for the hottest hotspot of `leaf` whose fingerprint matches
    /// `fp` among the key indices `nbh` (a neighborhood: `nbh.start <
    /// span`, and indices from `span` on wrap around to 0): the key index
    /// to speculatively read, if any. Among equally hot matches the highest
    /// index wins.
    pub fn lookup(
        &mut self,
        leaf: GlobalAddr,
        nbh: Range<usize>,
        span: usize,
        fp: u16,
    ) -> Option<Hot> {
        self.lookups += 1;
        // The neighborhood's indices as `(group, bits)`, one entry per group.
        let mut parts = [(0, 0u32); 3];
        let mut n = 0;
        let (mut i, mut left) = (nbh.start, nbh.len().min(span));
        while left > 0 {
            let run = left.min(GROUP - i % GROUP).min(span - i);
            let bits = (u32::MAX >> (32 - run)) << (i % GROUP);
            match parts[..n].iter_mut().find(|p| p.0 == i / GROUP) {
                Some(p) => p.1 |= bits,
                None => {
                    parts[n] = (i / GROUP, bits);
                    n += 1;
                }
            }
            left -= run;
            i = (i + run) % span;
        }
        let mut best: Option<u32> = None;
        for &(g, bits) in &parts[..n] {
            let Some(g) = self.groups.get(&(leaf.raw(), g as u16)) else {
                continue;
            };
            let mut bits = bits;
            while bits != 0 {
                let d = g[bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if d != NIL && self.descs[d].fp == fp {
                    // A lone match needs no counter.
                    best = match best {
                        Some(b) if self.rank(b) > self.rank(d) => Some(b),
                        _ => Some(d),
                    };
                }
            }
        }
        let desc = best?;
        self.hits += 1;
        Some(Hot {
            idx: self.descs[desc].idx,
            desc,
        })
    }

    /// What orders two matching descriptions: count, then index.
    fn rank(&self, d: u32) -> (u32, u16) {
        let e = self.descs[d];
        (self.freqs[e.freq].count, e.idx)
    }

    /// `(buffer hits, lookups)` — the Fig. 19c hit ratio.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.lookups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaf(off: u64) -> GlobalAddr {
        GlobalAddr::new(0, off)
    }

    fn idx(hot: Option<Hot>) -> Option<u16> {
        hot.map(|h| h.idx)
    }

    #[test]
    fn access_then_lookup() {
        let mut b = HotspotBuffer::new(1024);
        b.on_access(leaf(0x1000), 5, 0xAB);
        assert_eq!(idx(b.lookup(leaf(0x1000), 0..8, 64, 0xAB)), Some(5));
        assert_eq!(b.lookup(leaf(0x1000), 0..8, 64, 0xCD), None);
        assert_eq!(b.lookup(leaf(0x2000), 0..8, 64, 0xAB), None);
        assert_eq!(b.hit_stats(), (1, 3));
    }

    #[test]
    fn hottest_wins_among_matches() {
        let mut b = HotspotBuffer::new(1024);
        b.on_access(leaf(1), 3, 0xAB);
        for _ in 0..5 {
            b.on_access(leaf(1), 6, 0xAB);
        }
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 64, 0xAB)), Some(6));
    }

    #[test]
    fn fingerprint_change_resets_counter() {
        let mut b = HotspotBuffer::new(1024);
        for _ in 0..10 {
            b.on_access(leaf(1), 3, 0xAB);
        }
        b.on_access(leaf(1), 5, 0xCD);
        b.on_access(leaf(1), 5, 0xCD);
        // Slot 3's key changed: counter resets to 1, below slot 5's 2.
        b.on_access(leaf(1), 3, 0xEE);
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 64, 0xEE)), Some(3));
        b.on_access(leaf(1), 3, 0xEE);
        // With matching fingerprints both qualify; 5 is colder than 3 now.
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 64, 0xCD)), Some(5));
    }

    #[test]
    fn lfu_eviction() {
        let mut b = HotspotBuffer::new(2 * ENTRY_BYTES);
        b.on_access(leaf(1), 0, 1);
        b.on_access(leaf(1), 0, 1); // count 2
        b.on_access(leaf(1), 1, 2); // count 1
        b.on_access(leaf(1), 2, 3); // evicts the LFU (idx 1)
        assert_eq!(b.len(), 2);
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 64, 1)), Some(0));
        assert_eq!(b.lookup(leaf(1), 0..8, 64, 2), None);
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 64, 3)), Some(2));
    }

    #[test]
    fn equally_frequent_descriptions_leave_oldest_first_not_lowest_address_first() {
        let mut b = HotspotBuffer::new(3 * ENTRY_BYTES);
        b.on_access(leaf(0x3000), 0, 1);
        b.on_access(leaf(0x2000), 0, 2);
        b.on_access(leaf(0x1000), 0, 3);
        // All at count 1. The victims go in order of arrival, so the
        // lowest-addressed leaf — the newest — is the last to lose its
        // description, not the first.
        b.on_access(leaf(0x4000), 0, 4);
        assert_eq!(b.lookup(leaf(0x3000), 0..1, 64, 1), None);
        b.on_access(leaf(0x5000), 0, 5);
        assert_eq!(b.lookup(leaf(0x2000), 0..1, 64, 2), None);
        assert_eq!(idx(b.lookup(leaf(0x1000), 0..1, 64, 3)), Some(0));
    }

    #[test]
    fn zero_budget_disables() {
        let mut b = HotspotBuffer::new(0);
        b.on_access(leaf(1), 0, 1);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    fn a_wrapping_neighborhood_finds_both_ends_of_the_table() {
        let mut b = HotspotBuffer::new(1024);
        b.on_access(leaf(1), 62, 0xAB);
        b.on_access(leaf(1), 1, 0xAB);
        b.on_access(leaf(1), 1, 0xAB);
        // [60, 68) over a span of 64 is 60..=63 and 0..=3: the hotter
        // description wins although its index is the lower one.
        assert_eq!(idx(b.lookup(leaf(1), 60..68, 64, 0xAB)), Some(1));
        b.remove(leaf(1), 1);
        assert_eq!(idx(b.lookup(leaf(1), 60..68, 64, 0xAB)), Some(62));
        // Span 24 is not a multiple of the bucket width: 20..=23, 0..=3.
        b.on_access(leaf(2), 23, 0xCD);
        assert_eq!(idx(b.lookup(leaf(2), 20..28, 24, 0xCD)), Some(23));
        assert_eq!(b.lookup(leaf(2), 16..24, 24, 0xAB), None);
    }

    /// The reference LFU: a flat vector of `(slot, fp, count, last access)`,
    /// the victim the minimum of `(count, last access)`, and lookups that
    /// probe every slot of the neighborhood.
    #[derive(Default)]
    struct Model {
        cap: usize,
        tick: u64,
        entries: Vec<(Slot, u16, u32, u64)>,
        hits: u64,
        lookups: u64,
    }

    impl Model {
        fn on_access(&mut self, slot: Slot, fp: u16) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == slot) {
                let count = if e.1 == fp { e.2.saturating_add(1) } else { 1 };
                *e = (slot, fp, count, self.tick);
                return;
            }
            if self.entries.len() >= self.cap {
                let victim = self.entries.iter().map(|e| (e.2, e.3)).min().unwrap();
                self.entries.retain(|e| (e.2, e.3) != victim);
            }
            self.entries.push((slot, fp, 1, self.tick));
        }

        fn lookup(
            &mut self,
            leaf: u64,
            home: usize,
            h: usize,
            span: usize,
            fp: u16,
        ) -> Option<u16> {
            self.lookups += 1;
            let best = (0..h)
                .map(|d| ((home + d) % span) as u16)
                .filter_map(|i| self.entries.iter().find(|e| e.0 == (leaf, i)))
                .filter(|e| e.1 == fp)
                .map(|e| (e.2, e.0 .1))
                .max();
            self.hits += best.is_some() as u64;
            best.map(|(_, i)| i)
        }

        /// `(slot, fp, count)` in eviction order.
        fn ranking(&self) -> Vec<(Slot, u16, u32)> {
            let mut by_age = self.entries.clone();
            by_age.sort_by_key(|e| (e.2, e.3));
            by_age.into_iter().map(|e| (e.0, e.1, e.2)).collect()
        }
    }

    type Slot = (u64, u16);

    impl HotspotBuffer {
        /// `(slot, fp, count)` in eviction order, checking on the way that
        /// counts ascend strictly, no frequency node is empty, and the
        /// groups find exactly the linked descriptions, none of them empty.
        #[allow(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "checks every group, in any order"
        )]
        fn ranking(&self) -> Vec<(Slot, u16, u32)> {
            let mut out = Vec::new();
            let (mut f, mut last) = (self.order.head, None);
            while f != NIL {
                let Freq { count, members } = &self.freqs[f];
                assert!(last < Some(*count) && !members.is_empty());
                last = Some(*count);
                let mut d = members.head;
                while d != NIL {
                    let e = self.descs[d];
                    assert_eq!((e.freq, self.find(e.leaf, e.idx)), (f, Some(d)));
                    out.push(((e.leaf, e.idx), e.fp, *count));
                    d = self.descs.next(d);
                }
                f = self.freqs.next(f);
            }
            assert_eq!(out.len(), self.len);
            // Every group holds exactly its own descriptions.
            let mut held = 0;
            for (&(leaf, g), group) in self.groups.iter() {
                for (j, &d) in group.iter().enumerate().filter(|(_, &d)| d != NIL) {
                    let e = self.descs[d];
                    assert_eq!((e.leaf, e.idx as usize), (leaf, g as usize * GROUP + j));
                    held += 1;
                }
                assert!(group.iter().any(|&d| d != NIL), "empty group kept");
            }
            assert_eq!(held, self.len);
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Any stream of accesses, lookups, hinted accesses (with hints gone
        /// stale in between), removals and counters pushed to the brink of
        /// saturation leaves the buffer indistinguishable from the
        /// reference: same answers, same statistics, same eviction order,
        /// same footprint — for spans of 16, 64 and 256 entries and
        /// neighborhoods of 8 and 16.
        #[test]
        fn behaves_like_the_reference_lfu(
            geometry in (0usize..3, 0usize..2),
            cap in 0usize..24,
            ops in proptest::collection::vec((0u8..12, 1u64..4, 0u16..256, 0u16..3), 1..300),
        ) {
            let (span, h) = ([16, 64, 256][geometry.0], [8, 16][geometry.1]);
            // Half the accesses land near the leaf's end, so neighborhoods
            // wrap and buckets fill up.
            let slot = |i: u16| (if i.is_multiple_of(2) { i as usize } else { span - 1 - i as usize / 16 }) % span;
            let mut real = HotspotBuffer::new(cap as u64 * ENTRY_BYTES + 7);
            let mut model = Model { cap, ..Model::default() };
            let mut hint: Option<(u64, Hot)> = None;
            for (kind, l, i, fp) in ops {
                let i = slot(i);
                match kind {
                    0..=5 => {
                        real.on_access(leaf(l), i as u16, fp);
                        model.on_access((leaf(l).raw(), i as u16), fp);
                    }
                    6 | 7 => {
                        let hot = real.lookup(leaf(l), i..i + h, span, fp);
                        prop_assert_eq!(idx(hot), model.lookup(leaf(l).raw(), i, h, span, fp));
                        hint = hot.map(|h| (l, h)).or(hint);
                    }
                    8 => if let Some((l, hot)) = hint {
                        real.on_access_at(leaf(l), hot, fp);
                        model.on_access((leaf(l).raw(), hot.idx), fp);
                    },
                    9 => {
                        real.remove(leaf(l), i as u16);
                        model.entries.retain(|e| e.0 != (leaf(l).raw(), i as u16));
                    }
                    // The hottest descriptions are two accesses from saturation.
                    _ => {
                        let top = model.entries.iter().map(|e| e.2).max();
                        if let Some(top) = top.filter(|&top| top < u32::MAX - 1) {
                            let tail = real.order.tail;
                            real.freqs[tail].count = u32::MAX - 1;
                            model.entries.iter_mut().filter(|e| e.2 == top).for_each(|e| e.2 = u32::MAX - 1);
                        }
                    }
                }
                prop_assert_eq!(real.ranking(), model.ranking());
                prop_assert_eq!(real.hit_stats(), (model.hits, model.lookups));
                prop_assert!(real.len() <= cap);
                prop_assert_eq!(real.bytes(), model.entries.len() as u64 * ENTRY_BYTES);
            }
        }
    }
}
