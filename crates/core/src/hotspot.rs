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

use std::collections::HashMap;

use dmem::GlobalAddr;

use crate::slablist::{FixedState, List, Slab, NIL};

/// Bytes per buffer entry: 8 (leaf address) + 2 (key index) +
/// 2 (fingerprint) + 4 (counter), as in Fig. 11.
pub const ENTRY_BYTES: u64 = 16;

type Slot = (u64, u16);

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
    map: HashMap<Slot, u32, FixedState>,
    descs: Slab<Desc>,
    freqs: Slab<Freq>,
    /// The frequency nodes, ascending by count; none is empty.
    order: List,
    capacity: usize,
    hits: u64,
    lookups: u64,
}

impl HotspotBuffer {
    /// Creates a buffer with a byte budget (`bytes / 16` entries).
    pub fn new(bytes: u64) -> Self {
        HotspotBuffer {
            map: HashMap::default(),
            descs: Slab::new(),
            freqs: Slab::new(),
            order: List::EMPTY,
            capacity: (bytes / ENTRY_BYTES) as usize,
            hits: 0,
            lookups: 0,
        }
    }

    /// Number of descriptions currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.map.len() as u64 * ENTRY_BYTES
    }

    /// Records an access to the KV at `(leaf, idx)` whose key has
    /// fingerprint `fp` (§4.3: called on every remote KV entry access).
    pub fn on_access(&mut self, leaf: GlobalAddr, idx: u16, fp: u16) {
        if self.capacity == 0 {
            return;
        }
        let slot = (leaf.raw(), idx);
        if let Some(&d) = self.map.get(&slot) {
            return self.touch(d, fp);
        }
        if self.map.len() >= self.capacity {
            // Evict the least frequent, oldest description; the new one
            // takes over its slab node.
            let victim = self.freqs[self.order.head].members.head;
            let Desc { leaf, idx, .. } = self.descs[victim];
            self.remove(GlobalAddr::from_raw(leaf), idx);
        }
        let d = self.descs.alloc(Desc {
            leaf: slot.0,
            idx,
            fp,
            freq: NIL,
        });
        self.map.insert(slot, d);
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
        if let Some(d) = self.map.remove(&(leaf.raw(), idx)) {
            let f = std::mem::replace(&mut self.descs[d].freq, NIL);
            self.descs.unlink(&mut self.freqs[f].members, d);
            self.prune(f);
            self.descs.release(d);
        }
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

    /// Looks for the hottest hotspot among `indices` of `leaf` whose
    /// fingerprint matches `fp`: the key index to speculatively read, if
    /// any.
    pub fn lookup(
        &mut self,
        leaf: GlobalAddr,
        indices: impl Iterator<Item = u16>,
        fp: u16,
    ) -> Option<Hot> {
        self.lookups += 1;
        let best = indices
            .filter_map(|i| {
                let &d = self.map.get(&(leaf.raw(), i))?;
                let e = self.descs[d];
                (e.fp == fp).then(|| (self.freqs[e.freq].count, i, d))
            })
            .max();
        if best.is_some() {
            self.hits += 1;
        }
        best.map(|(_, idx, desc)| Hot { idx, desc })
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
        assert_eq!(idx(b.lookup(leaf(0x1000), 0..8, 0xAB)), Some(5));
        assert_eq!(b.lookup(leaf(0x1000), 0..8, 0xCD), None);
        assert_eq!(b.lookup(leaf(0x2000), 0..8, 0xAB), None);
        assert_eq!(b.hit_stats(), (1, 3));
    }

    #[test]
    fn hottest_wins_among_matches() {
        let mut b = HotspotBuffer::new(1024);
        b.on_access(leaf(1), 3, 0xAB);
        for _ in 0..5 {
            b.on_access(leaf(1), 6, 0xAB);
        }
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 0xAB)), Some(6));
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
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 0xEE)), Some(3));
        b.on_access(leaf(1), 3, 0xEE);
        // With matching fingerprints both qualify; 5 is colder than 3 now.
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 0xCD)), Some(5));
    }

    #[test]
    fn lfu_eviction() {
        let mut b = HotspotBuffer::new(2 * ENTRY_BYTES);
        b.on_access(leaf(1), 0, 1);
        b.on_access(leaf(1), 0, 1); // count 2
        b.on_access(leaf(1), 1, 2); // count 1
        b.on_access(leaf(1), 2, 3); // evicts the LFU (idx 1)
        assert_eq!(b.len(), 2);
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 1)), Some(0));
        assert_eq!(b.lookup(leaf(1), 0..8, 2), None);
        assert_eq!(idx(b.lookup(leaf(1), 0..8, 3)), Some(2));
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
        assert_eq!(b.lookup(leaf(0x3000), 0..1, 1), None);
        b.on_access(leaf(0x5000), 0, 5);
        assert_eq!(b.lookup(leaf(0x2000), 0..1, 2), None);
        assert_eq!(idx(b.lookup(leaf(0x1000), 0..1, 3)), Some(0));
    }

    #[test]
    fn zero_budget_disables() {
        let mut b = HotspotBuffer::new(0);
        b.on_access(leaf(1), 0, 1);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }

    /// The reference LFU: a flat vector of `(slot, fp, count, last access)`,
    /// the victim the minimum of `(count, last access)`.
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

        fn lookup(&mut self, leaf: u64, indices: std::ops::Range<u16>, fp: u16) -> Option<u16> {
            self.lookups += 1;
            let matches = self
                .entries
                .iter()
                .filter(|e| e.0 .0 == leaf && indices.contains(&e.0 .1));
            let best = matches.filter(|e| e.1 == fp).map(|e| (e.2, e.0 .1)).max();
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

    impl HotspotBuffer {
        /// `(slot, fp, count)` in eviction order, checking on the way that
        /// counts ascend strictly, no frequency node is empty and the map
        /// finds exactly the linked descriptions.
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
                    assert_eq!((e.freq, self.map.get(&(e.leaf, e.idx))), (f, Some(&d)));
                    out.push(((e.leaf, e.idx), e.fp, *count));
                    d = self.descs.next(d);
                }
                f = self.freqs.next(f);
            }
            assert_eq!(out.len(), self.map.len());
            out
        }
    }

    proptest! {
        /// Any stream of accesses, lookups, hinted accesses (with hints gone
        /// stale in between), removals and counters pushed to the brink of
        /// saturation leaves the buffer indistinguishable from the
        /// reference: same answers, same statistics, same eviction order.
        #[test]
        fn behaves_like_the_reference_lfu(
            cap in 0usize..7,
            ops in proptest::collection::vec((0u8..12, 1u64..4, 0u16..10, 0u16..3), 1..300),
        ) {
            let mut real = HotspotBuffer::new(cap as u64 * ENTRY_BYTES + 7);
            let mut model = Model { cap, ..Model::default() };
            let mut hint: Option<(u64, Hot)> = None;
            for (kind, l, i, fp) in ops {
                match kind {
                    0..=5 => {
                        real.on_access(leaf(l), i, fp);
                        model.on_access((leaf(l).raw(), i), fp);
                    }
                    6 | 7 => {
                        let hot = real.lookup(leaf(l), i..i + 4, fp);
                        prop_assert_eq!(idx(hot), model.lookup(leaf(l).raw(), i..i + 4, fp));
                        hint = hot.map(|h| (l, h)).or(hint);
                    }
                    8 => if let Some((l, hot)) = hint {
                        real.on_access_at(leaf(l), hot, fp);
                        model.on_access((leaf(l).raw(), hot.idx), fp);
                    },
                    9 => {
                        real.remove(leaf(l), i);
                        model.entries.retain(|e| e.0 != (leaf(l).raw(), i));
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
                prop_assert_eq!(real.bytes(), real.len() as u64 * ENTRY_BYTES);
            }
        }
    }
}
