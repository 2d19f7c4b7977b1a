//! Pure hopscotch-hashing logic over a cyclic window of a leaf node.
//!
//! Remote inserts fetch only a *hop range* of the leaf (the entries that can
//! possibly be examined or moved); this module performs the hopping on that
//! local window, tracking exactly which slots changed so the writer can bump
//! entry-level versions and write the range back. Splits reuse the same code
//! through [`build_table`], which fills a whole-span window from scratch.
//!
//! Cyclic index math never divides: every index and distance is below the
//! span, so wrapping it is one conditional add or subtract.
//!
//! Key 0 is the reserved empty sentinel (asserted at the public API).

use dmem::hash::home_entry;

/// Cyclic distance from `a` forward to `b` in a table of `span` entries
/// (both indices below `span`).
#[inline]
pub fn cyc_dist(a: usize, b: usize, span: usize) -> usize {
    debug_assert!(a < span && b < span);
    if b >= a {
        b - a
    } else {
        b + span - a
    }
}

/// Index `i` (below `2 * span`) wrapped into a table of `span` entries.
#[inline]
pub(crate) fn wrap(i: usize, span: usize) -> usize {
    debug_assert!(i < 2 * span);
    if i >= span {
        i - span
    } else {
        i
    }
}

/// One covered entry: key (0 = empty), hopscotch bitmap, the entry-level
/// version it was read with, and whether it changed since.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    bitmap: u16,
    ev: u8,
    dirty: bool,
}

/// A local, mutable view of a cyclic range of leaf entries: the one
/// in-memory form of leaf content on the write path. A writer keeps one and
/// [`reset`](Self::reset)s it for each write, so its buffers outlive it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    span: usize,
    h: usize,
    value_size: usize,
    start: usize,
    slots: Vec<Slot>,
    /// The stored values, `value_size` bytes per covered slot.
    values: Vec<u8>,
    /// The moves of the last hop plan ([`Self::insert`]).
    plan: Vec<(usize, usize)>,
}

impl Window {
    /// Creates a window over `len` entries starting at absolute index
    /// `start` (cyclic), in a table of `span` entries with neighborhood `h`
    /// whose entries store `value_size` value bytes.
    pub fn new(span: usize, h: usize, value_size: usize, start: usize, len: usize) -> Self {
        let mut w = Window::default();
        w.reset(span, h, value_size, start, len);
        w
    }

    /// Empties the window and aims it as [`Self::new`] would, keeping its
    /// buffers.
    pub fn reset(&mut self, span: usize, h: usize, value_size: usize, start: usize, len: usize) {
        assert!(len <= span && start < span);
        (self.span, self.h, self.value_size, self.start) = (span, h, value_size, start);
        self.slots.clear();
        self.slots.resize(len, Slot::default());
        self.values.clear();
        self.values.resize(len * value_size, 0);
    }

    /// Number of entries covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the window covers no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Absolute index of the first covered entry.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Table span.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Converts an absolute entry index (below the span) to a
    /// window-relative one.
    ///
    /// Returns `None` when the index is not covered.
    pub fn rel(&self, abs: usize) -> Option<usize> {
        let d = cyc_dist(self.start, abs, self.span);
        (d < self.len()).then_some(d)
    }

    fn abs(&self, rel: usize) -> usize {
        wrap(self.start + rel, self.span)
    }

    fn covered(&self, abs: usize) -> usize {
        self.rel(abs).expect("slot not covered")
    }

    fn value(&self, rel: usize) -> &[u8] {
        &self.values[rel * self.value_size..][..self.value_size]
    }

    fn value_mut(&mut self, rel: usize) -> &mut [u8] {
        &mut self.values[rel * self.value_size..][..self.value_size]
    }

    /// Stores `value` in slot `rel`, zero-padded or cut to the value size.
    fn store(&mut self, rel: usize, value: &[u8]) {
        let n = value.len().min(self.value_size);
        let dst = self.value_mut(rel);
        dst[..n].copy_from_slice(&value[..n]);
        dst[n..].fill(0);
    }

    /// Loads the content of one covered slot as read from the leaf, clean.
    pub fn set_slot(&mut self, abs: usize, key: u64, value: &[u8], bitmap: u16, ev: u8) {
        let r = self.covered(abs);
        self.set_rel(r, key, value, bitmap, ev);
    }

    /// [`Self::set_slot`] at window-relative index `r`.
    pub(crate) fn set_rel(&mut self, r: usize, key: u64, value: &[u8], bitmap: u16, ev: u8) {
        self.slots[r] = Slot { key, bitmap, ev, dirty: false };
        self.store(r, value);
    }

    /// Returns `(key, value, bitmap)` of a covered slot.
    pub fn slot(&self, abs: usize) -> (u64, &[u8], u16) {
        let r = self.covered(abs);
        (self.slots[r].key, self.value(r), self.slots[r].bitmap)
    }

    /// Returns `true` if the covered slot holds no key.
    pub fn slot_empty(&self, abs: usize) -> bool {
        self.slots[self.covered(abs)].key == 0
    }

    /// The entry-level version a covered slot was loaded with, and whether
    /// the slot was modified since (its next write bumps that version).
    pub fn version(&self, abs: usize) -> (u8, bool) {
        let s = &self.slots[self.covered(abs)];
        (s.ev, s.dirty)
    }

    /// The `(key, value)` pairs held by the covered slots, in window order.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, &[u8])> {
        (0..self.len())
            .filter(|&r| self.slots[r].key != 0)
            .map(|r| (self.slots[r].key, self.value(r)))
    }

    /// The largest key the covered slots hold, if any.
    pub fn max_key(&self) -> Option<u64> {
        self.slots.iter().map(|s| s.key).filter(|&k| k != 0).max()
    }

    /// Absolute indices of the slots modified since the window was filled,
    /// in window order.
    pub fn dirty_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let dirty = (0..self.len()).filter(|&r| self.slots[r].dirty);
        dirty.map(|r| self.abs(r))
    }

    /// First empty covered slot at cyclic distance >= 0 from `from`,
    /// scanning forward within the window.
    pub fn first_empty_from(&self, from: usize) -> Option<usize> {
        let d0 = self.rel(from)?;
        (d0..self.len()).find(|&r| self.slots[r].key == 0).map(|r| self.abs(r))
    }

    /// Looks `key` up via its home entry's hopscotch bitmap. The home entry
    /// and its whole neighborhood must be covered by the window.
    pub fn find_in_neighborhood(&self, key: u64) -> Option<usize> {
        let home = home_entry(key, self.span);
        let (_, _, bm) = self.slot(home);
        (0..self.h)
            .filter(|&d| bm & (1 << d) != 0)
            .map(|d| wrap(home + d, self.span))
            .find(|&p| self.slot(p).0 == key)
    }

    /// Updates the stored value of the key at absolute slot `abs`.
    pub fn set_value(&mut self, abs: usize, value: &[u8]) {
        let r = self.covered(abs);
        self.store(r, value);
        self.slots[r].dirty = true;
    }

    /// Sets or clears the bit of home entry `home` (which must be covered)
    /// that names slot `at`.
    fn set_bit(&mut self, home: usize, at: usize, on: bool) {
        let hr = self.rel(home).expect("home entry not covered");
        let bit = 1u16 << cyc_dist(home, at, self.span);
        let s = &mut self.slots[hr];
        s.bitmap = if on { s.bitmap | bit } else { s.bitmap & !bit };
        s.dirty = true;
    }

    /// Clears slot `abs` and the corresponding bit in its home's bitmap.
    ///
    /// The home entry must also be covered by the window.
    pub fn remove(&mut self, abs: usize) {
        let r = self.covered(abs);
        let key = self.slots[r].key;
        assert_ne!(key, 0, "removing an empty slot");
        self.set_bit(home_entry(key, self.span), abs, false);
        self.slots[r].key = 0;
        self.slots[r].dirty = true;
        self.value_mut(r).fill(0);
    }

    /// Inserts `key` by hopping within the window.
    ///
    /// `empty` is the absolute index of a known-empty covered slot at or
    /// after `key`'s home entry. On success returns the final slot; on
    /// failure (no feasible hop) returns `Err(NeedSplit)` with the window
    /// untouched.
    pub fn insert(&mut self, key: u64, value: &[u8], empty: usize) -> Result<usize, NeedSplit> {
        assert_ne!(key, 0, "key 0 is the empty sentinel");
        let home = home_entry(key, self.span);
        debug_assert!(self.rel(home).is_some(), "home entry not covered");
        debug_assert!(self.slot_empty(empty), "target slot not empty");
        // Plan first, so failure leaves the window untouched; the plan is
        // kept in the window's own buffer.
        let mut plan = std::mem::take(&mut self.plan);
        if let Err(e) = self.plan_hops(home, empty, &mut plan) {
            self.plan = plan;
            return Err(e);
        }
        // Execute the plan: each move shifts a key (and value) into the
        // current empty slot and vacates its old position.
        for &(from, to) in &plan {
            let (fr, tr) = (self.covered(from), self.covered(to));
            let k = self.slots[fr].key;
            let hm = home_entry(k, self.span);
            self.set_bit(hm, from, false);
            self.set_bit(hm, to, true);
            let vs = self.value_size;
            self.values.copy_within(fr * vs..(fr + 1) * vs, tr * vs);
            self.value_mut(fr).fill(0);
            self.slots[tr].key = k;
            self.slots[fr].key = 0;
            self.slots[fr].dirty = true;
            self.slots[tr].dirty = true;
        }
        let final_slot = plan.last().map(|&(from, _)| from).unwrap_or(empty);
        let fr = self.covered(final_slot);
        self.slots[fr].key = key;
        self.slots[fr].dirty = true;
        self.store(fr, value);
        self.set_bit(home, final_slot, true);
        self.plan = plan;
        Ok(final_slot)
    }

    /// Computes into `plan` the hop plan (a sequence of `(from, to)` moves)
    /// that frees a slot within `home`'s neighborhood, starting from `empty`.
    fn plan_hops(&self, home: usize, mut empty: usize, plan: &mut Vec<(usize, usize)>) -> Result<(), NeedSplit> {
        plan.clear();
        'outer: while cyc_dist(home, empty, self.span) >= self.h {
            // Candidates, farthest-swappable first: positions empty-H+1 ..
            // empty-1 (cyclic).
            for d in (1..self.h).rev() {
                let cand = wrap(empty + self.span - d, self.span);
                let Some(cr) = self.rel(cand) else {
                    return Err(NeedSplit);
                };
                let k = self.slots[cr].key;
                if k == 0 {
                    // A closer empty slot; adopt it (it can only help).
                    if cyc_dist(home, cand, self.span) < cyc_dist(home, empty, self.span) {
                        empty = cand;
                        continue 'outer;
                    }
                    continue;
                }
                let hm = home_entry(k, self.span);
                if cyc_dist(hm, empty, self.span) < self.h && self.rel(hm).is_some() {
                    plan.push((cand, empty));
                    empty = cand;
                    continue 'outer;
                }
            }
            return Err(NeedSplit);
        }
        Ok(())
    }
}

/// Returned when no feasible hopping exists: the leaf must split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedSplit;

/// Builds a full hopscotch table of `span` entries from `items`.
///
/// Returns `None` when some item cannot be placed (the caller splits
/// further). Used by node splits to rebuild both halves locally, from
/// values borrowed from the split node's window.
pub fn build_table<V: AsRef<[u8]>>(span: usize, h: usize, value_size: usize, items: &[(u64, V)]) -> Option<Window> {
    let mut w = Window::new(span, h, value_size, 0, span);
    for (k, v) in items {
        let home = home_entry(*k, span);
        let empty = find_empty(&w, home)?;
        w.insert(*k, v.as_ref(), empty).ok()?;
    }
    Some(w)
}

/// First empty slot at or (cyclically) after `home` in a full-span window.
fn find_empty(w: &Window, home: usize) -> Option<usize> {
    let span = w.span();
    (0..span)
        .map(|d| wrap(home + d, span))
        .find(|&i| w.slot_empty(i))
}

/// Verifies hopscotch invariants of a full-span window (test helper):
/// every key sits within H of its home, and the bitmaps exactly describe
/// the occupancy.
pub fn check_invariants(w: &Window) -> Result<(), String> {
    let span = w.span();
    for i in 0..span {
        let (k, _, _) = w.slot(i);
        if k != 0 {
            let hm = home_entry(k, span);
            let d = cyc_dist(hm, i, span);
            if d >= w.h {
                return Err(format!("key {k} at {i} is {d} from home {hm}"));
            }
            let (_, _, bm) = w.slot(hm);
            if bm & (1 << d) == 0 {
                return Err(format!("bitmap of home {hm} misses key {k} at {i}"));
            }
        }
    }
    for i in 0..span {
        let (_, _, bm) = w.slot(i);
        for d in 0..16 {
            if bm & (1 << d) != 0 {
                let pos = (i + d) % span;
                let (k, _, _) = w.slot(pos);
                if k == 0 || home_entry(k, span) != i {
                    return Err(format!("bitmap of {i} claims {pos} wrongly"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> Vec<u8> {
        x.to_le_bytes().to_vec()
    }

    #[test]
    fn cyclic_distance() {
        assert_eq!(cyc_dist(5, 7, 16), 2);
        assert_eq!(cyc_dist(7, 5, 16), 14);
        assert_eq!(cyc_dist(3, 3, 16), 0);
    }

    #[test]
    fn index_math_matches_the_modulo_reference() {
        for (span, h) in crate::leaf::tests::geometries() {
            for a in 0..span {
                for b in 0..span {
                    assert_eq!(cyc_dist(a, b, span), (b + span - a) % span, "span {span}");
                }
            }
            // Windows of every start, wrapping ones and full-span ones
            // included.
            for start in 0..span {
                for len in [1, h - 1, h, 2 * h + 1, span - 1, span] {
                    let len = len.clamp(1, span);
                    let w = Window::new(span, h, 8, start, len);
                    for abs in 0..span {
                        let d = (abs + span - start) % span;
                        assert_eq!(w.rel(abs), (d < len).then_some(d), "span {span} [{start}; {len}]");
                    }
                    for rel in 0..len {
                        assert_eq!(w.abs(rel), (start + rel) % span, "span {span} [{start}; {len}]");
                    }
                }
            }
        }
    }

    #[test]
    fn window_rel_abs() {
        let w = Window::new(16, 4, 8, 14, 6); // covers 14,15,0,1,2,3
        assert_eq!(w.rel(14), Some(0));
        assert_eq!(w.rel(1), Some(3));
        assert_eq!(w.rel(4), None);
    }

    #[test]
    fn simple_insert_no_hops() {
        let mut w = Window::new(16, 4, 8, 0, 16);
        let key = 42u64;
        let home = dmem::hash::home_entry(key, 16);
        let pos = w.insert(key, &v(1), home).unwrap();
        assert_eq!(pos, home);
        let (k, val, _) = w.slot(pos);
        assert_eq!(k, key);
        assert_eq!(val, &v(1)[..]);
        check_invariants(&w).unwrap();
        // Dirty slots: the inserted one (home bitmap is the same slot).
        assert_eq!(w.dirty_slots().collect::<Vec<_>>(), vec![home]);
    }

    #[test]
    fn build_table_many_keys() {
        let items: Vec<_> = (1..=50u64).map(|k| (k, v(k))).collect();
        let w = build_table(64, 8, 8, &items).expect("50/64 must fit");
        check_invariants(&w).unwrap();
        for (k, val) in &items {
            let hm = dmem::hash::home_entry(*k, 64);
            let found = (0..8).any(|d| {
                let (kk, vv, _) = w.slot((hm + d) % 64);
                kk == *k && vv == &val[..]
            });
            assert!(found, "key {k} not within its neighborhood");
        }
    }

    #[test]
    fn remove_clears_bitmap() {
        let items: Vec<_> = (1..=40u64).map(|k| (k, v(k))).collect();
        let mut w = build_table(64, 8, 8, &items).unwrap();
        for k in 1..=40u64 {
            let hm = dmem::hash::home_entry(k, 64);
            let pos = (0..8)
                .map(|d| (hm + d) % 64)
                .find(|&p| w.slot(p).0 == k)
                .unwrap();
            w.remove(pos);
        }
        check_invariants(&w).unwrap();
        for i in 0..64 {
            assert!(w.slot_empty(i));
            assert_eq!(w.slot(i).2, 0);
        }
    }

    /// Finds a key whose home entry is `home`, avoiding key 0.
    fn key_with_home(span: usize, home: usize, salt: u64) -> u64 {
        (1 + salt * 1_000_000..)
            .find(|&k| dmem::hash::home_entry(k, span) == home)
            .unwrap()
    }

    #[test]
    fn need_split_when_no_feasible_hop() {
        // span 16, H = 4. New key homes at 0; the only empty slot is 8,
        // and every candidate (slots 5..7) is homed too far back to move.
        let span = 16;
        let h = 4;
        let mut w = Window::new(span, h, 8, 0, span);
        for p in 0..=7usize {
            if p == 0 {
                let k = key_with_home(span, 0, 99);
                w.set_slot(0, k, &v(k), 1, 0); // occupies its own home
            } else {
                let home = if p >= 5 { p - 3 } else { p };
                let k = key_with_home(span, home, p as u64);
                w.set_slot(p, k, &v(k), 0, 0);
            }
        }
        let key = key_with_home(span, 0, 7777);
        let before: Vec<_> = (0..span).map(|i| w.slot(i).0).collect();
        assert_eq!(w.insert(key, &v(key), 8), Err(NeedSplit));
        // Failure must leave the window untouched.
        let after: Vec<_> = (0..span).map(|i| w.slot(i).0).collect();
        assert_eq!(before, after);
        assert_eq!(w.dirty_slots().count(), 0);
    }

    #[test]
    fn hopping_moves_keys_and_preserves_invariants() {
        // Dense table to force hops: 56 of 64 slots.
        let items: Vec<_> = (1..=56u64).map(|k| (k, v(k))).collect();
        let w = build_table(64, 8, 8, &items).expect("should fit at 87% load");
        check_invariants(&w).unwrap();
    }

    #[test]
    fn dirty_tracking_is_minimal() {
        let items: Vec<_> = (1..=30u64).map(|k| (k, v(k))).collect();
        let w0 = build_table(64, 8, 8, &items).unwrap();
        // Re-create a clean window with the same content.
        let mut w = Window::new(64, 8, 8, 0, 64);
        for i in 0..64 {
            let (k, val, bm) = w0.slot(i);
            w.set_slot(i, k, val, bm, 0);
        }
        assert_eq!(w.dirty_slots().count(), 0);
        let key = 1000u64;
        let home = dmem::hash::home_entry(key, 64);
        let empty = find_empty(&w, home).unwrap();
        w.insert(key, &v(key), empty).unwrap();
        let dirty = w.dirty_slots().count();
        assert!(dirty > 0);
        // At most: each hop touches from/to/home, plus the final insert.
        assert!(dirty <= 3 * 8);
        check_invariants(&w).unwrap();
    }
}
