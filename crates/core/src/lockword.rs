//! The 8-byte lock word (Fig. 8 / Fig. 9).
//!
//! CHIME packs three things into the node's 8-byte lock field:
//!
//! * bit 0 — the lock itself (acquired with a masked-CAS whose compare mask
//!   is `0x1`, so the unknown vacancy bits never fail the compare; the old
//!   value returned by the atomic hands the client the vacancy bitmap for
//!   free);
//! * bits 1..=10 — `argmax_keys`, the entry index holding the node's maximum
//!   key (1023 = none), used to resolve the half-split insert corner case;
//! * bits 11..=55 — the vacancy bitmap: 45 groups of `ceil(span/45)` entries
//!   each; a set bit means *at least one empty entry in the group*;
//! * bits 56..=63 — the lease epoch, used by crash recovery: a waiter that
//!   observes the same locked word across many failed acquisition attempts
//!   presumes the holder dead and takes over with a full-word CAS that bumps
//!   the epoch (lock bit stays set), so concurrent reclaimers and the normal
//!   release path both fail cleanly. See [`LockWord::reclaimed`]. Any
//!   change to the observed word — epoch, vacancy, argmax — proves the
//!   holder alive and resets the waiter's count. The epoch is not globally
//!   monotonic (unlocked rewrites may reset it); that is sound because a
//!   reclaim compares the exact observed word, never an epoch order.
//!
//! Every lock word in the workspace is taken by [`try_acquire`], the one
//! masked CAS clippy's `disallowed-methods` lets through, or by its retry
//! loop [`acquire`]. Its compare/swap masks are the lock bit: epoch and
//! vacancy bits never fail the compare and ride back to the client in the
//! returned old value.
//!
//! With vacancy piggybacking disabled the same encoding (minus the lock bit)
//! lives in a separate word that costs a dedicated READ.

use dmem::{Endpoint, GlobalAddr};

use crate::backoff::Backoff;

/// Number of vacancy bits available in the lock word.
pub const VACANCY_BITS: usize = 45;
/// Sentinel `argmax` value meaning "node holds no keys".
pub const ARGMAX_NONE: u16 = 0x3FF;

/// The lock bit.
pub const LOCK_BIT: u64 = 1;
/// Shift of the `argmax_keys` field.
pub const ARGMAX_SHIFT: u32 = 1;
/// Unshifted mask of the `argmax_keys` field.
pub const ARGMAX_MASK: u64 = 0x3FF;
const VACANCY_SHIFT: u32 = 11;
/// Shift of the lease-epoch field.
pub const EPOCH_SHIFT: u32 = 56;
/// Unshifted mask of the lease-epoch field.
pub const EPOCH_MASK: u64 = 0xFF;

// The four fields must sit exactly at their documented positions (lock
// bit 0, argmax 1..=10, vacancy 11..=55, epoch 56..=63) and never overlap:
// editing a constant above without keeping the layout coherent fails the
// build here.
const LOCK_FIELD: u64 = LOCK_BIT;
const ARGMAX_FIELD: u64 = ARGMAX_MASK << ARGMAX_SHIFT;
const VACANCY_FIELD: u64 = ((1u64 << VACANCY_BITS) - 1) << VACANCY_SHIFT;
const EPOCH_FIELD: u64 = EPOCH_MASK << EPOCH_SHIFT;
const _: () = {
    assert!(LOCK_FIELD == 0x1);
    assert!(ARGMAX_FIELD == 0x3FF << 1);
    assert!(VACANCY_FIELD == ((1u64 << 45) - 1) << 11);
    assert!(EPOCH_FIELD == 0xFF << 56);
    assert!(LOCK_FIELD & ARGMAX_FIELD == 0);
    assert!(LOCK_FIELD & VACANCY_FIELD == 0);
    assert!(LOCK_FIELD & EPOCH_FIELD == 0);
    assert!(ARGMAX_FIELD & VACANCY_FIELD == 0);
    assert!(ARGMAX_FIELD & EPOCH_FIELD == 0);
    assert!(VACANCY_FIELD & EPOCH_FIELD == 0);
    assert!(LOCK_FIELD | ARGMAX_FIELD | VACANCY_FIELD | EPOCH_FIELD == u64::MAX);
};

/// A decoded lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockWord(pub u64);

impl LockWord {
    /// The initial word of a freshly created node: unlocked, no max key,
    /// every group marked as having empty entries.
    pub fn initial(groups: usize) -> Self {
        let mut w = LockWord(0);
        w = w.with_argmax(ARGMAX_NONE);
        for g in 0..groups {
            w = w.with_vacancy_bit(g, true);
        }
        w
    }

    /// Whether the lock bit is set.
    pub fn locked(self) -> bool {
        self.0 & LOCK_BIT != 0
    }

    /// Returns the word with the lock bit set/cleared.
    pub fn with_locked(self, on: bool) -> Self {
        if on {
            LockWord(self.0 | LOCK_BIT)
        } else {
            LockWord(self.0 & !LOCK_BIT)
        }
    }

    /// The `argmax_keys` field.
    pub fn argmax(self) -> u16 {
        ((self.0 >> ARGMAX_SHIFT) & ARGMAX_MASK) as u16
    }

    /// Returns the word with `argmax_keys` replaced.
    pub fn with_argmax(self, v: u16) -> Self {
        assert!(v as u64 <= ARGMAX_MASK);
        LockWord((self.0 & !(ARGMAX_MASK << ARGMAX_SHIFT)) | ((v as u64) << ARGMAX_SHIFT))
    }

    /// Whether vacancy group `g` is marked as having an empty entry.
    pub fn vacancy_bit(self, g: usize) -> bool {
        assert!(g < VACANCY_BITS);
        self.0 & (1u64 << (VACANCY_SHIFT as usize + g)) != 0
    }

    /// Returns the word with vacancy bit `g` set/cleared.
    pub fn with_vacancy_bit(self, g: usize, on: bool) -> Self {
        assert!(g < VACANCY_BITS);
        let m = 1u64 << (VACANCY_SHIFT as usize + g);
        if on {
            LockWord(self.0 | m)
        } else {
            LockWord(self.0 & !m)
        }
    }

    /// The lease epoch.
    pub fn epoch(self) -> u8 {
        ((self.0 >> EPOCH_SHIFT) & EPOCH_MASK) as u8
    }

    /// Returns the word with the lease epoch replaced.
    pub fn with_epoch(self, e: u8) -> Self {
        LockWord((self.0 & !(EPOCH_MASK << EPOCH_SHIFT)) | ((e as u64) << EPOCH_SHIFT))
    }

    /// The word a reclaimer installs when it presumes the holder dead:
    /// identical to the observed stale word (lock still held, vacancy and
    /// argmax untouched) with the lease epoch bumped by one (wrapping).
    ///
    /// Installing it with a full-word CAS against the observed value makes
    /// the takeover race-free among reclaimers: a second reclaimer's CAS
    /// fails because the epoch moved, and a normal release in the window
    /// fails the compare because the lock bit cleared.
    pub fn reclaimed(self) -> Self {
        debug_assert!(self.locked(), "only a locked word can be reclaimed");
        self.with_epoch(self.epoch().wrapping_add(1))
    }
}

/// One attempt on the lock word at `lock_addr`, with `reads` posted behind
/// it in the same doorbell: a masked CAS that compares the lock bit and the
/// caller's `stop` bits against 0 and sets the lock bit alone. Returns the
/// previous word; the lock was taken iff none of those bits was set.
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// fn discard(ep: &mut dmem::Endpoint, lock_addr: dmem::GlobalAddr) {
///     chime::lockword::try_acquire(ep, lock_addr, 0, &mut []);
/// }
/// ```
#[must_use = "the previous word says whether the lock was taken"]
#[allow(clippy::disallowed_methods, reason = "the one lock-word CAS; masks are lock-word fields")]
pub fn try_acquire(ep: &mut Endpoint, lock_addr: GlobalAddr, stop: u64, reads: &mut [(GlobalAddr, &mut [u8])]) -> u64 {
    ep.masked_cas_read(lock_addr, 0, LOCK_FIELD | stop, LOCK_FIELD, LOCK_FIELD, reads)
}

/// Acquires the lock word at `lock_addr`, retrying [`try_acquire`] behind a
/// backoff seeded by client and address and counting each failed attempt
/// as a lock retry. Returns the previous word once the lock is taken, or
/// `None` as soon as one of the `stop` bits is set (SMART's obsolete bit).
///
/// ```
/// use chime::lockword::{acquire, LockWord};
/// let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let lock_addr = dmem::GlobalAddr::new(0, dmem::node::RESERVED_BYTES);
/// let old = acquire(&mut ep, lock_addr, 0).expect("no stop bits");
/// assert!(!LockWord(old).locked());
/// // Released with a plain WRITE of the word without its lock bit.
/// ep.write(lock_addr, &LockWord(old).with_locked(false).0.to_le_bytes());
/// // A set stop bit (here bit 1) ends the attempt without taking the lock.
/// ep.write(lock_addr, &0b10u64.to_le_bytes());
/// assert_eq!(acquire(&mut ep, lock_addr, 0b10), None);
/// ```
///
/// The lock it takes must be released, so its result is never dropped
/// unread:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// fn discard(ep: &mut dmem::Endpoint, lock_addr: dmem::GlobalAddr) {
///     chime::lockword::acquire(ep, lock_addr, 0);
/// }
/// ```
#[must_use = "an acquired lock must be released"]
pub fn acquire(ep: &mut Endpoint, lock_addr: GlobalAddr, stop: u64) -> Option<u64> {
    let mut backoff = Backoff::new(ep.client_id() as u64 ^ lock_addr.raw());
    loop {
        match try_acquire(ep, lock_addr, stop, &mut []) {
            old if old & stop != 0 => return None,
            old if old & LOCK_FIELD == 0 => return Some(old),
            _ => ep.note_lock_retry(),
        }
        backoff.wait(ep);
        assert!(backoff.attempts() < 10_000_000, "lock livelock at {lock_addr:?}");
    }
}

/// Mapping between entry indices and vacancy-bitmap groups.
#[derive(Debug, Clone, Copy)]
pub struct VacancyMap {
    span: usize,
    group_size: usize,
}

impl VacancyMap {
    /// Creates the mapping for a table of `span` entries.
    pub fn new(span: usize) -> Self {
        assert!(span > 0 && span <= 1023, "argmax field limits span to 1023");
        VacancyMap {
            span,
            group_size: span.div_ceil(VACANCY_BITS),
        }
    }

    /// Entries per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups in use.
    pub fn groups(&self) -> usize {
        self.span.div_ceil(self.group_size)
    }

    /// Group of entry `i`.
    pub fn group_of(&self, i: usize) -> usize {
        debug_assert!(i < self.span);
        i / self.group_size
    }

    /// Inclusive entry range `[start, end]` of group `g`.
    pub fn group_range(&self, g: usize) -> (usize, usize) {
        debug_assert!(g < self.groups());
        let start = g * self.group_size;
        (start, (start + self.group_size - 1).min(self.span - 1))
    }

    /// First group, scanning cyclically from the group of `from`, whose
    /// vacancy bit is set. Returns `None` when the node is full.
    pub fn first_vacant_group(&self, word: LockWord, from: usize) -> Option<usize> {
        let (g0, n) = (self.group_of(from), self.groups());
        let mask = (1u64 << n) - 1;
        let bits = (word.0 >> VACANCY_SHIFT) & mask;
        // The groups' bits rotated right by `g0` within `n` bits: bit `d`
        // is group `g0 + d`, cyclically.
        let rotated = (bits >> g0 | bits << (n - g0)) & mask;
        if rotated == 0 {
            return None;
        }
        let g = g0 + rotated.trailing_zeros() as usize;
        Some(if g >= n { g - n } else { g })
    }

    /// Recomputes the vacancy bit of each group overlapping cyclic entry
    /// range `[a, e]` from an occupancy oracle, returning the updated word.
    ///
    /// The caller guarantees it knows the true occupancy of every entry in
    /// those groups (hop-range reads are group-aligned for this reason).
    pub fn recompute(
        &self,
        mut word: LockWord,
        a: usize,
        e: usize,
        mut occupied: impl FnMut(usize) -> bool,
    ) -> LockWord {
        let mut g = self.group_of(a);
        let last_g = self.group_of(e);
        loop {
            let (s, t) = self.group_range(g);
            let any_empty = (s..=t).any(|i| !occupied(i));
            word = word.with_vacancy_bit(g, any_empty);
            if g == last_g {
                break;
            }
            g = (g + 1) % self.groups();
        }
        word
    }

    /// Rounds cyclic range `[a, e]` outward to group boundaries.
    pub fn align_to_groups(&self, a: usize, e: usize) -> (usize, usize) {
        let (s, _) = self.group_range(self.group_of(a));
        let (_, t) = self.group_range(self.group_of(e));
        (s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_bit_roundtrip() {
        let w = LockWord(0);
        assert!(!w.locked());
        assert!(w.with_locked(true).locked());
        assert!(!w.with_locked(true).with_locked(false).locked());
    }

    #[test]
    fn argmax_roundtrip_and_isolation() {
        let w = LockWord(0).with_locked(true).with_argmax(513);
        assert_eq!(w.argmax(), 513);
        assert!(w.locked());
        let w2 = w.with_argmax(ARGMAX_NONE);
        assert_eq!(w2.argmax(), ARGMAX_NONE);
        assert!(w2.locked());
    }

    #[test]
    fn vacancy_bits_roundtrip() {
        let mut w = LockWord(0);
        w = w.with_vacancy_bit(0, true).with_vacancy_bit(44, true);
        assert!(w.vacancy_bit(0));
        assert!(w.vacancy_bit(44));
        assert!(!w.vacancy_bit(1));
        w = w.with_vacancy_bit(44, false);
        assert!(!w.vacancy_bit(44));
    }

    #[test]
    fn initial_word_all_vacant() {
        let vm = VacancyMap::new(64);
        let w = LockWord::initial(vm.groups());
        assert!(!w.locked());
        assert_eq!(w.argmax(), ARGMAX_NONE);
        for g in 0..vm.groups() {
            assert!(w.vacancy_bit(g));
        }
    }

    #[test]
    fn group_mapping_span_64() {
        let vm = VacancyMap::new(64);
        assert_eq!(vm.group_size(), 2);
        assert_eq!(vm.groups(), 32);
        assert_eq!(vm.group_of(0), 0);
        assert_eq!(vm.group_of(63), 31);
        assert_eq!(vm.group_range(31), (62, 63));
    }

    #[test]
    fn group_mapping_small_span() {
        let vm = VacancyMap::new(16);
        assert_eq!(vm.group_size(), 1);
        assert_eq!(vm.groups(), 16);
    }

    #[test]
    fn group_mapping_large_span() {
        let vm = VacancyMap::new(512);
        assert_eq!(vm.group_size(), 12);
        assert_eq!(vm.groups(), 43);
        assert_eq!(vm.group_range(42), (504, 511));
    }

    #[test]
    fn group_mapping_max_span_fits_bitmap() {
        let vm = VacancyMap::new(1023);
        assert!(vm.groups() <= VACANCY_BITS);
        assert_eq!(vm.group_range(vm.groups() - 1).1, 1022);
    }

    #[test]
    fn first_vacant_group_scans_cyclically() {
        let vm = VacancyMap::new(64);
        let mut w = LockWord(0);
        w = w.with_vacancy_bit(3, true);
        // From entry 60 (group 30), the scan wraps to group 3.
        assert_eq!(vm.first_vacant_group(w, 60), Some(3));
        assert_eq!(vm.first_vacant_group(LockWord(0), 0), None);
    }

    proptest::proptest! {
        /// Against the cyclic scan the rotation replaced, kept here as the
        /// reference: the same group for every span, start entry and
        /// word, dense or with at most two vacant groups.
        #[test]
        fn first_vacant_group_matches_the_cyclic_scan(
            span in 1usize..=1023,
            from in proptest::prelude::any::<usize>(),
            noise in proptest::prelude::any::<u64>(),
            vacant in proptest::collection::vec(0usize..VACANCY_BITS, 0..3),
            dense in 0u8..2,
        ) {
            let vm = VacancyMap::new(span);
            let from = from % span;
            let word = if dense == 1 {
                LockWord(noise)
            } else {
                let other = LockWord(noise & !VACANCY_FIELD);
                vacant.iter().fold(other, |w, &g| w.with_vacancy_bit(g, true))
            };
            let (g0, n) = (vm.group_of(from), vm.groups());
            let reference = (0..n).map(|d| (g0 + d) % n).find(|&g| word.vacancy_bit(g));
            proptest::prop_assert_eq!(vm.first_vacant_group(word, from), reference);
        }
    }

    #[test]
    fn recompute_updates_only_touched_groups() {
        let vm = VacancyMap::new(64);
        let w = LockWord::initial(vm.groups());
        // Entries 4..=7 (groups 2, 3) are now full.
        let w2 = vm.recompute(w, 4, 7, |i| (4..=7).contains(&i));
        assert!(!w2.vacancy_bit(2));
        assert!(!w2.vacancy_bit(3));
        assert!(w2.vacancy_bit(1));
        assert!(w2.vacancy_bit(4));
    }

    #[test]
    fn recompute_wraps() {
        let vm = VacancyMap::new(64);
        let w = LockWord::initial(vm.groups());
        // Cyclic range [62, 1] covers groups 31 and 0.
        let w2 = vm.recompute(w, 62, 1, |_| true);
        assert!(!w2.vacancy_bit(31));
        assert!(!w2.vacancy_bit(0));
        assert!(w2.vacancy_bit(1));
    }

    #[test]
    fn align_to_groups_rounds_outward() {
        let vm = VacancyMap::new(64);
        assert_eq!(vm.align_to_groups(5, 8), (4, 9));
        assert_eq!(vm.align_to_groups(4, 9), (4, 9));
    }

    #[test]
    fn lease_pack_unpack_roundtrip() {
        // All four fields coexist without bleeding into each other.
        let mut w = LockWord(0)
            .with_locked(true)
            .with_argmax(777)
            .with_epoch(0xAB);
        for g in [0usize, 7, 20, 44] {
            w = w.with_vacancy_bit(g, true);
        }
        assert!(w.locked());
        assert_eq!(w.argmax(), 777);
        assert_eq!(w.epoch(), 0xAB);
        for g in 0..VACANCY_BITS {
            assert_eq!(w.vacancy_bit(g), matches!(g, 0 | 7 | 20 | 44), "bit {g}");
        }
        // Clearing each field leaves the others intact.
        let w2 = w.with_locked(false).with_argmax(0).with_epoch(0);
        for g in 0..VACANCY_BITS {
            assert_eq!(w2.vacancy_bit(g), matches!(g, 0 | 7 | 20 | 44));
        }
    }

    #[test]
    fn epoch_wraps_around() {
        let w = LockWord(0).with_locked(true).with_epoch(0xFF);
        let r = w.reclaimed();
        assert_eq!(r.epoch(), 0);
        assert!(r.locked());
        assert_eq!(r.with_epoch(w.epoch()), w);
    }

    #[test]
    fn reclaim_preserves_vacancy_and_argmax() {
        let w = LockWord::initial(VacancyMap::new(64).groups())
            .with_locked(true)
            .with_argmax(13)
            .with_vacancy_bit(5, false);
        let r = w.reclaimed();
        assert_eq!(r.epoch(), w.epoch().wrapping_add(1));
        assert!(r.locked());
        assert_eq!(r.argmax(), 13);
        for g in 0..VACANCY_BITS {
            assert_eq!(r.vacancy_bit(g), w.vacancy_bit(g));
        }
    }

    #[test]
    fn epoch_sits_outside_lock_acquisition_mask() {
        // The lock is acquired with masked_cas(compare=0, cmask=1, swap=1,
        // smask=1). Epoch bits must neither fail that compare nor be
        // clobbered by the swap, so piggybacked vacancy delivery keeps
        // working across reclaims.
        let before = LockWord(0).with_epoch(0x5C).with_vacancy_bit(3, true);
        let cmask = 1u64;
        assert_eq!(before.0 & cmask, 0, "epoch bits must not look locked");
        let after = LockWord((before.0 & !cmask) | 1);
        assert_eq!(after.epoch(), 0x5C);
        assert!(after.vacancy_bit(3));
        assert!(after.locked());
    }
}
