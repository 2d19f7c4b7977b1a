//! Point operations: search, and the write path shared by insert, update
//! and delete (§4.2/§4.4): masked-CAS lock piggybacking the vacancy bitmap,
//! with the key's window read in its doorbell → ownership check →
//! write-back + unlock. An insert whose window neither holds the key nor
//! has room at or after its home reads the hop window the bitmap names
//! before the write-back; a full bitmap reads the whole leaf and splits.

use dmem::hash::{fingerprint16, home_entry};
use dmem::{GlobalAddr, IndexError, LocalLockGuard, Phase, RetryCause};

use super::{ChimeClient, OP_RETRY_LIMIT};
use crate::hopscotch::wrap;
use crate::leaf::{LockedRead, SpecRead};
use crate::lockword::{LockWord, ARGMAX_NONE};
use crate::skeleton::SkeletonClient;

/// Result of a sibling chase: either the operation finished (finding the
/// key or not), or the chase hit an invalidated node and the whole
/// operation must restart from the root.
enum ChaseOutcome {
    Done(bool),
    Restart,
}

/// What a write wants from the leaf it locks.
#[derive(Clone, Copy, PartialEq)]
enum Intent {
    /// Place a key: read its neighborhood, aligned to vacancy groups, in
    /// the lock's doorbell (the whole leaf without the vacancy bitmap). The
    /// bitmap the CAS returns adds at most one READ: the whole leaf when it
    /// shows no vacancy, the hop window when the neighborhood neither holds
    /// the key nor has room at or after its home.
    Insert,
    /// Update or delete a key: read its neighborhood, in the lock's
    /// doorbell.
    Modify,
}

/// The locked leaf that owns the key of a write, its window read into the
/// write's [`LockedRead`].
struct Held {
    addr: GlobalAddr,
    word: LockWord,
    /// The window is a whole-node read (see [`Intent::Insert`]).
    whole: bool,
    /// The CN-local slot for `addr`, held until the write completes.
    slot: LocalLockGuard,
}

impl ChimeClient {
    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Writes the value of `key` into `value`, through the client's READ
    /// buffers, and returns whether it was found.
    pub(super) fn search_impl(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        self.retry_backoff.reset();
        let cfg = self.shared.cfg;
        let fp = fingerprint16(key);
        for attempt in 0..OP_RETRY_LIMIT {
            let loc = self.locate_leaf(key);
            // Hotness-aware speculative read (§4.3).
            if cfg.hotspot_bytes > 0 && self.try_speculative_read(loc.addr, key, fp, value) {
                return true;
            }
            let r = self.in_phase(Phase::LeafRead, |me| {
                me.leaf()
                    .read_neighborhood(&mut me.ep, loc.addr, key, &mut me.point_reads, value)
            });
            if !r.meta.valid {
                self.on_invalid_leaf(loc.parent, r.meta.sibling, true);
                continue;
            }
            // Fence-key validation path (sibling validation disabled).
            if let Some((lo, hi)) = r.meta.fences {
                if key < lo {
                    self.reroute(loc.parent);
                    continue;
                }
                if !dmem::hash::in_range(key, lo, hi) {
                    self.counters.chases += 1;
                    self.cn.routes.cache().invalidate(loc.parent);
                    let out = self.in_phase(Phase::Validate, |me| {
                        me.chase_fences(r.meta.sibling, key, value)
                    });
                    return self.finish_chase(out, key, value);
                }
            }
            if let Some(idx) = r.found {
                self.ep.note_app_bytes(cfg.value_size as u64 + 8);
                if cfg.hotspot_bytes > 0 {
                    self.cn.hotspot.borrow_mut().on_access(loc.addr, idx as u16, fp);
                }
                self.resolve_in_place(value);
                return true;
            }
            if r.meta.fences.is_some() {
                return false; // fences proved ownership; the key is absent
            }
            // Sibling-based validation (§4.2.3).
            match loc.expected {
                Some(e) if r.meta.sibling == e => return false,
                None if r.meta.sibling.is_null() => return false,
                _ => {
                    if loc.via_cache && attempt == 0 {
                        // Cache validation: refresh the parent and retry.
                        self.counters.invalidations += 1;
                        self.cn.routes.cache().invalidate(loc.parent);
                        self.on_op_conflict(RetryCause::StaleSibling);
                        continue;
                    }
                    // Half-split window: chase the sibling chain.
                    self.counters.chases += 1;
                    let out = self.in_phase(Phase::Validate, |me| me.chase(loc.addr, key, value));
                    return self.finish_chase(out, key, value);
                }
            }
        }
        panic!("search retry limit for key {key}");
    }

    /// Ends a search on its chase result. A restart re-runs the whole
    /// operation outside the validate phase, so it is attributed to its
    /// own phases.
    fn finish_chase(&mut self, out: ChaseOutcome, key: u64, value: &mut Vec<u8>) -> bool {
        match out {
            ChaseOutcome::Done(found) => found,
            ChaseOutcome::Restart => self.search_impl(key, value),
        }
    }

    /// Reads the slot the hotspot buffer predicts for `key`, if any,
    /// directly (the speculative read), writing the value into `value` on a
    /// hit. A miss corrects the description it trusted, so a deleted or
    /// displaced hot key costs one wasted READ, not one per search.
    fn try_speculative_read(
        &mut self,
        addr: GlobalAddr,
        key: u64,
        fp: u16,
        value: &mut Vec<u8>,
    ) -> bool {
        let (span, h) = (self.span(), self.h());
        let home = home_entry(key, span);
        let nbh = home..home + h;
        let Some(hot) = self.cn.hotspot.borrow_mut().lookup(addr, nbh, span, fp) else {
            return false;
        };
        self.in_phase(Phase::SpeculativeRead, |me| {
            me.counters.spec_attempts += 1;
            let idx = hot.idx as usize;
            match me
                .leaf()
                .spec_read(&mut me.ep, addr, idx, key, &mut me.point_reads, value)
            {
                SpecRead::Hit => {
                    me.counters.spec_hits += 1;
                    me.ep.note_app_bytes(me.shared.cfg.value_size as u64 + 8);
                    me.cn.hotspot.borrow_mut().on_access_at(addr, hot, fp);
                    me.resolve_in_place(value);
                    return true;
                }
                SpecRead::Occupant(0) => me.cn.hotspot.borrow_mut().remove(addr, hot.idx),
                SpecRead::Occupant(other) => {
                    // A new key moved in, unless it is a true 16-bit collision.
                    let moved_in = fingerprint16(other);
                    if moved_in != fp {
                        me.cn.hotspot.borrow_mut().on_access_at(addr, hot, moved_in);
                    }
                }
                SpecRead::Torn => {}
            }
            false
        })
    }

    /// Sibling chase with whole-node reads (sibling-validation mode).
    fn chase(&mut self, mut addr: GlobalAddr, key: u64, value: &mut Vec<u8>) -> ChaseOutcome {
        for _ in 0..OP_RETRY_LIMIT {
            let snap = self.leaf().read_full(&mut self.ep, addr);
            if !snap.meta.valid {
                return ChaseOutcome::Restart;
            }
            if let Some((_, v)) = snap.find(key) {
                v.clone_into(value);
                self.resolve_in_place(value);
                return ChaseOutcome::Done(true);
            }
            match snap.max_key() {
                Some(mx) if mx >= key => return ChaseOutcome::Done(false),
                _ => {}
            }
            if snap.meta.sibling.is_null() {
                return ChaseOutcome::Done(false);
            }
            addr = snap.meta.sibling;
        }
        panic!("chase retry limit for key {key}");
    }

    /// Sibling chase guided by fence keys (fence mode).
    fn chase_fences(
        &mut self,
        mut addr: GlobalAddr,
        key: u64,
        value: &mut Vec<u8>,
    ) -> ChaseOutcome {
        for _ in 0..OP_RETRY_LIMIT {
            if addr.is_null() {
                return ChaseOutcome::Done(false);
            }
            let r = self.leaf().read_neighborhood(
                &mut self.ep,
                addr,
                key,
                &mut self.point_reads,
                value,
            );
            if !r.meta.valid {
                return ChaseOutcome::Restart;
            }
            let (lo, hi) = r.meta.fences.expect("fence mode");
            if key < lo {
                return ChaseOutcome::Restart;
            }
            if !dmem::hash::in_range(key, lo, hi) {
                addr = r.meta.sibling;
                continue;
            }
            if r.found.is_some() {
                self.resolve_in_place(value);
            }
            return ChaseOutcome::Done(r.found.is_some());
        }
        panic!("fence chase retry limit for key {key}");
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// The preamble of every write: locates the leaf for `key`, queues on
    /// its CN-local slot, locks it, reads the window `intent` needs into
    /// `lr` and checks that the leaf is live and still owns `key` —
    /// retrying until it does. `None` means the key's chain ended: it is in
    /// no leaf.
    ///
    /// On an ownership miss, updates and deletes detour to the sibling
    /// (presence checks along the chain are sound). Inserts do that only
    /// under fence keys; under sibling validation they must not trust the
    /// rightward heuristic (unsound under deletes) — they drop the cached
    /// parent and re-traverse until the pending split has propagated.
    fn lock_owner(&mut self, key: u64, home: usize, intent: Intent, lr: &mut LockedRead) -> Option<Held> {
        let piggyback = self.shared.cfg.vacancy_piggyback;
        let (span, h, vm) = (self.span(), self.h(), self.leaf().vm);
        let mut detour: Option<GlobalAddr> = None;
        for _ in 0..OP_RETRY_LIMIT {
            let (addr, expected, parent) = match detour.take() {
                Some(a) => (a, None, GlobalAddr::NULL),
                None => {
                    let loc = self.locate_leaf(key);
                    (loc.addr, loc.expected, loc.parent)
                }
            };
            let slot = self.local_lock(addr);
            // Every window's address is known before the lock word: it
            // rides in the CAS's doorbell.
            let (a, e) = match intent {
                Intent::Modify => (home, wrap(home + h - 1, span)),
                // Without the vacancy bitmap the insert cannot identify the
                // hop range remotely: fetch the entire leaf (the paper's
                // pre-piggybacking baseline).
                Intent::Insert if !piggyback => (0, span - 1),
                Intent::Insert => vm.align_to_groups(home, wrap(home + h - 1, span)),
            };
            let word = self.in_phase(Phase::LockAcquire, |me| {
                me.leaf().lock_window(&mut me.ep, addr, a, e, lr)
            });
            let whole = match intent {
                Intent::Modify => false,
                Intent::Insert if !piggyback => true,
                Intent::Insert => match vm.first_vacant_group(word, home) {
                    // Vacancy bitmap shows a full node: read everything.
                    None => {
                        self.read_whole(addr, word, lr);
                        true
                    }
                    // An upsert, or room at or after `home`: the slot
                    // `place` picks in the window is the hop window's.
                    Some(_)
                        if lr.w.find_in_neighborhood(key).is_some()
                            || lr.w.first_empty_from(home).is_some() =>
                    {
                        false
                    }
                    Some(_) => {
                        let room = self.in_phase(Phase::LeafRead, |me| {
                            me.leaf().read_hop_window(&mut me.ep, addr, home, word, lr)
                        });
                        assert!(room, "the vacancy bitmap shows room");
                        false
                    }
                },
            };
            if !lr.meta.valid {
                // The leaf was merged away or migrated: drop the stale route.
                self.unlock(&[(addr, word)]);
                self.on_invalid_leaf(parent, lr.meta.sibling, intent == Intent::Modify);
                continue;
            }
            let Some(next) = self.owns_key(key, expected, addr, lr) else {
                return Some(Held {
                    addr,
                    word,
                    whole,
                    slot,
                });
            };
            self.counters.chases += 1;
            self.unlock(&[(addr, word)]);
            match intent {
                Intent::Modify if next.is_null() => return None,
                Intent::Modify => detour = Some(next),
                Intent::Insert if lr.meta.fences.is_some() => detour = Some(next),
                Intent::Insert => {
                    self.cn.routes.cache().invalidate(parent);
                    self.refresh_root();
                }
            }
            self.on_op_conflict(RetryCause::StaleSibling);
        }
        panic!("write retry limit for key {key}");
    }

    /// Decides whether the locked leaf at `addr` still owns `key`; on a
    /// half-split it returns the sibling the caller should move to. The one
    /// case that needs the node's maximum key settles for a window key at
    /// or above `key`, and only otherwise reads the argmax entry the
    /// window's doorbell left out.
    fn owns_key(
        &mut self,
        key: u64,
        expected: Option<GlobalAddr>,
        addr: GlobalAddr,
        lr: &mut LockedRead,
    ) -> Option<GlobalAddr> {
        if let Some((lo, hi)) = lr.meta.fences {
            // Fence mode: exact ownership.
            if !dmem::hash::in_range(key, lo, hi) {
                return Some(lr.meta.sibling);
            }
            assert!(key >= lo, "routed below fence_low");
            return None;
        }
        match expected {
            Some(e) if lr.meta.sibling == e => return None,
            _ if lr.meta.sibling.is_null() => return None,
            _ => {}
        }
        // The window's keys bound the maximum from below.
        if lr.w.max_key() >= Some(key) {
            return None;
        }
        match self.max_key(addr, lr) {
            // Empty node ⇒ no split happened ⇒ routing was valid.
            None => None,
            // key <= max is always sound: a split leaves only keys
            // below the propagated pivot behind, so max < pivot.
            Some(mx) if key <= mx => None,
            // key > max: the key is definitely NOT here. Searches,
            // updates and deletes may chase the chain (presence checks
            // are sound); inserts must NOT place the key by this
            // heuristic — deletes can open a gap below the pivot — and
            // instead re-traverse from a fresh parent (see lock_owner).
            Some(_) => Some(lr.meta.sibling),
        }
    }

    /// The locked leaf's maximum key, reading the argmax entry under the
    /// lock if the window's doorbell left it out.
    fn max_key(&mut self, addr: GlobalAddr, lr: &mut LockedRead) -> Option<u64> {
        if lr.max_unread.is_none() {
            return lr.max_key;
        }
        self.in_phase(Phase::LeafRead, |me| me.leaf().max_key(&mut me.ep, addr, lr))
    }

    pub(super) fn insert_impl(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.retry_backoff.reset();
        let stored = self.store_value(key, value)?;
        let home = home_entry(key, self.span());
        self.with_locked_read(|me, lr| {
            for _ in 0..OP_RETRY_LIMIT {
                let held = me
                    .lock_owner(key, home, Intent::Insert, lr)
                    .expect("inserts re-traverse instead of running off the chain");
                if held.whole && me.shared.cfg.vacancy_piggyback {
                    // The vacancy bitmap showed a full node: split, then retry.
                    me.split_leaf(held.addr, lr)?;
                } else if me.place(held, key, home, &stored, lr)? {
                    return Ok(());
                }
            }
            panic!("insert retry limit for key {key}");
        })
    }

    /// Places `key` into the locked window `lr` and writes it back;
    /// `Ok(false)` means the leaf was split instead (and unlocked) and the
    /// insert must retry. A hop window that cannot take the key falls back
    /// to the whole node before deciding to split.
    fn place(
        &mut self,
        mut held: Held,
        key: u64,
        home: usize,
        stored: &[u8],
        lr: &mut LockedRead,
    ) -> Result<bool, IndexError> {
        let (addr, word, span) = (held.addr, held.word, self.span());
        // Duplicate: update in place.
        if let Some(pos) = lr.w.find_in_neighborhood(key) {
            lr.w.set_value(pos, stored);
            self.write_back(addr, lr, word);
            return Ok(true);
        }
        // The true first empty slot at/after home in the window.
        let empty = if held.whole {
            (0..span)
                .map(|d| wrap(home + d, span))
                .find(|&i| lr.w.slot_empty(i))
        } else {
            lr.w.first_empty_from(home)
        };
        if let Some(empty) = empty {
            if let Ok(pos) = lr.w.insert(key, stored, empty) {
                // Without a window key above `key` the new key may be the
                // maximum: argmax needs the node's.
                if lr.w.max_key() == Some(key) {
                    self.max_key(addr, lr);
                }
                let new_word = self.word_after_insert(lr, word, key, pos, empty);
                self.write_back(addr, lr, new_word);
                return Ok(true);
            }
        } else if !held.whole {
            // The vacant group's empties sat before `home` (conservative
            // bitmap): fall back to a full-node window.
            self.read_whole(addr, word, lr);
            held.whole = true;
            return self.place(held, key, home, stored, lr);
        }
        // No room, or no feasible hopping: split the whole node.
        if !held.whole {
            self.read_whole(addr, word, lr);
        }
        self.split_leaf(addr, lr)?;
        Ok(false)
    }

    /// Computes the post-insert lock word (vacancy + argmax).
    fn word_after_insert(
        &self,
        lr: &LockedRead,
        word: LockWord,
        key: u64,
        pos: usize,
        empty: usize,
    ) -> LockWord {
        let w = &lr.w;
        let vm = self.leaf().vm;
        // Only `empty`'s occupancy changed; recompute its group exactly.
        let g = vm.group_of(empty);
        let (gs, ge) = vm.group_range(g);
        let any_empty = (gs..=ge).any(|i| w.rel(i).map(|_| w.slot_empty(i)).unwrap_or(false));
        let mut new_word = word.with_vacancy_bit(g, any_empty);
        // Track the maximum key's position.
        let new_max = match lr.max_key {
            // A window key exceeds `key` and the argmax entry lies outside
            // the window: no hop moved it.
            _ if lr.max_unread.is_some() => None,
            None => Some(pos),
            Some(mx) if key > mx => Some(pos),
            Some(mx) => {
                // The old max may have been hopped to a new slot.
                let old_am = word.argmax() as usize % self.span();
                if w.rel(old_am).is_some() && w.slot(old_am).0 != mx {
                    Some(
                        (0..self.span())
                            .filter(|&i| w.rel(i).is_some())
                            .find(|&i| w.slot(i).0 == mx)
                            .expect("max key vanished during hop"),
                    )
                } else {
                    None
                }
            }
        };
        if let Some(am) = new_max {
            new_word = new_word.with_argmax(am as u16);
        }
        new_word
    }

    pub(super) fn update_impl(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        self.retry_backoff.reset();
        let stored = self.store_value(key, value)?;
        let home = home_entry(key, self.span());
        self.with_locked_read(|me, lr| {
            let Some(held) = me.lock_owner(key, home, Intent::Modify, lr) else {
                return Ok(false);
            };
            let Some(pos) = lr.w.find_in_neighborhood(key) else {
                me.unlock(&[(held.addr, held.word)]);
                return Ok(false);
            };
            lr.w.set_value(pos, &stored);
            me.write_back(held.addr, lr, held.word);
            Ok(true)
        })
    }

    pub(super) fn delete_impl(&mut self, key: u64) -> Result<bool, IndexError> {
        self.retry_backoff.reset();
        let span = self.span();
        let home = home_entry(key, span);
        self.with_locked_read(|me, lr| {
            let Some(Held { addr, word, slot, .. }) = me.lock_owner(key, home, Intent::Modify, lr) else {
                return Ok(false);
            };
            let Some(pos) = lr.w.find_in_neighborhood(key) else {
                me.unlock(&[(addr, word)]);
                return Ok(false);
            };
            // Deleting the maximum key (the slot the lock word names)
            // requires recomputing argmax from the whole node.
            let deleting_max = usize::from(word.argmax()) == pos;
            if deleting_max {
                me.read_whole(addr, word, lr);
            }
            lr.w.remove(pos);
            let vm = me.leaf().vm;
            let mut new_word = word.with_vacancy_bit(vm.group_of(pos), true);
            if deleting_max {
                let am = (0..span)
                    .filter(|&i| !lr.w.slot_empty(i))
                    .max_by_key(|&i| lr.w.slot(i).0);
                new_word = new_word.with_argmax(am.map(|i| i as u16).unwrap_or(ARGMAX_NONE));
            }
            // Underflow check (§4.4 Delete): when the whole node was in
            // hand and it dropped below a quarter full, attempt a merge
            // with the right sibling after the delete completes.
            let underflow = deleting_max && lr.w.occupied().count() <= span / 4;
            me.write_back(addr, lr, new_word);
            if underflow {
                // Best-effort merge; drop the local guard first so the
                // merge can take locks in parent-first order.
                drop(slot);
                let probe = lr.w.occupied().next().map_or(key, |(k, _)| k);
                me.try_merge(addr, probe);
            }
            Ok(true)
        })
    }
}
