//! The one lock-word acquire path, `chime::lockword::{try_acquire, acquire}`:
//! its masks, the READs it batches behind the CAS, its stop bits, and its
//! retry accounting when an injected fault makes the word look held.

use std::sync::Arc;

use chime::lockword::{self, LockWord, VacancyMap};
use dmem::node::RESERVED_BYTES;
use dmem::{
    Endpoint, FaultAction, FaultPlan, FaultRule, FaultSession, GlobalAddr, Pool, RetryCause,
    VerbKind,
};

/// SMART's obsolete bit: the stop bit its node locks pass.
const STOP: u64 = 0b10;

fn ep() -> Endpoint {
    Endpoint::new(Pool::with_defaults(1, 1 << 20))
}

fn lock_addr() -> GlobalAddr {
    GlobalAddr::new(0, RESERVED_BYTES)
}

fn set(ep: &mut Endpoint, addr: GlobalAddr, word: u64) {
    ep.write(addr, &word.to_le_bytes());
}

fn get(ep: &mut Endpoint, addr: GlobalAddr) -> u64 {
    let mut b = [0u8; 8];
    ep.read(addr, &mut b);
    u64::from_le_bytes(b)
}

/// An endpoint (fault-session client `client`) whose first `n` masked CASes
/// report a conflict without executing, as if another client held the lock.
fn contended(n: u64, client: u32) -> Endpoint {
    let mut plan = FaultPlan::seeded(1);
    plan.rules.push(FaultRule {
        label: "held-elsewhere".into(),
        verb: Some(VerbKind::MaskedCas),
        client: None,
        probability: 1.0,
        after_seq: 0,
        max_fires: n,
        action: FaultAction::FailCas,
    });
    let session = Arc::new(FaultSession::new(plan));
    Endpoint::with_faults(Pool::with_defaults(1, 1 << 20), session, client)
}

/// A realistic unlocked leaf word: vacancy groups, an argmax and an epoch.
fn leaf_word() -> LockWord {
    LockWord::initial(VacancyMap::new(64).groups())
        .with_argmax(13)
        .with_vacancy_bit(5, false)
        .with_epoch(3)
}

#[test]
fn try_acquire_takes_a_free_word_and_sets_only_the_lock_bit() {
    let mut e = ep();
    let w = leaf_word();
    set(&mut e, lock_addr(), w.0);
    let old = lockword::try_acquire(&mut e, lock_addr(), 0, &mut []);
    assert_eq!(old, w.0, "the previous word comes back whole");
    assert_eq!(get(&mut e, lock_addr()), w.with_locked(true).0);
}

#[test]
fn try_acquire_leaves_a_held_word_untouched() {
    let mut e = ep();
    let held = leaf_word().with_locked(true);
    set(&mut e, lock_addr(), held.0);
    let old = lockword::try_acquire(&mut e, lock_addr(), 0, &mut []);
    assert!(LockWord(old).locked());
    assert_eq!(get(&mut e, lock_addr()), held.0);
}

#[test]
fn try_acquire_stop_bit_fails_the_compare_without_locking() {
    let mut e = ep();
    set(&mut e, lock_addr(), STOP);
    let old = lockword::try_acquire(&mut e, lock_addr(), STOP, &mut []);
    assert_eq!(old, STOP);
    assert_eq!(get(&mut e, lock_addr()), STOP, "a stopped word is never locked");
}

#[test]
fn try_acquire_ignores_set_bits_that_are_not_stop_bits() {
    // Bit 1 is argmax data in CHIME's word: without it in `stop` it must
    // not fail the compare.
    let mut e = ep();
    set(&mut e, lock_addr(), STOP);
    let old = lockword::try_acquire(&mut e, lock_addr(), 0, &mut []);
    assert_eq!(old, STOP);
    assert_eq!(get(&mut e, lock_addr()), STOP | 1);
}

#[test]
fn try_acquire_reads_ride_the_cas_doorbell_and_see_the_lock() {
    let mut e = ep();
    let node = lock_addr().add(64);
    e.write(node, &[7u8; 48]);
    let before = e.stats().clone();
    let (mut seen, mut body) = ([0u8; 8], [0u8; 48]);
    let old = lockword::try_acquire(
        &mut e,
        lock_addr(),
        0,
        &mut [(lock_addr(), &mut seen[..]), (node, &mut body[..])],
    );
    let d = e.stats().since(&before);
    assert_eq!((d.rtts, d.atomics, d.reads, d.msgs), (1, 1, 2, 3));
    assert_eq!(old, 0);
    assert_eq!(u64::from_le_bytes(seen), 1, "the READ runs after the winning CAS");
    assert_eq!(body, [7u8; 48]);
}

#[test]
fn acquire_on_a_free_word_costs_one_round_trip_and_no_retry() {
    let mut e = ep();
    let (before, clock) = (e.stats().clone(), e.clock_ns());
    assert_eq!(lockword::acquire(&mut e, lock_addr(), 0), Some(0));
    let d = e.stats().since(&before);
    assert_eq!((d.rtts, d.atomics, d.lock_retries), (1, 1, 0));
    let net = *e.pool().net();
    assert_eq!(e.clock_ns() - clock, net.verb_latency_ns(1, d.wire_bytes), "no backoff");
}

#[test]
fn acquire_returns_the_piggybacked_vacancy_bitmap_and_argmax() {
    let mut e = ep();
    let w = leaf_word();
    set(&mut e, lock_addr(), w.0);
    let old = LockWord(lockword::acquire(&mut e, lock_addr(), 0).expect("free word"));
    assert!(!old.locked());
    assert_eq!((old.argmax(), old.epoch()), (13, 3));
    assert!(!old.vacancy_bit(5));
    assert!(old.vacancy_bit(4));
    assert!(LockWord(get(&mut e, lock_addr())).locked());
}

#[test]
fn acquire_returns_none_on_a_stop_bit_and_leaves_the_word() {
    let mut e = ep();
    set(&mut e, lock_addr(), STOP);
    let before = e.stats().clone();
    assert_eq!(lockword::acquire(&mut e, lock_addr(), STOP), None);
    let d = e.stats().since(&before);
    assert_eq!((d.atomics, d.lock_retries), (1, 0), "one attempt, no retry");
    assert_eq!(get(&mut e, lock_addr()), STOP);
}

#[test]
fn acquire_stop_bit_wins_over_a_held_lock() {
    // An obsolete node whose lock is still held is abandoned at once
    // rather than waited on.
    let mut e = ep();
    set(&mut e, lock_addr(), STOP | 1);
    assert_eq!(lockword::acquire(&mut e, lock_addr(), STOP), None);
    assert_eq!(e.stats().lock_retries, 0);
}

#[test]
fn acquire_counts_each_failed_attempt_as_a_lock_retry() {
    let mut e = contended(3, 0);
    assert_eq!(lockword::acquire(&mut e, lock_addr(), 0), Some(0));
    assert_eq!(e.stats().lock_retries, 3);
    assert_eq!(e.stats().atomics, 4, "three failures, then the win");
    assert_eq!(e.profile().retry_count(RetryCause::InjectedFault), 0);
    assert_eq!(e.profile().retry_count(RetryCause::LockConflict), 3);
    assert!(LockWord(get(&mut e, lock_addr())).locked());
}

#[test]
fn acquire_backs_off_on_the_virtual_clock_between_attempts() {
    let mut free = ep();
    let _ = lockword::acquire(&mut free, lock_addr(), 0);
    let one_attempt = free.clock_ns();
    let mut e = contended(3, 0);
    let _ = lockword::acquire(&mut e, lock_addr(), 0);
    assert!(
        e.clock_ns() > 4 * one_attempt,
        "three waits must add time beyond four attempts: {} vs 4 x {one_attempt}",
        e.clock_ns()
    );
}

#[test]
fn acquire_backoff_is_seeded_by_client_and_address() {
    let run = |client: u32, addr: GlobalAddr| {
        let mut e = contended(6, client);
        assert!(lockword::acquire(&mut e, addr, 0).is_some());
        e.clock_ns()
    };
    let a = lock_addr();
    assert_eq!(run(0, a), run(0, a), "same client and word: same jitter");
    assert_ne!(run(0, a), run(1, a), "clients draw different jitter");
    assert_ne!(run(0, a), run(0, a.add(64)), "words draw different jitter");
}

#[test]
fn a_reclaimed_word_stays_held_for_acquirers() {
    // A reclaimer bumps the epoch of a stale word and keeps the lock bit:
    // a waiter's attempt must still fail, and see the new epoch.
    let mut e = ep();
    let stale = leaf_word().with_locked(true);
    set(&mut e, lock_addr(), stale.reclaimed().0);
    let old = LockWord(lockword::try_acquire(&mut e, lock_addr(), 0, &mut []));
    assert!(old.locked());
    assert_eq!(old.epoch(), stale.epoch() + 1);
    set(&mut e, lock_addr(), old.with_locked(false).0);
    assert_eq!(lockword::acquire(&mut e, lock_addr(), 0), Some(old.with_locked(false).0));
}
