//! Bounded exponential backoff with seeded jitter for optimistic retries.
//!
//! Every retry loop in the tree (lock acquisition, torn-read revalidation,
//! whole-operation restarts) previously spun immediately. Under contention
//! that turns one conflict into a convoy: every waiter re-issues its CAS in
//! the same round-trip window and collides again. [`Backoff`] spaces the
//! retries out exponentially — doubling a virtual-nanosecond delay per
//! attempt up to a bound — with deterministic, seeded jitter so that two
//! clients that conflicted once are unlikely to conflict on the retry: each
//! wait is half fixed, half jitter. Retries surface in [`dmem::ClientStats`]
//! (`lock_retries`, `op_retries`, `torn_reads_detected`,
//! `stale_locks_reclaimed`, `faults_injected`).
//!
//! The delay is charged to the endpoint's *virtual* clock
//! ([`dmem::Endpoint::advance_clock`]); no wall-clock sleeping happens, so
//! simulations stay instant and, given the same seed, bit-identical. In
//! multi-threaded runs the waiter additionally yields the OS thread so a
//! same-core lock holder can make real progress.

use dmem::Endpoint;

/// Default first-retry delay in virtual nanoseconds (≈ half an RTT).
pub const DEFAULT_BASE_NS: u64 = 256;
/// Default delay cap in virtual nanoseconds.
pub const DEFAULT_MAX_NS: u64 = 64 * 1024;

/// A per-loop exponential backoff state machine.
///
/// Create one per retry loop (not per client): the attempt counter is the
/// loop's conflict streak and resets with the loop.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: u64,
    attempt: u32,
    base_ns: u64,
    max_ns: u64,
}

impl Backoff {
    /// Creates a backoff with the default delay bounds.
    ///
    /// The seed should mix something per-client (e.g.
    /// [`dmem::Endpoint::client_id`]) with something per-site (e.g. the
    /// contended address) so concurrent waiters draw different jitter.
    pub fn new(seed: u64) -> Self {
        Self::with_limits(seed, DEFAULT_BASE_NS, DEFAULT_MAX_NS)
    }

    /// Creates a backoff with explicit `base_ns`/`max_ns` delay bounds.
    pub fn with_limits(seed: u64, base_ns: u64, max_ns: u64) -> Self {
        assert!(base_ns > 0 && max_ns >= base_ns);
        Backoff {
            // SplitMix64 of the seed; never zero (xorshift fixed point).
            rng: dmem::hash::mix64(seed).max(1),
            attempt: 0,
            base_ns,
            max_ns,
        }
    }

    /// Number of waits performed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Resets the conflict streak (call after the contended step succeeds
    /// if the loop keeps running).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Returns this attempt's delay in virtual nanoseconds: an exponentially
    /// growing ceiling, half fixed and half jittered, clamped to `max_ns`.
    pub fn next_delay_ns(&mut self) -> u64 {
        let exp = self.attempt.min(20);
        self.attempt += 1;
        let ceil = self.base_ns.saturating_shl(exp).min(self.max_ns);
        let half = ceil / 2;
        half + dmem::hash::xorshift64star(&mut self.rng) % (ceil - half + 1)
    }

    /// Charges one backoff delay to the endpoint's virtual clock and yields
    /// the OS thread (so a descheduled lock holder can run in real
    /// multi-threaded tests).
    pub fn wait(&mut self, ep: &mut Endpoint) {
        let ns = self.next_delay_ns();
        ep.advance_clock(ns);
        if self.attempt > 1 {
            std::thread::yield_now();
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        if exp >= self.leading_zeros() {
            u64::MAX
        } else {
            self << exp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let mut b = Backoff::with_limits(7, 100, 1_000);
        let d0 = b.next_delay_ns();
        assert!((50..=100).contains(&d0), "{d0}");
        let d1 = b.next_delay_ns();
        assert!((100..=200).contains(&d1), "{d1}");
        for _ in 0..10 {
            let d = b.next_delay_ns();
            assert!(d <= 1_000);
        }
        // Once capped, the delay stays in the top half of the cap.
        let d = b.next_delay_ns();
        assert!((500..=1_000).contains(&d), "{d}");
    }

    #[test]
    fn same_seed_same_delays() {
        let mut a = Backoff::new(42);
        let mut b = Backoff::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_delay_ns(), b.next_delay_ns());
        }
        let mut c = Backoff::new(43);
        let diverged = (0..32).any(|_| a.next_delay_ns() != c.next_delay_ns());
        assert!(diverged, "different seeds should jitter differently");
    }

    #[test]
    fn reset_restarts_the_streak() {
        let mut b = Backoff::with_limits(1, 100, 1_000_000);
        for _ in 0..8 {
            b.next_delay_ns();
        }
        assert_eq!(b.attempts(), 8);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay_ns() <= 100);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = Backoff::with_limits(1, u64::MAX / 2, u64::MAX);
        for _ in 0..100 {
            let d = b.next_delay_ns();
            assert!(d >= u64::MAX / 4);
        }
    }
}
