//! Bounded exponential backoff with seeded jitter for optimistic retries,
//! and the one retry loop of every lock-free versioned read.
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
//! A reader that fetched a torn image (versions that disagree, or a bitmap
//! or count a writer left half-way) retries in [`until_consistent`]: it
//! counts the image ([`dmem::Endpoint::note_torn_read`]), waits on a backoff
//! seeded by its client and the read's site, and stops only at one livelock
//! bound. [`read_nodes`] (one doorbell per round) and [`read_node`] (its
//! batch of one) are the whole-node reads over it, generic over the decoder
//! and reading through a [`dmem::versioned::Fetches`] the reader keeps.
//! Every index reads this way: CHIME's leaves ([`crate::leaf::LeafOps`]'s
//! `read_snapshot`, `read_snapshots` and, ranged, `read_neighborhood`), the
//! internal nodes CHIME and Sherman share
//! ([`crate::internal::InternalOps::read_with`]), Sherman's and ROLEX's
//! leaves (`sherman::leaf::ShermanLeafOps::{read, read_batch}`), SMART's
//! (`smart::node::ArtOps::read_leaf_into`), and CHIME-Learned's probes and
//! scans.
//!
//! The delay is charged to the endpoint's *virtual* clock
//! ([`dmem::Endpoint::advance_clock`]); no wall-clock sleeping happens, so
//! simulations stay instant and, given the same seed, bit-identical. In
//! multi-threaded runs the waiter additionally yields the OS thread so a
//! same-core lock holder (or a writer healing a torn image) can make real
//! progress.

use dmem::versioned::{Fetched, Fetches, Layout};
use dmem::{Endpoint, GlobalAddr};

/// Most rounds a torn-read loop runs before it declares a livelock.
const TORN_ROUND_LIMIT: u32 = 1_000_000;

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

/// Runs `round` until it returns `Ok`: the retry loop of every lock-free
/// versioned read. A round that fetched torn images returns how many
/// (`Err`); each counts as a torn read, and the loop waits on a [`Backoff`]
/// seeded by the client and `site` before the next round. Panics after a
/// million torn rounds (a livelock).
pub fn until_consistent<R>(ep: &mut Endpoint, site: u64, mut round: impl FnMut(&mut Endpoint) -> Result<R, usize>) -> R {
    let mut backoff = None;
    for _ in 0..TORN_ROUND_LIMIT {
        let torn = match round(ep) {
            Ok(r) => return r,
            Err(torn) => torn,
        };
        (0..torn).for_each(|_| ep.note_torn_read());
        backoff.get_or_insert_with(|| Backoff::new(u64::from(ep.client_id()) ^ site)).wait(ep);
    }
    panic!("torn-read livelock at site {site:#x}");
}

/// Whole-node reads of the nodes at `addrs` through `reads`' buffers, one
/// doorbell batch per round ([`Fetches::read_round`]): `decode` accepts a
/// consistent image or rejects a torn one, which the next round re-reads.
/// The nodes are appended to `out` in `addrs` order; `site` seeds the
/// backoff.
pub fn read_nodes<S: Default, T>(
    ep: &mut Endpoint,
    layout: &Layout,
    addrs: &[GlobalAddr],
    site: u64,
    reads: &mut Fetches<S>,
    out: &mut Vec<T>,
    mut decode: impl FnMut(&mut Fetched, &mut S) -> Option<T>,
) {
    let mut first = true;
    until_consistent(ep, site, |ep| match reads.read_round(ep, layout, addrs, std::mem::take(&mut first), out, &mut decode) {
        0 => Ok(()),
        torn => Err(torn),
    });
}

/// The whole-node read of the node at `addr`: [`read_nodes`]' batch of
/// one, its site the address.
pub fn read_node<S: Default, T>(
    ep: &mut Endpoint,
    layout: &Layout,
    addr: GlobalAddr,
    reads: &mut Fetches<S>,
    mut decode: impl FnMut(&mut Fetched, &mut S) -> Option<T>,
) -> T {
    // The node leaves through the closure, so the batch collects `()`s,
    // which take no memory.
    let mut node = None;
    read_nodes(ep, layout, &[addr], addr.raw(), reads, &mut Vec::new(), |f, s| {
        decode(f, s).map(|t| node = Some(t))
    });
    node.expect("a decoded node")
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
