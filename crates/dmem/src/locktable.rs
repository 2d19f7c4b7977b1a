//! Compute-node-local lock tables (Sherman's technique, adopted by CHIME).
//!
//! When many clients of one CN contend for the same remote node lock, only
//! one of them should spin on remote CASes; the rest queue locally. The
//! table tracks which remote locks are held by this CN: a client first
//! acquires the local slot, then performs the (now almost always
//! uncontended-within-the-CN) remote acquisition.
//!
//! Sharded to keep local contention negligible.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::hash::FixedState;
use crate::verbs::Endpoint;

const SHARDS: usize = 64;

/// Virtual-time poll interval while a coroutine lane waits for a local
/// slot held by a parked sibling lane.
const LANE_POLL_NS: u64 = 200;

struct Shard {
    state: Mutex<Held>,
    cv: Condvar,
}

/// The slots of one shard that are taken, and how many `acquire`s wait on
/// the shard's condvar: a release notifies only when one does, because a
/// notification is a system call even when nobody waits.
#[derive(Default)]
struct Held {
    slots: HashSet<u64, FixedState>,
    waiters: u32,
}

/// A per-CN table of remote locks currently held by local clients.
pub struct LocalLockTable {
    shards: Vec<Shard>,
}

impl Default for LocalLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalLockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LocalLockTable {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(Held::default()),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, raw: u64) -> &Shard {
        &self.shards[(crate::hash::mix64(raw) % SHARDS as u64) as usize]
    }

    /// Blocks until this client holds the local slot for `raw` (a remote
    /// lock address). Returns a guard that releases the slot on drop.
    ///
    /// Panics on a coroutine lane ([`crate::lane_active`]): the condvar
    /// would block the thread every lane of the client runs on, so a slot
    /// held by a suspended sibling would never come free. Lanes take
    /// [`acquire_with`](Self::acquire_with).
    pub fn acquire(self: &Arc<Self>, raw: u64) -> LocalLockGuard {
        assert!(
            !crate::qp::lane_active(),
            "LocalLockTable::acquire blocks the thread all lanes share: a lane takes acquire_with"
        );
        let shard = self.shard(raw);
        let mut held = shard.state.lock();
        while held.slots.contains(&raw) {
            held.waiters += 1;
            shard.cv.wait(&mut held);
            held.waiters -= 1;
        }
        held.slots.insert(raw);
        LocalLockGuard {
            table: Arc::clone(self),
            raw,
        }
    }

    /// Takes the local slot for `raw` if it is free, without blocking.
    pub fn try_acquire(self: &Arc<Self>, raw: u64) -> Option<LocalLockGuard> {
        let shard = self.shard(raw);
        let mut held = shard.state.lock();
        if !held.slots.insert(raw) {
            return None;
        }
        Some(LocalLockGuard {
            table: Arc::clone(self),
            raw,
        })
    }

    /// Coroutine-safe [`acquire`](Self::acquire): on a scheduler lane
    /// ([`crate::lane_active`]) the wait happens in **virtual time** — the
    /// lane parks on a timer and its siblings run — instead of on the
    /// condvar, which a lane may not reach (see [`acquire`](Self::acquire)).
    /// Off-lane callers fall through to the plain blocking path.
    pub fn acquire_with(self: &Arc<Self>, raw: u64, ep: &mut Endpoint) -> LocalLockGuard {
        if !crate::qp::lane_active() {
            return self.acquire(raw);
        }
        loop {
            if let Some(g) = self.try_acquire(raw) {
                return g;
            }
            ep.advance_clock(LANE_POLL_NS);
        }
    }

    fn release(&self, raw: u64) {
        let shard = self.shard(raw);
        let mut held = shard.state.lock();
        held.slots.remove(&raw);
        if held.waiters > 0 {
            shard.cv.notify_all();
        }
    }
}

/// RAII guard for a local lock slot.
pub struct LocalLockGuard {
    table: Arc<LocalLockTable>,
    raw: u64,
}

impl Drop for LocalLockGuard {
    fn drop(&mut self) {
        self.table.release(self.raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn acquire_release_roundtrip() {
        let t = Arc::new(LocalLockTable::new());
        let g = t.acquire(42);
        drop(g);
        let g2 = t.acquire(42);
        drop(g2);
    }

    #[test]
    fn distinct_addresses_do_not_block() {
        let t = Arc::new(LocalLockTable::new());
        let _a = t.acquire(1);
        let _b = t.acquire(2);
    }

    #[test]
    fn a_blocked_acquire_wakes_when_the_slot_is_released() {
        let t = Arc::new(LocalLockTable::new());
        let held = t.acquire(9);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let _g = t.acquire(9);
                tx.send(()).unwrap();
            })
        };
        // Release only once the waiter is counted on the condvar, so the
        // release must be the notification that wakes it.
        while t.shard(9).state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "acquired a held slot");
        drop(held);
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("the release did not wake the waiting acquire");
        waiter.join().unwrap();
        assert_eq!(t.shard(9).state.lock().waiters, 0);
    }

    #[test]
    fn mutual_exclusion_under_threads() {
        let t = Arc::new(LocalLockTable::new());
        let counter = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let counter = Arc::clone(&counter);
                let max_seen = Arc::clone(&max_seen);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let _g = t.acquire(7);
                        let in_cs = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(in_cs, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "two holders at once");
    }
}
