//! Compute-node-local lock tables (Sherman's technique, adopted by CHIME).
//!
//! When many clients of one CN contend for the same remote node lock, only
//! one of them should spin on remote CASes; the rest queue locally. The
//! table tracks which remote locks are held by this CN: a client first
//! acquires the local slot, then performs the (now almost always
//! uncontended-within-the-CN) remote acquisition.
//!
//! Every client of a CN runs on the thread that created it (see
//! [`crate::cn`]), so the table is that thread's list of held slots, a
//! [`CnCell`]: only a coroutine lane can find a slot taken, by a sibling
//! parked on a verb, and it waits for the slot in virtual time.

use std::sync::Arc;

use crate::cn::CnCell;
use crate::qp::lane_active;
use crate::verbs::Endpoint;

/// Virtual-time poll interval while a coroutine lane waits for a local
/// slot held by a parked sibling lane.
const LANE_POLL_NS: u64 = 200;

/// A per-CN table of remote locks currently held by local clients.
pub struct LocalLockTable {
    /// The raw lock addresses whose slots are taken: as many as the CN's
    /// clients hold at once, so a short list.
    held: CnCell<Vec<u64>>,
}

impl Default for LocalLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalLockTable {
    /// An empty table, owned by the calling thread.
    pub fn new() -> Self {
        LocalLockTable {
            held: CnCell::new(Vec::new()),
        }
    }

    /// Takes the local slot for `raw` (a remote lock address) and returns a
    /// guard that releases it on drop. A slot held by a sibling coroutine
    /// lane ([`lane_active`]) is waited for in **virtual time**: the
    /// lane advances its clock by a poll interval, which parks it while its
    /// siblings run, and tries again.
    ///
    /// # Panics
    ///
    /// Panics if the slot is taken off a lane, where its holder could never
    /// run to release it, or off the thread that created the table.
    pub fn acquire_with(self: &Arc<Self>, raw: u64, ep: &mut Endpoint) -> LocalLockGuard {
        // The cell is borrowed only inside `try_take`: never across the
        // park or the panic, since a lane unwinding from a crash point
        // drops its guards, and each drop borrows the cell again.
        while !self.try_take(raw) {
            assert!(lane_active(), "local lock slot {raw:#x} is taken off a lane: its holder cannot run");
            ep.advance_clock(LANE_POLL_NS);
        }
        LocalLockGuard {
            table: Arc::clone(self),
            raw,
        }
    }

    fn try_take(&self, raw: u64) -> bool {
        let mut held = self.held.borrow_mut();
        if held.contains(&raw) {
            return false;
        }
        held.push(raw);
        true
    }

    fn release(&self, raw: u64) {
        let mut held = self.held.borrow_mut();
        if let Some(i) = held.iter().position(|&r| r == raw) {
            held.swap_remove(i);
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
    use crate::node::Pool;

    fn endpoint() -> Endpoint {
        Endpoint::new(Pool::with_defaults(1, 1 << 20))
    }

    #[test]
    fn a_released_slot_is_taken_again_at_no_virtual_cost() {
        let t = Arc::new(LocalLockTable::new());
        let mut ep = endpoint();
        drop(t.acquire_with(42, &mut ep));
        let _again = t.acquire_with(42, &mut ep);
        assert_eq!(ep.clock_ns(), 0);
    }

    #[test]
    fn distinct_addresses_do_not_block() {
        let t = Arc::new(LocalLockTable::new());
        let mut ep = endpoint();
        let _guards: Vec<_> = (1..=8).map(|raw| t.acquire_with(raw, &mut ep)).collect();
        assert_eq!(ep.clock_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "local lock slot 0x9 is taken")]
    fn a_taken_slot_off_a_lane_panics_instead_of_hanging() {
        let t = Arc::new(LocalLockTable::new());
        let mut ep = endpoint();
        let _held = t.acquire_with(9, &mut ep);
        let _ = t.acquire_with(9, &mut ep);
    }

    #[test]
    fn a_failed_acquire_leaves_the_slot_with_its_holder() {
        let t = Arc::new(LocalLockTable::new());
        let mut ep = endpoint();
        let held = t.acquire_with(5, &mut ep);
        let retry = |ep: &mut Endpoint| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(t.acquire_with(5, ep))))
        };
        assert!(retry(&mut ep).is_err(), "a taken slot was granted twice");
        // The failed attempt neither freed the holder's slot nor took a second one.
        assert!(retry(&mut ep).is_err(), "the failed attempt freed the slot");
        drop(held);
        assert!(retry(&mut ep).is_ok(), "the released slot stayed taken");
    }

    #[test]
    fn a_guard_dropped_by_unwinding_frees_its_slot() {
        let t = Arc::new(LocalLockTable::new());
        let mut ep = endpoint();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = t.acquire_with(11, &mut ep);
            panic!("crash point while holding the slot");
        }));
        assert!(crashed.is_err());
        let _again = t.acquire_with(11, &mut ep);
        assert_eq!(ep.clock_ns(), 0);
    }

    #[test]
    fn a_table_reached_from_another_thread_panics() {
        let t = Arc::new(LocalLockTable::new());
        let other = std::thread::scope(|s| s.spawn(|| drop(t.acquire_with(7, &mut endpoint()))).join());
        assert!(other.is_err(), "a foreign acquire must panic");
        // The foreign attempt took nothing.
        drop(t.acquire_with(7, &mut endpoint()));
    }
}
