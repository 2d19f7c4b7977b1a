//! Compute-node state owned by one thread.
//!
//! Every client of a compute node runs on one host thread: the serial
//! driver, a lane engine, the simulated server and the TCP server each
//! build a CN on the thread that then runs all of its clients. So a CN's
//! caches need no lock, only a check that no other thread reaches them.
//! A [`CnCell`] is a `RefCell` that belongs to the thread that created it:
//! a borrow is a thread-token compare and the `RefCell` flag, no atomic
//! and no futex. A borrow from any other thread panics before it touches
//! the contents, and a cell dropped on another thread leaks them instead
//! of dropping them there, so the contents may hold `Rc`s.
//!
//! The cell is `Send` and `Sync` so that client handles stay `Send`: a
//! harness may box them as `dyn RangeIndex + Send`. The check is what
//! keeps a CN to one thread, at run time.

use core::cell::{Cell, RefCell, RefMut};
use core::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// This thread's token; 0 until first asked for.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's token: unique in the process and never reused, so
/// a thread that starts after the owner exits cannot pass for it.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TOKEN.with(|t| match t.get() {
        0 => {
            let token = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(token);
            token
        }
        token => token,
    })
}

/// A `RefCell` that belongs to the thread that created it.
pub struct CnCell<T> {
    owner: u64,
    value: ManuallyDrop<RefCell<T>>,
}

// SAFETY: `owner` is a plain integer, written once at creation. No thread
// but the owner reaches `value`: `borrow_mut` checks the caller's token
// before it touches the cell, `drop` leaves the value alone off the owner
// thread, and tokens are never reused. Moving the cell to another thread
// therefore moves bytes no other thread reads, and the contents (and any
// `Rc` they share with values on the owner thread) are only ever used,
// cloned and dropped on the owner thread; so `T` needs neither bound.
unsafe impl<T> Send for CnCell<T> {}

// SAFETY: as for `Send`: through a shared reference, a thread other than
// the owner can only read `owner` and fail the token check.
unsafe impl<T> Sync for CnCell<T> {}

impl<T> CnCell<T> {
    /// A cell owned by the calling thread.
    pub fn new(value: T) -> Self {
        CnCell {
            owner: thread_token(),
            value: ManuallyDrop::new(RefCell::new(value)),
        }
    }

    /// Mutably borrows the contents.
    ///
    /// # Panics
    ///
    /// Panics off the owner thread, or if the contents are borrowed.
    #[inline]
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        if thread_token() != self.owner {
            foreign_thread();
        }
        self.value.borrow_mut()
    }
}

#[cold]
#[inline(never)]
fn foreign_thread() -> ! {
    panic!("compute-node state reached from a thread other than the one that created it");
}

impl<T> Drop for CnCell<T> {
    fn drop(&mut self) {
        if thread_token() == self.owner {
            // SAFETY: `value` is dropped once, here, and never used again.
            unsafe { ManuallyDrop::drop(&mut self.value) }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    #[test]
    fn the_owner_borrows_and_drops() {
        let shared = Rc::new(());
        let cell = CnCell::new(Rc::clone(&shared));
        assert_eq!(Rc::strong_count(&cell.borrow_mut()), 2);
        drop(cell);
        assert_eq!(Rc::strong_count(&shared), 1);
    }

    #[test]
    fn another_thread_cannot_borrow() {
        let cell = CnCell::new(7u32);
        let other = std::thread::scope(|s| s.spawn(|| *cell.borrow_mut()).join());
        assert!(other.is_err(), "a foreign borrow must panic");
        assert_eq!(*cell.borrow_mut(), 7);
    }

    #[test]
    fn a_foreign_drop_leaks_instead_of_dropping() {
        let shared = Rc::new(());
        let cell = CnCell::new(Rc::clone(&shared));
        std::thread::scope(|s| {
            s.spawn(move || drop(cell));
        });
        // The other thread left the clone alone: the count is untouched.
        assert_eq!(Rc::strong_count(&shared), 2);
    }

    #[test]
    fn tokens_are_unique_per_thread() {
        let here = thread_token();
        assert_eq!(thread_token(), here);
        let there = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(there, here);
    }
}
