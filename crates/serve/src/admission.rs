//! Connection admission: a counting semaphore of connection permits.
//!
//! The server holds a fixed number of permits; a connection must win one
//! before any of its requests are decoded, and returns it when it closes.
//! Acquisition is a single atomic CAS loop — never a blocking wait — so
//! the same type serves both the deterministic simulated-socket mode
//! (where a refused connection retries by advancing virtual time) and the
//! real-TCP mode (where a refused connection is answered `-BUSY` and
//! closed). The TOCTOU pitfall from the pelikan transcript is avoided by
//! making reserve-and-count one atomic step.

use std::sync::atomic::{AtomicU64, Ordering};

/// The admission semaphore.
#[derive(Debug)]
pub struct Admission {
    permits: AtomicU64,
    limit: u64,
}

impl Admission {
    /// Creates an admission gate with `limit` connection permits.
    pub fn new(limit: usize) -> Self {
        Admission {
            permits: AtomicU64::new(limit as u64),
            limit: limit as u64,
        }
    }

    /// Tries to take one permit. Returns `false` when none are free. Never
    /// blocks.
    pub fn try_admit(&self) -> bool {
        let mut cur = self.permits.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns one permit.
    pub fn release(&self) {
        let prev = self.permits.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev < self.limit, "release without a matching admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_bound_admissions() {
        let a = Admission::new(2);
        assert!(a.try_admit());
        assert!(a.try_admit());
        assert!(!a.try_admit());
        a.release();
        assert!(a.try_admit());
        assert!(!a.try_admit());
    }
}
