//! Connection admission: a counting semaphore of connection permits.
//!
//! The server holds a fixed number of permits; a connection must win one
//! before any of its requests are decoded, and returns it when it closes.
//! Taking a permit never blocks, so the same type serves both the
//! deterministic simulated-socket mode (where a refused connection retries
//! by advancing virtual time) and the real-TCP mode (where a refused
//! connection is answered `-BUSY` and closed). Each owner runs on one
//! thread (the TCP server's, or `sim`'s engine), so the count is a plain
//! cell and the type is not `Sync`.

use std::cell::Cell;

/// The admission semaphore.
#[derive(Debug)]
pub struct Admission {
    permits: Cell<u64>,
    limit: u64,
}

impl Admission {
    /// Creates an admission gate with `limit` connection permits.
    pub fn new(limit: usize) -> Self {
        Admission {
            permits: Cell::new(limit as u64),
            limit: limit as u64,
        }
    }

    /// Tries to take one permit. Returns `false` when none are free. Never
    /// blocks.
    pub fn try_admit(&self) -> bool {
        let free = self.permits.get();
        if free == 0 {
            return false;
        }
        self.permits.set(free - 1);
        true
    }

    /// Returns one permit.
    pub fn release(&self) {
        let free = self.permits.get();
        debug_assert!(free < self.limit, "release without a matching admit");
        self.permits.set(free + 1);
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
