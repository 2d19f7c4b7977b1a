//! Shared by the engine suites: a watchdog so a scheduler that never
//! finishes fails the test instead of hanging `cargo test`.

#![allow(clippy::disallowed_methods, reason = "the watchdog bounds real time by design")]

use std::thread;
use std::time::{Duration, Instant};

/// How long an engine run may take before the watchdog gives up on it.
/// Every run in these suites finishes in milliseconds.
const LIMIT: Duration = Duration::from_secs(10);

/// Runs `f` on its own thread and returns its result; panics if it has not
/// finished within [`LIMIT`] (a wedged engine keeps spinning or blocking
/// on its thread, which the failing test process then takes down with it).
pub fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let start = Instant::now();
    let run = thread::spawn(f);
    while !run.is_finished() {
        assert!(
            start.elapsed() < LIMIT,
            "engine wedged: no result after {LIMIT:?}"
        );
        thread::sleep(Duration::from_millis(1));
    }
    match run.join() {
        Ok(r) => r,
        Err(p) => std::panic::resume_unwind(p),
    }
}
