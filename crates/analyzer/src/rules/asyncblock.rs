//! R9 `async-block` — no blocking lock/condvar acquisition in lane
//! context.
//!
//! Coroutine lanes are cooperatively scheduled: exactly one lane of a
//! client runs at a time, and a lane yields only at verb/timer parks. A
//! blocking `Mutex::lock` or `Condvar::wait` inside a lane body (or a
//! serve handler running on one) can therefore deadlock the whole engine
//! — the lock's holder is a *parked* lane that will never be resumed
//! while the running lane spins in the OS — and at best it stalls the
//! deterministic schedule on OS wall time. This is the pelikan
//! grow-a-cache "blocking lock on the async path" pitfall, ported to our
//! lane model.
//!
//! The rule scopes itself to **lane-context files**: any file that names
//! `LaneBody` or `install_lane_hook` (i.e. defines, spawns or runs lane
//! bodies). Inside such files' production code it flags:
//!
//! * `.lock()` method calls — `std::sync` and `parking_lot` mutexes both
//!   block the OS thread hosting the lane;
//! * any mention of `Condvar`, and `.wait(...)` calls in files that use
//!   one — a condvar wait parks the OS thread outside the scheduler.
//!
//! Transports that deliberately run *off* the lane engine (e.g. the
//! real-TCP serve mode) simply don't name lane types, so they are out of
//! scope by construction. Genuinely safe uses (e.g. a lock that is
//! uncontended because only one lane runs at a time) take a reasoned
//! `chime-lint: allow(async-block)` suppression. The engine itself is the
//! one *named exemption*, scoped to its path: parking a lane's OS thread
//! is its job, and its lock is only ever taken by the lane holding the
//! baton. The same code anywhere else — a lane body included — still fires.

use crate::report::Finding;
use crate::source::SourceFile;

/// Markers that make a file lane-context.
const LANE_MARKERS: &[&str] = &["LaneBody", "install_lane_hook"];

/// Documented exemption: (entry name, path prefix). Files under the prefix
/// implement lane parking rather than run on lanes.
const EXEMPT: &[(&str, &str)] = &[("lane-engine", "crates/sched/src/")];

/// Runs the rule.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    let lane_context = toks
        .iter()
        .any(|t| LANE_MARKERS.iter().any(|m| t.is_ident(m)));
    let exempt = EXEMPT.iter().any(|&(_, prefix)| file.rel_path.starts_with(prefix));
    if !lane_context || exempt {
        return;
    }
    let uses_condvar = toks.iter().any(|t| t.is_ident("Condvar"));
    for f in &file.fns {
        if f.body.1 <= f.body.0 || !file.is_production(f.toks.0) {
            continue;
        }
        for i in f.body.0..f.body.1 {
            let t = &toks[i];
            let is_method = |name: &str| {
                t.is_ident(name)
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            };
            if is_method("lock") {
                out.push(Finding {
                    rule: "async-block",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` calls a blocking `.lock()` in a lane-context file; a parked lane can hold the lock forever — park via verbs/timers or keep the state lane-local",
                        f.name
                    ),
                });
            }
            if uses_condvar && is_method("wait") {
                out.push(Finding {
                    rule: "async-block",
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` blocks on `Condvar::wait` in a lane-context file; the notifier may be a parked lane that never runs — use scheduler parks instead",
                        f.name
                    ),
                });
            }
        }
    }
}
