//! The flight recorder: a bounded black box of each client's last moments.
//!
//! Event tracing ([`crate::trace::Tracer`]) is opt-in and verbose; the
//! flight recorder is always on and cheap — a fixed-capacity ring of the
//! last N coarse events per client (operation begin/end, whole-op retries,
//! injected faults, crash points, control-plane notes): the moments
//! *before* a failure, not just the aggregate after it.
//!
//! Timestamps are virtual-clock nanoseconds; a ring is a pure function of
//! the seed.

use std::collections::VecDeque;

/// Default ring capacity per client.
pub const DEFAULT_CAPACITY: usize = 64;

/// One coarse black-box event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightKind {
    /// An operation started.
    OpBegin {
        /// Operation name.
        op: &'static str,
        /// Target key.
        key: u64,
        /// Causal trace id active at the time (0 = none).
        trace: u64,
    },
    /// An operation completed.
    OpEnd {
        /// Whether it reported success.
        ok: bool,
        /// Virtual duration, ns.
        dur_ns: u64,
    },
    /// A whole-operation retry.
    Retry {
        /// Root-cause name (`lock_conflict`, ...).
        cause: &'static str,
    },
    /// An injected fault.
    Fault {
        /// Fault action name.
        action: &'static str,
        /// Label of the rule that fired.
        label: String,
    },
    /// A labeled crash point was passed (or triggered).
    CrashPoint {
        /// The crash-point label.
        label: &'static str,
    },
    /// A free-form control-plane note (migration steps).
    Note {
        /// The note text.
        label: String,
    },
}

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual-clock timestamp, ns.
    pub t_ns: u64,
    /// The payload.
    pub kind: FlightKind,
}

/// A bounded per-client black-box ring. Overflow drops the oldest events
/// (and counts them) — the tail of a run is what a failure report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records an event.
    pub fn push(&mut self, t_ns: u64, kind: FlightKind) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent { t_ns, kind });
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.push(i, FlightKind::Note { label: format!("n{i}") });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.events().next().unwrap().t_ns, 7);
    }

    #[test]
    fn events_come_back_oldest_first_and_capacity_is_at_least_one() {
        let mut r = FlightRecorder::default();
        assert!(r.is_empty());
        r.push(5, FlightKind::OpBegin { op: "search", key: 42, trace: 0 });
        r.push(9, FlightKind::Retry { cause: "lock_conflict" });
        r.push(12, FlightKind::OpEnd { ok: true, dur_ns: 7 });
        let times: Vec<u64> = r.events().map(|e| e.t_ns).collect();
        assert_eq!(times, [5, 9, 12]);
        assert_eq!((r.len(), r.dropped()), (3, 0));
        // A zero capacity still keeps the latest event.
        let mut one = FlightRecorder::new(0);
        one.push(1, FlightKind::CrashPoint { label: "before_unlock" });
        one.push(2, FlightKind::CrashPoint { label: "after_unlock" });
        let kept: Vec<&FlightEvent> = one.events().collect();
        assert_eq!(kept, [&FlightEvent { t_ns: 2, kind: FlightKind::CrashPoint { label: "after_unlock" } }]);
        assert_eq!(one.dropped(), 1);
    }
}
