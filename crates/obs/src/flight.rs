//! The flight recorder: a bounded black box of each client's last moments.
//!
//! Event tracing ([`crate::trace::Tracer`]) is opt-in and verbose; the
//! flight recorder is always on and cheap — a fixed-capacity [`Ring`] of the
//! last N coarse events per client (operation begin/end, whole-op retries,
//! injected faults, crash points, control-plane notes): the moments
//! *before* a failure, not just the aggregate after it.
//!
//! Timestamps are virtual-clock nanoseconds; a ring is a pure function of
//! the seed.

use crate::event::{Event, Ring};

/// Default ring capacity per client.
pub const DEFAULT_CAPACITY: usize = 64;

/// The events a flight ring keeps: the coarse [`Event`]s.
pub type FlightKind = Event;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual-clock timestamp, ns.
    pub t_ns: u64,
    /// The payload.
    pub kind: Event,
}

/// A bounded per-client black-box ring.
pub type FlightRecorder = Ring<FlightEvent>;

impl Default for FlightRecorder {
    fn default() -> Self {
        Ring::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Records an event.
    pub fn push(&mut self, t_ns: u64, kind: Event) {
        self.push_back(FlightEvent { t_ns, kind });
    }

    /// Folds one observation in: keeps op begins and ends, whole-op
    /// retries, faults, crash points and notes.
    #[inline(always)]
    pub fn fold(&mut self, t_ns: u64, ev: &Event) {
        match ev {
            Event::OpBegin { .. }
            | Event::OpEnd { .. }
            | Event::Retry { op: true, .. }
            | Event::Fault { .. }
            | Event::CrashPoint { .. }
            | Event::Note { .. } => self.push(t_ns, ev.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, RetryCause};

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.push(i, FlightKind::Note { label: format!("n{i}") });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.iter().next().unwrap().t_ns, 7);
    }

    #[test]
    fn fold_keeps_the_coarse_events_oldest_first() {
        let mut r = FlightRecorder::default();
        assert!(r.is_empty());
        r.fold(5, &Event::OpBegin { op: "search", key: 42, trace: 0 });
        r.fold(6, &Event::Time { phase: Phase::Traversal, ns: 3 });
        r.fold(8, &Event::Retry { cause: RetryCause::LockConflict, op: false });
        r.fold(9, &Event::Retry { cause: RetryCause::LockConflict, op: true });
        r.fold(12, &Event::OpEnd { ok: true, dur_ns: 7 });
        let times: Vec<u64> = r.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, [5, 9, 12]);
        assert_eq!((r.len(), r.dropped()), (3, 0));
    }
}
