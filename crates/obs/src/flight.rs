//! [`FlightRecorder`], [`FlightKind`] and [`FlightEvent`] under the names
//! the benchmark harness's host-cost probe (`benchmark/src/probes.rs`)
//! times; they exist only for that caller. A flight recorder is a bounded
//! [`Ring`] of timestamped [`Event`]s, pushed by hand; no endpoint keeps
//! one.

use crate::event::{Event, Ring};

/// The payload of a flight event: an [`Event`].
pub type FlightKind = Event;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual-clock timestamp, ns.
    pub t_ns: u64,
    /// The payload.
    pub kind: Event,
}

/// A bounded ring of flight events.
pub type FlightRecorder = Ring<FlightEvent>;

impl Default for FlightRecorder {
    /// A ring of 64 events.
    fn default() -> Self {
        Ring::new(64)
    }
}

impl FlightRecorder {
    /// Records an event.
    pub fn push(&mut self, t_ns: u64, kind: Event) {
        self.push_back(FlightEvent { t_ns, kind });
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
        assert_eq!(r.iter().next().unwrap().t_ns, 7);
    }

    #[test]
    fn default_ring_keeps_the_newest_64_events() {
        let mut r = FlightRecorder::default();
        for i in 0..100u64 {
            r.push(i, FlightKind::Shed);
        }
        assert_eq!((r.len(), r.dropped()), (64, 36));
        let kept: Vec<u64> = r.iter().map(|ev| ev.t_ns).collect();
        assert_eq!(kept, (36..100).collect::<Vec<_>>());
    }
}
