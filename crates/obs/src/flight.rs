//! The flight recorder: a bounded black box of each client's last moments.
//!
//! Event tracing ([`crate::trace::Tracer`]) is opt-in and verbose; the
//! flight recorder is always on and cheap — a fixed-capacity ring of the
//! last N coarse events per client (operation begin/end, whole-op retries,
//! injected faults, crash points, control-plane notes). When a test fails,
//! a client panics, or the perf gate trips, harnesses dump the rings to
//! `flightdump_*.json` so the failure report carries the moments *before*
//! the failure, not just the aggregate after it.
//!
//! Timestamps are virtual-clock nanoseconds; a dump is a pure function of
//! the seed — byte-identical across identical runs.

use std::collections::VecDeque;

use crate::json::Json;

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
    /// A free-form control-plane note (migration steps, gate events).
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

impl FlightEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("t_ns", Json::from(self.t_ns))];
        match &self.kind {
            FlightKind::OpBegin { op, key, trace } => {
                pairs.push(("ev", Json::from("op_begin")));
                pairs.push(("op", Json::from(*op)));
                pairs.push(("key", Json::from(*key)));
                pairs.push(("trace", Json::from(*trace)));
            }
            FlightKind::OpEnd { ok, dur_ns } => {
                pairs.push(("ev", Json::from("op_end")));
                pairs.push(("ok", Json::Bool(*ok)));
                pairs.push(("dur_ns", Json::from(*dur_ns)));
            }
            FlightKind::Retry { cause } => {
                pairs.push(("ev", Json::from("retry")));
                pairs.push(("cause", Json::from(*cause)));
            }
            FlightKind::Fault { action, label } => {
                pairs.push(("ev", Json::from("fault")));
                pairs.push(("action", Json::from(*action)));
                pairs.push(("label", Json::from(label.as_str())));
            }
            FlightKind::CrashPoint { label } => {
                pairs.push(("ev", Json::from("crash_point")));
                pairs.push(("label", Json::from(*label)));
            }
            FlightKind::Note { label } => {
                pairs.push(("ev", Json::from("note")));
                pairs.push(("label", Json::from(label.as_str())));
            }
        }
        Json::obj(pairs)
    }
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

    /// Serializes this ring as one client's dump entry.
    pub fn to_json(&self, client: u32) -> Json {
        Json::obj(vec![
            ("client", Json::from(client as u64)),
            ("dropped", Json::from(self.dropped)),
            (
                "events",
                Json::Arr(self.ring.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

/// Assembles a full dump document from per-client rings.
pub fn dump_document(name: &str, reason: &str, clients: &[(u32, &FlightRecorder)]) -> Json {
    Json::obj(vec![
        ("schema", Json::from(1u64)),
        ("name", Json::from(name)),
        ("reason", Json::from(reason)),
        (
            "clients",
            Json::Arr(clients.iter().map(|(id, r)| r.to_json(*id)).collect()),
        ),
    ])
}

/// Writes a dump document to `flightdump_<name>.json` under `$BENCH_OUT_DIR`
/// (the working directory when unset). Returns the path written, or the IO
/// error message.
pub fn write_dump(name: &str, doc: &Json) -> Result<String, String> {
    let file = format!("flightdump_{name}.json");
    let path = match std::env::var("BENCH_OUT_DIR") {
        Ok(dir) if !dir.is_empty() => format!("{dir}/{file}"),
        _ => file,
    };
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlightRecorder {
        let mut r = FlightRecorder::new(8);
        r.push(
            100,
            FlightKind::OpBegin {
                op: "search",
                key: 42,
                trace: 7,
            },
        );
        r.push(150, FlightKind::Retry { cause: "lock_conflict" });
        r.push(
            200,
            FlightKind::Fault {
                action: "delay",
                label: "spike".into(),
            },
        );
        r.push(300, FlightKind::OpEnd { ok: true, dur_ns: 200 });
        r.push(
            400,
            FlightKind::CrashPoint {
                label: "part.migrate.locked",
            },
        );
        r
    }

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
    fn dump_is_deterministic_and_parseable() {
        let a = sample();
        let b = sample();
        let doc = dump_document("unit", "test failure", &[(0, &a), (1, &b)]);
        let text = doc.to_pretty();
        assert_eq!(
            text,
            dump_document("unit", "test failure", &[(0, &sample()), (1, &sample())]).to_pretty()
        );
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("test failure"));
        let clients = v.get("clients").unwrap().as_arr().unwrap();
        assert_eq!(clients.len(), 2);
        let evs = clients[0].get("events").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].get("ev").unwrap().as_str(), Some("op_begin"));
        assert_eq!(evs[0].get("trace").unwrap().as_f64(), Some(7.0));
        assert_eq!(evs[4].get("ev").unwrap().as_str(), Some("crash_point"));
    }
}
