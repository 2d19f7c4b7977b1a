//! Structured span/event tracing on the virtual clock.
//!
//! Each index operation opens a *span*; every verb the operation issues (and
//! every fault injected into it) is recorded as an *event* attributed to the
//! innermost open span. All timestamps are virtual-clock nanoseconds, so a
//! trace is a pure function of the workload seed: two identical runs export
//! byte-identical JSONL.
//!
//! Events live in a bounded per-client ring buffer; when it overflows the
//! oldest events are dropped (and counted), never the newest — the tail of a
//! run is what failure reports need.

use crate::event::{Event, Ring};
use crate::json::Json;
use crate::phase::Phase;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The span the event belongs to (0 = outside any span).
    pub span: u64,
    /// The causal trace id active when the event was recorded (0 = none).
    /// Minted once at the serve/bench entry point and carried through every
    /// layer an operation touches, so one op's events form one causal tree.
    pub trace: u64,
    /// Monotonic per-client event sequence number.
    pub seq: u64,
    /// Virtual-clock timestamp, nanoseconds.
    pub t_ns: u64,
    /// The payload: a span, verb, phase or fault event.
    pub kind: Event,
}

impl Record {
    fn to_json(&self, client: u32) -> Json {
        let mut pairs = vec![
            ("client", Json::from(client as u64)),
            ("span", Json::from(self.span)),
            ("trace", Json::from(self.trace)),
            ("seq", Json::from(self.seq)),
            ("t_ns", Json::from(self.t_ns)),
        ];
        pairs.extend(match &self.kind {
            Event::OpBegin { op, key, .. } => {
                vec![("ev", Json::from("span_begin")), ("op", Json::from(*op)), ("key", Json::from(*key))]
            }
            Event::OpEnd { ok, .. } => vec![("ev", Json::from("span_end")), ("ok", Json::Bool(*ok))],
            Event::Verb {
                verb,
                mn,
                addr,
                wire_bytes,
                msgs,
                dur_ns,
                ..
            } => vec![
                ("ev", Json::from("verb")),
                ("verb", Json::from(*verb)),
                ("mn", Json::from(*mn as u64)),
                ("addr", Json::from(*addr)),
                ("wire_bytes", Json::from(*wire_bytes)),
                ("msgs", Json::from(*msgs)),
                ("dur_ns", Json::from(*dur_ns)),
            ],
            Event::Fault { action, label } => {
                vec![("ev", Json::from("fault")), ("action", Json::from(*action)), ("label", Json::from(label.as_str()))]
            }
            Event::PhaseBegin { phase } => vec![("ev", Json::from("phase_begin")), ("phase", Json::from(phase.as_str()))],
            Event::PhaseEnd { phase, dur_ns } => vec![
                ("ev", Json::from("phase_end")),
                ("phase", Json::from(phase.as_str())),
                ("dur_ns", Json::from(*dur_ns)),
            ],
            _ => unreachable!("the tracer keeps span, verb, phase and fault events"),
        });
        Json::obj(pairs)
    }
}

/// A bounded, per-client span/event recorder.
#[derive(Debug)]
pub struct Tracer {
    client: u32,
    events: Ring<Record>,
    open: Vec<u64>,
    next_span: u64,
    next_seq: u64,
    trace: u64,
}

impl Tracer {
    /// Creates a tracer for `client` holding at most `capacity` events.
    pub fn new(client: u32, capacity: usize) -> Self {
        Tracer {
            client,
            events: Ring::new(capacity),
            open: Vec::new(),
            next_span: 0,
            next_seq: 0,
            trace: 0,
        }
    }

    /// Sets the causal trace id attached to subsequent events (0 = none).
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// The client id events are attributed to.
    pub fn client(&self) -> u32 {
        self.client
    }

    fn push(&mut self, span: u64, t_ns: u64, kind: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(Record {
            span,
            trace: self.trace,
            seq,
            t_ns,
            kind,
        });
    }

    /// Folds one observation in. `OpBegin` opens a span (spans nest) and
    /// `OpEnd` closes the innermost; verbs, faults and phase episodes are
    /// attributed to the innermost open span; only those are copied in.
    pub fn fold(&mut self, t_ns: u64, ev: &Event) {
        let span = match ev {
            Event::OpBegin { .. } => {
                self.next_span += 1;
                self.open.push(self.next_span);
                self.next_span
            }
            Event::OpEnd { .. } => match self.open.pop() {
                Some(span) => span,
                None => return,
            },
            Event::Verb { .. } | Event::Fault { .. } | Event::PhaseBegin { .. } | Event::PhaseEnd { .. } => {
                self.open.last().copied().unwrap_or(0)
            }
            _ => return,
        };
        self.push(span, t_ns, ev.clone());
    }

    /// Records a one-round-trip verb event attributed to the innermost open
    /// span.
    #[allow(clippy::too_many_arguments)]
    pub fn verb(
        &mut self,
        t_start_ns: u64,
        dur_ns: u64,
        verb: &'static str,
        mn: u16,
        addr: u64,
        wire_bytes: u64,
        msgs: u64,
    ) {
        let ev = Event::Verb {
            verb,
            mn,
            addr,
            msgs,
            rtts: 1,
            wire_bytes,
            dur_ns,
            delay_ns: 0,
            phase: Phase::Other,
        };
        self.push(self.open.last().copied().unwrap_or(0), t_start_ns, ev);
    }

    /// The bounded ring of recorded events, oldest first.
    pub fn events(&self) -> &Ring<Record> {
        &self.events
    }

    /// Exports the buffer as JSON Lines (one event per line, oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events.iter() {
            out.push_str(&ev.to_json(self.client).to_compact());
            out.push('\n');
        }
        out
    }

    /// Reconstructs per-span summaries from the buffered events.
    ///
    /// Only spans whose `SpanBegin` is still in the ring are reported; a
    /// span without a matching `SpanEnd` (crashed client, truncated run) is
    /// reported with `ok == false` and its duration up to its last event.
    pub fn spans(&self) -> Vec<SpanSummary> {
        let mut spans: Vec<SpanSummary> = Vec::new();
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for ev in self.events.iter() {
            if let Event::OpBegin { op, key, .. } = ev.kind {
                index.insert(ev.span, spans.len());
                spans.push(SpanSummary {
                    id: ev.span,
                    trace: ev.trace,
                    op,
                    key,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns,
                    ok: false,
                    closed: false,
                    verbs: Vec::new(),
                    faults: 0,
                    wire_bytes: 0,
                    phase_ns: Vec::new(),
                });
                continue;
            }
            let Some(&i) = index.get(&ev.span) else { continue };
            let s = &mut spans[i];
            match ev.kind {
                Event::OpEnd { ok, .. } => (s.end_ns, s.ok, s.closed) = (ev.t_ns, ok, true),
                Event::Verb { verb, mn, wire_bytes, dur_ns, .. } => {
                    s.end_ns = s.end_ns.max(ev.t_ns + dur_ns);
                    s.wire_bytes += wire_bytes;
                    s.verbs.push(SpanVerb { verb, mn, wire_bytes, dur_ns });
                }
                Event::Fault { .. } => s.faults += 1,
                Event::PhaseEnd { phase, dur_ns } => {
                    s.end_ns = s.end_ns.max(ev.t_ns);
                    match s.phase_ns.iter_mut().find(|(p, _)| *p == phase.as_str()) {
                        Some((_, ns)) => *ns += dur_ns,
                        None => s.phase_ns.push((phase.as_str(), dur_ns)),
                    }
                }
                _ => {}
            }
        }
        for s in &mut spans {
            s.phase_ns.sort_unstable_by_key(|(p, _)| *p);
        }
        spans
    }
}

/// One verb inside a reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanVerb {
    /// Verb name.
    pub verb: &'static str,
    /// Target memory node.
    pub mn: u16,
    /// Wire bytes charged.
    pub wire_bytes: u64,
    /// Virtual duration, ns.
    pub dur_ns: u64,
}

/// A reconstructed operation span.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span id.
    pub id: u64,
    /// Causal trace id active at span open (0 = none).
    pub trace: u64,
    /// Operation name.
    pub op: &'static str,
    /// Target key.
    pub key: u64,
    /// Open timestamp, virtual ns.
    pub start_ns: u64,
    /// Close timestamp (or last event) in virtual ns.
    pub end_ns: u64,
    /// Whether the operation reported success.
    pub ok: bool,
    /// Whether the span's end event was observed.
    pub closed: bool,
    /// Verbs issued inside the span, in order.
    pub verbs: Vec<SpanVerb>,
    /// Faults injected inside the span.
    pub faults: u64,
    /// Total wire bytes of the span's verbs.
    pub wire_bytes: u64,
    /// Inclusive nanoseconds per phase sub-span, sorted by phase name.
    pub phase_ns: Vec<(&'static str, u64)>,
}

impl SpanSummary {
    /// Span duration in virtual nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(t: &mut Tracer, op: &'static str, key: u64, now: u64) {
        t.fold(now, &Event::OpBegin { op, key, trace: 0 });
    }

    fn end(t: &mut Tracer, ok: bool, now: u64) {
        t.fold(now, &Event::OpEnd { ok, dur_ns: 0 });
    }

    #[test]
    fn spans_attribute_verbs_and_faults() {
        let mut t = Tracer::new(3, 1024);
        begin(&mut t, "search", 42, 1_000);
        t.verb(1_000, 2_500, "read", 0, 0x100, 300, 1);
        t.fold(3_500, &Event::Fault { action: "delay", label: "spike".into() });
        t.verb(3_500, 2_500, "read", 1, 0x200, 80, 1);
        end(&mut t, true, 6_000);
        begin(&mut t, "insert", 7, 6_000);
        t.verb(6_000, 2_500, "cas", 0, 0x300, 64, 1);
        end(&mut t, false, 9_000);

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, "search");
        assert_eq!(spans[0].verbs.len(), 2);
        assert_eq!(spans[0].faults, 1);
        assert_eq!(spans[0].wire_bytes, 380);
        assert_eq!(spans[0].dur_ns(), 5_000);
        assert!(spans[0].ok && spans[0].closed);
        assert!(!spans[1].ok);
        assert_eq!(spans[1].verbs[0].verb, "cas");
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let mut t = Tracer::new(0, 4);
        begin(&mut t, "scan", 0, 0);
        for i in 0..10 {
            t.verb(i * 100, 100, "read", 0, i, 64, 1);
        }
        end(&mut t, true, 2_000);
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.events().dropped(), 8);
        // The newest events survive.
        let last = t.events().iter().last().unwrap();
        assert_eq!(last.kind, Event::OpEnd { ok: true, dur_ns: 0 });
    }

    #[test]
    fn jsonl_is_deterministic_and_parseable() {
        let mk = || {
            let mut t = Tracer::new(1, 64);
            begin(&mut t, "update", 9, 50);
            t.verb(50, 2_500, "masked_cas", 0, 0xABC, 80, 1);
            end(&mut t, true, 2_550);
            t.to_jsonl()
        };
        let a = mk();
        assert_eq!(a, mk());
        for line in a.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("client").unwrap().as_f64(), Some(1.0));
        }
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn nested_spans_attribute_to_innermost() {
        let mut t = Tracer::new(0, 64);
        begin(&mut t, "insert", 1, 0);
        t.verb(0, 100, "read", 0, 1, 64, 1);
        begin(&mut t, "split", 1, 100);
        t.verb(100, 100, "write", 0, 2, 64, 1);
        end(&mut t, true, 200);
        t.verb(200, 100, "cas", 0, 3, 64, 1);
        end(&mut t, true, 300);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].verbs.len(), 2, "outer gets read + cas");
        assert_eq!(spans[1].verbs.len(), 1, "inner gets write");
    }

    #[test]
    fn phase_subspans_aggregate_per_span() {
        let mut t = Tracer::new(0, 64);
        begin(&mut t, "search", 3, 0);
        t.fold(0, &Event::PhaseBegin { phase: Phase::Traversal });
        t.verb(0, 2_000, "read", 0, 1, 64, 1);
        t.fold(2_000, &Event::PhaseEnd { phase: Phase::Traversal, dur_ns: 2_000 });
        t.fold(2_000, &Event::PhaseBegin { phase: Phase::LeafRead });
        t.verb(2_000, 1_000, "read", 0, 2, 64, 1);
        t.fold(3_000, &Event::PhaseEnd { phase: Phase::LeafRead, dur_ns: 1_000 });
        t.fold(3_000, &Event::PhaseBegin { phase: Phase::Traversal });
        t.fold(3_500, &Event::PhaseEnd { phase: Phase::Traversal, dur_ns: 500 });
        end(&mut t, true, 3_500);

        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].phase_ns,
            vec![("leaf_read", 1_000), ("traversal", 2_500)]
        );
        // JSONL carries the typed events.
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"phase_begin\""));
        assert!(jsonl.contains("\"ev\":\"phase_end\""));
        assert!(jsonl.contains("\"phase\":\"leaf_read\""));
    }

    #[test]
    fn unclosed_span_reported_open() {
        let mut t = Tracer::new(0, 64);
        begin(&mut t, "delete", 5, 10);
        t.verb(10, 90, "read", 0, 1, 64, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].closed);
        assert_eq!(spans[0].end_ns, 100);
    }

    #[test]
    fn dur_ns_on_unclosed_spans() {
        // A span with events after its begin reports the duration up to its
        // last event; a bare begin reports zero — never an underflow.
        let mut t = Tracer::new(0, 64);
        begin(&mut t, "update", 1, 500);
        t.verb(500, 250, "read", 0, 1, 64, 1);
        begin(&mut t, "split", 1, 900);
        let spans = t.spans();
        assert!(!spans[0].closed && !spans[1].closed);
        assert_eq!(spans[0].dur_ns(), 250);
        assert_eq!(spans[1].dur_ns(), 0);
    }

    #[test]
    fn trace_ids_flow_to_events_and_spans() {
        let mut t = Tracer::new(2, 64);
        t.set_trace(77);
        begin(&mut t, "search", 4, 0);
        t.verb(0, 100, "read", 0, 1, 64, 1);
        end(&mut t, true, 100);
        t.set_trace(78);
        begin(&mut t, "search", 5, 100);
        end(&mut t, false, 200);
        let spans = t.spans();
        assert_eq!(spans[0].trace, 77);
        assert_eq!(spans[1].trace, 78);
        assert!(t.to_jsonl().contains("\"trace\":77"));
        assert!(t.events().iter().all(|e| e.trace == 77 || e.trace == 78));
    }
}
