//! Chrome trace-event export: open any run in `ui.perfetto.dev`.
//!
//! Converts a set of per-client [`Tracer`] rings into the Chrome
//! trace-event JSON format (the `traceEvents` array form), which Perfetto
//! loads directly:
//!
//! * one **track per client/lane** — each tracer's client id becomes a
//!   `tid` under `pid` 0, named via a `thread_name` metadata event;
//! * one **async slice per operation** — each reconstructed span becomes a
//!   `b`/`e` pair whose id is unique across clients and whose args carry
//!   the key and the causal `trace_id`;
//! * **complete slices** (`X`) for verbs and phase episodes, **instants**
//!   (`i`) for injected faults.
//!
//! Timestamps convert from virtual nanoseconds to the format's
//! microseconds as exact `ns / 1000.0` divisions; together with the
//! deterministic JSON writer this makes the export a pure function of the
//! tracers — byte-identical across identical-seed runs.

use crate::json::Json;
use crate::event::Event;
use crate::trace::Tracer;

fn us(t_ns: u64) -> Json {
    Json::Num(t_ns as f64 / 1000.0)
}

fn base(ph: &str, name: &str, tid: u32, t_ns: u64) -> Vec<(String, Json)> {
    vec![
        ("ph".to_string(), Json::from(ph)),
        ("name".to_string(), Json::from(name)),
        ("pid".to_string(), Json::from(0u64)),
        ("tid".to_string(), Json::from(tid as u64)),
        ("ts".to_string(), us(t_ns)),
    ]
}

/// Exports `tracers` as a Chrome trace-event JSON document.
///
/// Tracks appear in the given tracer order; events within a track follow
/// the ring order (virtual-clock order per client).
pub fn to_perfetto(tracers: &[&Tracer]) -> String {
    let mut events: Vec<Json> = Vec::new();
    for t in tracers {
        let tid = t.client();
        events.push(Json::obj(vec![
            ("ph", Json::from("M")),
            ("name", Json::from("thread_name")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(tid as u64)),
            (
                "args",
                Json::obj(vec![("name", Json::from(format!("client {tid}").as_str()))]),
            ),
        ]));
        // Async op slices from reconstructed spans.
        for s in t.spans() {
            let id = format!("c{tid}.s{}", s.id);
            let mut b = base("b", s.op, tid, s.start_ns);
            b.push(("cat".to_string(), Json::from("op")));
            b.push(("id".to_string(), Json::from(id.as_str())));
            b.push((
                "args".to_string(),
                Json::obj(vec![
                    ("key", Json::from(s.key)),
                    ("trace", Json::from(s.trace)),
                    ("ok", Json::Bool(s.ok)),
                ]),
            ));
            events.push(Json::Obj(b));
            let mut e = base("e", s.op, tid, s.end_ns);
            e.push(("cat".to_string(), Json::from("op")));
            e.push(("id".to_string(), Json::from(id.as_str())));
            events.push(Json::Obj(e));
        }
        // Verb and phase slices, fault instants, from the raw ring.
        for ev in t.events().iter() {
            match &ev.kind {
                Event::Verb {
                    verb,
                    mn,
                    wire_bytes,
                    msgs,
                    dur_ns,
                    ..
                } => {
                    let mut x = base("X", verb, tid, ev.t_ns);
                    x.push(("cat".to_string(), Json::from("verb")));
                    x.push(("dur".to_string(), us(*dur_ns)));
                    x.push((
                        "args".to_string(),
                        Json::obj(vec![
                            ("mn", Json::from(*mn as u64)),
                            ("wire_bytes", Json::from(*wire_bytes)),
                            ("msgs", Json::from(*msgs)),
                            ("trace", Json::from(ev.trace)),
                        ]),
                    ));
                    events.push(Json::Obj(x));
                }
                Event::PhaseEnd { phase, dur_ns } => {
                    let mut x = base("X", phase.as_str(), tid, ev.t_ns.saturating_sub(*dur_ns));
                    x.push(("cat".to_string(), Json::from("phase")));
                    x.push(("dur".to_string(), us(*dur_ns)));
                    events.push(Json::Obj(x));
                }
                Event::Fault { action, label } => {
                    let mut i = base("i", action, tid, ev.t_ns);
                    i.push(("cat".to_string(), Json::from("fault")));
                    i.push(("s".to_string(), Json::from("t")));
                    i.push((
                        "args".to_string(),
                        Json::obj(vec![("label", Json::from(label.as_str()))]),
                    ));
                    events.push(Json::Obj(i));
                }
                _ => {}
            }
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Tracer {
        let mut t = Tracer::new(3, 1024);
        t.set_trace(101);
        let phase = crate::phase::Phase::Traversal;
        t.fold(1_000, &Event::OpBegin { op: "search", key: 42, trace: 101 });
        t.fold(1_000, &Event::PhaseBegin { phase });
        t.verb(1_000, 2_500, "read", 0, 0x100, 300, 1);
        t.fold(3_500, &Event::PhaseEnd { phase, dur_ns: 2_500 });
        t.fold(3_500, &Event::Fault { action: "delay", label: "spike".into() });
        t.fold(6_000, &Event::OpEnd { ok: true, dur_ns: 5_000 });
        t
    }

    /// Structural validation against the Chrome trace-event format: every
    /// event carries `ph`/`pid`/`tid`, timestamps are numeric, `X` slices
    /// have durations, and async `b`/`e` events pair up by id.
    #[test]
    fn export_is_valid_chrome_trace_event_json() {
        let t = sample();
        let text = to_perfetto(&[&t]);
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let mut begins = 0i64;
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(ev.get("pid").unwrap().as_f64().is_some());
            assert!(ev.get("tid").unwrap().as_f64().is_some());
            match ph {
                "M" => assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name")),
                "b" | "e" => {
                    assert!(ev.get("ts").unwrap().as_f64().is_some());
                    assert!(ev.get("id").unwrap().as_str().is_some());
                    assert!(ev.get("cat").unwrap().as_str().is_some());
                    begins += if ph == "b" { 1 } else { -1 };
                }
                "X" => {
                    assert!(ev.get("ts").unwrap().as_f64().is_some());
                    assert!(ev.get("dur").unwrap().as_f64().is_some());
                }
                "i" => assert!(ev.get("ts").unwrap().as_f64().is_some()),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(begins, 0, "every async begin has a matching end");
        // The op slice carries the causal trace id.
        assert!(text.contains("\"trace\": 101"));
        // µs conversion: span begin at 1000 ns = 1 µs.
        assert!(text.contains("\"ts\": 1,"), "{text}");
    }

    #[test]
    fn export_is_byte_identical_for_identical_tracers() {
        let a = sample();
        let b = sample();
        assert_eq!(to_perfetto(&[&a]), to_perfetto(&[&b]));
        assert_ne!(to_perfetto(&[&a]), to_perfetto(&[&a, &b]));
    }
}
