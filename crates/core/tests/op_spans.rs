//! Every `RangeIndex` operation of a CHIME client is exactly one span,
//! named after the operation, keyed by its key (a scan by its start),
//! stamped with the trace id minted before it, and closed as a success
//! exactly when the operation did what it was asked. No verb escapes the
//! span of the operation that issued it.

use chime::{Chime, ChimeClient, ChimeConfig};
use dmem::{Pool, RangeIndex, Tracer};

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

/// A client over keys `1..=50`, with a tracer attached after the preload.
fn traced() -> (Chime, ChimeClient) {
    let pool = Pool::with_defaults(1, 64 << 20);
    let cfg = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 8,
        ..Default::default()
    };
    let t = Chime::create(&pool, cfg, 0);
    let mut c = t.client(&t.new_cn());
    for k in 1..=50u64 {
        c.insert(k, &v(k)).unwrap();
    }
    c.endpoint_mut().set_tracer(Tracer::new(0, 1 << 14));
    (t, c)
}

/// `(op, key, ok)` of every span, all of which must be closed.
fn spans(c: &ChimeClient) -> Vec<(&'static str, u64, bool)> {
    let spans = c.endpoint().tracer().unwrap().spans();
    assert!(spans.iter().all(|s| s.closed), "every span is closed");
    spans.iter().map(|s| (s.op, s.key, s.ok)).collect()
}

#[test]
fn an_insert_is_one_ok_span() {
    let (_t, mut c) = traced();
    c.insert(77, &v(77)).unwrap();
    assert_eq!(spans(&c), [("insert", 77, true)]);
}

#[test]
fn a_search_hit_is_ok_and_a_miss_is_not() {
    let (_t, mut c) = traced();
    assert_eq!(c.search(7), Some(v(7)));
    assert_eq!(c.search(700), None);
    assert_eq!(spans(&c), [("search", 7, true), ("search", 700, false)]);
}

#[test]
fn an_update_is_ok_only_when_the_key_is_present() {
    let (_t, mut c) = traced();
    assert_eq!(c.update(9, &v(90)), Ok(true));
    assert_eq!(c.update(900, &v(90)), Ok(false));
    assert_eq!(spans(&c), [("update", 9, true), ("update", 900, false)]);
}

#[test]
fn a_delete_is_ok_only_when_the_key_is_present() {
    let (_t, mut c) = traced();
    assert_eq!(c.delete(11), Ok(true));
    assert_eq!(c.delete(11), Ok(false));
    assert_eq!(spans(&c), [("delete", 11, true), ("delete", 11, false)]);
}

#[test]
fn a_scan_is_one_ok_span_keyed_by_its_start() {
    let (_t, mut c) = traced();
    let mut out = Vec::new();
    c.scan(20, 25, &mut out);
    assert_eq!(out.len(), 25);
    assert_eq!(spans(&c), [("scan", 20, true)]);
}

#[test]
fn each_operation_is_one_operation_on_the_time_series() {
    let (_t, mut c) = traced();
    c.endpoint_mut().open_series();
    c.insert(60, &v(60)).unwrap();
    let _ = c.search(60);
    let _ = c.update(60, &v(61));
    let _ = c.delete(60);
    c.scan(1, 10, &mut Vec::new());
    assert_eq!(c.endpoint_mut().take_series().total_ops(), 5);
}

#[test]
fn the_trace_id_minted_before_an_operation_stamps_its_span() {
    let (_t, mut c) = traced();
    c.endpoint_mut().set_trace_id(42);
    let _ = c.search(3);
    c.endpoint_mut().set_trace_id(43);
    let _ = c.search(4);
    let traces: Vec<u64> = c.endpoint().tracer().unwrap().spans().iter().map(|s| s.trace).collect();
    assert_eq!(traces, [42, 43]);
}

#[test]
fn every_verb_of_an_operation_is_inside_its_span() {
    let (_t, mut c) = traced();
    let before = c.endpoint().stats().clone();
    for k in 51..=80u64 {
        c.insert(k, &v(k)).unwrap(); // some of these split leaves
    }
    let _ = c.update(5, &v(6));
    let _ = c.search(6);
    let d = c.endpoint().stats().since(&before);
    let spans = c.endpoint().tracer().unwrap().spans();
    let wire: u64 = spans.iter().map(|s| s.wire_bytes).sum();
    let verbs: usize = spans.iter().map(|s| s.verbs.len()).sum();
    assert_eq!(spans.len(), 32);
    assert_eq!(wire, d.wire_bytes, "no wire byte outside an op span");
    assert!(verbs as u64 >= d.rtts, "every round trip is a traced verb");
}
