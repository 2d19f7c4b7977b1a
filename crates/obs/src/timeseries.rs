//! Windowed time-series telemetry on the virtual clock.
//!
//! End-of-run aggregates hide temporal phenomena: a migration stall or a
//! shed-storm averages away over a whole run. A [`TimeSeries`] slices the
//! virtual clock into fixed-width windows (default 100 µs of simulated
//! time) and accumulates, per window, the same quantities the aggregate
//! profile keeps — per-phase nanoseconds, verbs/round-trips/wire bytes,
//! retry causes, completed operations and their latency, serve-layer
//! shed/served decisions and completion-queue depth — plus a sparse list of
//! timestamped control-plane events (migration lock/copy/publish, crash
//! points).
//!
//! Like everything in this crate the series is pure integer bookkeeping on
//! the virtual clock: identical runs produce byte-identical JSON. Windows
//! are keyed by index in a sorted map, so sparse activity (a client idle
//! for a stretch of virtual time) costs nothing and iteration order is
//! deterministic.
//!
//! Every endpoint's sink folds one series from its event stream. The bench
//! driver snapshots each client's series before the measured phase and
//! merges the [`TimeSeries::since`] deltas onto one time base (every client
//! clock starts at zero), so one document covers the whole run; sparse
//! windows are omitted. The migrator's `migrate.locked`, `migrate.copied`
//! and `migrate.published` events (with `part=`/`dst=` args) put a
//! migration on the same axis as the throughput it displaced. `merge` and
//! `since` are exact, so the export is byte-identical per seed
//! (`crates/bench/tests/timeline.rs`, plus a two-run `cmp` in CI).

use std::collections::BTreeMap;

use crate::event::Event;
use crate::json::Json;
use crate::phase::{Phase, RetryCause, NUM_PHASES, NUM_RETRY_CAUSES};

/// Default window width: 100 µs of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000;

/// What one fixed-width window accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Window {
    /// Operations completed in this window (counted at completion time).
    pub ops: u64,
    /// Of those, operations that reported success.
    pub oks: u64,
    /// Sum of completed-op latencies, ns (mean = `lat_sum_ns / ops`).
    pub lat_sum_ns: u64,
    /// Largest completed-op latency observed in this window, ns.
    pub lat_max_ns: u64,
    /// NIC work requests issued in this window.
    pub verbs: u64,
    /// Round trips charged in this window.
    pub rtts: u64,
    /// Wire bytes charged in this window.
    pub wire_bytes: u64,
    /// Exclusive virtual nanoseconds per phase spent inside this window.
    pub phase_ns: [u64; NUM_PHASES],
    /// Retries recorded in this window, by root cause.
    pub retries: [u64; NUM_RETRY_CAUSES],
    /// Serve-layer requests shed in this window.
    pub shed: u64,
    /// Serve-layer requests served in this window.
    pub served: u64,
    /// Deepest completion-queue depth observed in this window.
    pub cq_depth_max: u64,
}

impl Window {
    fn merge(&mut self, o: &Window) {
        self.ops += o.ops;
        self.oks += o.oks;
        self.lat_sum_ns += o.lat_sum_ns;
        self.lat_max_ns = self.lat_max_ns.max(o.lat_max_ns);
        self.verbs += o.verbs;
        self.rtts += o.rtts;
        self.wire_bytes += o.wire_bytes;
        for (a, b) in self.phase_ns.iter_mut().zip(o.phase_ns.iter()) {
            *a += b;
        }
        for (a, b) in self.retries.iter_mut().zip(o.retries.iter()) {
            *a += b;
        }
        self.shed += o.shed;
        self.served += o.served;
        self.cq_depth_max = self.cq_depth_max.max(o.cq_depth_max);
    }

    /// Counter-wise subtraction for the boundary window shared between two
    /// snapshots. The two maxima are not subtractable; the delta keeps the
    /// later snapshot's value (documented approximation — a boundary window
    /// straddling two measurement phases attributes its maximum to the
    /// later phase).
    fn since(&self, prev: &Window) -> Window {
        let mut w = Window {
            ops: self.ops - prev.ops,
            oks: self.oks - prev.oks,
            lat_sum_ns: self.lat_sum_ns - prev.lat_sum_ns,
            lat_max_ns: self.lat_max_ns,
            verbs: self.verbs - prev.verbs,
            rtts: self.rtts - prev.rtts,
            wire_bytes: self.wire_bytes - prev.wire_bytes,
            shed: self.shed - prev.shed,
            served: self.served - prev.served,
            cq_depth_max: self.cq_depth_max,
            ..Window::default()
        };
        for i in 0..NUM_PHASES {
            w.phase_ns[i] = self.phase_ns[i] - prev.phase_ns[i];
        }
        for i in 0..NUM_RETRY_CAUSES {
            w.retries[i] = self.retries[i] - prev.retries[i];
        }
        w
    }

    fn is_zero(&self) -> bool {
        *self == Window::default()
    }

    fn to_json(&self, idx: u64, window_ns: u64) -> Json {
        let mut pairs = vec![
            ("w", Json::from(idx)),
            ("t_ns", Json::from(idx * window_ns)),
            ("ops", Json::from(self.ops)),
            ("oks", Json::from(self.oks)),
            ("lat_sum_ns", Json::from(self.lat_sum_ns)),
            ("lat_max_ns", Json::from(self.lat_max_ns)),
            ("verbs", Json::from(self.verbs)),
            ("rtts", Json::from(self.rtts)),
            ("wire_bytes", Json::from(self.wire_bytes)),
        ];
        let phases: Vec<(String, Json)> = Phase::ALL
            .iter()
            .filter(|p| self.phase_ns[**p as usize] > 0)
            .map(|p| (p.as_str().to_string(), Json::from(self.phase_ns[*p as usize])))
            .collect();
        pairs.push(("phase_ns", Json::Obj(phases)));
        let retries: Vec<(String, Json)> = RetryCause::ALL
            .iter()
            .filter(|c| self.retries[**c as usize] > 0)
            .map(|c| (c.as_str().to_string(), Json::from(self.retries[*c as usize])))
            .collect();
        pairs.push(("retries", Json::Obj(retries)));
        pairs.push(("shed", Json::from(self.shed)));
        pairs.push(("served", Json::from(self.served)));
        pairs.push(("cq_depth_max", Json::from(self.cq_depth_max)));
        Json::obj(pairs)
    }
}

/// A timestamped control-plane event (migration steps, crash points).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsEvent {
    /// Virtual-clock timestamp, ns.
    pub t_ns: u64,
    /// Free-form label, e.g. `migrate.locked part=3 dst=1`.
    pub label: String,
}

/// A fixed-width windowed time series on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window_ns: u64,
    windows: BTreeMap<u64, Window>,
    events: Vec<TsEvent>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(DEFAULT_WINDOW_NS)
    }
}

impl TimeSeries {
    /// Creates an empty series with the given window width (ns, min 1).
    pub fn new(window_ns: u64) -> Self {
        TimeSeries {
            window_ns: window_ns.max(1),
            windows: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// The window width, ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.events.is_empty()
    }

    /// Number of materialized (non-empty) windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// The window at index `idx`, if it saw any activity.
    pub fn window(&self, idx: u64) -> Option<&Window> {
        self.windows.get(&idx)
    }

    /// Iterates `(index, window)` pairs in index order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Window)> {
        self.windows.iter().map(|(k, w)| (*k, w))
    }

    /// The recorded control-plane events, in recording order.
    pub fn events(&self) -> &[TsEvent] {
        &self.events
    }

    fn win(&mut self, t_ns: u64) -> &mut Window {
        self.windows.entry(t_ns / self.window_ns).or_default()
    }

    /// Folds one observation made at `t_ns` in: phase time (split across
    /// window boundaries), verbs (counted when the doorbell reaches the
    /// wire, after any injected delay), completed ops, retries, serve-tier
    /// decisions and CQ depths, and control-plane notes.
    #[inline(always)]
    pub fn fold(&mut self, t_ns: u64, ev: &Event) {
        match ev {
            Event::Time { phase, ns } => {
                let (mut t, mut dt) = (t_ns, *ns);
                while dt > 0 {
                    let end = (t / self.window_ns + 1) * self.window_ns;
                    let take = dt.min(end - t);
                    self.win(t).phase_ns[*phase as usize] += take;
                    t += take;
                    dt -= take;
                }
            }
            Event::Verb {
                msgs,
                rtts,
                wire_bytes,
                delay_ns,
                ..
            } => {
                let w = self.win(t_ns + delay_ns);
                w.verbs += msgs;
                w.rtts += rtts;
                w.wire_bytes += wire_bytes;
            }
            Event::OpEnd { ok, dur_ns } => self.record_op(t_ns, *dur_ns, *ok),
            Event::Retry { cause, .. } => self.win(t_ns).retries[*cause as usize] += 1,
            Event::Shed => self.win(t_ns).shed += 1,
            Event::Served => self.win(t_ns).served += 1,
            Event::CqDepth { depth } => {
                let w = self.win(t_ns);
                w.cq_depth_max = w.cq_depth_max.max(*depth);
            }
            Event::Note { label } => self.events.push(TsEvent {
                t_ns,
                label: label.clone(),
            }),
            _ => {}
        }
    }

    /// Records an operation completing at `t_end_ns` after `dur_ns`.
    pub fn record_op(&mut self, t_end_ns: u64, dur_ns: u64, ok: bool) {
        let w = self.win(t_end_ns);
        w.ops += 1;
        w.oks += ok as u64;
        w.lat_sum_ns += dur_ns;
        w.lat_max_ns = w.lat_max_ns.max(dur_ns);
    }

    /// Adds another series into this one. Windows align on the shared
    /// virtual time base (both series must use the same window width);
    /// events concatenate and re-sort by timestamp (stable, so the merge
    /// order of equal-timestamp events is the caller's iteration order).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.window_ns, other.window_ns, "window width mismatch");
        for (k, w) in &other.windows {
            self.windows.entry(*k).or_default().merge(w);
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.t_ns);
    }

    /// What accumulated since `prev` — an earlier snapshot of this series.
    /// Windows subtract counter-wise; `prev`'s events must be a prefix of
    /// this series' events.
    pub fn since(&self, prev: &TimeSeries) -> TimeSeries {
        assert_eq!(self.window_ns, prev.window_ns, "window width mismatch");
        let mut out = TimeSeries::new(self.window_ns);
        for (k, w) in &self.windows {
            let d = match prev.windows.get(k) {
                Some(p) => w.since(p),
                None => w.clone(),
            };
            if !d.is_zero() {
                out.windows.insert(*k, d);
            }
        }
        out.events = self.events[prev.events.len()..].to_vec();
        out
    }

    /// Total operations completed across all windows.
    pub fn total_ops(&self) -> u64 {
        self.windows.values().map(|w| w.ops).sum()
    }

    /// Serializes deterministically: window width, the non-empty windows in
    /// index order, and the event list.
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|(k, w)| w.to_json(*k, self.window_ns))
            .collect();
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("t_ns", Json::from(e.t_ns)),
                    ("label", Json::from(e.label.as_str())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("window_ns", Json::from(self.window_ns)),
            ("windows", Json::Arr(windows)),
            ("events", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verb(msgs: u64, rtts: u64, wire_bytes: u64) -> Event {
        let (verb, mn, addr, dur_ns, delay_ns, phase) = ("read", 0, 0, 0, 0, Phase::Other);
        Event::Verb { verb, mn, addr, msgs, rtts, wire_bytes, dur_ns, delay_ns, phase }
    }

    #[test]
    fn time_splits_across_window_boundaries() {
        let mut ts = TimeSeries::new(100);
        ts.fold(250, &Event::Time { phase: Phase::Traversal, ns: 300 }); // windows 2,3,4,5
        assert_eq!(ts.window(2).unwrap().phase_ns[Phase::Traversal as usize], 50);
        assert_eq!(ts.window(3).unwrap().phase_ns[Phase::Traversal as usize], 100);
        assert_eq!(ts.window(4).unwrap().phase_ns[Phase::Traversal as usize], 100);
        assert_eq!(ts.window(5).unwrap().phase_ns[Phase::Traversal as usize], 50);
        let total: u64 = ts.windows().map(|(_, w)| w.phase_ns[Phase::Traversal as usize]).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn ops_verbs_and_retries_land_in_their_window() {
        let mut ts = TimeSeries::default();
        ts.fold(50_000, &verb(2, 1, 600));
        ts.record_op(150_000, 80_000, true);
        ts.record_op(150_001, 20_000, false);
        ts.fold(150_002, &Event::Retry { cause: RetryCause::LockConflict, op: true });
        ts.fold(250_000, &Event::Shed);
        ts.fold(250_001, &Event::Served);
        ts.fold(250_002, &Event::CqDepth { depth: 7 });
        ts.fold(250_003, &Event::CqDepth { depth: 3 });

        assert_eq!(ts.window(0).unwrap().verbs, 2);
        let w1 = ts.window(1).unwrap();
        assert_eq!(w1.ops, 2);
        assert_eq!(w1.oks, 1);
        assert_eq!(w1.lat_sum_ns, 100_000);
        assert_eq!(w1.lat_max_ns, 80_000);
        assert_eq!(w1.retries[RetryCause::LockConflict as usize], 1);
        let w2 = ts.window(2).unwrap();
        assert_eq!((w2.shed, w2.served, w2.cq_depth_max), (1, 1, 7));
        assert_eq!(ts.total_ops(), 2);
    }

    #[test]
    fn merge_and_since_compose() {
        let mut a = TimeSeries::new(100);
        a.record_op(50, 10, true);
        a.fold(60, &Event::Note { label: "setup".into() });
        let snap = a.clone();
        a.record_op(150, 30, true);
        a.record_op(55, 20, false); // boundary window 0 gains post-snapshot data
        a.fold(170, &Event::Note { label: "migrate.locked part=0 dst=1".into() });

        let d = a.since(&snap);
        assert_eq!(d.total_ops(), 2);
        assert_eq!(d.window(0).unwrap().ops, 1);
        assert_eq!(d.window(1).unwrap().ops, 1);
        assert_eq!(d.events().len(), 1);
        assert_eq!(d.events()[0].label, "migrate.locked part=0 dst=1");

        let mut m = snap.clone();
        m.merge(&d);
        assert_eq!(m.total_ops(), a.total_ops());
        assert_eq!(m.events().len(), 2);
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let mk = || {
            let mut ts = TimeSeries::default();
            ts.fold(10, &Event::Time { phase: Phase::LeafRead, ns: 250_000 });
            ts.record_op(250_010, 250_000, true);
            ts.fold(100, &Event::Retry { cause: RetryCause::VersionMismatch, op: true });
            ts.fold(99, &Event::Note { label: "migrate.locked part=1 dst=0".into() });
            ts.to_json().to_pretty()
        };
        let a = mk();
        assert_eq!(a, mk());
        let v = crate::json::parse(&a).unwrap();
        assert_eq!(v.get("window_ns").unwrap().as_f64(), Some(100_000.0));
        let windows = v.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows[0]
                .get("phase_ns")
                .unwrap()
                .get("leaf_read")
                .unwrap()
                .as_f64(),
            Some(99_990.0)
        );
        assert_eq!(
            v.get("events").unwrap().as_arr().unwrap()[0]
                .get("label")
                .unwrap()
                .as_str(),
            Some("migrate.locked part=1 dst=0")
        );
    }

    #[test]
    fn empty_series_is_empty() {
        let ts = TimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.total_ops(), 0);
    }
}
