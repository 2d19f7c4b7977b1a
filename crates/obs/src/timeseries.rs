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
//! sit in a vector indexed from the first one that saw activity, so folding
//! an observation in is an index, not a search; a window nothing landed in
//! is a `None` that the iteration, the JSON and `len` skip, exactly as if it
//! were absent.
//!
//! A series exists only while someone will read it. An endpoint's sink
//! folds none until its reader opens one at the start of what it measures
//! (`dmem::Endpoint::open_series`); window 0 then begins at that
//! endpoint's clock ([`TimeSeries::starting_at`]), and the reader moves the
//! series out when it is done (`take_series`), leaving none open. The bench
//! driver opens every participating handle's series when the measured
//! phase starts and merges what it takes, so one document covers the whole
//! run on one time base — the phase start of every client is time 0, even
//! when a sweep reuses a deployment whose older handles ran before — and
//! warm-up, preload and verification ops are never windowed. Sparse windows
//! are omitted. The migrator's `migrate.locked`, `migrate.copied` and
//! `migrate.published` events (with `part=`/`dst=` args) put a migration on
//! the same axis as the throughput it displaced. `merge` is exact, so the
//! export is byte-identical per seed (`crates/bench/tests/timeline.rs`, plus
//! a two-run `cmp` in CI).

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
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_ns: u64,
    /// The virtual time window 0 begins at.
    origin_ns: u64,
    /// Index of `windows[0]`.
    first: u64,
    /// Windows `first..`; `None` where nothing was recorded.
    windows: Vec<Option<Window>>,
    /// The index and (absolute) start of the window the last observation
    /// fell in: the next one usually falls there too, and then needs no
    /// division.
    last: (u64, u64),
    events: Vec<TsEvent>,
}

/// Equal when the widths, the recorded windows and the events are (both
/// relative to each series' window 0).
impl PartialEq for TimeSeries {
    fn eq(&self, o: &TimeSeries) -> bool {
        self.window_ns == o.window_ns && self.events == o.events && self.windows().eq(o.windows())
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(DEFAULT_WINDOW_NS)
    }
}

impl TimeSeries {
    /// Creates an empty series with the given window width (ns, min 1)
    /// whose window 0 begins at virtual time 0.
    pub fn new(window_ns: u64) -> Self {
        TimeSeries {
            window_ns: window_ns.max(1),
            origin_ns: 0,
            first: 0,
            windows: Vec::new(),
            last: (0, 0),
            events: Vec::new(),
        }
    }

    /// Creates an empty series of the default width whose window 0 begins
    /// at virtual time `origin_ns`: an observation at `t` lands in window
    /// `(t - origin_ns) / width`, and an event is kept at `t - origin_ns`.
    /// Series that start at their own clocks' phase start merge on that
    /// shared base. (Observations before `origin_ns` count as window 0.)
    pub fn starting_at(origin_ns: u64) -> Self {
        TimeSeries {
            origin_ns,
            last: (0, origin_ns),
            ..TimeSeries::default()
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
        self.windows.iter().flatten().count()
    }

    /// The window at index `idx`, if it saw any activity.
    pub fn window(&self, idx: u64) -> Option<&Window> {
        let i = usize::try_from(idx.checked_sub(self.first)?).ok()?;
        self.windows.get(i)?.as_ref()
    }

    /// Iterates `(index, window)` pairs in index order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Window)> {
        (self.first..)
            .zip(&self.windows)
            .filter_map(|(k, w)| Some((k, w.as_ref()?)))
    }

    /// The recorded control-plane events, in recording order.
    pub fn events(&self) -> &[TsEvent] {
        &self.events
    }

    #[inline]
    fn win(&mut self, t_ns: u64) -> &mut Window {
        let k = self.window_of(t_ns).0;
        self.at(k)
    }

    /// The index of the window `t_ns` falls in, and that window's
    /// (absolute) end.
    #[inline]
    fn window_of(&mut self, t_ns: u64) -> (u64, u64) {
        if t_ns.wrapping_sub(self.last.1) >= self.window_ns {
            let k = t_ns.saturating_sub(self.origin_ns) / self.window_ns;
            self.last = (k, self.origin_ns + k * self.window_ns);
        }
        (self.last.0, self.last.1.saturating_add(self.window_ns))
    }

    /// Window `k`, created empty if nothing was recorded in it yet.
    #[inline]
    fn at(&mut self, k: u64) -> &mut Window {
        let i = match k.checked_sub(self.first) {
            Some(i) if (i as usize) < self.windows.len() => i as usize,
            _ => self.extend_to(k),
        };
        self.windows[i].get_or_insert_with(Window::default)
    }

    /// Makes room for window `k` before or after the ones held; its slot.
    #[cold]
    fn extend_to(&mut self, k: u64) -> usize {
        if self.windows.is_empty() {
            self.first = k;
        } else if k < self.first {
            let n = usize::try_from(self.first - k).expect("series wider than memory");
            self.windows.splice(0..0, std::iter::repeat_n(None, n));
            self.first = k;
        }
        let i = usize::try_from(k - self.first).expect("series wider than memory");
        if i >= self.windows.len() {
            self.windows.resize(i + 1, None);
        }
        i
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
                    let (k, end) = self.window_of(t);
                    let take = dt.min(end - t);
                    self.at(k).phase_ns[*phase as usize] += take;
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
                t_ns: t_ns.saturating_sub(self.origin_ns),
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

    /// Adds another series into this one. Windows align by index, each
    /// relative to its own series' window 0 (both series must use the same
    /// window width);
    /// events concatenate and re-sort by timestamp (stable, so the merge
    /// order of equal-timestamp events is the caller's iteration order).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.window_ns, other.window_ns, "window width mismatch");
        for (k, w) in other.windows() {
            self.at(k).merge(w);
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.t_ns);
    }

    /// Total operations completed across all windows.
    pub fn total_ops(&self) -> u64 {
        self.windows().map(|(_, w)| w.ops).sum()
    }

    /// Serializes deterministically: window width, the non-empty windows in
    /// index order, and the event list.
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows()
            .map(|(k, w)| w.to_json(k, self.window_ns))
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
    fn merge_adds_windows_and_orders_events() {
        let mut a = TimeSeries::new(100);
        a.record_op(50, 10, true);
        a.fold(170, &Event::Note { label: "migrate.locked part=0 dst=1".into() });
        let mut b = TimeSeries::new(100);
        b.record_op(55, 20, false);
        b.record_op(150, 30, true);
        b.fold(60, &Event::Note { label: "setup".into() });

        a.merge(&b);
        assert_eq!(a.total_ops(), 3);
        let w0 = a.window(0).unwrap();
        assert_eq!((w0.ops, w0.oks, w0.lat_sum_ns, w0.lat_max_ns), (2, 1, 30, 20));
        assert_eq!(a.window(1).unwrap().ops, 1);
        let labels: Vec<&str> = a.events().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["setup", "migrate.locked part=0 dst=1"]);
    }

    #[test]
    fn a_series_started_mid_run_windows_from_its_start() {
        let t0 = 1_234_567;
        let mut late = TimeSeries::starting_at(t0);
        late.record_op(t0 + 10, 10, true);
        late.fold(t0 + DEFAULT_WINDOW_NS - 5, &Event::Time { phase: Phase::Traversal, ns: 10 });
        late.fold(t0 + DEFAULT_WINDOW_NS + 7, &Event::Note { label: "n".into() });
        late.record_op(t0 + 2 * DEFAULT_WINDOW_NS, 10, true);
        // The same observations made by a series started at 0.
        let mut fresh = TimeSeries::default();
        fresh.record_op(10, 10, true);
        fresh.fold(DEFAULT_WINDOW_NS - 5, &Event::Time { phase: Phase::Traversal, ns: 10 });
        fresh.fold(DEFAULT_WINDOW_NS + 7, &Event::Note { label: "n".into() });
        fresh.record_op(2 * DEFAULT_WINDOW_NS, 10, true);
        assert_eq!(late, fresh);
        assert_eq!(late.windows().map(|(k, _)| k).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(late.window(1).unwrap().phase_ns[Phase::Traversal as usize], 5);
        assert_eq!(late.events()[0].t_ns, DEFAULT_WINDOW_NS + 7);
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
