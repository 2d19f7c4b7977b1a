//! The one telemetry stream: a verb endpoint makes each observation once
//! and hands it to its [`Sink`] as one [`Event`] stamped with a
//! virtual-clock time. Every view is a fold of that stream: the
//! [`OpProfile`] (per-phase totals), the [`TimeSeries`] (the same totals per
//! window) and the optional [`Tracer`] (span, verb, phase and fault events,
//! in a bounded [`Ring`]). The profile is always on; the time series and
//! the tracer are folded only while their reader has one open, so an
//! endpoint nobody measures (a preload loader, a verification client, a
//! migrator's control endpoint) keeps no history. Every variant reaches at
//! least one view or a client counter; `dmem::verbs` tests each.
//!
//! `dmem::Endpoint::emit` is the one call that records: the client counters
//! (`ClientStats::record`) and every view fold the same event. Nested spans
//! reach only the tracer; the other views count operations (outermost
//! spans). The endpoint keeps its sink private, so no layer writes a view
//! directly: the serve simulation emits `Shed`/`Served`/`CqDepth`, the
//! migrator emits `Note`s. A new view (a replay log, a history recorder) is
//! one more fold.
//!
//! Two timing splits are part of the contract. A verb is stamped at its
//! issue, before any injected delay, and its `delay_ns` says when the
//! doorbell reached the wire: the tracer's slice starts at issue, the time
//! series counts the verb at issue + delay. A pipelined verb charges its CQ
//! wait at the post and its service time at completion − service. Because
//! every view folds the same events their totals agree, which
//! `crates/bench/tests/conservation.rs` checks: phase ns against the
//! timeline and the ops' latencies; round trips, messages and wire bytes
//! against the per-phase, per-window and per-MN sums; the timeline's op
//! count against every executed op (RDWC off: a combined op records a
//! latency but never executes).

use std::collections::VecDeque;

use crate::phase::{OpProfile, Phase, RetryCause};
use crate::timeseries::TimeSeries;
use crate::trace::Tracer;

/// One observation, timestamped by [`Sink::emit`] with the virtual time it
/// starts at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An operation span opened. Spans nest; the outermost is the op.
    OpBegin {
        /// Operation name (`search`, `insert`, ...).
        op: &'static str,
        /// The key the operation targets.
        key: u64,
        /// Causal trace id active at the time (0 = none).
        trace: u64,
    },
    /// An operation span closed.
    OpEnd {
        /// Whether it reported success.
        ok: bool,
        /// Virtual duration of the span, ns.
        dur_ns: u64,
    },
    /// One doorbell of verbs to one memory node, stamped at its issue.
    Verb {
        /// `read`, `write`, `cas`, `masked_cas`, `masked_cas_read` (READs
        /// behind a masked CAS), `faa` or `alloc`.
        verb: &'static str,
        /// Target memory node.
        mn: u16,
        /// Packed target address of the first request.
        addr: u64,
        /// NIC work requests posted.
        msgs: u64,
        /// Round trips charged.
        rtts: u64,
        /// Wire bytes charged (payload + per-message overhead).
        wire_bytes: u64,
        /// Virtual ns from issue to completion, injected delay included.
        dur_ns: u64,
        /// Injected fault delay before the doorbell reached the wire: the
        /// time series counts the verb at `issue + delay_ns`.
        delay_ns: u64,
        /// The attribution phase the verb was issued in.
        phase: Phase,
    },
    /// Exclusive virtual time charged to a phase, from the event's time on.
    Time {
        /// The phase charged.
        phase: Phase,
        /// Nanoseconds charged.
        ns: u64,
    },
    /// A typed phase episode opened.
    PhaseBegin {
        /// The phase.
        phase: Phase,
    },
    /// A typed phase episode closed.
    PhaseEnd {
        /// The phase.
        phase: Phase,
        /// Inclusive episode duration, ns.
        dur_ns: u64,
    },
    /// A retry attributed to its root cause.
    Retry {
        /// The root cause.
        cause: RetryCause,
        /// Whether the whole operation restarts (not a step retried in place).
        op: bool,
    },
    /// A fault injected by the fault engine.
    Fault {
        /// Fault action name (`delay`, `torn-write`, ...).
        action: &'static str,
        /// Label of the rule that fired.
        label: String,
    },
    /// A control-plane note (migration steps).
    Note {
        /// The note text, e.g. `migrate.locked part=3 dst=1`.
        label: String,
    },
    /// The serve tier shed a request.
    Shed,
    /// The serve tier served a request.
    Served,
    /// The serve tier observed its completion-queue depth.
    CqDepth {
        /// Outstanding completions.
        depth: u64,
    },
}

/// A bounded ring: overflow drops the oldest entries (and counts them) —
/// the tail of a run is what a failure report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring<T> {
    capacity: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends an entry, dropping the oldest one when full.
    pub fn push_back(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries dropped to the bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The folds of one endpoint's event stream. Only [`Sink::emit`] writes
/// them; an endpoint keeps its sink private.
#[derive(Debug, Default)]
pub struct Sink {
    /// Per-phase time, verbs and episodes, and retries by cause.
    pub profile: OpProfile,
    /// The same totals per window of virtual time, plus ops and notes;
    /// `None` (folding nothing) until a reader opens one with
    /// `dmem::Endpoint::open_series`, and again after it takes it.
    pub series: Option<TimeSeries>,
    /// The opt-in span/verb tracer.
    pub tracer: Option<Box<Tracer>>,
    /// Open spans; the op-level folds see only the outermost.
    depth: u32,
}

impl Sink {
    /// Folds one observation made at virtual time `t_ns` into every view.
    /// Forced inline, with the folds, into each emit site: the variant is a
    /// constant there, so every fold reduces to its one matching arm.
    #[inline(always)]
    pub fn emit(&mut self, t_ns: u64, ev: &Event) {
        let op_level = match ev {
            Event::OpBegin { .. } => {
                self.depth += 1;
                self.depth == 1
            }
            Event::OpEnd { .. } if self.depth > 0 => {
                self.depth -= 1;
                self.depth == 0
            }
            Event::OpEnd { .. } => false,
            _ => true,
        };
        if op_level {
            self.profile.fold(ev);
            if let Some(s) = self.series.as_mut() {
                s.fold(t_ns, ev);
            }
        }
        if let Some(t) = self.tracer.as_mut() {
            t.fold(t_ns, ev);
        }
    }

    /// Whether an operation span is open.
    pub fn in_op(&self) -> bool {
        self.depth > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_outermost_spans_reach_the_op_level_folds() {
        let mut s = Sink {
            series: Some(TimeSeries::default()),
            tracer: Some(Box::new(Tracer::new(0, 64))),
            ..Sink::default()
        };
        s.emit(0, &Event::OpBegin { op: "update", key: 3, trace: 5 });
        s.emit(0, &Event::OpBegin { op: "search", key: 3, trace: 5 });
        s.emit(0, &Event::Time { phase: Phase::Traversal, ns: 40 });
        s.emit(40, &Event::OpEnd { ok: false, dur_ns: 40 });
        assert!(s.in_op());
        s.emit(40, &Event::OpEnd { ok: true, dur_ns: 40 });
        assert!(!s.in_op());
        assert_eq!(s.series.as_ref().unwrap().total_ops(), 1);
        assert_eq!(s.profile.phase(Phase::Traversal).ns, 40);
        assert_eq!(s.tracer.as_ref().unwrap().spans().len(), 2);
        // An unbalanced end reaches nothing.
        s.emit(50, &Event::OpEnd { ok: true, dur_ns: 0 });
        assert_eq!(s.series.as_ref().unwrap().total_ops(), 1);
    }

    /// One operation of `dur` ns ending at `t`, as an endpoint emits it.
    fn op(s: &mut Sink, t: u64, dur: u64) {
        s.emit(t - dur, &Event::OpBegin { op: "search", key: 1, trace: 0 });
        s.emit(t - dur, &Event::Time { phase: Phase::LeafRead, ns: dur });
        s.emit(t, &Event::OpEnd { ok: true, dur_ns: dur });
    }

    #[test]
    fn a_series_folds_only_what_happens_while_it_is_open() {
        let mut s = Sink::default();
        op(&mut s, 500_000, 2_000);
        assert!(s.series.is_none(), "no series is open by default");
        assert_eq!(s.profile.phase(Phase::LeafRead).ns, 2_000, "the profile is always on");

        // Open at t = 600 000 (what `Endpoint::open_series` does at its
        // clock), run three ops, take the series.
        s.series = Some(TimeSeries::starting_at(600_000));
        op(&mut s, 603_000, 3_000);
        op(&mut s, 650_000, 1_000);
        op(&mut s, 720_000, 4_000);
        let ts = s.series.take().expect("open");
        assert_eq!(ts.total_ops(), 3);
        let ops: Vec<(u64, u64)> = ts.windows().map(|(k, w)| (k, w.ops)).collect();
        assert_eq!(ops, [(0, 2), (1, 1)], "windowed from the open time");
        let leaf: u64 = ts.windows().map(|(_, w)| w.phase_ns[Phase::LeafRead as usize]).sum();
        assert_eq!(leaf, 8_000, "only the open interval's time");

        // Taken, the sink folds nothing again.
        op(&mut s, 800_000, 1_000);
        assert!(s.series.is_none());
    }

    #[test]
    fn ring_bound_drops_oldest_and_keeps_at_least_one() {
        let mut r = Ring::new(0);
        r.push_back(1);
        r.push_back(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2]);
        assert_eq!((r.len(), r.dropped()), (1, 1));
    }
}
