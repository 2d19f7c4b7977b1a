//! Client endpoints issuing one-sided verbs.
//!
//! An [`Endpoint`] is the per-client handle a compute-node thread (or
//! coroutine) uses to reach the memory pool. Every verb executes immediately
//! against the target region and charges *virtual* latency and traffic to the
//! endpoint's counters; the experiment harness later feeds those counters to
//! the network model.
//!
//! A causal trace id is minted once per operation, at its entry point,
//! before the op's span opens: the serial bench driver counts ops, the
//! pipelined driver mints `(lane + 1) << 32 | opno`, chime-serve
//! `(conn + 1) << 32 | request` — pure functions of loop order. The entry
//! point stamps it with [`Endpoint::set_trace_id`] (a `part::RouterClient`
//! hands out its tree client's endpoint), and the endpoint stamps it on
//! every op begin, tracer event and posted WQE
//! ([`crate::qp::WqeTicket::trace`]) until the next mint. Layers below the
//! entry point never mint: that would split one op's verbs across two ids.

use std::sync::Arc;

use obs::{Event, OpProfile, Phase, RetryCause, Sink, TimeSeries, Tracer};

use crate::addr::GlobalAddr;
use crate::fault::{FaultClient, FaultSession, VerbFaults, VerbKind};
use crate::node::Pool;
use crate::qp;
use crate::stats::ClientStats;
use crate::versioned::MAX_RANGES;

/// An open phase attribution frame returned by [`Endpoint::phase_begin`].
///
/// Closing it with [`Endpoint::phase_end`], which consumes it, restores the
/// previously active phase, so phases nest like a stack:
///
/// ```
/// use dmem::Phase;
/// let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let outer = ep.phase_begin(Phase::Traversal);
/// let inner = ep.phase_begin(Phase::LeafRead);
/// assert_eq!(ep.current_phase(), Phase::LeafRead);
/// ep.phase_end(inner);
/// assert_eq!(ep.current_phase(), Phase::Traversal);
/// ep.phase_end(outer);
/// assert_eq!(ep.current_phase(), Phase::Other);
/// ```
///
/// A frame closes once:
///
/// ```compile_fail,E0382
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let frame = ep.phase_begin(dmem::Phase::Traversal);
/// ep.phase_end(frame);
/// ep.phase_end(frame); // a second close of the same frame
/// ```
///
/// cannot be copied to close it twice:
///
/// ```compile_fail,E0599
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let frame = ep.phase_begin(dmem::Phase::Traversal);
/// ep.phase_end(frame.clone());
/// ep.phase_end(frame);
/// ```
///
/// is never dropped unclosed without a warning:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// ep.phase_begin(dmem::Phase::Traversal);
/// ```
///
/// and is only made by [`Endpoint::phase_begin`]:
///
/// ```compile_fail,E0451
/// let frame = dmem::PhaseFrame { phase: dmem::Phase::Other, prev: dmem::Phase::Other, t0_ns: 0 };
/// ```
#[derive(Debug)]
#[must_use = "close the frame with Endpoint::phase_end"]
pub struct PhaseFrame {
    phase: Phase,
    prev: Phase,
    t0_ns: u64,
}

/// An open operation span returned by [`Endpoint::span_begin`]; only
/// [`Endpoint::span_end`], which consumes it, closes it. Spans nest; the
/// outermost one is the operation:
///
/// ```
/// let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// ep.open_series();
/// let op = ep.span_begin("update", 7);
/// let lookup = ep.span_begin("search", 7);
/// ep.span_end(lookup, true);
/// ep.span_end(op, false);
/// assert_eq!(ep.take_series().total_ops(), 1, "one operation, not two");
/// ```
///
/// A span ends once:
///
/// ```compile_fail,E0382
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let span = ep.span_begin("search", 7);
/// ep.span_end(span, true);
/// ep.span_end(span, true); // a second end of the same span
/// ```
///
/// cannot be copied to end it twice:
///
/// ```compile_fail,E0599
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// let span = ep.span_begin("search", 7);
/// ep.span_end(span.clone(), true);
/// ep.span_end(span, true);
/// ```
///
/// is never dropped unended without a warning:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// ep.span_begin("search", 7);
/// ```
///
/// and is only made by [`Endpoint::span_begin`]:
///
/// ```compile_fail,E0423
/// # let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
/// ep.span_end(dmem::Span(0), true);
/// ```
#[derive(Debug)]
#[must_use = "close the span with Endpoint::span_end"]
pub struct Span(u64); // the virtual time the span began

/// A client-side verb endpoint with its own virtual clock and counters.
///
/// Every observation it makes — a verb, charged time, an op or phase
/// boundary, a retry, a fault — reaches its counters and its [`Sink`]
/// through one [`Endpoint::emit`].
pub struct Endpoint {
    pool: Arc<Pool>,
    stats: ClientStats,
    clock_ns: u64,
    fault: Option<FaultClient>,
    sink: Box<Sink>,
    phase: Phase,
    /// `stats.faults_injected` at the last op-retry attribution, so a retry
    /// following an injected fault is blamed on the fault engine.
    fault_mark: u64,
    /// Causal trace id stamped on ops and WQEs (0 = untraced).
    trace_id: u64,
}

impl Endpoint {
    /// Creates a new endpoint attached to `pool`.
    pub fn new(pool: Arc<Pool>) -> Self {
        Endpoint {
            pool,
            stats: ClientStats::default(),
            clock_ns: 0,
            fault: None,
            sink: Box::default(),
            phase: Phase::Other,
            fault_mark: 0,
            trace_id: 0,
        }
    }

    /// Creates an endpoint whose verbs are intercepted by a shared fault
    /// session; `client` identifies this endpoint in rules and traces.
    pub fn with_faults(pool: Arc<Pool>, session: Arc<FaultSession>, client: u32) -> Self {
        Endpoint {
            fault: Some(FaultClient::new(session, client)),
            ..Endpoint::new(pool)
        }
    }

    /// Records one observation made at virtual time `t_ns` in the client
    /// counters and the sink's folds — also the serve tier's shed, served
    /// and CQ-depth marks and the migrator's notes.
    #[inline(always)]
    pub fn emit(&mut self, t_ns: u64, ev: Event) {
        self.stats.record(&ev);
        self.sink.emit(t_ns, &ev);
    }

    /// Attaches a span/event tracer; every subsequent verb (and injected
    /// fault) records an event on the virtual clock.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.sink.tracer = Some(Box::new(tracer));
    }

    /// Returns the tracer, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.sink.tracer.as_deref()
    }

    /// Detaches and returns the tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.sink.tracer.take().map(|t| *t)
    }

    /// Opens a fresh time series whose window 0 begins at this endpoint's
    /// clock; the sink folds every later op-level observation into it until
    /// [`Self::take_series`]. A series still open is dropped.
    pub fn open_series(&mut self) {
        self.sink.series = Some(TimeSeries::starting_at(self.clock_ns));
    }

    /// Returns the open time series (an empty one if none is open) and
    /// leaves none open.
    pub fn take_series(&mut self) -> TimeSeries {
        self.sink.series.take().unwrap_or_default()
    }

    /// Opens an operation span. The outermost span of a nest marks an
    /// operation boundary for the op-level telemetry: an open time series
    /// counts its completion, tracer or not.
    pub fn span_begin(&mut self, op: &'static str, key: u64) -> Span {
        let (now, trace) = (self.clock_ns, self.trace_id);
        self.emit(now, Event::OpBegin { op, key, trace });
        Span(now)
    }

    /// Closes an operation span opened with [`Endpoint::span_begin`].
    pub fn span_end(&mut self, Span(t0): Span, ok: bool) {
        let now = self.clock_ns;
        self.emit(now, Event::OpEnd { ok, dur_ns: now - t0 });
    }

    /// Sets the causal trace id stamped on subsequent ops, tracer events
    /// and WQEs. Minted once per operation at the serve/bench entry point
    /// and carried through every layer, never inside an open span; 0 means
    /// untraced.
    ///
    /// ```
    /// let mut ep = dmem::Endpoint::new(dmem::Pool::with_defaults(1, 1 << 20));
    /// for id in 1..=2 {
    ///     ep.set_trace_id(id); // between operations, not inside one
    ///     let op = ep.span_begin("search", 7);
    ///     assert_eq!(ep.trace_id(), id);
    ///     ep.span_end(op, true);
    /// }
    /// ```
    pub fn set_trace_id(&mut self, id: u64) {
        debug_assert!(!self.sink.in_op(), "trace id minted inside an open span");
        self.trace_id = id;
        if let Some(t) = self.sink.tracer.as_mut() {
            t.set_trace(id);
        }
    }

    /// The active causal trace id (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Opens a phase: subsequent clock charges are attributed to `phase`
    /// until the frame is closed (nested phases take over in between).
    pub fn phase_begin(&mut self, phase: Phase) -> PhaseFrame {
        let now = self.clock_ns;
        self.emit(now, Event::PhaseBegin { phase });
        let prev = std::mem::replace(&mut self.phase, phase);
        PhaseFrame {
            phase,
            prev,
            t0_ns: now,
        }
    }

    /// Closes a phase frame: records one episode (inclusive duration) on the
    /// profile and restores the previously active phase.
    pub fn phase_end(&mut self, frame: PhaseFrame) {
        let now = self.clock_ns;
        let (phase, dur_ns) = (frame.phase, now - frame.t0_ns);
        self.emit(now, Event::PhaseEnd { phase, dur_ns });
        self.phase = frame.prev;
    }

    /// The currently active attribution phase.
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// The accumulated phase/retry profile.
    pub fn profile(&self) -> &OpProfile {
        &self.sink.profile
    }

    /// Returns this endpoint's client id in the fault session (0 if none).
    pub fn client_id(&self) -> u32 {
        self.fault.as_ref().map_or(0, |f| f.client_id())
    }

    /// Declares a labeled crash point; a [`crate::fault::CrashRule`] matching
    /// the label kills this client here (panicking with
    /// [`crate::fault::CrashSignal`]). A no-op without a fault session.
    pub fn crash_point(&mut self, label: &'static str) {
        if let Some(fc) = self.fault.as_mut() {
            fc.on_crash_point(label);
        }
    }

    /// Resolves fault actions for a verb, applies due torn-write heals, and
    /// charges injected latency. Panics with `CrashSignal` on a crash rule.
    fn fault_enter(&mut self, kind: VerbKind, addr: u64) -> VerbFaults {
        let Some(fc) = self.fault.as_mut() else {
            return VerbFaults::default();
        };
        let (mut faults, due) = fc.on_verb(kind, addr);
        for w in due {
            self.pool
                .mn(w.addr.mn())
                .region()
                .write(w.addr.offset() as usize, &w.bytes);
        }
        for (action, label) in std::mem::take(&mut faults.fired) {
            self.emit(self.clock_ns, Event::Fault { action, label });
        }
        self.advance_clock(faults.delay_ns);
        faults
    }

    /// Advances the virtual clock without network traffic (backoff, injected
    /// delays, allocation RPCs), attributing the time to the active phase.
    ///
    /// When a coroutine lane hook is installed on this thread, the advance
    /// first parks at the scheduler as a timer event so these verb-free
    /// waits interleave with other lanes' completions in deterministic
    /// global order.
    pub fn advance_clock(&mut self, dt: u64) {
        if dt > 0 {
            qp::hook_timer(self.clock_ns, dt);
        }
        let t0 = self.clock_ns;
        self.clock_ns += dt;
        self.emit(t0, Event::Time { phase: self.phase, ns: dt });
    }

    /// Returns the pool this endpoint is attached to.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Returns the accumulated counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Returns the endpoint's virtual clock in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Records payload bytes actually requested by the application
    /// (denominator of the read-amplification factor).
    pub fn note_app_bytes(&mut self, n: u64) {
        self.stats.app_bytes += n;
    }

    /// Records a torn read detected (and retried) by version validation —
    /// a retry whose root cause is a version mismatch.
    pub fn note_torn_read(&mut self) {
        let cause = RetryCause::VersionMismatch;
        self.emit(self.clock_ns, Event::Retry { cause, op: false });
    }

    /// Records a stale lock word reclaimed from a dead holder.
    pub fn note_stale_lock_reclaimed(&mut self) {
        self.stats.stale_locks_reclaimed += 1;
    }

    /// Records a lock-acquisition attempt that found the word locked —
    /// a retry whose root cause is a lock conflict.
    pub fn note_lock_retry(&mut self) {
        let cause = RetryCause::LockConflict;
        self.emit(self.clock_ns, Event::Retry { cause, op: false });
    }

    /// Records a whole-operation optimistic retry attributed to `cause`.
    ///
    /// When the fault engine injected a fault since the last op retry, the
    /// injection — not the symptom the caller observed — is blamed.
    pub fn note_op_retry(&mut self, cause: RetryCause) {
        let cause = if self.stats.faults_injected > self.fault_mark {
            RetryCause::InjectedFault
        } else {
            cause
        };
        self.fault_mark = self.stats.faults_injected;
        self.emit(self.clock_ns, Event::Retry { cause, op: true });
    }

    /// Charges one doorbell of `msgs` requests (`payload` bytes) to `addr`'s
    /// memory node and records it as a verb issued at `t0` (before any
    /// injected delay).
    /// Serial clients (no lane hook) complete each verb inline at exactly
    /// [`crate::net::NetConfig::verb_latency_ns`]. When a coroutine lane
    /// hook is installed on this thread, the verb is instead posted as a
    /// WQE to the client's shared queue pair: the lane parks until the
    /// scheduler delivers its completion, round trips reflect doorbell
    /// batching, and wait time beyond the uncontended service time goes to
    /// `cq_wait` at the post; the service time ends at the completion.
    fn post(&mut self, t0: u64, verb: &'static str, addr: GlobalAddr, msgs: u64, payload: u64) {
        let net = *self.pool.net();
        let wire = payload + msgs * net.msg_overhead;
        let posted = self.clock_ns;
        let rtts = match qp::hook_post(posted, addr.mn(), msgs, wire, self.trace_id) {
            Some(out) => {
                self.clock_ns = out.completion_ns;
                let (phase, ns) = (self.phase, out.service_ns);
                self.emit(posted, Event::Time { phase: Phase::CqWait, ns: out.cq_wait_ns });
                self.emit(out.completion_ns.saturating_sub(ns), Event::Time { phase, ns });
                out.rtts
            }
            None => {
                self.advance_clock(net.verb_latency_ns(msgs, wire));
                1
            }
        };
        self.verb_done(t0, posted, verb, addr, (msgs, rtts, wire));
    }

    /// Records a verb issued at `t0` whose doorbell reached the wire at
    /// `posted` and completed now.
    fn verb_done(
        &mut self,
        t0: u64,
        posted: u64,
        verb: &'static str,
        addr: GlobalAddr,
        (msgs, rtts, wire_bytes): (u64, u64, u64),
    ) {
        let ev = Event::Verb {
            verb,
            mn: addr.mn(),
            addr: addr.raw(),
            msgs,
            rtts,
            wire_bytes,
            dur_ns: self.clock_ns - t0,
            delay_ns: posted - t0,
            phase: self.phase,
        };
        self.emit(t0, ev);
    }

    /// One-sided READ of `dst.len()` bytes at `addr`: a batch of one.
    pub fn read(&mut self, addr: GlobalAddr, dst: &mut [u8]) {
        self.read_batch(&mut [(addr, dst)]);
    }

    /// Doorbell-batched READs: all requests are posted together and pay a
    /// single round-trip, but each is a separate NIC work request.
    pub fn read_batch(&mut self, reqs: &mut [(GlobalAddr, &mut [u8])]) {
        assert!(!reqs.is_empty());
        let t0 = self.clock_ns;
        self.fault_enter(VerbKind::Read, reqs[0].0.raw());
        let overhead = self.pool.net().msg_overhead;
        let mut payload = 0u64;
        for (addr, dst) in reqs.iter_mut() {
            let mn = self.pool.mn(addr.mn());
            mn.region().read(addr.offset() as usize, dst);
            mn.note_traffic(1, dst.len() as u64 + overhead);
            payload += dst.len() as u64;
        }
        self.post(t0, "read", reqs[0].0, reqs.len() as u64, payload);
    }

    /// One-sided WRITE of `src` at `addr`: a batch of one.
    pub fn write(&mut self, addr: GlobalAddr, src: &[u8]) {
        self.write_batch(&[(addr, src)]);
    }

    /// Doorbell-batched WRITEs (e.g. Sherman-style "write data + unlock in
    /// one round-trip"). Writes are applied in order.
    pub fn write_batch(&mut self, reqs: &[(GlobalAddr, &[u8])]) {
        assert!(!reqs.is_empty());
        let t0 = self.clock_ns;
        let f = self.fault_enter(VerbKind::Write, reqs[0].0.raw());
        if let Some((lines, heal_after)) = f.torn {
            self.torn_write(reqs, lines, heal_after);
        } else {
            for (addr, src) in reqs {
                self.pool
                    .mn(addr.mn())
                    .region()
                    .write(addr.offset() as usize, src);
            }
        }
        let overhead = self.pool.net().msg_overhead;
        let mut payload = 0u64;
        for (addr, src) in reqs {
            self.pool.mn(addr.mn()).note_traffic(1, src.len() as u64 + overhead);
            payload += src.len() as u64;
        }
        self.post(t0, "write", reqs[0].0, reqs.len() as u64, payload);
    }

    /// Applies a torn (batched) write: the first `lines` 64-byte cache lines
    /// of the concatenated payload reach memory now; the rest lands after
    /// `heal_after` more verbs by this client, or never (`None`). The full
    /// cost is charged either way — the client believes the doorbell posted.
    fn torn_write(
        &mut self,
        reqs: &[(GlobalAddr, &[u8])],
        lines: usize,
        heal_after: Option<u64>,
    ) {
        let mut budget = lines * crate::region::LINE;
        for (addr, src) in reqs {
            let now = budget.min(src.len());
            if now > 0 {
                self.pool
                    .mn(addr.mn())
                    .region()
                    .write(addr.offset() as usize, &src[..now]);
                budget -= now;
            }
            if now < src.len() {
                if let Some(after) = heal_after {
                    let fc = self.fault.as_mut().expect("torn write without faults");
                    fc.schedule_heal(addr.add(now as u64), src[now..].to_vec(), after);
                }
            }
        }
    }

    /// RDMA compare-and-swap on the 8-byte word at `addr`.
    ///
    /// Returns the previous value; the swap happened iff it equals `compare`.
    pub fn cas(&mut self, addr: GlobalAddr, compare: u64, swap: u64) -> u64 {
        let op = |cur| (cur == compare).then_some(swap);
        self.atomic((VerbKind::Cas, "cas", 16), addr, &mut [], Some((compare, u64::MAX)), op)
    }

    /// RDMA masked compare-and-swap (ConnectX extended atomic): the
    /// zero-read case of [`Endpoint::masked_cas_read`].
    #[allow(clippy::disallowed_methods, reason = "the verb's own zero-read case")]
    pub fn masked_cas(
        &mut self,
        addr: GlobalAddr,
        compare: u64,
        compare_mask: u64,
        swap: u64,
        swap_mask: u64,
    ) -> u64 {
        self.masked_cas_read(addr, compare, compare_mask, swap, swap_mask, &mut [])
    }

    /// RDMA masked compare-and-swap with up to [`MAX_RANGES`] READs posted
    /// behind it as one doorbell batch on one queue pair.
    ///
    /// Compares only the bits selected by `compare_mask`; on success swaps
    /// only the bits selected by `swap_mask`. Always returns the full
    /// previous 8-byte value, which is how CHIME piggybacks the vacancy
    /// bitmap onto lock acquisition. An RC queue pair executes its requests
    /// in order, so the READs see memory after the atomic, whatever its
    /// outcome: behind a winning lock CAS they read what the lock holder
    /// reads (FORD's "hitchhiked locking"). The batch costs one round trip,
    /// `1 + reads.len()` messages and `32 + Σlen` payload bytes; fault rules
    /// fire for the atomic and, when there are READs, for them.
    pub fn masked_cas_read(
        &mut self,
        addr: GlobalAddr,
        compare: u64,
        compare_mask: u64,
        swap: u64,
        swap_mask: u64,
        reads: &mut [(GlobalAddr, &mut [u8])],
    ) -> u64 {
        let verb = if reads.is_empty() { "masked_cas" } else { "masked_cas_read" };
        let op = |cur: u64| {
            (cur & compare_mask == compare & compare_mask)
                .then_some((cur & !swap_mask) | (swap & swap_mask))
        };
        let compared = Some((compare, compare_mask));
        self.atomic((VerbKind::MaskedCas, verb, 32), addr, reads, compared, op)
    }

    /// RDMA fetch-and-add on the 8-byte word at `addr`; returns the old value.
    pub fn faa(&mut self, addr: GlobalAddr, add: u64) -> u64 {
        let op = |cur: u64| Some(cur.wrapping_add(add));
        self.atomic((VerbKind::Faa, "faa", 16), addr, &mut [], None, op)
    }

    /// The one body of the atomic verbs: fault hooks, accounting and trace
    /// for an atomic of `payload` bytes on the word at `addr` with `reads`
    /// posted behind it, then `op` on the word — a second time for a
    /// retransmitted completion — and the READs. Returns the previous value.
    /// A compare-and-swap (`compared` = its compare value and mask) can have
    /// its completion dropped: nothing executes, and the reported value has
    /// its lowest compared bit flipped if it would have matched, so the
    /// caller observes a spurious conflict.
    fn atomic(
        &mut self,
        (kind, verb, payload): (VerbKind, &'static str, u64),
        addr: GlobalAddr,
        reads: &mut [(GlobalAddr, &mut [u8])],
        compared: Option<(u64, u64)>,
        op: impl Fn(u64) -> Option<u64>,
    ) -> u64 {
        assert!(reads.len() <= MAX_RANGES);
        let t0 = self.clock_ns;
        let f = self.fault_enter(kind, addr.raw());
        if let Some((first, _)) = reads.first() {
            self.fault_enter(VerbKind::Read, first.raw());
        }
        let overhead = self.pool.net().msg_overhead;
        let mn = self.pool.mn(addr.mn());
        mn.note_traffic(1, payload + overhead);
        let mut payload = payload;
        for (at, dst) in reads.iter() {
            assert_eq!(at.mn(), addr.mn(), "one queue pair reaches one memory node");
            mn.note_traffic(1, dst.len() as u64 + overhead);
            payload += dst.len() as u64;
        }
        self.post(t0, verb, addr, 1 + reads.len() as u64, payload);
        let region = self.pool.mn(addr.mn()).region();
        let off = addr.offset() as usize;
        let old = match compared {
            Some((compare, mask)) if f.fail_cas => {
                let cur = region.atomic_rmw_u64(off, |_| None);
                let flip = (mask & mask.wrapping_neg()).max(1);
                cur ^ if cur & mask == compare & mask { flip } else { 0 }
            }
            _ => {
                let old = region.atomic_rmw_u64(off, &op);
                if f.duplicate {
                    region.atomic_rmw_u64(off, &op);
                }
                old
            }
        };
        for (at, dst) in reads.iter_mut() {
            region.read(at.offset() as usize, dst);
        }
        old
    }

    /// Allocation RPC: asks memory node `mn` for a chunk of `size` bytes.
    ///
    /// This is the only MN-CPU-involving operation, used to grab 16 MB
    /// chunks that the client then sub-allocates locally.
    pub fn alloc_rpc(&mut self, mn: u16, size: u64) -> Option<GlobalAddr> {
        let t0 = self.clock_ns;
        self.fault_enter(VerbKind::Alloc, (mn as u64) << 48);
        let r = self.pool.mn(mn).alloc(size);
        let wire = 2 * self.pool.net().msg_overhead;
        let posted = self.clock_ns;
        self.advance_clock(self.pool.net().alloc_rpc_ns);
        self.pool.mn(mn).note_traffic(2, wire);
        self.verb_done(t0, posted, "alloc", GlobalAddr::new(mn, 0), (2, 1, wire));
        r
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "the masked-CAS verbs' own tests")]
    use super::*;
    use crate::node::RESERVED_BYTES;

    fn ep() -> Endpoint {
        Endpoint::new(Pool::with_defaults(1, 1 << 20))
    }

    #[test]
    fn read_write_roundtrip_and_accounting() {
        let mut e = ep();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        e.write(addr, b"hello world!");
        let mut buf = [0u8; 12];
        e.read(addr, &mut buf);
        assert_eq!(&buf, b"hello world!");
        assert_eq!(e.stats().reads, 1);
        assert_eq!(e.stats().writes, 1);
        assert_eq!(e.stats().rtts, 2);
        assert!(e.clock_ns() >= 2 * e.pool().net().rtt_ns);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut e = ep();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        assert_eq!(e.cas(addr, 0, 7), 0);
        assert_eq!(e.cas(addr, 0, 9), 7); // fails, returns current
        let mut b = [0u8; 8];
        e.read(addr, &mut b);
        assert_eq!(u64::from_le_bytes(b), 7);
    }

    #[test]
    fn masked_cas_semantics() {
        let mut e = ep();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        e.write(addr, &0xAABB_CCDD_0000_0000u64.to_le_bytes());
        // Compare only bit 0 (expect 0 = unlocked), swap only bit 0.
        let old = e.masked_cas(addr, 0, 1, 1, 1);
        assert_eq!(old, 0xAABB_CCDD_0000_0000); // full old value returned
        let mut b = [0u8; 8];
        e.read(addr, &mut b);
        // Only bit 0 changed.
        assert_eq!(u64::from_le_bytes(b), 0xAABB_CCDD_0000_0001);
        // Second acquire fails (bit 0 already 1) and leaves the word intact.
        let old2 = e.masked_cas(addr, 0, 1, 1, 1);
        assert_eq!(old2 & 1, 1);
        e.read(addr, &mut b);
        assert_eq!(u64::from_le_bytes(b), 0xAABB_CCDD_0000_0001);
    }

    #[test]
    fn masked_cas_swap_mask_limits_written_bits() {
        let mut e = ep();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        e.write(addr, &u64::MAX.to_le_bytes());
        // Unlock via masked write of bit 0 only... done with swap_mask=1.
        let _ = e.masked_cas(addr, u64::MAX, u64::MAX, 0, 1);
        let mut b = [0u8; 8];
        e.read(addr, &mut b);
        assert_eq!(u64::from_le_bytes(b), u64::MAX - 1);
    }

    /// A lock acquire with two READs behind it: the lock word itself and
    /// 40 bytes of the node.
    fn lock_and_read(e: &mut Endpoint, lock: GlobalAddr, node: GlobalAddr) -> (u64, u64, [u8; 40]) {
        let (mut word, mut body) = ([0u8; 8], [0u8; 40]);
        let reads = &mut [(lock, &mut word[..]), (node, &mut body[..])];
        let old = e.masked_cas_read(lock, 0, 1, 1, 1, reads);
        (old, u64::from_le_bytes(word), body)
    }

    #[test]
    fn masked_cas_read_reads_after_the_atomic() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let lock = node.add(64);
        e.write(node, &[7u8; 40]);
        e.write(lock, &0xAB00u64.to_le_bytes());
        // Won: the READ sees the lock bit the CAS just set.
        let (old, seen, body) = lock_and_read(&mut e, lock, node);
        assert_eq!((old, seen, body), (0xAB00, 0xAB01, [7u8; 40]));
        // Lost (the word is locked): the READ still executes and sees the
        // word as the holder left it.
        e.write(node, &[9u8; 40]);
        let (old, seen, body) = lock_and_read(&mut e, lock, node);
        assert_eq!((old, seen, body), (0xAB01, 0xAB01, [9u8; 40]));
    }

    #[test]
    fn masked_cas_read_is_one_round_trip_of_one_plus_n_messages() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let lock = node.add(128);
        let overhead = e.pool().net().msg_overhead;
        let (before, clock) = (e.stats().clone(), e.clock_ns());
        let (mut a, mut b) = ([0u8; 24], [0u8; 100]);
        e.masked_cas_read(lock, 0, 1, 1, 1, &mut [(node, &mut a[..]), (node.add(200), &mut b[..])]);
        let d = e.stats().since(&before);
        assert_eq!((d.rtts, d.msgs, d.atomics, d.reads), (1, 3, 1, 2));
        assert_eq!(d.wire_bytes, 32 + 24 + 100 + 3 * overhead);
        let net = *e.pool().net();
        assert_eq!(e.clock_ns() - clock, net.verb_latency_ns(3, d.wire_bytes));
        assert_eq!(e.pool().traffic()[0].msgs, 3);
        assert_eq!(e.pool().traffic()[0].wire_bytes, e.stats().wire_bytes);
        // Without READs it is the plain masked CAS: one 32-byte message.
        let before = e.stats().clone();
        e.masked_cas(lock, 0, 1, 1, 1);
        let d = e.stats().since(&before);
        assert_eq!((d.rtts, d.msgs, d.reads, d.wire_bytes), (1, 1, 0, 32 + overhead));
        assert_eq!(e.pool().traffic()[0].wire_bytes, e.stats().wire_bytes);
    }

    #[test]
    fn masked_cas_read_traces_under_its_own_name() {
        let mut e = ep();
        e.set_tracer(obs::Tracer::new(0, 64));
        let lock = GlobalAddr::new(0, RESERVED_BYTES);
        let sp = e.span_begin("update", 1);
        e.masked_cas(lock, 0, 1, 1, 1);
        let mut buf = [0u8; 8];
        e.masked_cas_read(lock, 0, 1, 0, 1, &mut [(lock, &mut buf[..])]);
        e.span_end(sp, true);
        let overhead = e.pool().net().msg_overhead;
        let spans = e.tracer().unwrap().spans();
        let verbs: Vec<(&str, u64)> =
            spans[0].verbs.iter().map(|v| (v.verb, v.wire_bytes)).collect();
        assert_eq!(verbs, [("masked_cas", 32 + overhead), ("masked_cas_read", 40 + 2 * overhead)]);
    }

    #[test]
    fn faa_accumulates() {
        let mut e = ep();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        assert_eq!(e.faa(addr, 5), 0);
        assert_eq!(e.faa(addr, 3), 5);
        assert_eq!(e.faa(addr, 0), 8);
    }

    #[test]
    fn batched_reads_pay_one_rtt() {
        let mut e = ep();
        let a1 = GlobalAddr::new(0, RESERVED_BYTES);
        let a2 = GlobalAddr::new(0, RESERVED_BYTES + 128);
        e.write(a1, &[1u8; 16]);
        e.write(a2, &[2u8; 16]);
        let before = e.stats().clone();
        let clock_before = e.clock_ns();
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        {
            let mut reqs = [(a1, &mut b1[..]), (a2, &mut b2[..])];
            e.read_batch(&mut reqs);
        }
        assert_eq!(b1, [1u8; 16]);
        assert_eq!(b2, [2u8; 16]);
        let d = e.stats().since(&before);
        assert_eq!(d.rtts, 1);
        assert_eq!(d.msgs, 2);
        assert_eq!(d.reads, 2);
        // One doorbell batch is cheaper than two sequential reads.
        assert!(e.clock_ns() - clock_before < 2 * e.pool().net().rtt_ns);
    }

    #[test]
    fn tracer_records_verbs_with_spans_and_mn_traffic() {
        let mut e = ep();
        e.set_tracer(obs::Tracer::new(0, 1024));
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let sp = e.span_begin("insert", 99);
        e.write(addr, &[1u8; 32]);
        assert_eq!(e.cas(addr.add(64), 0, 5), 0);
        e.span_end(sp, true);
        let mut buf = [0u8; 8];
        e.read(addr, &mut buf); // outside any span

        let t = e.tracer().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].op, "insert");
        assert_eq!(spans[0].key, 99);
        let verbs: Vec<&str> = spans[0].verbs.iter().map(|v| v.verb).collect();
        assert_eq!(verbs, ["write", "cas"]);
        assert!(spans[0].ok);
        // The span's wire bytes match the client counters minus the
        // out-of-span read.
        let overhead = e.pool().net().msg_overhead;
        assert_eq!(spans[0].wire_bytes, (32 + overhead) + (16 + overhead));
        // Per-MN traffic saw all three verbs.
        let traffic = e.pool().traffic();
        assert_eq!(traffic[0].msgs, 3);
        assert_eq!(traffic[0].wire_bytes, e.stats().wire_bytes);
        // The loose read is attributed to span 0.
        let last = t.events().iter().last().unwrap();
        assert_eq!(last.span, 0);
    }

    #[test]
    fn phases_attribute_time_verbs_and_retries() {
        use obs::{Phase, RetryCause};
        let mut e = ep();
        e.set_tracer(obs::Tracer::new(0, 1024));
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let sp = e.span_begin("search", 1);

        let fr = e.phase_begin(Phase::Traversal);
        let mut buf = [0u8; 8];
        e.read(addr, &mut buf);
        // Nested phase takes over attribution.
        let inner = e.phase_begin(Phase::LeafRead);
        e.read(addr, &mut buf);
        e.phase_end(inner);
        assert_eq!(e.current_phase(), Phase::Traversal);
        e.phase_end(fr);
        assert_eq!(e.current_phase(), Phase::Other);
        e.read(addr, &mut buf); // unattributed

        e.note_lock_retry();
        e.note_torn_read();
        e.note_op_retry(RetryCause::StaleSibling);
        e.span_end(sp, true);

        let p = e.profile();
        let trav = p.phase(Phase::Traversal);
        let leaf = p.phase(Phase::LeafRead);
        let other = p.phase(Phase::Other);
        assert_eq!(trav.verbs, 1);
        assert_eq!(leaf.verbs, 1);
        assert_eq!(other.verbs, 1);
        assert_eq!(trav.rtts + leaf.rtts + other.rtts, e.stats().rtts);
        assert_eq!(
            trav.wire_bytes + leaf.wire_bytes + other.wire_bytes,
            e.stats().wire_bytes
        );
        // Exclusive time sums to the clock; episodes are inclusive.
        assert_eq!(trav.ns + leaf.ns + other.ns, e.clock_ns());
        assert_eq!(trav.episodes, 1);
        assert_eq!(trav.hist.count(), 1);
        assert!(trav.hist.sum() >= trav.ns + leaf.ns, "inclusive episode");
        assert_eq!(p.retry_count(RetryCause::LockConflict), 1);
        assert_eq!(p.retry_count(RetryCause::VersionMismatch), 1);
        assert_eq!(p.retry_count(RetryCause::StaleSibling), 1);
        // The tracer saw typed phase sub-spans inside the op span.
        let spans = e.tracer().unwrap().spans();
        assert_eq!(spans[0].phase_ns.len(), 2);
        assert_eq!(spans[0].phase_ns[0].0, "leaf_read");
        assert_eq!(spans[0].phase_ns[1].0, "traversal");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "trace id minted inside an open span")]
    fn trace_id_is_never_minted_inside_an_open_span() {
        let mut e = ep();
        e.set_trace_id(1);
        let _sp = e.span_begin("search", 1);
        e.set_trace_id(2);
    }

    /// The index of `ev`'s variant, below [`VARIANTS`]. No wildcard: a new
    /// [`Event`] variant does not compile until it has an arm here, and
    /// `every_event_reaches_a_reader` fails until it has an example there.
    fn variant(ev: &Event) -> usize {
        match ev {
            Event::OpBegin { .. } => 0,
            Event::OpEnd { .. } => 1,
            Event::Verb { .. } => 2,
            Event::Time { .. } => 3,
            Event::PhaseBegin { .. } => 4,
            Event::PhaseEnd { .. } => 5,
            Event::Retry { .. } => 6,
            Event::Fault { .. } => 7,
            Event::Note { .. } => 8,
            Event::Shed => 9,
            Event::Served => 10,
            Event::CqDepth { .. } => 11,
        }
    }
    const VARIANTS: usize = 12;

    /// Everything a reader of an endpoint can see: its counters, its
    /// profile, its time series and its tracer's export.
    fn readings(mut e: Endpoint) -> (ClientStats, OpProfile, String, String) {
        let trace = e.take_tracer().expect("attached").to_jsonl();
        let series = e.take_series().to_json().to_pretty();
        (e.stats().clone(), e.profile().clone(), series, trace)
    }

    #[test]
    fn every_event_reaches_a_reader() {
        let examples = [
            Event::OpBegin { op: "search", key: 2, trace: 0 },
            Event::OpEnd { ok: true, dur_ns: 10 },
            Event::Verb {
                verb: "read",
                mn: 0,
                addr: RESERVED_BYTES,
                msgs: 1,
                rtts: 1,
                wire_bytes: 72,
                dur_ns: 5,
                delay_ns: 0,
                phase: Phase::LeafRead,
            },
            Event::Time { phase: Phase::Traversal, ns: 5 },
            Event::PhaseBegin { phase: Phase::Traversal },
            Event::PhaseEnd { phase: Phase::Traversal, dur_ns: 5 },
            Event::Retry { cause: RetryCause::LockConflict, op: false },
            Event::Fault { action: "delay", label: "spike".into() },
            Event::Note { label: "migrate.locked part=0 dst=1".into() },
            Event::Shed,
            Event::Served,
            Event::CqDepth { depth: 3 },
        ];
        let mut seen: Vec<usize> = examples.iter().map(variant).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..VARIANTS).collect::<Vec<_>>(), "one example per variant");
        // A series open, a tracer attached, and the event inside an op.
        let observed = || {
            let mut e = ep();
            e.open_series();
            e.set_tracer(obs::Tracer::new(0, 64));
            let op = e.span_begin("update", 1);
            e.advance_clock(10);
            (e, op)
        };
        for ev in examples {
            let (quiet, _op) = observed();
            let (mut e, _op) = observed();
            e.emit(e.clock_ns(), ev.clone());
            assert_ne!(readings(e), readings(quiet), "{ev:?} reached no reader");
        }
    }

    #[test]
    fn a_crash_point_without_a_fault_session_changes_no_reader() {
        let observed = || {
            let mut e = ep();
            e.open_series();
            e.set_tracer(obs::Tracer::new(0, 64));
            let op = e.span_begin("update", 1);
            e.advance_clock(10);
            (e, op)
        };
        let (quiet, _op) = observed();
        let (mut e, _op) = observed();
        e.crash_point("leaf.lock.acquired");
        assert_eq!(e.clock_ns(), 10);
        assert_eq!(readings(e), readings(quiet));
    }

    #[test]
    fn each_span_token_closes_its_own_tracer_span() {
        let mut e = ep();
        e.set_tracer(obs::Tracer::new(0, 64));
        let op = e.span_begin("update", 3);
        e.advance_clock(10);
        let inner = e.span_begin("search", 4);
        e.advance_clock(5);
        e.span_end(inner, false);
        e.advance_clock(1);
        e.span_end(op, true);
        let got: Vec<_> = e.tracer().unwrap().spans().iter().map(|s| (s.op, s.key, s.ok, s.start_ns, s.end_ns)).collect();
        assert_eq!(got, [("update", 3, true, 0, 16), ("search", 4, false, 10, 15)]);
    }

    #[test]
    fn advance_clock_charges_time_to_the_active_phase_without_traffic() {
        use obs::Phase;
        let mut e = ep();
        let fr = e.phase_begin(Phase::Traversal);
        e.advance_clock(300);
        e.phase_end(fr);
        e.advance_clock(20);
        assert_eq!(e.clock_ns(), 320);
        assert_eq!(e.profile().phase(Phase::Traversal).ns, 300);
        assert_eq!(e.profile().phase(Phase::Other).ns, 20);
        assert_eq!((e.stats().rtts, e.stats().msgs, e.stats().wire_bytes), (0, 0, 0));
    }

    #[test]
    fn op_retry_blames_injected_fault_over_symptom() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, FaultSession, VerbKind};
        use obs::RetryCause;
        let mut plan = FaultPlan::seeded(9);
        plan.rules.push(FaultRule {
            label: "one-delay".into(),
            verb: Some(VerbKind::Read),
            client: None,
            probability: 1.0,
            after_seq: 0,
            max_fires: 1,
            action: FaultAction::Delay { ns: 10 },
        });
        let session = Arc::new(FaultSession::new(plan));
        let pool = Pool::with_defaults(1, 1 << 20);
        let mut e = Endpoint::with_faults(pool, session, 0);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let mut buf = [0u8; 8];
        e.read(addr, &mut buf); // fault fires here
        e.note_op_retry(RetryCause::StaleRoute);
        assert_eq!(e.profile().retry_count(RetryCause::InjectedFault), 1);
        assert_eq!(e.profile().retry_count(RetryCause::StaleRoute), 0);
        // No new fault since the mark: the symptom is blamed.
        e.read(addr, &mut buf);
        e.note_op_retry(RetryCause::StaleRoute);
        assert_eq!(e.profile().retry_count(RetryCause::StaleRoute), 1);
    }

    #[test]
    fn batch_traffic_splits_across_mns() {
        let mut e = Endpoint::new(Pool::with_defaults(2, 1 << 20));
        let a0 = GlobalAddr::new(0, RESERVED_BYTES);
        let a1 = GlobalAddr::new(1, RESERVED_BYTES);
        e.write_batch(&[(a0, &[1u8; 10]), (a1, &[2u8; 30])]);
        let overhead = e.pool().net().msg_overhead;
        let t = e.pool().traffic();
        assert_eq!(t[0], crate::node::MnTraffic { msgs: 1, wire_bytes: 10 + overhead });
        assert_eq!(t[1], crate::node::MnTraffic { msgs: 1, wire_bytes: 30 + overhead });
        assert_eq!(t[0].wire_bytes + t[1].wire_bytes, e.stats().wire_bytes);
    }

    #[test]
    fn alloc_rpc_returns_chunks() {
        let mut e = ep();
        let a = e.alloc_rpc(0, 4096).unwrap();
        let b = e.alloc_rpc(0, 4096).unwrap();
        assert_ne!(a, b);
        assert_eq!(e.stats().rpcs, 2);
    }

    mod faults {
        use super::*;
        use crate::fault::{
            CrashRule, CrashSignal, FaultAction, FaultPlan, FaultRule, FaultSession, VerbKind,
        };
        use std::sync::Arc;

        fn faulty_ep(plan: FaultPlan) -> (Endpoint, Arc<FaultSession>) {
            let session = Arc::new(FaultSession::new(plan));
            let pool = Pool::with_defaults(1, 1 << 20);
            (
                Endpoint::with_faults(pool, Arc::clone(&session), 0),
                session,
            )
        }

        #[test]
        fn delay_rule_advances_clock_and_counts() {
            let mut plan = FaultPlan::seeded(1);
            plan.rules.push(FaultRule::always(
                "spike",
                Some(VerbKind::Read),
                FaultAction::Delay { ns: 50_000 },
            ));
            let (mut e, s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            let before = e.clock_ns();
            let mut buf = [0u8; 8];
            e.read(addr, &mut buf);
            assert!(e.clock_ns() >= before + 50_000);
            assert_eq!(e.stats().faults_injected, 1);
            assert_eq!(s.trace().len(), 1);
        }

        #[test]
        fn torn_write_never_heals_drops_tail() {
            let mut plan = FaultPlan::seeded(2);
            plan.rules.push(FaultRule::always(
                "tear-1-line",
                Some(VerbKind::Write),
                FaultAction::TornWrite {
                    lines: 1,
                    heal_after: None,
                },
            ));
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            e.write(addr, &[7u8; 128]);
            let mut clean = Endpoint::new(Arc::clone(e.pool()));
            let mut buf = [0u8; 128];
            clean.read(addr, &mut buf);
            assert_eq!(&buf[..64], &[7u8; 64][..], "first line landed");
            assert_eq!(&buf[64..], &[0u8; 64][..], "second line never landed");
        }

        #[test]
        fn torn_write_heals_after_n_verbs() {
            let mut plan = FaultPlan::seeded(3);
            plan.rules.push(FaultRule {
                label: "tear-then-heal".into(),
                verb: Some(VerbKind::Write),
                client: None,
                probability: 1.0,
                after_seq: 0,
                max_fires: 1,
                action: FaultAction::TornWrite {
                    lines: 1,
                    heal_after: Some(2),
                },
            });
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            e.write(addr, &[9u8; 128]);
            let mut buf = [0u8; 128];
            e.read(addr, &mut buf); // verb 1 after the tear
            assert_eq!(&buf[64..], &[0u8; 64][..], "tail still missing");
            e.read(addr, &mut buf); // verb 2: heal applied before the read
            assert_eq!(&buf[..], &[9u8; 128][..], "tail healed");
        }

        #[test]
        fn failed_cas_reports_conflict_without_executing() {
            let mut plan = FaultPlan::seeded(4);
            plan.rules.push(FaultRule {
                label: "drop-cas".into(),
                verb: Some(VerbKind::Cas),
                client: None,
                probability: 1.0,
                after_seq: 0,
                max_fires: 1,
                action: FaultAction::FailCas,
            });
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            let old = e.cas(addr, 0, 7);
            assert_ne!(old, 0, "reported old value must conflict");
            let mut b = [0u8; 8];
            e.read(addr, &mut b);
            assert_eq!(u64::from_le_bytes(b), 0, "swap must not have executed");
            // Budget spent: the retry succeeds.
            assert_eq!(e.cas(addr, 0, 7), 0);
            e.read(addr, &mut b);
            assert_eq!(u64::from_le_bytes(b), 7);
        }

        #[test]
        fn failed_masked_cas_flips_a_compared_bit_only() {
            let mut plan = FaultPlan::seeded(5);
            plan.rules.push(FaultRule {
                label: "drop-mcas".into(),
                verb: Some(VerbKind::MaskedCas),
                client: None,
                probability: 1.0,
                after_seq: 0,
                max_fires: 1,
                action: FaultAction::FailCas,
            });
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            e.write(addr, &0xAABB_0000_0000_0000u64.to_le_bytes());
            // Lock acquisition: compare bit 0 == 0, swap bit 0 := 1.
            let old = e.masked_cas(addr, 0, 1, 1, 1);
            assert_eq!(old & 1, 1, "must look locked so the caller retries");
            assert_eq!(old & !1, 0xAABB_0000_0000_0000, "other bits untouched");
            let mut b = [0u8; 8];
            e.read(addr, &mut b);
            assert_eq!(
                u64::from_le_bytes(b),
                0xAABB_0000_0000_0000,
                "memory unchanged"
            );
        }

        fn once(label: &str, verb: VerbKind, action: FaultAction) -> FaultRule {
            FaultRule {
                label: label.into(),
                verb: Some(verb),
                client: None,
                probability: 1.0,
                after_seq: 0,
                max_fires: 1,
                action,
            }
        }

        #[test]
        fn failed_masked_cas_read_drops_the_atomic_not_the_reads() {
            let mut plan = FaultPlan::seeded(5);
            plan.rules.push(once("drop-mcas", VerbKind::MaskedCas, FaultAction::FailCas));
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            e.write(addr, &0xAABB_0000_0000_0000u64.to_le_bytes());
            // The same spurious conflict `masked_cas` reports, and the
            // READ behind it sees the word the atomic never touched.
            let mut b = [0u8; 8];
            let old = e.masked_cas_read(addr, 0, 1, 1, 1, &mut [(addr, &mut b[..])]);
            assert_eq!(old, 0xAABB_0000_0000_0001, "must look locked so the caller retries");
            assert_eq!(u64::from_le_bytes(b), 0xAABB_0000_0000_0000, "memory unchanged");
            // Budget spent: the retry wins and its READ sees the lock.
            let old = e.masked_cas_read(addr, 0, 1, 1, 1, &mut [(addr, &mut b[..])]);
            assert_eq!(old, 0xAABB_0000_0000_0000);
            assert_eq!(u64::from_le_bytes(b), 0xAABB_0000_0000_0001);
        }

        #[test]
        fn duplicated_masked_cas_read_matches_masked_cas() {
            let run = |reads: bool| {
                let mut plan = FaultPlan::seeded(6);
                plan.rules.push(once("dup-mcas", VerbKind::MaskedCas, FaultAction::DuplicateAtomic));
                let (mut e, _s) = faulty_ep(plan);
                let addr = GlobalAddr::new(0, RESERVED_BYTES);
                e.write(addr, &0x10u64.to_le_bytes());
                let mut b = [0u8; 8];
                let old = if reads {
                    e.masked_cas_read(addr, 0x10, 0xFF, 0x20, 0xF0, &mut [(addr, &mut b[..])])
                } else {
                    e.masked_cas(addr, 0x10, 0xFF, 0x20, 0xF0)
                };
                let mut now = [0u8; 8];
                Endpoint::new(Arc::clone(e.pool())).read(addr, &mut now);
                (old, u64::from_le_bytes(now), e.stats().faults_injected, reads.then_some(b))
            };
            let (old, now, faults, _) = run(false);
            assert_eq!((old, now, faults), (0x10, 0x20, 1));
            // The retransmitted atomic fails its compare the second time;
            // the READ sees the once-applied word.
            assert_eq!(run(true), (old, now, faults, Some(0x20u64.to_le_bytes())));
        }

        #[test]
        fn read_rules_fire_on_the_reads_of_a_masked_cas_read() {
            let mut plan = FaultPlan::seeded(7);
            let delay = FaultAction::Delay { ns: 50_000 };
            plan.rules.push(FaultRule::always("slow-read", Some(VerbKind::Read), delay));
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            e.masked_cas(addr, 0, 1, 0, 1);
            assert_eq!(e.stats().faults_injected, 0, "no READ, no read rule");
            let mut b = [0u8; 8];
            let clock = e.clock_ns();
            e.masked_cas_read(addr, 0, 1, 0, 1, &mut [(addr, &mut b[..])]);
            assert_eq!(e.stats().faults_injected, 1);
            assert!(e.clock_ns() >= clock + 50_000);
        }

        #[test]
        fn duplicated_faa_lands_twice() {
            let mut plan = FaultPlan::seeded(6);
            plan.rules.push(FaultRule {
                label: "dup-faa".into(),
                verb: Some(VerbKind::Faa),
                client: None,
                probability: 1.0,
                after_seq: 0,
                max_fires: 1,
                action: FaultAction::DuplicateAtomic,
            });
            let (mut e, _s) = faulty_ep(plan);
            let addr = GlobalAddr::new(0, RESERVED_BYTES);
            assert_eq!(e.faa(addr, 5), 0);
            assert_eq!(e.faa(addr, 1), 10, "first add landed twice");
        }

        #[test]
        fn crash_point_kills_client() {
            let plan = FaultPlan {
                seed: 7,
                rules: vec![],
                crashes: vec![CrashRule {
                    label: "op.midway".into(),
                    client: Some(0),
                    at_hit: 1,
                }],
            };
            let (mut e, s) = faulty_ep(plan);
            e.crash_point("unrelated");
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                e.crash_point("op.midway");
            }));
            let payload = r.unwrap_err();
            let sig = payload.downcast_ref::<CrashSignal>().expect("CrashSignal");
            assert_eq!(sig.label, "op.midway");
            assert_eq!(s.trace().len(), 1);
        }

        #[test]
        fn same_seed_same_trace() {
            let run = |seed: u64| {
                let mut plan = FaultPlan::seeded(seed);
                plan.rules.push(FaultRule {
                    label: "p30-delay".into(),
                    verb: None,
                    client: None,
                    probability: 0.3,
                    after_seq: 0,
                    max_fires: u64::MAX,
                    action: FaultAction::Delay { ns: 10 },
                });
                let (mut e, s) = faulty_ep(plan);
                let addr = GlobalAddr::new(0, RESERVED_BYTES);
                let mut buf = [0u8; 16];
                for i in 0..100u64 {
                    match i % 3 {
                        0 => e.read(addr, &mut buf),
                        1 => e.write(addr, &buf),
                        _ => {
                            e.faa(addr.add(64), 1);
                        }
                    }
                }
                s.trace()
            };
            assert_eq!(run(11), run(11));
            assert_ne!(run(11), run(12), "different seeds should diverge");
        }
    }
}
