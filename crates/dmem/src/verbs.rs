//! Client endpoints issuing one-sided verbs.
//!
//! An [`Endpoint`] is the per-client handle a compute-node thread (or
//! coroutine) uses to reach the memory pool. Every verb executes immediately
//! against the target region and charges *virtual* latency and traffic to the
//! endpoint's counters; the experiment harness later feeds those counters to
//! the network model.

use std::sync::Arc;

use obs::{FlightKind, FlightRecorder, OpProfile, Phase, RetryCause, TimeSeries, Tracer};

use crate::addr::GlobalAddr;
use crate::fault::{FaultClient, FaultSession, VerbFaults, VerbKind};
use crate::node::Pool;
use crate::qp;
use crate::stats::ClientStats;

/// Always-on continuous telemetry carried by every [`Endpoint`]: the
/// windowed [`TimeSeries`] and the black-box [`FlightRecorder`].
///
/// Unlike the opt-in [`Tracer`], telemetry never changes what the endpoint
/// charges to the virtual clock — it only observes charges as they happen —
/// so enabling or inspecting it cannot perturb gated metrics.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Fixed-width windowed counters on the virtual clock.
    pub series: TimeSeries,
    /// Bounded ring of the client's last coarse events.
    pub flight: FlightRecorder,
}

/// An open phase attribution frame returned by [`Endpoint::phase_begin`].
///
/// Closing it with [`Endpoint::phase_end`] restores the previously active
/// phase, so phases nest like a stack but tolerate a leaked frame (the next
/// `phase_end` still restores *its* saved predecessor).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the frame with Endpoint::phase_end"]
pub struct PhaseFrame {
    phase: Phase,
    prev: Phase,
    t0_ns: u64,
}

/// A client-side verb endpoint with its own virtual clock and counters.
pub struct Endpoint {
    pool: Arc<Pool>,
    stats: ClientStats,
    clock_ns: u64,
    fault: Option<FaultClient>,
    tracer: Option<Box<Tracer>>,
    prof: Box<OpProfile>,
    phase: Phase,
    /// `stats.faults_injected` at the last op-retry attribution, so a retry
    /// following an injected fault is blamed on the fault engine.
    fault_mark: u64,
    telem: Box<Telemetry>,
    /// Causal trace id stamped on ops and WQEs (0 = untraced).
    trace_id: u64,
    /// Nesting depth of open spans; depth 0 -> 1 marks an op boundary.
    span_depth: u32,
    /// Virtual time the outermost open span began.
    op_t0: u64,
}

impl Endpoint {
    /// Creates a new endpoint attached to `pool`.
    pub fn new(pool: Arc<Pool>) -> Self {
        Endpoint {
            pool,
            stats: ClientStats::default(),
            clock_ns: 0,
            fault: None,
            tracer: None,
            prof: Box::default(),
            phase: Phase::Other,
            fault_mark: 0,
            telem: Box::default(),
            trace_id: 0,
            span_depth: 0,
            op_t0: 0,
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

    /// Attaches a span/event tracer; every subsequent verb (and injected
    /// fault) records an event on the virtual clock.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Returns the tracer, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Detaches and returns the tracer.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|t| *t)
    }

    /// Opens an operation span (0 without a tracer). The outermost span of
    /// a nest marks an operation boundary for the always-on telemetry: the
    /// flight recorder logs the begin and the time series counts the
    /// completion, tracer or not.
    pub fn span_begin(&mut self, op: &'static str, key: u64) -> u64 {
        let now = self.clock_ns;
        if self.span_depth == 0 {
            self.op_t0 = now;
            self.telem.flight.push(
                now,
                FlightKind::OpBegin {
                    op,
                    key,
                    trace: self.trace_id,
                },
            );
        }
        self.span_depth += 1;
        self.tracer
            .as_mut()
            .map_or(0, |t| t.begin_span(op, key, now))
    }

    /// Closes an operation span opened with [`Endpoint::span_begin`].
    pub fn span_end(&mut self, span: u64, ok: bool) {
        let now = self.clock_ns;
        if let Some(t) = self.tracer.as_mut() {
            if span != 0 {
                t.end_span(span, ok, now);
            }
        }
        if self.span_depth > 0 {
            self.span_depth -= 1;
            if self.span_depth == 0 {
                let dur = now - self.op_t0;
                self.telem.series.record_op(now, dur, ok);
                self.telem.flight.push(now, FlightKind::OpEnd { ok, dur_ns: dur });
            }
        }
    }

    /// Sets the causal trace id stamped on subsequent ops, tracer events
    /// and WQEs. Minted once per operation at the serve/bench entry point
    /// and carried through every layer; 0 means untraced.
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
        if let Some(t) = self.tracer.as_mut() {
            t.set_trace(id);
        }
    }

    /// The active causal trace id (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The always-on continuous telemetry (time series + flight recorder).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telem
    }

    /// Mutable telemetry access: the serve layer records shed/served
    /// decisions and CQ depth here; harnesses snapshot and diff it.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telem
    }

    /// Records a free-form control-plane note (migration steps, route
    /// updates) on both the time series and the flight recorder.
    pub fn note_event(&mut self, label: &str) {
        self.telem.series.event(self.clock_ns, label);
        self.telem.flight.push(
            self.clock_ns,
            FlightKind::Note {
                label: label.to_string(),
            },
        );
    }

    /// Opens a phase: subsequent clock charges are attributed to `phase`
    /// until the frame is closed (nested phases take over in between).
    pub fn phase_begin(&mut self, phase: Phase) -> PhaseFrame {
        let now = self.clock_ns;
        if let Some(t) = self.tracer.as_mut() {
            t.phase_begin(now, phase.as_str());
        }
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
        let dur = self.clock_ns - frame.t0_ns;
        self.prof.episode(frame.phase, dur);
        if let Some(t) = self.tracer.as_mut() {
            t.phase_end(self.clock_ns, frame.phase.as_str(), dur);
        }
        self.phase = frame.prev;
    }

    /// The currently active attribution phase.
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// The accumulated phase/retry profile.
    pub fn profile(&self) -> &OpProfile {
        &self.prof
    }

    /// Records a verb event on the tracer (no-op without one).
    fn trace_verb(&mut self, t0: u64, verb: &'static str, addr: GlobalAddr, wire: u64, msgs: u64) {
        let dur = self.clock_ns - t0;
        if let Some(t) = self.tracer.as_mut() {
            t.verb(t0, dur, verb, addr.mn(), addr.raw(), wire, msgs);
        }
    }

    /// Returns the fault session, if this endpoint is fault-injected.
    pub fn fault_session(&self) -> Option<&Arc<FaultSession>> {
        self.fault.as_ref().map(|f| f.session())
    }

    /// Returns this endpoint's client id in the fault session (0 if none).
    pub fn client_id(&self) -> u32 {
        self.fault.as_ref().map_or(0, |f| f.client_id())
    }

    /// Declares a labeled crash point; a [`crate::fault::CrashRule`] matching
    /// the label kills this client here (panicking with
    /// [`crate::fault::CrashSignal`]). A no-op without a fault session.
    pub fn crash_point(&mut self, label: &'static str) {
        self.telem
            .flight
            .push(self.clock_ns, FlightKind::CrashPoint { label });
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
        let (faults, due) = fc.on_verb(kind, addr);
        for w in due {
            self.pool
                .mn(w.addr.mn())
                .region()
                .write(w.addr.offset() as usize, &w.bytes);
        }
        self.stats.faults_injected += faults.injected;
        for (action, label) in &faults.fired {
            self.telem.flight.push(
                self.clock_ns,
                FlightKind::Fault {
                    action,
                    label: label.clone(),
                },
            );
        }
        if let Some(t) = self.tracer.as_mut() {
            for (action, label) in &faults.fired {
                t.fault(self.clock_ns, action, label.clone());
            }
        }
        self.advance(faults.delay_ns);
        faults
    }

    /// Advances the virtual clock, attributing the time to the active phase.
    ///
    /// When a coroutine lane hook is installed on this thread, the advance
    /// first parks at the scheduler as a timer event so verb-free waits
    /// (backoff, injected delays, allocation RPCs) interleave with other
    /// lanes' completions in deterministic global order.
    pub(crate) fn advance(&mut self, dt: u64) {
        if dt > 0 {
            qp::hook_timer(self.clock_ns, dt);
        }
        let t0 = self.clock_ns;
        self.clock_ns += dt;
        self.prof.add_time(self.phase, dt);
        self.telem.series.add_time(t0, dt, self.phase);
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
        self.stats.torn_reads_detected += 1;
        self.prof.retry(RetryCause::VersionMismatch);
        self.telem.series.retry(self.clock_ns, RetryCause::VersionMismatch);
    }

    /// Records a stale lock word reclaimed from a dead holder.
    pub fn note_stale_lock_reclaimed(&mut self) {
        self.stats.stale_locks_reclaimed += 1;
    }

    /// Records a lock-acquisition attempt that found the word locked —
    /// a retry whose root cause is a lock conflict.
    pub fn note_lock_retry(&mut self) {
        self.stats.lock_retries += 1;
        self.prof.retry(RetryCause::LockConflict);
        self.telem.series.retry(self.clock_ns, RetryCause::LockConflict);
    }

    /// Records a whole-operation optimistic retry attributed to `cause`.
    ///
    /// When the fault engine injected a fault since the last op retry, the
    /// injection — not the symptom the caller observed — is blamed.
    pub fn note_op_retry(&mut self, cause: RetryCause) {
        self.stats.op_retries += 1;
        let cause = if self.stats.faults_injected > self.fault_mark {
            RetryCause::InjectedFault
        } else {
            cause
        };
        self.fault_mark = self.stats.faults_injected;
        self.prof.retry(cause);
        self.telem.series.retry(self.clock_ns, cause);
        self.telem
            .flight
            .push(self.clock_ns, FlightKind::Retry { cause: cause.as_str() });
    }

    /// Advances the virtual clock without network traffic (used by backoff:
    /// the client spends time, not round-trips).
    pub fn advance_clock(&mut self, ns: u64) {
        self.advance(ns);
    }

    /// Charges client counters and the virtual clock; returns wire bytes.
    ///
    /// Serial clients (no lane hook) complete each verb inline at exactly
    /// [`crate::net::NetConfig::verb_latency_ns`]. When a coroutine lane
    /// hook is installed on this thread, the verb is instead posted as a
    /// WQE to the client's shared queue pair: the lane parks until the
    /// scheduler delivers its completion, round trips reflect doorbell
    /// batching, and wait time beyond the uncontended service time is
    /// attributed to the `cq_wait` phase.
    fn charge(&mut self, mn: u16, msgs: u64, payload: u64, rtts: u64) -> u64 {
        let net = self.pool.net();
        let wire = payload + msgs * net.msg_overhead;
        self.stats.msgs += msgs;
        self.stats.wire_bytes += wire;
        let t0 = self.clock_ns;
        if let Some(out) = qp::hook_post(self.clock_ns, mn, msgs, wire, self.trace_id) {
            self.stats.rtts += out.rtts;
            self.clock_ns = out.completion_ns;
            self.prof.add_time(self.phase, out.service_ns);
            self.prof.add_time(Phase::CqWait, out.cq_wait_ns);
            self.prof.add_verb(self.phase, msgs, out.rtts, wire);
            self.telem.series.add_time(t0, out.cq_wait_ns, Phase::CqWait);
            self.telem.series.add_time(
                out.completion_ns.saturating_sub(out.service_ns),
                out.service_ns,
                self.phase,
            );
            self.telem.series.add_verb(t0, msgs, out.rtts, wire);
        } else {
            self.stats.rtts += rtts;
            self.advance(net.verb_latency_ns(msgs, wire));
            self.prof.add_verb(self.phase, msgs, rtts, wire);
            self.telem.series.add_verb(t0, msgs, rtts, wire);
        }
        wire
    }

    /// One-sided READ of `dst.len()` bytes at `addr`.
    pub fn read(&mut self, addr: GlobalAddr, dst: &mut [u8]) {
        let t0 = self.clock_ns;
        self.fault_enter(VerbKind::Read, addr.raw());
        self.pool
            .mn(addr.mn())
            .region()
            .read(addr.offset() as usize, dst);
        self.stats.reads += 1;
        let wire = self.charge(addr.mn(), 1, dst.len() as u64, 1);
        self.pool.mn(addr.mn()).note_traffic(1, wire);
        self.trace_verb(t0, "read", addr, wire, 1);
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
            self.pool
                .mn(addr.mn())
                .region()
                .read(addr.offset() as usize, dst);
            self.pool
                .mn(addr.mn())
                .note_traffic(1, dst.len() as u64 + overhead);
            payload += dst.len() as u64;
            self.stats.reads += 1;
        }
        let msgs = reqs.len() as u64;
        let wire = self.charge(reqs[0].0.mn(), msgs, payload, 1);
        self.trace_verb(t0, "read", reqs[0].0, wire, msgs);
    }

    /// One-sided WRITE of `src` at `addr`.
    pub fn write(&mut self, addr: GlobalAddr, src: &[u8]) {
        let t0 = self.clock_ns;
        let f = self.fault_enter(VerbKind::Write, addr.raw());
        if let Some((lines, heal_after)) = f.torn {
            self.torn_write(&[(addr, src)], lines, heal_after);
        } else {
            self.pool
                .mn(addr.mn())
                .region()
                .write(addr.offset() as usize, src);
        }
        self.stats.writes += 1;
        let wire = self.charge(addr.mn(), 1, src.len() as u64, 1);
        self.pool.mn(addr.mn()).note_traffic(1, wire);
        self.trace_verb(t0, "write", addr, wire, 1);
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
            self.pool
                .mn(addr.mn())
                .note_traffic(1, src.len() as u64 + overhead);
            payload += src.len() as u64;
            self.stats.writes += 1;
        }
        let msgs = reqs.len() as u64;
        let wire = self.charge(reqs[0].0.mn(), msgs, payload, 1);
        self.trace_verb(t0, "write", reqs[0].0, wire, msgs);
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
        let t0 = self.clock_ns;
        let f = self.fault_enter(VerbKind::Cas, addr.raw());
        self.stats.atomics += 1;
        let wire = self.charge(addr.mn(), 1, 16, 1);
        self.pool.mn(addr.mn()).note_traffic(1, wire);
        self.trace_verb(t0, "cas", addr, wire, 1);
        let region = self.pool.mn(addr.mn()).region();
        let off = addr.offset() as usize;
        if f.fail_cas {
            // Completion dropped: nothing executes, and the reported old
            // value is made to conflict with `compare` so the caller sees a
            // clean failure and retries.
            let cur = region.atomic_rmw_u64(off, |_| None);
            return if cur == compare { cur ^ 1 } else { cur };
        }
        let old = region.atomic_rmw_u64(off, |cur| (cur == compare).then_some(swap));
        if f.duplicate {
            // Retransmitted completion: the atomic executes a second time.
            region.atomic_rmw_u64(off, |cur| (cur == compare).then_some(swap));
        }
        old
    }

    /// RDMA masked compare-and-swap (ConnectX extended atomic).
    ///
    /// Compares only the bits selected by `compare_mask`; on success swaps
    /// only the bits selected by `swap_mask`. Always returns the full
    /// previous 8-byte value, which is how CHIME piggybacks the vacancy
    /// bitmap onto lock acquisition.
    pub fn masked_cas(
        &mut self,
        addr: GlobalAddr,
        compare: u64,
        compare_mask: u64,
        swap: u64,
        swap_mask: u64,
    ) -> u64 {
        let t0 = self.clock_ns;
        let f = self.fault_enter(VerbKind::MaskedCas, addr.raw());
        self.stats.atomics += 1;
        let wire = self.charge(addr.mn(), 1, 32, 1);
        self.pool.mn(addr.mn()).note_traffic(1, wire);
        self.trace_verb(t0, "masked_cas", addr, wire, 1);
        let region = self.pool.mn(addr.mn()).region();
        let off = addr.offset() as usize;
        let apply = |cur: u64| {
            (cur & compare_mask == compare & compare_mask)
                .then_some((cur & !swap_mask) | (swap & swap_mask))
        };
        if f.fail_cas {
            // Completion dropped: flip the lowest compared bit of the
            // reported old value if it would have matched, so the caller
            // observes a spurious conflict.
            let cur = region.atomic_rmw_u64(off, |_| None);
            let flip = if compare_mask == 0 {
                1
            } else {
                compare_mask & compare_mask.wrapping_neg()
            };
            return if cur & compare_mask == compare & compare_mask {
                cur ^ flip
            } else {
                cur
            };
        }
        let old = region.atomic_rmw_u64(off, apply);
        if f.duplicate {
            region.atomic_rmw_u64(off, apply);
        }
        old
    }

    /// RDMA fetch-and-add on the 8-byte word at `addr`; returns the old value.
    pub fn faa(&mut self, addr: GlobalAddr, add: u64) -> u64 {
        let t0 = self.clock_ns;
        let f = self.fault_enter(VerbKind::Faa, addr.raw());
        self.stats.atomics += 1;
        let wire = self.charge(addr.mn(), 1, 16, 1);
        self.pool.mn(addr.mn()).note_traffic(1, wire);
        self.trace_verb(t0, "faa", addr, wire, 1);
        let region = self.pool.mn(addr.mn()).region();
        let off = addr.offset() as usize;
        let old = region.atomic_rmw_u64(off, |cur| Some(cur.wrapping_add(add)));
        if f.duplicate {
            // Retransmitted completion: the add lands twice.
            region.atomic_rmw_u64(off, |cur| Some(cur.wrapping_add(add)));
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
        self.stats.rpcs += 1;
        self.stats.msgs += 2;
        self.stats.rtts += 1;
        self.stats.wire_bytes += wire;
        let t0a = self.clock_ns;
        let dt = self.pool.net().alloc_rpc_ns;
        self.advance(dt);
        self.prof.add_verb(self.phase, 2, 1, wire);
        self.telem.series.add_verb(t0a, 2, 1, wire);
        self.pool.mn(mn).note_traffic(2, wire);
        self.trace_verb(t0, "alloc", GlobalAddr::new(mn, 0), wire, 2);
        r
    }
}

#[cfg(test)]
mod tests {
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
        let last = t.events().last().unwrap();
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
