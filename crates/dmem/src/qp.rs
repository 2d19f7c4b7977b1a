//! Posted work queues, doorbell batching, and the completion-queue model.
//!
//! Real RNICs decouple *posting* a work-queue entry (WQE) from *reaping* its
//! completion (CQE): a client thread (or coroutine) posts one or more WQEs,
//! rings the doorbell once, and later polls the completion queue. The paper
//! runs 64 clients per CN as threads + coroutines precisely to exploit that
//! split — while one coroutine waits for its completion, the others post
//! their own verbs, and WQEs posted within one scheduling quantum to the
//! same memory node share a single doorbell (one round trip).
//!
//! This module gives the simulator that model without giving up
//! determinism:
//!
//! * [`Qp`] — per-client queue-pair state: one logical channel per memory
//!   node, a sliding doorbell-batch window ([`QUANTUM_NS`]), the
//!   in-order completion rule of an RC QP, and exact batch-size /
//!   CQ-depth statistics;
//! * [`Qp::post_wqe`] / [`Qp::poll_wqe`] — the two-phase discipline: every
//!   posted WQE's [`WqeTicket`] is `#[must_use]` and consumed by its poll;
//! * [`LaneHook`] — the thread-local seam the coroutine scheduler
//!   (`crates/sched`) installs so that unmodified synchronous index code
//!   parks at every verb boundary. Without a hook installed, every verb
//!   completes inline with the exact pre-pipelining latency formula, so
//!   serial runs are bit-for-bit unchanged.
//!
//! [`Qp::post_wqe`] prices a verb on its MN's channel. The **opener** of a
//! window pays the full `verb_latency_ns` (one RTT, streaming, per-message
//! gaps), clamped in order: a channel's completions never reorder. A
//! **joiner** posted within [`QUANTUM_NS`] of the previous post, while the
//! batch holds at most [`MAX_BATCH`] messages, shares the doorbell: no RTT,
//! only its gaps and streaming time, chained behind the batch tail. That is
//! pipelining's modeled gain — K lanes posting back to back collapse K round
//! trips into one. A WQE's issue-to-completion gap splits into `service_ns`
//! (what the serial model charges) and `cq_wait_ns` (queueing behind
//! batch-mates), charged to the `cq_wait` phase, so per-phase time still
//! sums to the clock; [`crate::net::RunAccounting::sum_busy_ns`] turns the
//! overlap into modeled throughput.
//!
//! All timestamps are virtual nanoseconds; nothing here reads a wall clock.

use std::cell::RefCell;

use crate::net::NetConfig;

/// Per-WQE chaining gap inside one doorbell batch, ns. Matches the
/// `(msgs - 1) * 80` term of [`NetConfig::verb_latency_ns`] so a doorbell
/// batch assembled across coroutines costs exactly what the same WQEs
/// posted as one explicit batch would.
pub const WQE_GAP_NS: u64 = 80;

/// Sliding doorbell-batching window, ns: a WQE posted within this of the
/// previous post to the same memory node joins its open doorbell batch
/// instead of paying a fresh round trip. The window is far below one RTT,
/// so batches form only among WQEs posted "simultaneously" (one scheduler
/// pass over the runnable coroutines), never across waves.
pub const QUANTUM_NS: u64 = 200;

/// Maximum WQEs per doorbell batch (NIC doorbell list limit).
pub const MAX_BATCH: u64 = 16;

/// A posted-but-unpolled WQE. Returned by [`Qp::post_wqe`]; must reach
/// [`Qp::poll_wqe`], which consumes it, so one completion is reaped once:
///
/// ```
/// # use dmem::qp::Qp;
/// let mut q = Qp::new(dmem::NetConfig::default(), 1);
/// let t = q.post_wqe(0, 0, 1, 64, 7);
/// assert_eq!((q.outstanding_len(), t.trace), (1, 7));
/// let done = t.completion_ns;
/// assert_eq!(q.poll_wqe(t).completion_ns, done);
/// assert_eq!(q.outstanding_len(), 0);
/// ```
///
/// A ticket is polled once:
///
/// ```compile_fail,E0382
/// # use dmem::qp::Qp;
/// let mut q = Qp::new(dmem::NetConfig::default(), 1);
/// let t = q.post_wqe(0, 0, 1, 64, 0);
/// q.poll_wqe(t);
/// q.poll_wqe(t); // a second poll of the same ticket
/// ```
///
/// cannot be copied to poll it twice:
///
/// ```compile_fail,E0599
/// # use dmem::qp::Qp;
/// let mut q = Qp::new(dmem::NetConfig::default(), 1);
/// let t = q.post_wqe(0, 0, 1, 64, 0);
/// q.poll_wqe(t.clone());
/// q.poll_wqe(t);
/// ```
///
/// is never dropped unpolled without a warning:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// # use dmem::qp::Qp;
/// let mut q = Qp::new(dmem::NetConfig::default(), 1);
/// q.post_wqe(0, 0, 1, 64, 0);
/// ```
///
/// and is only made by [`Qp::post_wqe`], so a poll reaps a real completion:
///
/// ```compile_fail,E0063
/// # use dmem::qp::Qp;
/// let mut q = Qp::new(dmem::NetConfig::default(), 1);
/// q.poll_wqe(dmem::WqeTicket { completion_ns: 0, trace: 0 });
/// ```
#[derive(Debug)]
#[must_use = "reap the completion with Qp::poll_wqe"]
pub struct WqeTicket {
    /// Virtual timestamp at which the CQE for this WQE is delivered.
    pub completion_ns: u64,
    /// Causal trace id of the operation that posted this WQE (0 = untraced).
    pub trace: u64,
    outcome: WqeOutcome,
}

/// The accounting outcome of one completed WQE (or doorbell batch member).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WqeOutcome {
    /// Virtual timestamp of the completion.
    pub completion_ns: u64,
    /// Uncontended service time: what this WQE costs with nothing else in
    /// flight (attributed to the caller's active phase).
    pub service_ns: u64,
    /// Completion-queue wait beyond the service time: doorbell chaining and
    /// in-order delivery delay (attributed to the `cq_wait` phase).
    pub cq_wait_ns: u64,
    /// Round trips charged: 1 when this WQE opened a doorbell batch, 0 when
    /// it rode an already-rung doorbell.
    pub rtts: u64,
    /// Whether this WQE joined an open batch instead of opening one.
    pub batched: bool,
}

/// A small exact integer histogram for batch sizes and CQ depths.
///
/// Values above the fixed range collapse into the top bucket; quantiles are
/// a pure function of the recorded multiset, so identical runs summarize to
/// identical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountHist {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl CountHist {
    /// Creates a histogram over `0..=max` (values above clamp to `max`).
    pub fn new(max: usize) -> Self {
        CountHist {
            counts: vec![0; max + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let i = (v as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (v, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return v as u64;
            }
        }
        (self.counts.len() - 1) as u64
    }

    /// Largest recorded value (clamped to the range; 0 when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&n| n > 0)
            .map(|i| i as u64)
            .unwrap_or(0)
    }

    /// Adds another histogram's observations into this one (ranges must
    /// match).
    pub fn merge(&mut self, other: &CountHist) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Deterministic counters a [`Qp`] accumulates over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QpStats {
    /// WQEs posted.
    pub posted: u64,
    /// Doorbells rung (batches opened).
    pub doorbells: u64,
    /// WQEs that joined an open batch (rode someone else's doorbell).
    pub batched_wqes: u64,
    /// Doorbell batch sizes, recorded when each batch closes.
    pub batch_hist: CountHist,
    /// Outstanding completions at each post (CQ depth, including self).
    pub depth_hist: CountHist,
}

impl Default for QpStats {
    fn default() -> Self {
        QpStats {
            posted: 0,
            doorbells: 0,
            batched_wqes: 0,
            batch_hist: CountHist::new(BATCH_HIST_MAX),
            depth_hist: CountHist::new(DEPTH_HIST_MAX),
        }
    }
}

impl QpStats {
    /// Merges another QP's counters into this one.
    pub fn merge(&mut self, other: &QpStats) {
        self.posted += other.posted;
        self.doorbells += other.doorbells;
        self.batched_wqes += other.batched_wqes;
        self.batch_hist.merge(&other.batch_hist);
        self.depth_hist.merge(&other.depth_hist);
    }
}

/// Histogram range for doorbell batch sizes (≥ [`MAX_BATCH`]; larger
/// batches clamp).
pub const BATCH_HIST_MAX: usize = 32;

/// Histogram range for CQ depths (≥ lanes per client in practical use).
pub const DEPTH_HIST_MAX: usize = 64;

/// One logical channel: the (client, memory-node) work-queue pair.
#[derive(Debug, Clone, Copy, Default)]
struct Chan {
    /// Virtual time of the last post to this channel.
    last_post_ns: u64,
    /// WQEs in the currently open doorbell batch (0 = none open).
    batch_msgs: u64,
    /// Completion timestamp of the open batch's tail WQE.
    batch_tail_ns: u64,
    /// Completion timestamp of the last WQE overall (RC in-order floor).
    last_completion_ns: u64,
}

/// Per-client queue-pair + completion-queue state, shared by all of the
/// client's coroutine lanes.
///
/// Posting is two-phase: [`Qp::post_wqe`] computes the completion timestamp
/// (ringing or riding a doorbell) and registers the WQE as outstanding;
/// [`Qp::poll_wqe`] reaps it. The split exists so the coroutine scheduler
/// can park a lane between post and poll.
#[derive(Debug)]
pub struct Qp {
    net: NetConfig,
    chans: Vec<Chan>,
    /// Completion timestamps of posted-but-unpolled WQEs.
    outstanding: Vec<u64>,
    stats: QpStats,
}

impl Qp {
    /// Creates the QP state for one client reaching `mns` memory nodes.
    pub fn new(net: NetConfig, mns: u16) -> Self {
        Qp {
            net,
            chans: vec![Chan::default(); mns.max(1) as usize],
            outstanding: Vec::new(),
            stats: QpStats::default(),
        }
    }

    /// Posts `msgs` work requests (`wire_bytes` total on the wire, headers
    /// included) to memory node `mn` at virtual time `now_ns`.
    ///
    /// Joins the channel's open doorbell batch when posted within
    /// [`QUANTUM_NS`] of the previous post and the batch has
    /// room; otherwise rings a fresh doorbell (one round trip).
    /// `trace` is the causal trace id of the posting operation; it rides
    /// the ticket so completions stay attributable (0 = untraced).
    pub fn post_wqe(
        &mut self,
        now_ns: u64,
        mn: u16,
        msgs: u64,
        wire_bytes: u64,
        trace: u64,
    ) -> WqeTicket {
        let stream_ns = (wire_bytes as f64 / self.net.bandwidth_bps * 1e9) as u64;
        let ci = (mn as usize).min(self.chans.len() - 1);
        let ch = &mut self.chans[ci];
        let joins = ch.batch_msgs > 0
            && now_ns >= ch.last_post_ns
            && now_ns <= ch.last_post_ns + QUANTUM_NS
            && ch.batch_msgs + msgs <= MAX_BATCH;
        let outcome = if joins {
            // Ride the open doorbell: no new round trip, the WQE chains
            // behind the batch tail.
            ch.batch_msgs += msgs;
            let completion = ch.batch_tail_ns + msgs * WQE_GAP_NS + stream_ns;
            ch.batch_tail_ns = completion;
            self.stats.batched_wqes += msgs;
            WqeOutcome {
                completion_ns: completion,
                service_ns: msgs * WQE_GAP_NS + stream_ns,
                cq_wait_ns: (completion - now_ns).saturating_sub(msgs * WQE_GAP_NS + stream_ns),
                rtts: 0,
                batched: true,
            }
        } else {
            // Close the previous batch (if any) into the size histogram and
            // ring a new doorbell. RC QPs complete in order: a later
            // doorbell never completes before an earlier WQE.
            if ch.batch_msgs > 0 {
                self.stats.batch_hist.record(ch.batch_msgs);
            }
            let service = self.net.verb_latency_ns(msgs, wire_bytes);
            let ideal = now_ns + service;
            let completion = ideal.max(ch.last_completion_ns + WQE_GAP_NS);
            ch.batch_msgs = msgs;
            ch.batch_tail_ns = completion;
            self.stats.doorbells += 1;
            WqeOutcome {
                completion_ns: completion,
                service_ns: service,
                cq_wait_ns: completion - ideal,
                rtts: 1,
                batched: false,
            }
        };
        ch.last_post_ns = now_ns;
        ch.last_completion_ns = outcome.completion_ns;
        self.stats.posted += msgs;
        // CQ depth at post time: completions still pending, this WQE
        // included.
        self.outstanding.retain(|&c| c > now_ns);
        self.outstanding.push(outcome.completion_ns);
        self.stats.depth_hist.record(self.outstanding.len() as u64);
        WqeTicket {
            completion_ns: outcome.completion_ns,
            trace,
            outcome,
        }
    }

    /// Reaps the completion of a posted WQE, removing it from the
    /// outstanding set and returning its accounting outcome.
    pub fn poll_wqe(&mut self, ticket: WqeTicket) -> WqeOutcome {
        if let Some(i) = self
            .outstanding
            .iter()
            .position(|&c| c == ticket.completion_ns)
        {
            self.outstanding.swap_remove(i);
        }
        ticket.outcome
    }

    /// Flushes open doorbell batches into the batch-size histogram. Call
    /// once when the client's lanes have drained.
    pub fn finish(&mut self) {
        for ch in &mut self.chans {
            if ch.batch_msgs > 0 {
                self.stats.batch_hist.record(ch.batch_msgs);
                ch.batch_msgs = 0;
            }
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &QpStats {
        &self.stats
    }

    /// Drops outstanding entries whose completions are at or before
    /// `now_ns`, so [`Qp::outstanding_len`] reflects the CQ depth *as of*
    /// that virtual instant rather than as of the last post.
    pub fn expire_before(&mut self, now_ns: u64) {
        self.outstanding.retain(|&c| c > now_ns);
    }

    /// Completions currently pending (posted but neither polled nor expired
    /// via [`Qp::expire_before`]). The serve layer's backpressure watermark
    /// reads this as the live CQ depth.
    pub fn outstanding_len(&self) -> u64 {
        self.outstanding.len() as u64
    }
}

// ---------------------------------------------------------------------------
// The lane hook: how a coroutine scheduler intercepts verb boundaries
// ---------------------------------------------------------------------------

/// The seam between [`crate::verbs::Endpoint`] and a coroutine scheduler.
///
/// A scheduler installs one hook per lane (see [`install_lane_hook`]);
/// every verb the lane's endpoint issues then routes through
/// [`LaneHook::post`], which may suspend the lane until the scheduler
/// decides this lane's completion is the earliest pending event.
/// [`LaneHook::timer`] does the same for verb-free clock advances (backoff,
/// injected fault delays, allocation RPCs), so all virtual-time events
/// interleave in deterministic global order. The hook never leaves the
/// thread it was installed on, so it need not be `Send`.
pub trait LaneHook {
    /// Called when the lane posts `msgs` work requests (`wire_bytes` on the
    /// wire) to `mn` at lane-virtual time `now_ns`, stamped with the
    /// posting operation's causal `trace` id (0 = untraced). Returns once
    /// the completion may be consumed.
    fn post(&mut self, now_ns: u64, mn: u16, msgs: u64, wire_bytes: u64, trace: u64)
        -> WqeOutcome;

    /// Called when the lane's clock advances by `dt_ns` without posting a
    /// WQE. Returns once the lane may resume at `now_ns + dt_ns`.
    fn timer(&mut self, now_ns: u64, dt_ns: u64);

    /// The lane's completion-queue depth as of its own virtual now: the
    /// shared QP's [`Qp::outstanding_len`]. Read by [`lane_cq_depth`].
    fn cq_depth(&self) -> u64 {
        0
    }
}

thread_local! {
    /// The running lane's hook. Lanes that share a thread take turns in it:
    /// [`LaneHook::post`] and [`LaneHook::timer`] are called with the hook
    /// taken out, so a lane suspended inside one keeps its hook in its own
    /// stack frame and the slot is free for the lane that runs next.
    static LANE_HOOK: RefCell<Option<Box<dyn LaneHook>>> = const { RefCell::new(None) };
}

/// Installs `hook` as the current thread's lane hook. Panics if one is
/// already installed: a thread runs one lane at a time, and a suspended
/// lane's hook is out of the slot.
pub fn install_lane_hook(hook: Box<dyn LaneHook>) {
    LANE_HOOK.with(|h| {
        let mut slot = h.borrow_mut();
        assert!(slot.is_none(), "lane hook already installed on this thread");
        *slot = Some(hook);
    });
}

/// Removes and returns the current thread's lane hook, if any.
pub fn uninstall_lane_hook() -> Option<Box<dyn LaneHook>> {
    LANE_HOOK.take()
}

/// Whether a lane hook is installed on the current thread.
pub fn lane_active() -> bool {
    LANE_HOOK.with(|h| h.borrow().is_some())
}

/// The current lane's CQ depth through its hook; 0 off a lane.
pub fn lane_cq_depth() -> u64 {
    LANE_HOOK.with(|h| h.borrow().as_ref().map_or(0, |hook| hook.cq_depth()))
}

/// Routes a verb through the installed lane hook, if any. `None` means no
/// hook: the caller charges the serial inline latency instead.
pub(crate) fn hook_post(
    now_ns: u64,
    mn: u16,
    msgs: u64,
    wire_bytes: u64,
    trace: u64,
) -> Option<WqeOutcome> {
    let mut hook = LANE_HOOK.take()?;
    let outcome = hook.post(now_ns, mn, msgs, wire_bytes, trace);
    LANE_HOOK.set(Some(hook));
    Some(outcome)
}

/// Routes a verb-free clock advance through the installed lane hook.
pub(crate) fn hook_timer(now_ns: u64, dt_ns: u64) {
    if let Some(mut hook) = LANE_HOOK.take() {
        hook.timer(now_ns, dt_ns);
        LANE_HOOK.set(Some(hook));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> Qp {
        Qp::new(NetConfig::default(), 2)
    }

    #[test]
    fn lone_wqe_costs_the_serial_latency() {
        let mut q = qp();
        let net = NetConfig::default();
        let t = q.post_wqe(1_000, 0, 1, 100, 0);
        let out = q.poll_wqe(t);
        assert_eq!(out.rtts, 1);
        assert!(!out.batched);
        assert_eq!(out.service_ns, net.verb_latency_ns(1, 100));
        assert_eq!(out.cq_wait_ns, 0);
        assert_eq!(out.completion_ns, 1_000 + net.verb_latency_ns(1, 100));
    }

    #[test]
    fn posts_within_quantum_share_one_doorbell() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 1, 100, 0);
        let t2 = q.post_wqe(50, 0, 1, 100, 0); // within the 200 ns window
        assert!(t2.completion_ns > t1.completion_ns, "chains behind tail");
        let o1 = q.poll_wqe(t1);
        let o2 = q.poll_wqe(t2);
        assert_eq!(o1.rtts, 1);
        assert_eq!(o2.rtts, 0, "joiner rides the rung doorbell");
        assert!(o2.batched);
        assert_eq!(
            o2.completion_ns,
            o1.completion_ns + WQE_GAP_NS + o2.service_ns - WQE_GAP_NS
        );
        // The joiner's CQ wait covers the in-flight RTT it skipped.
        assert!(o2.cq_wait_ns > 0);
        q.finish();
        assert_eq!(q.stats().doorbells, 1);
        assert_eq!(q.stats().batched_wqes, 1);
        assert_eq!(q.stats().batch_hist.max(), 2);
    }

    #[test]
    fn posts_outside_quantum_ring_separate_doorbells() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 1, 100, 0);
        let t2 = q.post_wqe(1_000, 0, 1, 100, 0); // past the window
        let o1 = q.poll_wqe(t1);
        let o2 = q.poll_wqe(t2);
        assert_eq!(o1.rtts + o2.rtts, 2);
        assert!(!o2.batched);
        q.finish();
        assert_eq!(q.stats().doorbells, 2);
        assert_eq!(q.stats().batch_hist.count(), 2);
    }

    #[test]
    fn different_mns_never_share_a_doorbell() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 1, 100, 0);
        let t2 = q.post_wqe(0, 1, 1, 100, 0);
        assert_eq!(q.poll_wqe(t1).rtts, 1);
        assert_eq!(q.poll_wqe(t2).rtts, 1);
    }

    #[test]
    fn completions_are_in_order_per_channel() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 4, 4_000, 0);
        // A new doorbell well past the window but before t1 completes: its
        // completion must not overtake t1 (RC ordering).
        let t2 = q.post_wqe(500, 0, 1, 16, 0);
        assert!(t2.completion_ns >= t1.completion_ns + WQE_GAP_NS);
        let o2 = q.poll_wqe(t2);
        assert!(o2.cq_wait_ns > 0, "held back by in-order delivery");
        let _ = q.poll_wqe(t1);
    }

    #[test]
    fn max_batch_caps_doorbell_size() {
        let mut q = Qp::new(NetConfig::default(), 1);
        let mut rtts = 0;
        for _ in 0..3 * MAX_BATCH {
            let t = q.post_wqe(0, 0, 1, 64, 0);
            rtts += q.poll_wqe(t).rtts;
        }
        assert_eq!(rtts, 3, "full batches of {MAX_BATCH} ring one doorbell each");
        q.finish();
        assert_eq!(q.stats().batch_hist.max(), MAX_BATCH);
    }

    #[test]
    fn depth_histogram_sees_outstanding_completions() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 1, 64, 0);
        let t2 = q.post_wqe(10, 0, 1, 64, 0);
        assert_eq!(q.stats().depth_hist.max(), 2);
        let _ = q.poll_wqe(t1);
        let _ = q.poll_wqe(t2);
        // Post after both completions: depth back to 1 (self only).
        let t3 = q.post_wqe(1_000_000, 0, 1, 64, 0);
        let _ = q.poll_wqe(t3);
        assert_eq!(q.stats().depth_hist.quantile(0.01), 1);
    }

    #[test]
    fn a_poll_reaps_only_its_own_completion() {
        let mut q = qp();
        let t1 = q.post_wqe(0, 0, 1, 64, 1);
        let t2 = q.post_wqe(10, 1, 1, 64, 2);
        assert_eq!(q.outstanding_len(), 2);
        let done2 = t2.completion_ns;
        assert_eq!(q.poll_wqe(t2).completion_ns, done2);
        assert_eq!(q.outstanding_len(), 1, "t1 is still in flight");
        let _ = q.poll_wqe(t1);
        assert_eq!(q.outstanding_len(), 0);
    }

    #[test]
    fn count_hist_quantiles_and_merge() {
        let mut h = CountHist::new(8);
        for v in [1u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.max(), 8, "overflow clamps to the top bucket");
        let mut other = CountHist::new(8);
        other.record(4);
        h.merge(&other);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = QpStats::default();
        let mut q = qp();
        let t = q.post_wqe(0, 0, 1, 64, 0);
        let _ = q.poll_wqe(t);
        q.finish();
        a.merge(q.stats());
        a.merge(q.stats());
        assert_eq!(a.posted, 2);
        assert_eq!(a.doorbells, 2);
    }

    #[test]
    fn no_hook_means_inline_serial_path() {
        assert!(!lane_active());
        assert!(hook_post(0, 0, 1, 64, 0).is_none());
        hook_timer(0, 100); // no-op without a hook
        assert_eq!(lane_cq_depth(), 0);
    }
}
