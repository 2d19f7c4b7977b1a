//! Phase-attribution profiling: where an operation spends its virtual time.
//!
//! CHIME's performance story is a story about round trips — cache-miss
//! traversal vs. lock acquisition vs. the leaf-neighborhood READ vs. the
//! speculative-read fallback. This module gives the stack a fixed [`Phase`]
//! taxonomy, a deterministic fixed-bucket [`LatencyHist`], and an
//! [`OpProfile`] accumulator that attributes every charged nanosecond, verb,
//! round trip and wire byte to exactly one phase, plus every retry to a
//! [`RetryCause`]. Everything is integer arithmetic on the virtual clock, so
//! two identical runs produce bit-identical profiles.

use crate::event::Event;
use crate::metrics::HistogramSummary;

/// Where inside an index operation time is being spent.
///
/// The active phase is ambient state on the endpoint: whatever the clock is
/// charged while a phase is open is attributed to that phase (exclusively —
/// a nested phase takes over until it closes). Time charged outside any
/// annotation lands in [`Phase::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Phase {
    /// Unattributed time (bench harness gaps, unannotated code paths).
    #[default]
    Other = 0,
    /// Probing the local internal-node cache (no remote verbs expected).
    CacheLookup,
    /// Walking internal levels remotely on a cache miss (B-link descent,
    /// root refresh, parent lookup).
    Traversal,
    /// Acquiring a leaf or internal lock word (CAS loop, lease takeover).
    LockAcquire,
    /// READing leaf data: hopscotch neighborhood, hop window, full leaf.
    LeafRead,
    /// The hotspot-buffer speculative leaf read (hit or miss).
    SpeculativeRead,
    /// WRITEs installing new state and releasing locks.
    WriteBack,
    /// Consistency checks that re-read remote state: fence chase,
    /// sibling-pointer chase.
    Validate,
    /// Seeded exponential backoff between retries.
    RetryBackoff,
    /// Scan-specific chain walking: bridging leaves missing from the parent.
    ScanChain,
    /// Waiting on a completion queue beyond a verb's uncontended service
    /// time: doorbell-batch chaining and in-order QP delivery delay under
    /// pipelined (multi-coroutine) clients.
    CqWait,
    /// Parsing request frames off a connection's byte stream (serve layer).
    Decode,
    /// Waiting for (or being refused) a connection-admission permit.
    Admission,
    /// Deferred behind the CQ-depth backpressure watermark before the index
    /// op was allowed to issue verbs.
    QueueWait,
    /// Encoding and writing the response frame back to the connection.
    Respond,
    /// Partition-routing work: reading the routing-table epoch and home
    /// words, refreshing the CN-cached partition map.
    Route,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 16;

impl Phase {
    /// Every phase, in stable display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Other,
        Phase::CacheLookup,
        Phase::Traversal,
        Phase::LockAcquire,
        Phase::LeafRead,
        Phase::SpeculativeRead,
        Phase::WriteBack,
        Phase::Validate,
        Phase::RetryBackoff,
        Phase::ScanChain,
        Phase::CqWait,
        Phase::Decode,
        Phase::Admission,
        Phase::QueueWait,
        Phase::Respond,
        Phase::Route,
    ];

    /// Stable `snake_case` name used in metric labels and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Other => "other",
            Phase::CacheLookup => "cache_lookup",
            Phase::Traversal => "traversal",
            Phase::LockAcquire => "lock_acquire",
            Phase::LeafRead => "leaf_read",
            Phase::SpeculativeRead => "speculative_read",
            Phase::WriteBack => "write_back",
            Phase::Validate => "validate",
            Phase::RetryBackoff => "retry_backoff",
            Phase::ScanChain => "scan_chain",
            Phase::CqWait => "cq_wait",
            Phase::Decode => "decode",
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::Respond => "respond",
            Phase::Route => "route",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Why an operation (or sub-loop) had to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RetryCause {
    /// A torn/in-flight write was observed (leaf version words disagreed).
    VersionMismatch = 0,
    /// The lock word was held by another client.
    LockConflict,
    /// The leaf reached via cache/sibling pointers no longer covers the key
    /// (concurrent split/merge moved it).
    StaleSibling,
    /// A cached internal route was invalid (stale node, dead parent).
    StaleRoute,
    /// The fault engine injected the failure that triggered the retry.
    InjectedFault,
}

/// Number of retry causes (length of [`RetryCause::ALL`]).
pub const NUM_RETRY_CAUSES: usize = 5;

impl RetryCause {
    /// Every cause, in stable display order.
    pub const ALL: [RetryCause; NUM_RETRY_CAUSES] = [
        RetryCause::VersionMismatch,
        RetryCause::LockConflict,
        RetryCause::StaleSibling,
        RetryCause::StaleRoute,
        RetryCause::InjectedFault,
    ];

    /// Stable `snake_case` name used in metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RetryCause::VersionMismatch => "version_mismatch",
            RetryCause::LockConflict => "lock_conflict",
            RetryCause::StaleSibling => "stale_sibling",
            RetryCause::StaleRoute => "stale_route",
            RetryCause::InjectedFault => "injected_fault",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Fixed-bucket latency histogram
// ---------------------------------------------------------------------------

/// Mantissa bits per octave: 8 sub-buckets, ≤ 12.5% relative bucket width.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Bucket count: values `0..8` map 1:1, then 8 sub-buckets per power of two
/// up to `u64::MAX` (61 octaves).
pub const HIST_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let exp = msb - SUB_BITS as u64;
    let mantissa = (v >> exp) & (SUB - 1);
    ((exp + 1) * SUB + mantissa) as usize
}

/// Inclusive upper bound of bucket `b` — the value quantiles report.
fn bound_of(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let exp = b / SUB - 1;
    let mantissa = b % SUB;
    // u128 keeps the top bucket's bound (2^64 - 1) from overflowing.
    ((((SUB + mantissa + 1) as u128) << exp) - 1) as u64
}

/// A deterministic fixed-bucket integer histogram (HDR-style: 8 sub-buckets
/// per octave, ≤ 12.5% relative error). Quantiles report the inclusive
/// upper bound of the selected bucket, so they are a pure function of the
/// recorded multiset — identical runs summarize to identical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples, ns.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bound_of(b);
            }
        }
        bound_of(HIST_BUCKETS - 1)
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The samples recorded since `prev` (bucket-wise subtraction); `prev`
    /// must be an earlier snapshot of this histogram.
    pub fn since(&self, prev: &LatencyHist) -> LatencyHist {
        let mut out = LatencyHist::new();
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i] - prev.buckets[i];
        }
        out.count = self.count - prev.count;
        out.sum = self.sum - prev.sum;
        out
    }

    /// Five-number summary (count, mean, p50/p90/p99, max). The maximum is
    /// the upper bound of the highest non-empty bucket.
    pub fn summary(&self) -> HistogramSummary {
        let max_ns = self
            .buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &n)| n > 0)
            .map(|(b, _)| bound_of(b))
            .unwrap_or(0);
        HistogramSummary {
            count: self.count,
            mean_ns: self.sum.checked_div(self.count).unwrap_or(0),
            p50_ns: self.quantile(0.5),
            p90_ns: self.quantile(0.9),
            p99_ns: self.quantile(0.99),
            max_ns,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-phase accumulator and the operation profile
// ---------------------------------------------------------------------------

/// What one phase accumulated: exclusive virtual time, verbs, round trips,
/// wire bytes, plus an episode-duration histogram (inclusive per entry).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseAcc {
    /// Exclusive virtual nanoseconds charged while this phase was active.
    pub ns: u64,
    /// Verbs issued while this phase was active.
    pub verbs: u64,
    /// Round trips charged while this phase was active.
    pub rtts: u64,
    /// Wire bytes charged while this phase was active.
    pub wire_bytes: u64,
    /// Times the phase was entered (episodes).
    pub episodes: u64,
    /// Inclusive per-episode duration histogram, ns.
    pub hist: LatencyHist,
}

impl PhaseAcc {
    fn merge(&mut self, other: &PhaseAcc) {
        self.ns += other.ns;
        self.verbs += other.verbs;
        self.rtts += other.rtts;
        self.wire_bytes += other.wire_bytes;
        self.episodes += other.episodes;
        self.hist.merge(&other.hist);
    }

    fn since(&self, prev: &PhaseAcc) -> PhaseAcc {
        PhaseAcc {
            ns: self.ns - prev.ns,
            verbs: self.verbs - prev.verbs,
            rtts: self.rtts - prev.rtts,
            wire_bytes: self.wire_bytes - prev.wire_bytes,
            episodes: self.episodes - prev.episodes,
            hist: self.hist.since(&prev.hist),
        }
    }
}

/// The full phase/retry attribution a client accumulated.
///
/// Kept on the endpoint and always on (integer adds on the hot path), so
/// profiles exist even when event tracing is disabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    phases: [PhaseAcc; NUM_PHASES],
    retries: [u64; NUM_RETRY_CAUSES],
}

impl OpProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in: phase time, verbs, phase episodes (one
    /// inclusive duration each) and retries, each charged to its phase or
    /// cause.
    #[inline(always)]
    pub fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::Time { phase, ns } => self.phases[phase.idx()].ns += ns,
            Event::Verb {
                phase,
                msgs,
                rtts,
                wire_bytes,
                ..
            } => {
                let acc = &mut self.phases[phase.idx()];
                acc.verbs += msgs;
                acc.rtts += rtts;
                acc.wire_bytes += wire_bytes;
            }
            Event::PhaseEnd { phase, dur_ns } => {
                let acc = &mut self.phases[phase.idx()];
                acc.episodes += 1;
                acc.hist.record(dur_ns);
            }
            Event::Retry { cause, .. } => self.retries[cause.idx()] += 1,
            _ => {}
        }
    }

    /// The accumulator for `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseAcc {
        &self.phases[phase.idx()]
    }

    /// Retries recorded for `cause`.
    pub fn retry_count(&self, cause: RetryCause) -> u64 {
        self.retries[cause.idx()]
    }

    /// Total retries across all causes.
    pub fn retries_total(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// Adds another profile into this one.
    pub fn merge(&mut self, other: &OpProfile) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        for (a, b) in self.retries.iter_mut().zip(other.retries.iter()) {
            *a += b;
        }
    }

    /// What accumulated since `prev` (an earlier snapshot of this profile).
    pub fn since(&self, prev: &OpProfile) -> OpProfile {
        let mut out = OpProfile::new();
        for (i, o) in out.phases.iter_mut().enumerate() {
            *o = self.phases[i].since(&prev.phases[i]);
        }
        for (i, o) in out.retries.iter_mut().enumerate() {
            *o = self.retries[i] - prev.retries[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verb(phase: Phase, wire_bytes: u64) -> Event {
        let (verb, mn, addr, msgs, rtts, dur_ns, delay_ns) = ("read", 0, 0, 1, 1, 0, 0);
        Event::Verb { verb, mn, addr, msgs, rtts, wire_bytes, dur_ns, delay_ns, phase }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == prev || b == prev + 1, "gap at {v}: {prev} -> {b}");
            assert!(v <= bound_of(b), "{v} above bound {}", bound_of(b));
            if b > 0 {
                assert!(v > bound_of(b - 1), "{v} within previous bucket");
            }
            prev = b;
        }
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [100u64, 1_000, 50_000, 3_000_000, u64::MAX / 2] {
            let ub = bound_of(bucket_of(v));
            assert!(ub >= v);
            assert!((ub - v) as f64 <= 0.125 * v as f64 + 1.0, "{v} -> {ub}");
        }
    }

    #[test]
    fn quantiles_and_summary() {
        let mut h = LatencyHist::new();
        for v in 1..=100u64 {
            h.record(v * 1_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        // Bucket upper bounds at most 12.5% above the exact quantile.
        assert!(s.p50_ns >= 50_000 && s.p50_ns <= 57_000, "{}", s.p50_ns);
        assert!(s.p90_ns >= 90_000 && s.p90_ns <= 102_000, "{}", s.p90_ns);
        assert!(s.p99_ns >= 99_000 && s.p99_ns <= 112_000, "{}", s.p99_ns);
        assert!(s.max_ns >= 100_000);
        assert_eq!(s.mean_ns, 50_500);
        assert_eq!(LatencyHist::new().summary(), HistogramSummary::default());
    }

    #[test]
    fn merge_and_since_are_inverse() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for v in [10u64, 200, 3_000, 44_000] {
            a.record(v);
        }
        let snap = a.clone();
        for v in [7u64, 900_000] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.since(&snap), b);
        let mut m = snap.clone();
        m.merge(&b);
        assert_eq!(m, a);
    }

    #[test]
    fn profile_attributes_and_deltas() {
        let mut p = OpProfile::new();
        p.fold(&Event::Time { phase: Phase::Traversal, ns: 5_000 });
        p.fold(&verb(Phase::Traversal, 512));
        p.fold(&Event::PhaseEnd { phase: Phase::Traversal, dur_ns: 5_000 });
        p.fold(&Event::Retry { cause: RetryCause::LockConflict, op: false });
        let snap = p.clone();
        p.fold(&Event::Time { phase: Phase::LeafRead, ns: 2_000 });
        p.fold(&verb(Phase::LeafRead, 256));
        p.fold(&Event::PhaseEnd { phase: Phase::LeafRead, dur_ns: 2_000 });
        p.fold(&Event::Retry { cause: RetryCause::LockConflict, op: false });
        p.fold(&Event::Retry { cause: RetryCause::VersionMismatch, op: false });

        let d = p.since(&snap);
        assert_eq!(d.phase(Phase::Traversal).ns, 0);
        assert_eq!(d.phase(Phase::LeafRead).ns, 2_000);
        assert_eq!(d.phase(Phase::LeafRead).verbs, 1);
        assert_eq!(d.retry_count(RetryCause::LockConflict), 1);
        assert_eq!(d.retry_count(RetryCause::VersionMismatch), 1);
        assert_eq!(d.retries_total(), 2);

        let mut m = snap.clone();
        m.merge(&d);
        assert_eq!(m, p);
    }

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_PHASES);
        let mut causes: Vec<&str> = RetryCause::ALL.iter().map(|c| c.as_str()).collect();
        causes.sort_unstable();
        causes.dedup();
        assert_eq!(causes.len(), NUM_RETRY_CAUSES);
    }
}
