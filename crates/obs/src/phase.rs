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
//!
//! Frames (`dmem::Endpoint::phase_begin`/`phase_end`, or the panic- and
//! early-return-safe `in_phase`) give two views. *Exclusive* time
//! ([`PhaseAcc::ns`]): a nested frame takes over until it closes, so the
//! phases sum exactly to the charged time. *Inclusive episodes*
//! ([`PhaseAcc::hist`]): each begin→end pair records its whole
//! duration, e.g. one `speculative_read` episode per speculative attempt.
//! Frames also emit `phase_begin`/`phase_end` trace events, so traces show
//! the phase structure inline with the verbs.
//!
//! [`LatencyHist`] maps values `0..8` one-to-one, then `SUB_BITS` = 3 mantissa
//! bits per octave: 496 buckets over all of `u64`, of which it stores only
//! the occupied range, with exact bucket-wise `merge` (across clients) and
//! `since` (around a measured window). The
//! bench driver keeps one per op type (read-modify-writes record as the op
//! they executed as) beside the per-phase episode histograms.

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

/// Buckets a histogram holds without a heap allocation: a phase whose
/// episodes all fall in this many adjacent buckets (a cache probe, a
/// repeated leaf READ) never allocates.
const INLINE_BUCKETS: usize = 4;

/// The stored bucket counts: inline while few, else on the heap.
#[derive(Debug, Clone)]
enum Counts {
    /// The first `len` entries; the rest are zero.
    Inline([u64; INLINE_BUCKETS]),
    /// Exactly `len` entries.
    Heap(Vec<u64>),
}

/// A deterministic fixed-bucket integer histogram (HDR-style: 8 sub-buckets
/// per octave, ≤ 12.5% relative error). Quantiles report the inclusive
/// upper bound of the selected bucket, so they are a pure function of the
/// recorded multiset — identical runs summarize to identical bytes.
///
/// Only the occupied bucket range is stored — a few buckets inline, more on
/// the heap — so an empty histogram owns no heap and clone, `merge` and
/// `since` cost the buckets in use.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    /// The bucket the first stored count counts; 0 while empty.
    lo: usize,
    /// Buckets stored: `lo..lo + len`. Empty, or the first and last are
    /// non-zero, so each multiset has one stored form.
    len: usize,
    counts: Counts,
    count: u64,
    sum: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            lo: 0,
            len: 0,
            counts: Counts::Inline([0; INLINE_BUCKETS]),
            count: 0,
            sum: 0,
        }
    }
}

/// Equal when the recorded multisets fall in the same buckets with the same
/// count and sum.
impl PartialEq for LatencyHist {
    fn eq(&self, o: &LatencyHist) -> bool {
        (self.lo, self.counts(), self.count, self.sum) == (o.lo, o.counts(), o.count, o.sum)
    }
}

impl Eq for LatencyHist {}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        let i = b.wrapping_sub(self.lo);
        if i < self.len {
            self.counts_mut()[i] += 1;
        } else {
            self.cover(b, b);
            let i = b - self.lo;
            self.counts_mut()[i] = 1;
        }
        self.count += 1;
        self.sum += v;
    }

    /// The stored counts, of buckets `lo..lo + len`.
    fn counts(&self) -> &[u64] {
        match &self.counts {
            Counts::Inline(a) => &a[..self.len],
            Counts::Heap(v) => v,
        }
    }

    fn counts_mut(&mut self) -> &mut [u64] {
        match &mut self.counts {
            Counts::Inline(a) => &mut a[..self.len],
            Counts::Heap(v) => v,
        }
    }

    /// Grows the stored range, with zeros, to include buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        let (lo, hi) = match self.len {
            0 => (lo, hi),
            n => (lo.min(self.lo), hi.max(self.lo + n - 1)),
        };
        // How far up the stored counts move.
        let shift = if self.len == 0 { 0 } else { self.lo - lo };
        let len = hi - lo + 1;
        match &mut self.counts {
            Counts::Inline(a) if len <= INLINE_BUCKETS => {
                a.copy_within(..self.len, shift);
                a[..shift].fill(0);
            }
            Counts::Inline(a) => {
                let mut v = Vec::with_capacity(len);
                v.resize(shift, 0);
                v.extend_from_slice(&a[..self.len]);
                v.resize(len, 0);
                self.counts = Counts::Heap(v);
            }
            Counts::Heap(v) => {
                v.splice(..0, std::iter::repeat_n(0, shift));
                v.resize(len, 0);
            }
        }
        self.lo = lo;
        self.len = len;
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
        for (i, &n) in self.counts().iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bound_of(self.lo + i);
            }
        }
        bound_of(HIST_BUCKETS - 1)
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.len > 0 {
            self.cover(other.lo, other.lo + other.len - 1);
            let at = other.lo - self.lo;
            for (a, b) in self.counts_mut()[at..].iter_mut().zip(other.counts()) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The samples recorded since `prev` (bucket-wise subtraction); `prev`
    /// must be an earlier snapshot of this histogram.
    pub fn since(&self, prev: &LatencyHist) -> LatencyHist {
        let before = prev.counts();
        let delta = |i: usize| {
            let b = (self.lo + i).wrapping_sub(prev.lo);
            self.counts()[i] - before.get(b).copied().unwrap_or(0)
        };
        let mut out = LatencyHist::new();
        if let Some(first) = (0..self.len).find(|&i| delta(i) > 0) {
            let last = (first..self.len)
                .rfind(|&i| delta(i) > 0)
                .expect("first is non-zero");
            out.cover(self.lo + first, self.lo + last);
            for (i, n) in out.counts_mut().iter_mut().enumerate() {
                *n = delta(first + i);
            }
        }
        out.count = self.count - prev.count;
        out.sum = self.sum - prev.sum;
        out
    }

    /// Five-number summary (count, mean, p50/p90/p99, max). The maximum is
    /// the upper bound of the highest non-empty bucket.
    pub fn summary(&self) -> HistogramSummary {
        let max_ns = self
            .counts()
            .iter()
            .rposition(|&n| n > 0)
            .map(|i| bound_of(self.lo + i))
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
    use proptest::prelude::*;

    /// The dense histogram the compact one replaced, every bucket stored:
    /// the reference the compact one must agree with.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct DenseHist {
        buckets: [u64; HIST_BUCKETS],
        count: u64,
        sum: u64,
    }

    impl Default for DenseHist {
        fn default() -> Self {
            DenseHist {
                buckets: [0; HIST_BUCKETS],
                count: 0,
                sum: 0,
            }
        }
    }

    impl DenseHist {
        fn record(&mut self, v: u64) {
            self.buckets[bucket_of(v)] += 1;
            self.count += 1;
            self.sum += v;
        }

        fn quantile(&self, q: f64) -> u64 {
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

        fn merge(&mut self, other: &DenseHist) {
            for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
        }

        fn since(&self, prev: &DenseHist) -> DenseHist {
            let mut out = DenseHist::default();
            for (i, o) in out.buckets.iter_mut().enumerate() {
                *o = self.buckets[i] - prev.buckets[i];
            }
            out.count = self.count - prev.count;
            out.sum = self.sum - prev.sum;
            out
        }

        fn summary(&self) -> HistogramSummary {
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

        /// The compact histogram's buckets, spread out.
        fn of(h: &LatencyHist) -> DenseHist {
            let mut d = DenseHist {
                count: h.count,
                sum: h.sum,
                ..DenseHist::default()
            };
            d.buckets[h.lo..h.lo + h.len].copy_from_slice(h.counts());
            d
        }
    }

    /// Both histograms of `values`, recorded in order.
    fn both(values: &[u64]) -> (LatencyHist, DenseHist) {
        let (mut h, mut d) = (LatencyHist::new(), DenseHist::default());
        for &v in values {
            h.record(v);
            d.record(v);
        }
        (h, d)
    }

    /// Whether `h` agrees with its reference `d` in every output, and keeps
    /// its one-representation form.
    fn agrees(h: &LatencyHist, d: &DenseHist) -> Result<(), TestCaseError> {
        let dense = DenseHist::of(h);
        let differs = (0..HIST_BUCKETS).find(|&b| dense.buckets[b] != d.buckets[b]);
        prop_assert!(differs.is_none(), "bucket {differs:?} differs: {h:?}");
        prop_assert_eq!((dense.count, dense.sum), (d.count, d.sum));
        let c = h.counts();
        let trimmed = c.first().is_none_or(|&n| n > 0) && c.last().is_none_or(|&n| n > 0);
        let inline_zeros = match &h.counts {
            Counts::Inline(a) => a[h.len..].iter().all(|&n| n == 0),
            Counts::Heap(v) => v.len() == h.len && h.len > INLINE_BUCKETS,
        };
        prop_assert!(trimmed && inline_zeros && (h.lo == 0 || h.len > 0), "{h:?}");
        prop_assert_eq!(h.summary(), d.summary());
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(h.quantile(q), d.quantile(q));
        }
        Ok(())
    }

    /// Sample values. Narrow cases draw from `[base, 1.5 base)`, the first
    /// four buckets of an octave, so the histogram stays inline while its
    /// range moves; wide cases draw 0, 7, 8 (the edges of the one-to-one
    /// buckets), small values, and up to 48-bit values spread over the
    /// octaves. `top` adds one top-bucket value, `u64::MAX` minus the rest's
    /// sum, so the sum never overflows and is `u64::MAX` itself when the
    /// rest are zeros.
    fn values(draws: Vec<(u8, u32, u64)>, narrow: Option<u64>, top: bool) -> Vec<u64> {
        let mut vs: Vec<u64> = draws
            .into_iter()
            .map(|(kind, shift, raw)| match (narrow, kind) {
                (Some(base), _) => base + raw % (base / 2),
                (None, 0) => [0, 7, 8][raw as usize % 3],
                (None, 1) => raw % 64,
                (None, _) => raw >> shift,
            })
            .collect();
        if top {
            vs.push(u64::MAX - vs.iter().sum::<u64>());
        }
        vs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Recording, snapshot deltas and merges (of split streams and of
        /// disjoint bucket ranges) agree with the dense histogram, and
        /// equality is equality of the dense forms.
        #[test]
        fn compact_histogram_matches_the_dense_one(
            draws in proptest::collection::vec((0u8..4, 16u32..64, any::<u64>()), 0..120),
            octave in 0u32..80,
            top in 0u8..4,
            cut in any::<u64>(),
            pivot in 0u32..64,
        ) {
            let narrow = (octave < 40).then(|| 8u64 << octave);
            let vs = values(draws, narrow, top == 0);
            let (h, d) = both(&vs);
            agrees(&h, &d)?;

            // A snapshot after a prefix: `since` gives the rest.
            let cut = cut as usize % (vs.len() + 1);
            let (snap, dsnap) = both(&vs[..cut]);
            let (rest, _) = both(&vs[cut..]);
            let delta = h.since(&snap);
            agrees(&delta, &d.since(&dsnap))?;
            prop_assert_eq!(&delta, &rest);
            agrees(&h.since(&h), &DenseHist::default())?;
            prop_assert_eq!(h.since(&h), LatencyHist::new());

            // Merging the prefix and the rest, either way round.
            let mut m = snap.clone();
            m.merge(&rest);
            prop_assert_eq!(&m, &h);
            let mut m = rest.clone();
            m.merge(&snap);
            prop_assert_eq!(&m, &h);

            // Values below and at-or-above a pivot fill disjoint bucket
            // ranges; merging them either way round is the whole.
            let pivot = 1u64 << pivot;
            let (lows, highs): (Vec<u64>, Vec<u64>) = vs.iter().partition(|&&v| v < pivot);
            let ((lo, dlo), (hi, dhi)) = (both(&lows), both(&highs));
            let (mut a, mut b, mut da) = (lo.clone(), hi.clone(), dlo.clone());
            a.merge(&hi);
            b.merge(&lo);
            da.merge(&dhi);
            agrees(&a, &da)?;
            prop_assert_eq!(&a, &h);
            prop_assert_eq!(&b, &h);

            // `==` is the dense equality: a histogram differs from every
            // one with a sample more or less.
            let (fewer, dfewer) = both(&vs[..vs.len().saturating_sub(1)]);
            prop_assert_eq!(fewer == h, dfewer == d);
        }
    }

    #[test]
    fn the_extremes_fill_the_edge_buckets() {
        for vs in [
            &[u64::MAX][..],
            &[0, 0, u64::MAX],
            &[0, 7, 8, u64::MAX - 15],
        ] {
            let (h, d) = both(vs);
            agrees(&h, &d).unwrap();
        }
        let (h, _) = both(&[u64::MAX]);
        assert_eq!((h.lo, h.summary().max_ns), (HIST_BUCKETS - 1, u64::MAX));
    }

    #[test]
    fn a_profile_is_small_and_an_empty_one_owns_no_heap() {
        let p = OpProfile::new();
        let heap: usize = p
            .phases
            .iter()
            .map(|a| match &a.hist.counts {
                Counts::Inline(_) => 0,
                Counts::Heap(v) => v.capacity() * 8,
            })
            .sum();
        let inline = size_of::<OpProfile>();
        assert!(inline + heap <= 2048, "{inline} B inline, {heap} B heap");
        assert_eq!(heap, 0);
    }

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
