//! Per-client accounting and latency histograms.
//!
//! All experiment numbers (throughput, amplification factors, round-trip
//! counts, latency percentiles) are derived from these counters, never from
//! wall-clock time: the substrate executes instantly and charges a *virtual*
//! cost per verb according to [`crate::net::NetConfig`].

use obs::{Event, RetryCause};

/// Counters kept by every client endpoint.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClientStats {
    /// Number of READ verbs issued.
    pub reads: u64,
    /// Number of WRITE verbs issued.
    pub writes: u64,
    /// Number of atomic verbs (CAS / masked-CAS / FAA) issued.
    pub atomics: u64,
    /// Number of allocation RPCs issued.
    pub rpcs: u64,
    /// Number of network round-trips paid (doorbell batches count once).
    pub rtts: u64,
    /// Number of NIC work requests (doorbell batches count each request).
    pub msgs: u64,
    /// Bytes that crossed the wire, including per-message overhead.
    pub wire_bytes: u64,
    /// Payload bytes the application asked for (to compute amplification).
    pub app_bytes: u64,
    /// Faults injected into this endpoint by the fault engine.
    pub faults_injected: u64,
    /// Torn reads detected (and retried) by version validation.
    pub torn_reads_detected: u64,
    /// Stale lock words reclaimed from dead holders via the lease path.
    pub stale_locks_reclaimed: u64,
    /// Lock-acquisition attempts that found the word already locked.
    pub lock_retries: u64,
    /// Whole-operation optimistic retries (validation failed, op restarted).
    pub op_retries: u64,
}

impl ClientStats {
    /// Folds one endpoint observation into the counters: a verb's requests,
    /// round trips and wire bytes, an injected fault, a retry.
    #[inline]
    pub fn record(&mut self, ev: &Event) {
        match *ev {
            Event::Verb {
                verb,
                msgs,
                rtts,
                wire_bytes,
                ..
            } => {
                self.msgs += msgs;
                self.rtts += rtts;
                self.wire_bytes += wire_bytes;
                match verb {
                    "read" => self.reads += msgs,
                    "write" => self.writes += msgs,
                    "alloc" => self.rpcs += 1,
                    // An atomic, with any READs posted behind it.
                    _ => {
                        self.atomics += 1;
                        self.reads += msgs - 1;
                    }
                }
            }
            Event::Fault { .. } => self.faults_injected += 1,
            Event::Retry { op: true, .. } => self.op_retries += 1,
            Event::Retry { cause: RetryCause::LockConflict, .. } => self.lock_retries += 1,
            Event::Retry { .. } => self.torn_reads_detected += 1, // other in-place retries: torn reads
            _ => {}
        }
    }

    /// Returns the difference `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &ClientStats) -> ClientStats {
        self.zip(earlier, |a, b| a - b)
    }

    /// Returns every counter as a `(name, value)` pair, in declaration
    /// order. The single source of truth for exporters (metrics registry,
    /// JSON reports) so a new counter cannot be silently dropped from one.
    pub fn as_pairs(&self) -> [(&'static str, u64); 13] {
        [
            ("reads", self.reads),
            ("writes", self.writes),
            ("atomics", self.atomics),
            ("rpcs", self.rpcs),
            ("rtts", self.rtts),
            ("msgs", self.msgs),
            ("wire_bytes", self.wire_bytes),
            ("app_bytes", self.app_bytes),
            ("faults_injected", self.faults_injected),
            ("torn_reads_detected", self.torn_reads_detected),
            ("stale_locks_reclaimed", self.stale_locks_reclaimed),
            ("lock_retries", self.lock_retries),
            ("op_retries", self.op_retries),
        ]
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &ClientStats) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Combines two sets of counters counter by counter.
    fn zip(&self, o: &ClientStats, f: impl Fn(u64, u64) -> u64) -> ClientStats {
        ClientStats {
            reads: f(self.reads, o.reads),
            writes: f(self.writes, o.writes),
            atomics: f(self.atomics, o.atomics),
            rpcs: f(self.rpcs, o.rpcs),
            rtts: f(self.rtts, o.rtts),
            msgs: f(self.msgs, o.msgs),
            wire_bytes: f(self.wire_bytes, o.wire_bytes),
            app_bytes: f(self.app_bytes, o.app_bytes),
            faults_injected: f(self.faults_injected, o.faults_injected),
            torn_reads_detected: f(self.torn_reads_detected, o.torn_reads_detected),
            stale_locks_reclaimed: f(self.stale_locks_reclaimed, o.stale_locks_reclaimed),
            lock_retries: f(self.lock_retries, o.lock_retries),
            op_retries: f(self.op_retries, o.op_retries),
        }
    }
}

/// A log-bucketed latency histogram (nanosecond samples).
///
/// Buckets grow by ~5% per step, giving <5% quantile error over a
/// 100 ns .. 100 ms range with a few hundred buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

const HIST_BUCKETS: usize = 512;
const HIST_MIN_NS: f64 = 50.0;
const HIST_GROWTH: f64 = 1.045;

/// Bits of a sample below its leading one that pick its sub-octave: a
/// sub-octave spans a ratio of at most 1 + 2^-5 < [`HIST_GROWTH`], so it
/// holds at most one bucket boundary.
const SUB_BITS: u32 = 5;

/// The bucket boundaries, derived once from [`bucket_by_ln`].
struct Bounds {
    /// `lower[b]`: the least sample of bucket `b` (`lower[0] == 0`).
    lower: [u64; HIST_BUCKETS],
    /// The bucket of the least sample of each sub-octave.
    start: [u16; 64 << SUB_BITS],
}

static BOUNDS: std::sync::LazyLock<Bounds> = std::sync::LazyLock::new(|| {
    let mut lower = [0u64; HIST_BUCKETS];
    for (b, l) in lower.iter_mut().enumerate().skip(1) {
        // The float formula is monotone in the sample: bisect for its step.
        let (mut lo, mut hi) = (0u64, 1 << 40);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if bucket_by_ln(mid) >= b {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        *l = hi;
    }
    let mut start = [0u16; 64 << SUB_BITS];
    for (key, s) in start.iter_mut().enumerate() {
        let e = key as u32 >> SUB_BITS;
        if e >= SUB_BITS {
            let least = (1u64 << e) | (key as u64 & ((1 << SUB_BITS) - 1)) << (e - SUB_BITS);
            *s = bucket_by_ln(least) as u16;
        }
    }
    Bounds { lower, start }
});

/// The sub-octave of `ns > 2^SUB_BITS`: its leading bit's position and the
/// [`SUB_BITS`] bits below it.
#[inline]
fn sub_octave(ns: u64) -> usize {
    let e = 63 - ns.leading_zeros();
    ((e << SUB_BITS) as usize) | ((ns >> (e - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1))
}

/// The histogram's defining formula: bucket `b` holds the samples in
/// `(50 ns · 1.045^b, 50 ns · 1.045^(b+1)]`, as the float arithmetic rounds
/// them, the last one everything above.
fn bucket_by_ln(ns: u64) -> usize {
    if (ns as f64) <= HIST_MIN_NS {
        return 0;
    }
    let idx = ((ns as f64) / HIST_MIN_NS).ln() / HIST_GROWTH.ln();
    (idx as usize).min(HIST_BUCKETS - 1)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// The bucket of `ns`: the one [`bucket_by_ln`] names, found from the
    /// bucket boundaries instead of two logarithms per sample.
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns <= HIST_MIN_NS as u64 {
            return 0;
        }
        let t = &*BOUNDS;
        let mut b = t.start[sub_octave(ns)] as usize;
        while b + 1 < HIST_BUCKETS && ns >= t.lower[b + 1] {
            b += 1;
        }
        b
    }

    fn bucket_value(idx: usize) -> u64 {
        (HIST_MIN_NS * HIST_GROWTH.powi(idx as i32)) as u64
    }

    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.max = self.max.max(ns);
        self.min = self.min.min(ns);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean sample in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Returns the largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Returns the approximate `q`-quantile (0.0 ..= 1.0) in nanoseconds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if other.count > 0 {
            self.min = self.min.min(other.min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_and_merge() {
        let a = ClientStats {
            reads: 10,
            rtts: 12,
            wire_bytes: 100,
            ..Default::default()
        };
        let b = ClientStats {
            reads: 4,
            rtts: 5,
            wire_bytes: 40,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.rtts, 7);
        assert_eq!(d.wire_bytes, 60);
        let mut m = b.clone();
        m.merge(&d);
        assert_eq!(m, a);
    }

    #[test]
    fn bucket_boundaries_agree_with_the_logarithm_formula() {
        let lower = &BOUNDS.lower;
        for b in 1..HIST_BUCKETS {
            assert!(lower[b] > lower[b - 1], "bucket {b} is empty");
            for ns in [lower[b] - 1, lower[b], lower[b] + 1] {
                assert_eq!(Histogram::bucket_of(ns), bucket_by_ln(ns), "{ns} ns");
            }
        }
        let mut state = 0x5EED_0000_0000_0001u64;
        for _ in 0..1_000_000 {
            let r = crate::hash::xorshift64star(&mut state);
            // Every octave up to 2^44 ns (≈ 4.9 hours), then the extremes.
            let ns = r >> (20 + r % 44);
            assert_eq!(Histogram::bucket_of(ns), bucket_by_ln(ns), "{ns} ns");
        }
        for ns in [0, 1, 49, 50, 51, 52, 63, 64, 65, u64::MAX / 2, u64::MAX] {
            assert_eq!(Histogram::bucket_of(ns), bucket_by_ln(ns), "{ns} ns");
        }
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99);
        // Within the histogram's ~5% resolution.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.1, "{p50}");
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.1, "{p99}");
    }

    #[test]
    fn histogram_mean_and_bounds() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200);
        assert_eq!(h.quantile(0.0).clamp(100, 300), h.quantile(0.0));
        assert!(h.quantile(1.0) <= 300);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(1_000 + i);
            b.record(2_000 + i);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!(a.quantile(0.99) >= 2_000);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn stats_roundtrip_includes_fault_counters() {
        let a = ClientStats {
            faults_injected: 9,
            torn_reads_detected: 4,
            stale_locks_reclaimed: 2,
            lock_retries: 17,
            op_retries: 6,
            ..Default::default()
        };
        let b = ClientStats {
            faults_injected: 3,
            torn_reads_detected: 1,
            stale_locks_reclaimed: 1,
            lock_retries: 10,
            op_retries: 2,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.faults_injected, 6);
        assert_eq!(d.torn_reads_detected, 3);
        assert_eq!(d.stale_locks_reclaimed, 1);
        assert_eq!(d.lock_retries, 7);
        assert_eq!(d.op_retries, 4);
        let mut m = b;
        m.merge(&d);
        assert_eq!(m, a);
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 777);
        // Every quantile of a single sample is that sample (clamped to the
        // recorded min/max, so exact despite bucket resolution).
        assert_eq!(h.quantile(0.0), 777);
        assert_eq!(h.quantile(0.5), 777);
        assert_eq!(h.quantile(1.0), 777);
    }

    #[test]
    fn saturating_bucket_clamps_to_max() {
        let mut h = Histogram::new();
        // Far beyond the last bucket boundary: both land in the final
        // (saturating) bucket but min/max clamping keeps quantiles sane.
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= u64::MAX / 2);
        assert!(h.quantile(0.0) >= u64::MAX / 2);
        assert!(h.quantile(0.5) >= u64::MAX / 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for i in 0..50 {
            a.record(1_000 + i);
        }
        let before = (a.count(), a.mean(), a.quantile(0.5), a.quantile(1.0));
        a.merge(&Histogram::new());
        assert_eq!(
            before,
            (a.count(), a.mean(), a.quantile(0.5), a.quantile(1.0))
        );

        // Merging into an empty histogram adopts the other side's min/max.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.count(), 50);
        assert_eq!(e.quantile(0.0), a.quantile(0.0));
        assert_eq!(e.quantile(1.0), a.quantile(1.0));
    }

    #[test]
    fn since_then_merge_is_identity_for_every_counter() {
        // Exercise all 13 counters at once via as_pairs, so a newly added
        // field cannot silently escape the round-trip contract.
        let mut later = ClientStats::default();
        let mut earlier = ClientStats::default();
        for (i, (field, _)) in ClientStats::default().as_pairs().iter().enumerate() {
            let hi = 1_000 + 37 * i as u64;
            let lo = 13 * i as u64 + 7;
            for (stats, v) in [(&mut later, hi), (&mut earlier, lo)] {
                match *field {
                    "reads" => stats.reads = v,
                    "writes" => stats.writes = v,
                    "atomics" => stats.atomics = v,
                    "rpcs" => stats.rpcs = v,
                    "rtts" => stats.rtts = v,
                    "msgs" => stats.msgs = v,
                    "wire_bytes" => stats.wire_bytes = v,
                    "app_bytes" => stats.app_bytes = v,
                    "faults_injected" => stats.faults_injected = v,
                    "torn_reads_detected" => stats.torn_reads_detected = v,
                    "stale_locks_reclaimed" => stats.stale_locks_reclaimed = v,
                    "lock_retries" => stats.lock_retries = v,
                    "op_retries" => stats.op_retries = v,
                    other => panic!("unknown counter {other}"),
                }
            }
        }
        let delta = later.since(&earlier);
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later);
        // And every pair actually changed, i.e. the exercise covered all
        // fields.
        for ((name, d), (_, l)) in delta.as_pairs().iter().zip(later.as_pairs()) {
            assert!(*d > 0 && *d < l, "{name}");
        }
    }

    #[test]
    fn quantiles_of_empty_and_single_sample_histograms() {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        assert_eq!(empty.max(), 0);

        let mut one = Histogram::new();
        one.record(4_242);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 4_242);
        }
        assert_eq!(one.max(), 4_242);
    }

    #[test]
    fn merge_two_empties_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0);
        assert_eq!(a.quantile(0.99), 0);
    }
}
