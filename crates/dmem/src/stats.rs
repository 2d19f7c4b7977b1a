//! Per-client accounting.
//!
//! All experiment numbers (throughput, amplification factors, round-trip
//! counts) are derived from these counters, never from wall-clock time: the
//! substrate executes instantly and charges a *virtual* cost per verb
//! according to [`crate::net::NetConfig`].

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

/// [`obs::LatencyHist`] under the name the benchmark harness's TCP workload
/// (`benchmark/src/tcp.rs`) uses for it; it exists only for that caller.
pub type Histogram = obs::LatencyHist;

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

    // `Histogram` is `obs::LatencyHist`: quantiles are the inclusive upper
    // bound of the selected bucket, at most 12.5 % above the sample.
    fn within_a_bucket(q: u64, v: u64) -> bool {
        q >= v && (q - v) as f64 <= 0.125 * v as f64
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
        assert!(within_a_bucket(p50, 500_000), "{p50}");
        assert!(within_a_bucket(p99, 990_000), "{p99}");
    }

    #[test]
    fn histogram_mean_and_bounds() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.summary().mean_ns, 200);
        assert!(within_a_bucket(h.quantile(0.0), 100), "{}", h.quantile(0.0));
        assert!(within_a_bucket(h.quantile(1.0), 300), "{}", h.quantile(1.0));
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
        assert!(a.quantile(0.5) < 2_000);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.summary().mean_ns, 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.count(), 1);
        assert_eq!(h.summary().mean_ns, 777);
        // Every quantile of a single sample is that sample's bucket bound.
        let q = h.quantile(0.5);
        assert!(within_a_bucket(q, 777), "{q}");
        assert_eq!(h.quantile(0.0), q);
        assert_eq!(h.quantile(1.0), q);
    }

    #[test]
    fn saturating_bucket_clamps_to_max() {
        // The top bucket's bound is u64::MAX itself: no sample reports above
        // the largest value a u64 holds.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), u64::MAX);
        }
        assert_eq!(h.summary().max_ns, u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for i in 0..50 {
            a.record(1_000 + i);
        }
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        assert_eq!(a.summary(), before.summary());

        // Merging into an empty histogram adopts the other side's samples.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e, a);
        assert_eq!(e.count(), 50);
        assert_eq!(e.quantile(0.0), a.quantile(0.0));
        assert_eq!(e.quantile(1.0), a.quantile(1.0));
    }

    #[test]
    fn quantiles_of_empty_and_single_sample_histograms() {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        assert_eq!(empty.summary().max_ns, 0);

        let mut one = Histogram::new();
        one.record(4_242);
        let bound = one.quantile(0.5);
        assert!(within_a_bucket(bound, 4_242), "{bound}");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), bound);
        }
        assert_eq!(one.summary().max_ns, bound);
    }

    #[test]
    fn merge_two_empties_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a, Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.summary().mean_ns, 0);
        assert_eq!(a.quantile(0.99), 0);
    }
}
