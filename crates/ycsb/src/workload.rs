//! YCSB core workloads A–E plus LOAD, over a shared key space.
//!
//! The key space maps sequence numbers to unique, pseudo-random, non-zero
//! 64-bit keys (the SplitMix64 mixer is a bijection), mirroring YCSB's
//! hashed `user###` keys. Inserts draw fresh sequence numbers from a shared
//! atomic counter so concurrent clients never collide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dmem::hash::mix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::{zeta_extend, Latest, ScrambledZipfian, Zipfian, ZIPFIAN_CONSTANT};

/// Maps YCSB sequence numbers to unique non-zero keys.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace;

impl KeySpace {
    /// The key of sequence number `seq`.
    pub fn key(seq: u64) -> u64 {
        let k = mix64(seq.wrapping_add(1));
        if k == 0 {
            0x5EED_5EED_5EED_5EED
        } else {
            k
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Read(u64),
    /// In-place value update.
    Update(u64),
    /// Insert of a fresh key.
    Insert(u64),
    /// Range scan of up to `1` items starting at `0`.
    Scan(u64, usize),
}

impl Op {
    /// The key this operation targets.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Read(k) | Op::Update(k) | Op::Insert(k) | Op::Scan(k, _) => k,
        }
    }
}

/// The six evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 50% search, 50% update, Zipfian.
    A,
    /// 95% search, 5% update, Zipfian.
    B,
    /// 100% search, Zipfian.
    C,
    /// 95% search, 5% insert, latest distribution.
    D,
    /// 95% scan (up to 100 items), 5% insert, Zipfian.
    E,
    /// 100% insert.
    Load,
}

impl Workload {
    /// All six workloads, in the paper's presentation order.
    pub const ALL: [Workload; 6] = [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::E,
        Workload::Load,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::A => "A",
            Workload::B => "B",
            Workload::C => "C",
            Workload::D => "D",
            Workload::E => "E",
            Workload::Load => "LOAD",
        }
    }
}

/// Shared, thread-safe workload state: the insert counter, and the
/// Zipfian constants every generator of the run would otherwise re-sum.
#[derive(Debug)]
pub struct WorkloadState {
    /// Number of keys present (loaded + inserted so far).
    pub count: AtomicU64,
    /// Per skew asked for so far (by its bits): `(n, zeta(n, theta))`;
    /// shared by the states [`Self::fresh`] makes.
    zetas: Arc<Mutex<BTreeMap<u64, (u64, f64)>>>,
}

impl WorkloadState {
    /// State for a store preloaded with `loaded` keys.
    pub fn new(loaded: u64) -> Arc<Self> {
        Arc::new(WorkloadState {
            count: AtomicU64::new(loaded),
            zetas: Arc::default(),
        })
    }

    /// State for another run over a store preloaded with `loaded` keys: a
    /// fresh insert counter, and this state's Zipfian constants, so a
    /// run at a skew and size seen before sums none. Its generators draw
    /// the ops a [`Self::new`] state's would.
    pub fn fresh(&self, loaded: u64) -> Arc<Self> {
        Arc::new(WorkloadState {
            count: AtomicU64::new(loaded),
            zetas: Arc::clone(&self.zetas),
        })
    }

    /// A Zipfian over `0..n` whose O(n) constant `zeta(n, theta)` is summed
    /// once per run.
    fn zipfian(&self, n: u64, theta: f64) -> Zipfian {
        Zipfian::with_zetan(n, theta, self.zeta(n, theta))
    }

    /// `zeta(n, theta)`, remembered per `theta` and only extended when `n`
    /// has grown, which yields the same bits as summing from 1.
    fn zeta(&self, n: u64, theta: f64) -> f64 {
        let mut zetas = self.zetas.lock().expect("zeta memo poisoned");
        let (memo_n, sum) = zetas.entry(theta.to_bits()).or_insert((0, 0.0));
        if n < *memo_n {
            (*memo_n, *sum) = (0, 0.0);
        }
        *sum = zeta_extend(*sum, *memo_n, n, theta);
        *memo_n = n;
        *sum
    }
}

/// A per-client operation generator.
///
/// # Examples
///
/// ```
/// use ycsb::{Op, OpGen, Workload, WorkloadState};
///
/// let state = WorkloadState::new(10_000);
/// let mut gen = OpGen::new(Workload::A, state, 7);
/// match gen.next_op() {
///     Op::Read(k) | Op::Update(k) => assert_ne!(k, 0),
///     other => panic!("YCSB A only reads/updates: {other:?}"),
/// }
/// ```
pub struct OpGen {
    workload: Workload,
    rng: SmallRng,
    zipf: ScrambledZipfian,
    latest: Latest,
    state: Arc<WorkloadState>,
    theta: f64,
}

impl OpGen {
    /// Creates a generator for `workload` over `state`, seeded per client.
    pub fn new(workload: Workload, state: Arc<WorkloadState>, seed: u64) -> Self {
        Self::with_theta(workload, state, seed, ZIPFIAN_CONSTANT)
    }

    /// Like [`OpGen::new`] with an explicit Zipfian constant (Fig. 18a).
    pub fn with_theta(
        workload: Workload,
        state: Arc<WorkloadState>,
        seed: u64,
        theta: f64,
    ) -> Self {
        let n = state.count.load(Ordering::Relaxed).max(1);
        OpGen {
            workload,
            rng: SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00),
            zipf: ScrambledZipfian {
                inner: state.zipfian(n, theta),
            },
            latest: Latest {
                zipf: state.zipfian(n, ZIPFIAN_CONSTANT),
            },
            state,
            theta,
        }
    }

    /// The Zipfian constant in use.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    fn existing_key(&mut self) -> u64 {
        KeySpace::key(self.zipf.next(&mut self.rng))
    }

    fn fresh_key(&mut self) -> u64 {
        KeySpace::key(self.state.count.fetch_add(1, Ordering::Relaxed))
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> Op {
        let p: f64 = self.rng.gen();
        match self.workload {
            Workload::A => {
                if p < 0.5 {
                    Op::Read(self.existing_key())
                } else {
                    Op::Update(self.existing_key())
                }
            }
            Workload::B => {
                if p < 0.95 {
                    Op::Read(self.existing_key())
                } else {
                    Op::Update(self.existing_key())
                }
            }
            Workload::C => Op::Read(self.existing_key()),
            Workload::D => {
                if p < 0.95 {
                    let cur = self.state.count.load(Ordering::Relaxed).max(1);
                    Op::Read(KeySpace::key(self.latest.next(&mut self.rng, cur)))
                } else {
                    Op::Insert(self.fresh_key())
                }
            }
            Workload::E => {
                if p < 0.95 {
                    let len = self.rng.gen_range(1..=100);
                    Op::Scan(self.existing_key(), len)
                } else {
                    Op::Insert(self.fresh_key())
                }
            }
            Workload::Load => Op::Insert(self.fresh_key()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_space_unique_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..100_000u64 {
            let k = KeySpace::key(s);
            assert_ne!(k, 0);
            assert!(seen.insert(k), "duplicate key for seq {s}");
        }
    }

    #[test]
    fn workload_mixes_match_spec() {
        let state = WorkloadState::new(10_000);
        let trials = 50_000;
        let frac = |w: Workload, pred: fn(&Op) -> bool| {
            let mut g = OpGen::new(w, Arc::clone(&state), 7);
            let mut c = 0;
            for _ in 0..trials {
                if pred(&g.next_op()) {
                    c += 1;
                }
            }
            c as f64 / trials as f64
        };
        let read = |o: &Op| matches!(o, Op::Read(_));
        let upd = |o: &Op| matches!(o, Op::Update(_));
        let ins = |o: &Op| matches!(o, Op::Insert(_));
        let scan = |o: &Op| matches!(o, Op::Scan(..));
        assert!((frac(Workload::A, read) - 0.5).abs() < 0.02);
        assert!((frac(Workload::A, upd) - 0.5).abs() < 0.02);
        assert!((frac(Workload::B, read) - 0.95).abs() < 0.01);
        assert!((frac(Workload::C, read) - 1.0).abs() < 1e-9);
        assert!((frac(Workload::D, ins) - 0.05).abs() < 0.01);
        assert!((frac(Workload::E, scan) - 0.95).abs() < 0.01);
        assert!((frac(Workload::Load, ins) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inserts_use_fresh_keys() {
        let state = WorkloadState::new(100);
        let mut g = OpGen::new(Workload::Load, Arc::clone(&state), 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            match g.next_op() {
                Op::Insert(k) => assert!(seen.insert(k)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(state.count.load(Ordering::Relaxed), 1_100);
    }

    #[test]
    fn scan_lengths_bounded() {
        let state = WorkloadState::new(1_000);
        let mut g = OpGen::new(Workload::E, state, 7);
        for _ in 0..5_000 {
            if let Op::Scan(_, len) = g.next_op() {
                assert!((1..=100).contains(&len));
            }
        }
    }

    /// The sum as `Zipfian::new` has always taken it.
    fn zeta_from_scratch(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    #[test]
    fn memoised_zeta_is_the_from_scratch_sum_bit_for_bit() {
        for theta in [0.01, 0.5, 0.99] {
            let state = WorkloadState::new(0);
            // Grown in steps, then asked for a smaller n again.
            for n in [100_000, 100_037, 101_500, 100_037] {
                let (memo, fresh) = (state.zeta(n, theta), zeta_from_scratch(n, theta));
                assert_eq!(memo.to_bits(), fresh.to_bits(), "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn a_second_generator_on_one_state_sums_nothing() {
        use crate::dist::ZETA_TERMS;
        let state = WorkloadState::new(100_000);
        // The two terms of `zeta(2, theta)`, per Zipfian built.
        let fixed = 2 * 2;
        let before = ZETA_TERMS.get();
        OpGen::with_theta(Workload::A, Arc::clone(&state), 1, 0.5);
        assert_eq!(
            ZETA_TERMS.get() - before,
            2 * 100_000 + fixed,
            "one sum per skew"
        );
        let before = ZETA_TERMS.get();
        OpGen::with_theta(Workload::A, Arc::clone(&state), 2, 0.5);
        assert_eq!(ZETA_TERMS.get() - before, fixed);
        // Inserts grow n: the next generator adds only the new terms.
        state.count.fetch_add(37, Ordering::Relaxed);
        let before = ZETA_TERMS.get();
        OpGen::with_theta(Workload::A, Arc::clone(&state), 3, 0.5);
        assert_eq!(ZETA_TERMS.get() - before, 2 * 37 + fixed);
    }

    #[test]
    fn a_fresh_state_keeps_the_memo_and_draws_the_same_ops() {
        use crate::dist::ZETA_TERMS;
        const LOADED: u64 = 100_000;
        let ops = |state: Arc<WorkloadState>| {
            let mut g = OpGen::with_theta(Workload::D, state, 11, 0.8);
            (0..1_000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        let kept = WorkloadState::new(LOADED);
        let first = ops(Arc::clone(&kept));
        assert!(kept.count.load(Ordering::Relaxed) > LOADED, "no insert drawn");
        // A state on the kept memo starts its counter at `loaded` again
        // and sums no zeta term beyond the `zeta(2, theta)` of each Zipfian.
        let (before, fresh) = (ZETA_TERMS.get(), kept.fresh(LOADED));
        let again = ops(Arc::clone(&fresh));
        assert_eq!(ZETA_TERMS.get() - before, 2 * 2, "the kept memo was re-summed");
        assert_eq!(again, first);
        assert_eq!(again, ops(WorkloadState::new(LOADED)));
        for theta in [0.8, ZIPFIAN_CONSTANT] {
            let (kept, scratch) = (fresh.zeta(LOADED, theta), zeta_from_scratch(LOADED, theta));
            assert_eq!(kept.to_bits(), scratch.to_bits(), "theta={theta}");
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mk = |seed| {
            let state = WorkloadState::new(1_000);
            let mut g = OpGen::new(Workload::A, state, seed);
            (0..100).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
