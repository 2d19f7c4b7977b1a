//! Request distributions (YCSB-compatible).
//!
//! The Zipfian generator follows Gray et al.'s rejection-free construction,
//! as used by the original YCSB client: `zeta(n, θ)` is computed once (per
//! run, when the generators share a [`crate::WorkloadState`]) and ranks are
//! drawn in O(1) per sample. The scrambled variant decorrelates rank from
//! item id with a 64-bit mixer.

use dmem::hash::mix64;
use rand::Rng;

/// Default YCSB Zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// A Zipfian distribution over `0..n` (rank 0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`: rank 1's share of `zetan`, fixed per distribution.
    half_pow: f64,
}

#[cfg(test)]
thread_local! {
    /// Zeta terms this thread has evaluated.
    pub(crate) static ZETA_TERMS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Extends `zeta(from, theta) == sum` to `zeta(to, theta)`, adding terms
/// left to right so the result is bit-for-bit the sum taken from 1.
pub(crate) fn zeta_extend(sum: f64, from: u64, to: u64, theta: f64) -> f64 {
    #[cfg(test)]
    ZETA_TERMS.with(|c| c.set(c.get() + to.saturating_sub(from)));
    (from + 1..=to).fold(sum, |s, i| s + 1.0 / (i as f64).powf(theta))
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        Self::with_zetan(n, theta, zeta_extend(0.0, 0, n, theta))
    }

    /// [`Zipfian::new`] given `zetan == zeta(n, theta)`, the O(n) part.
    pub(crate) fn with_zetan(n: u64, theta: f64, zetan: f64) -> Self {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zeta2 = zeta_extend(0.0, 0, 2, theta);
        Zipfian {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow: 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `0..n`.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Scrambled Zipfian: Zipfian popularity, but popular items are spread
/// uniformly over the id space (the YCSB default for workloads A–C).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    pub(crate) inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled Zipfian over `0..n`.
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n, theta),
        }
    }

    /// Draws an item id in `0..n`.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        mix64(self.inner.next(rng)) % self.inner.n()
    }
}

/// "Latest" distribution (YCSB D): recency-skewed over a growing id space.
#[derive(Debug, Clone)]
pub struct Latest {
    pub(crate) zipf: Zipfian,
}

impl Latest {
    /// Creates the distribution for an initial population of `n` items.
    pub fn new(n: u64) -> Self {
        Latest {
            zipf: Zipfian::new(n, ZIPFIAN_CONSTANT),
        }
    }

    /// Draws an id in `0..current`, skewed toward `current - 1`.
    pub fn next<R: Rng>(&self, rng: &mut R, current: u64) -> u64 {
        assert!(current > 0);
        let r = self.zipf.next(rng) % current;
        current - 1 - r
    }
}

/// Uniform distribution over `0..n`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Creates a uniform distribution over `0..n`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0);
        Uniform { n }
    }

    /// Draws an id.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.n)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, reason = "counting draws; order is never observed")]
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_head_is_heavy() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut head = 0;
        let trials = 100_000;
        for _ in 0..trials {
            if z.next(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the top-1% of ranks draw well over a third.
        assert!(head as f64 / trials as f64 > 0.35, "head share {head}");
    }

    #[test]
    fn zipfian_skew_increases_with_theta() {
        let mut rng = SmallRng::seed_from_u64(7);
        let share = |theta: f64, rng: &mut SmallRng| {
            let z = Zipfian::new(10_000, theta);
            let mut top = 0;
            for _ in 0..50_000 {
                if z.next(rng) == 0 {
                    top += 1;
                }
            }
            top
        };
        let low = share(0.5, &mut rng);
        let high = share(0.99, &mut rng);
        assert!(high > 2 * low, "low={low} high={high}");
    }

    #[test]
    fn zipfian_in_range() {
        let z = Zipfian::new(100, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 100);
        }
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let s = ScrambledZipfian::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        // The hottest id should no longer be id 0.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(s.next(&mut rng)).or_insert(0usize) += 1;
        }
        let (hottest, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert!(counts.values().all(|&c| c <= 50_000));
        assert_ne!(*hottest, 0, "scrambling should displace rank 0");
    }

    #[test]
    fn latest_prefers_recent() {
        let l = Latest::new(1_000);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut recent = 0;
        for _ in 0..10_000 {
            let id = l.next(&mut rng, 5_000);
            assert!(id < 5_000);
            if id >= 4_900 {
                recent += 1;
            }
        }
        assert!(recent > 3_000, "recent draws: {recent}");
    }

    #[test]
    fn uniform_covers_range() {
        let u = Uniform::new(10);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[u.next(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
