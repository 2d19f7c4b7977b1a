//! The §3.1.2 hashing-scheme study: read amplification vs space efficiency.
//!
//! Reproduces Fig. 3d by measuring the *maximum load factor* (items inserted
//! into a 128-entry table before the first insertion failure) of four
//! collision-resolution schemes, together with their analytic amplification
//! factors:
//!
//! * **associativity** — one bucket of `b` entries per key (amp = `b`);
//! * **hopscotch** — neighborhood of `H` entries with hopping (amp = `H`);
//! * **RACE** — two choices over main buckets with a shared overflow bucket
//!   per group (amp = `4b`: two main + two overflow buckets per lookup);
//! * **FaRM** — chained associative hopscotch with the chain disabled:
//!   an item lives in bucket `h` or `h+1` (amp = `2b`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The four studied schemes with their size parameter.
///
/// # Examples
///
/// ```
/// use bench::figs::hashstudy::Scheme;
///
/// let hop = Scheme::Hopscotch(8).max_load_factor(128, 50, 7);
/// let assoc = Scheme::Assoc(8).max_load_factor(128, 50, 7);
/// assert!(hop > assoc, "hopscotch packs tighter at equal amplification");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Associative buckets of the given size.
    Assoc(usize),
    /// Hopscotch hashing with the given neighborhood.
    Hopscotch(usize),
    /// RACE hashing with the given bucket size.
    Race(usize),
    /// FaRM-style two-bucket hopscotch with the given bucket size.
    Farm(usize),
}

impl Scheme {
    /// The scheme's analytic read-amplification factor (entries fetched per
    /// lookup).
    pub fn amplification(self) -> usize {
        match self {
            Scheme::Assoc(b) => b,
            Scheme::Hopscotch(h) => h,
            Scheme::Race(b) => 4 * b,
            Scheme::Farm(b) => 2 * b,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Assoc(_) => "associativity",
            Scheme::Hopscotch(_) => "hopscotch",
            Scheme::Race(_) => "RACE",
            Scheme::Farm(_) => "FaRM",
        }
    }

    /// Inserts random keys until failure; returns the achieved load factor.
    pub fn max_load_factor_once(self, entries: usize, rng: &mut SmallRng) -> f64 {
        let inserted = match self {
            Scheme::Assoc(b) => assoc_fill(entries, b, rng),
            Scheme::Hopscotch(h) => hopscotch_fill(entries, h, rng),
            Scheme::Race(b) => race_fill(entries, b, rng),
            Scheme::Farm(b) => farm_fill(entries, b, rng),
        };
        inserted as f64 / entries as f64
    }

    /// Mean maximum load factor over `trials` random tables of `entries`
    /// entries (the paper uses 128).
    pub fn max_load_factor(self, entries: usize, trials: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..trials)
            .map(|_| self.max_load_factor_once(entries, &mut rng))
            .sum::<f64>()
            / trials as f64
    }
}

fn assoc_fill(entries: usize, b: usize, rng: &mut SmallRng) -> usize {
    let buckets = entries / b;
    let mut load = vec![0usize; buckets];
    for n in 0..entries {
        let h = rng.gen_range(0..buckets);
        if load[h] == b {
            return n;
        }
        load[h] += 1;
    }
    entries
}

fn hopscotch_fill(entries: usize, h: usize, rng: &mut SmallRng) -> usize {
    // slots[i] = home index of the stored key, or usize::MAX when empty.
    let mut slots = vec![usize::MAX; entries];
    let dist = |a: usize, b: usize| (b + entries - a) % entries;
    for n in 0..entries {
        let home = rng.gen_range(0..entries);
        // Linear-probe for the first empty slot.
        let Some(mut e) = (0..entries)
            .map(|d| (home + d) % entries)
            .find(|&i| slots[i] == usize::MAX)
        else {
            return n;
        };
        // Hop until the empty slot is within the neighborhood.
        'hop: while dist(home, e) >= h {
            for d in (1..h).rev() {
                let cand = (e + entries - d) % entries;
                let cand_home = slots[cand];
                if cand_home != usize::MAX && dist(cand_home, e) < h {
                    slots[e] = cand_home;
                    slots[cand] = usize::MAX;
                    e = cand;
                    continue 'hop;
                }
            }
            return n;
        }
        slots[e] = home;
    }
    entries
}

fn race_fill(entries: usize, b: usize, rng: &mut SmallRng) -> usize {
    // Groups of three buckets: [main0 | shared overflow | main1].
    let groups = entries / (3 * b);
    if groups == 0 {
        return 0;
    }
    let mut load = vec![[0usize; 3]; groups];
    let cap = entries.min(groups * 3 * b);
    for n in 0..cap {
        let g1 = rng.gen_range(0..groups);
        let g2 = rng.gen_range(0..groups);
        // Candidate (group, bucket) pairs; prefer main buckets, then the
        // shared overflow buckets (RACE's insertion order).
        let mains = [(g1, 0usize), (g2, 2)];
        let overflows = [(g1, 1usize), (g2, 1)];
        let mut placed = false;
        for &(g, slot) in mains.iter().chain(overflows.iter()) {
            if load[g][slot] < b {
                load[g][slot] += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            return n;
        }
    }
    cap
}

fn farm_fill(entries: usize, b: usize, rng: &mut SmallRng) -> usize {
    // An item hashed to bucket h may live in bucket h or h+1 (mod B):
    // a two-bucket neighborhood at bucket granularity, chain disabled.
    let buckets = entries / b;
    if buckets < 2 {
        return 0;
    }
    let mut here = vec![0usize; buckets]; // residents hashed to this bucket
    let mut pushed = vec![0usize; buckets]; // residents hashed to i-1
    let full = |i: usize, here: &[usize], pushed: &[usize]| here[i] + pushed[i] >= b;
    for n in 0..entries {
        let h = rng.gen_range(0..buckets);
        let h2 = (h + 1) % buckets;
        if !full(h, &here, &pushed) {
            here[h] += 1;
        } else if !full(h2, &here, &pushed) {
            pushed[h2] += 1;
        } else if here[h2] > 0 && !full((h2 + 1) % buckets, &here, &pushed) {
            // Move one of h2's own residents onward to make room.
            here[h2] -= 1;
            pushed[(h2 + 1) % buckets] += 1;
            pushed[h2] += 1;
        } else {
            return n;
        }
    }
    entries
}

/// The Fig. 3d sweep: every scheme/parameter point the paper plots.
pub fn fig3d_points() -> Vec<(Scheme, usize)> {
    let mut v = Vec::new();
    for b in [1usize, 2, 4, 8, 16] {
        v.push((Scheme::Assoc(b), b));
    }
    for h in [2usize, 4, 8, 16] {
        v.push((Scheme::Hopscotch(h), h));
    }
    for b in [1usize, 2, 4] {
        v.push((Scheme::Race(b), 4 * b));
    }
    for b in [1usize, 2, 4, 8] {
        v.push((Scheme::Farm(b), 2 * b));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 128;
    const TRIALS: usize = 200;

    #[test]
    fn amplification_formulas() {
        assert_eq!(Scheme::Assoc(4).amplification(), 4);
        assert_eq!(Scheme::Hopscotch(8).amplification(), 8);
        assert_eq!(Scheme::Race(2).amplification(), 8);
        assert_eq!(Scheme::Farm(4).amplification(), 8);
    }

    #[test]
    fn hopscotch_beats_associativity_at_same_amplification() {
        for amp in [2usize, 4, 8] {
            let hop = Scheme::Hopscotch(amp).max_load_factor(N, TRIALS, 7);
            let assoc = Scheme::Assoc(amp).max_load_factor(N, TRIALS, 7);
            assert!(
                hop > assoc + 0.05,
                "amp {amp}: hopscotch {hop:.2} vs assoc {assoc:.2}"
            );
        }
    }

    #[test]
    fn hopscotch_h8_reaches_high_load() {
        let lf = Scheme::Hopscotch(8).max_load_factor(N, TRIALS, 7);
        assert!(lf > 0.80, "H=8 load factor {lf:.2}");
        let lf16 = Scheme::Hopscotch(16).max_load_factor(N, TRIALS, 7);
        assert!(lf16 > 0.93, "H=16 load factor {lf16:.2}");
    }

    #[test]
    fn load_factor_monotone_in_parameter() {
        let mono = |mk: fn(usize) -> Scheme, ps: &[usize]| {
            let lfs: Vec<f64> = ps
                .iter()
                .map(|&p| mk(p).max_load_factor(N, TRIALS, 7))
                .collect();
            for w in lfs.windows(2) {
                assert!(w[1] >= w[0] - 0.03, "not monotone: {lfs:?}");
            }
        };
        mono(Scheme::Assoc, &[1, 2, 4, 8]);
        mono(Scheme::Hopscotch, &[2, 4, 8, 16]);
        mono(Scheme::Farm, &[1, 2, 4]);
    }

    #[test]
    fn single_entry_assoc_is_poor() {
        let lf = Scheme::Assoc(1).max_load_factor(N, TRIALS, 7);
        // Birthday bound: the first collision lands around sqrt(N).
        assert!(lf < 0.25, "assoc(1) load factor {lf:.2}");
    }

    #[test]
    fn race_uses_two_choices_effectively() {
        let race = Scheme::Race(1).max_load_factor(N, TRIALS, 7);
        let assoc = Scheme::Assoc(1).max_load_factor(N, TRIALS, 7);
        assert!(race > assoc, "race {race:.2} vs assoc {assoc:.2}");
    }

    #[test]
    fn fig3d_sweep_is_complete() {
        let pts = fig3d_points();
        assert_eq!(pts.len(), 5 + 4 + 3 + 4);
        for (s, amp) in pts {
            assert_eq!(s.amplification(), amp);
        }
    }
}
