//! Deterministic hash functions shared by all indexes.
//!
//! A SplitMix64 finalizer provides the hopscotch home-entry hash, the
//! hotspot-buffer fingerprints, key scrambling for workload generators,
//! seed mixing and [`FixedState`], the hasher of the maps keyed by remote
//! addresses and keys; [`xorshift64star`] is the seeded stream behind retry
//! jitter and the serving layer's arrival processes.

use std::hash::{BuildHasherDefault, Hasher};

/// Seed of the hopscotch home-entry hash.
const SEED_HOME: u64 = 0x5EED_0FC4_17E0_0001;
/// Seed of the hotspot-buffer fingerprint hash.
const SEED_FP: u64 = 0xF16E_4412_AB00_0002;

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hasher state of the maps keyed by remote addresses or workload keys:
/// the same seed in every process, so nothing about them differs between
/// runs. Their keys are addresses this program allocated or keys its own
/// generators drew, never outside input, so SipHash's flooding resistance
/// (≈ 20 ns a probe) buys nothing.
pub type FixedState = BuildHasherDefault<MixHasher>;

/// Folds each written word into a SplitMix64 chain.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One step of a xorshift64 stream (shifts 13/7/17) with the xorshift64*
/// output multiplier: advances `state` and returns the scrambled output.
/// A zero state is a fixed point, so seed it nonzero.
#[inline]
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Seeded 64-bit hash of a key.
#[inline]
pub fn hash64(key: u64, seed: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// The hopscotch home entry of `key` in a table with `span` entries: the
/// hash modulo `span`, taken with a mask when `span` is a power of two.
#[inline]
pub fn home_entry(key: u64, span: usize) -> usize {
    let (h, span) = (hash64(key, SEED_HOME), span as u64);
    (if span.is_power_of_two() {
        h & (span - 1)
    } else {
        h % span
    }) as usize
}

/// Whether `key` falls in `[lo, hi)`, where `hi == u64::MAX` means
/// "unbounded above" (the rightmost node's fence).
#[inline]
pub fn in_range(key: u64, lo: u64, hi: u64) -> bool {
    key >= lo && (key < hi || hi == u64::MAX)
}

/// 16-bit fingerprint used by the hotspot buffer (§4.3).
#[inline]
pub fn fingerprint16(key: u64) -> u16 {
    (hash64(key, SEED_FP) >> 48) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_changes_bits() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn xorshift64star_stream_is_pinned() {
        let mut s = 1;
        let out: Vec<u64> = (0..3).map(|_| xorshift64star(&mut s)).collect();
        let want = [0xBAFA_CF62_4F01_C45D, 0x02DA_6891_E507_685D, 0xFE17_A361_146F_B7A5];
        assert_eq!(out, want);
        assert_eq!(s, 0x9B1E_842F_6E86_2629);
    }

    #[test]
    fn home_entry_in_range() {
        for k in 0..1000u64 {
            assert!(home_entry(k, 64) < 64);
        }
    }

    #[test]
    fn home_entry_masks_to_the_same_entry_it_divides_to() {
        for span in [16usize, 24, 32, 48, 64, 100, 128, 256, 512] {
            for k in 0..2_000u64 {
                let want = (hash64(k, SEED_HOME) % span as u64) as usize;
                assert_eq!(home_entry(k, span), want, "key {k}, span {span}");
            }
        }
    }

    #[test]
    fn home_entry_spreads() {
        let mut counts = [0usize; 16];
        for k in 0..16_000u64 {
            counts[home_entry(k, 16)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn hasher_spreads_aligned_addresses_over_low_and_high_bits() {
        use std::hash::BuildHasher;
        // Leaf addresses are multiples of the node size; a table index
        // comes from the low bits and a control byte from the top seven.
        let (mut low, mut high) = ([0u32; 64], [0u32; 64]);
        for leaf in 0..6_400u64 {
            let h = FixedState::default().hash_one((leaf << 12, (leaf % 64) as u16));
            low[(h % 64) as usize] += 1;
            high[(h >> 58) as usize] += 1;
        }
        assert!(
            low.iter().chain(&high).all(|c| (50..160).contains(c)),
            "{low:?} {high:?}"
        );
        let one = |x: u64| FixedState::default().hash_one(x);
        assert_eq!(one(7), one(7));
    }

    #[test]
    fn fingerprint_deterministic() {
        assert_eq!(fingerprint16(42), fingerprint16(42));
        assert_ne!(fingerprint16(42), fingerprint16(43));
    }
}
