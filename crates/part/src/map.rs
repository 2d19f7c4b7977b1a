//! The range partition map.
//!
//! The key space (full `u64`, since benchmark keys are hashed) is cut into
//! contiguous ranges. Partition `i` covers `[starts[i], starts[i+1])` (the
//! last runs to `u64::MAX` inclusive) and is *homed* on one memory node:
//! its subtree root and leaf allocations are pinned there. Bounds are
//! static for a deployment — only homes change, when the migrator moves a
//! partition — so key→partition lookup never needs a remote read; the
//! remote routing table ([`crate::layout`]) carries just the epoch and the
//! home words. Proptests pin full coverage, no overlap, lookup ≡ linear
//! scan, and split/merge preservation under arbitrary op sequences.

/// A contiguous range partitioning of the `u64` key space with per-range
/// memory-node homes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Ascending range starts; `starts[0] == 0` so every key is covered.
    starts: Vec<u64>,
    /// Home memory node of each range.
    homes: Vec<u16>,
}

impl PartitionMap {
    /// Cuts the key space into `parts` equal ranges, homes round-robin
    /// over `mns` memory nodes.
    pub fn new_even(parts: usize, mns: u16) -> Self {
        assert!((1..=crate::layout::MAX_PARTS).contains(&parts));
        assert!(mns >= 1);
        let stride = u64::MAX / parts as u64;
        let m = PartitionMap {
            starts: (0..parts).map(|i| i as u64 * stride).collect(),
            homes: (0..parts).map(|i| (i % mns as usize) as u16).collect(),
        };
        m.validate();
        m
    }

    /// Builds a map from explicit range starts and homes.
    pub fn new(starts: Vec<u64>, homes: Vec<u16>) -> Self {
        let m = PartitionMap { starts, homes };
        m.validate();
        m
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Always `false`: a valid map covers the whole key space.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The partition owning `key` (binary search over range starts).
    pub fn lookup(&self, key: u64) -> usize {
        self.starts.partition_point(|&s| s <= key) - 1
    }

    /// Inclusive key bounds `[lo, hi]` of partition `p`.
    pub fn bounds(&self, p: usize) -> (u64, u64) {
        let lo = self.starts[p];
        let hi = match self.starts.get(p + 1) {
            Some(&next) => next - 1,
            None => u64::MAX,
        };
        (lo, hi)
    }

    /// Home memory node of partition `p`.
    pub fn home(&self, p: usize) -> u16 {
        self.homes[p]
    }

    /// All homes, in partition order.
    pub fn homes(&self) -> &[u16] {
        &self.homes
    }

    /// Re-homes partition `p` onto `mn` (what a migration publishes).
    pub fn set_home(&mut self, p: usize, mn: u16) {
        self.homes[p] = mn;
    }

    /// Splits partition `p` at the midpoint of its range; both halves keep
    /// `p`'s home. No-op (returns `false`) when the range has one key or
    /// the map is at capacity.
    pub fn split(&mut self, p: usize) -> bool {
        let (lo, hi) = self.bounds(p);
        if lo == hi || self.len() >= crate::layout::MAX_PARTS {
            return false;
        }
        let mid = lo + (hi - lo) / 2 + 1;
        self.starts.insert(p + 1, mid);
        self.homes.insert(p + 1, self.homes[p]);
        self.validate();
        true
    }

    /// Merges partition `p` with its right neighbour; the union keeps
    /// `p`'s home. Returns `false` when `p` is the last partition.
    pub fn merge(&mut self, p: usize) -> bool {
        if p + 1 >= self.len() {
            return false;
        }
        self.starts.remove(p + 1);
        self.homes.remove(p + 1);
        self.validate();
        true
    }

    /// Panics unless the map covers the key space exactly once: `starts`
    /// begins at 0, is strictly ascending, and pairs with `homes` 1:1.
    pub fn validate(&self) {
        assert!(!self.starts.is_empty(), "a map needs at least one range");
        assert_eq!(self.starts[0], 0, "range starts must cover key 0");
        assert!(
            self.starts.windows(2).all(|w| w[0] < w[1]),
            "range starts must be strictly ascending"
        );
        assert_eq!(self.starts.len(), self.homes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_map_covers_and_round_robins() {
        let m = PartitionMap::new_even(4, 3);
        assert_eq!(m.len(), 4);
        assert_eq!(m.lookup(0), 0);
        assert_eq!(m.lookup(u64::MAX), 3);
        assert_eq!(m.homes(), &[0, 1, 2, 0]);
        for p in 0..4 {
            let (lo, hi) = m.bounds(p);
            assert_eq!(m.lookup(lo), p);
            assert_eq!(m.lookup(hi), p);
        }
    }

    #[test]
    fn split_and_merge_are_inverse() {
        let mut m = PartitionMap::new_even(4, 2);
        let before = m.clone();
        assert!(m.split(1));
        assert_eq!(m.len(), 5);
        assert_eq!(m.home(1), m.home(2), "both halves keep the home");
        assert!(m.merge(1));
        assert_eq!(m, before);
    }
}
