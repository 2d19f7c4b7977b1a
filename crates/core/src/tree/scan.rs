//! Range scan over the leaf level, and the whole-tree integrity walk.

use std::rc::Rc;

use dmem::versioned::Fetches;
use dmem::{GlobalAddr, Phase, Rows};

use super::{ChimeClient, OP_RETRY_LIMIT};
use crate::cache::Route;
use crate::internal::InternalNode;
use crate::leaf::{LeafFields, LeafSnapshot};
use crate::lockword::ARGMAX_NONE;
use crate::skeleton::SkeletonClient;

/// Max split-off leaves a scan will bridge via sibling pointers between two
/// consecutive parent entries before declaring the parent view stale.
const SCAN_BRIDGE_LIMIT: usize = 64;

/// A scan's working set, held by its client and reused across scans: the
/// leaf snapshots one attempt read, how many of their rows have a key
/// `>= start` with the OR and the AND of those keys, the ranks that order
/// the rows ([`order`]) and the doorbell in hand; the leaves' buffers go
/// back to the client's whole-leaf READ buffers. A row is named by its leaf
/// and slot, and its key and value stay in the snapshot until the rows to
/// return are known.
pub(super) struct Gathered {
    leaves: Vec<LeafSnapshot>,
    rows: usize,
    or: u64,
    and: u64,
    ranks: Vec<u64>,
    batch: Vec<LeafSnapshot>,
}

impl Default for Gathered {
    fn default() -> Self {
        Gathered {
            leaves: Vec::new(),
            rows: 0,
            or: 0,
            and: u64::MAX,
            ranks: Vec::new(),
            batch: Vec::new(),
        }
    }
}

impl Gathered {
    fn push(&mut self, leaf: LeafSnapshot, start: u64) {
        self.leaves.push(leaf);
        self.count_last(start);
    }

    /// Folds the rows of the last leaf read into the count and the key
    /// bits: every slot is folded, and counts when its key is `>= start`
    /// (an empty slot's 0 never is).
    fn count_last(&mut self, start: u64) {
        for &k in &self.leaves.last().expect("a leaf").keys {
            let kept = 0u64.wrapping_sub(u64::from(k >= start));
            (self.or, self.and) = (self.or | k & kept, self.and & (k | !kept));
            self.rows += usize::from(k >= start);
        }
    }

    /// The first `count` rows, in key order with ties in gather order:
    /// ranks every row `>= start` by its key and its index, leaf by leaf
    /// and slot by slot (`leaf << bits | slot`), then orders them.
    fn order(&mut self, start: u64, count: usize) -> impl Iterator<Item = (u64, &[u8])> {
        let span = self.leaves.first().map_or(1, |l| l.keys.len());
        let bits = span.next_power_of_two().trailing_zeros();
        let rank = Rank::new(self.or ^ self.and, (self.leaves.len() as u64) << bits);
        let ranks = &mut self.ranks;
        ranks.resize(self.leaves.len() * span, 0);
        let mut n = 0;
        for (j, leaf) in self.leaves.iter().enumerate() {
            for (slot, &k) in leaf.keys.iter().enumerate() {
                ranks[n] = rank.of(k, (j << bits | slot) as u64);
                n += usize::from(k >= start);
            }
        }
        ranks.truncate(n);
        let (leaves, mask) = (&self.leaves, (1 << bits) - 1);
        order(rank, ranks, count, |i| leaves[i >> bits].keys[i & mask]);
        ranks.iter().map(move |&i| {
            let (leaf, slot) = (&leaves[i as usize >> bits], i as usize & mask);
            (leaf.keys[slot], leaf.value(slot))
        })
    }

    /// Drops the attempt's rows and hands its leaves' buffers back to
    /// `reads`.
    fn reset(&mut self, reads: &mut Fetches<LeafFields>) {
        (self.rows, self.or, self.and) = (0, 0, u64::MAX);
        for leaf in self.leaves.drain(..) {
            leaf.recycle(reads);
        }
    }
}

/// How [`order`] ranks rows: a row's rank is its key's high bits with the
/// row's index in the low bits that every index needs. The bits every key
/// shares carry no order and are shifted out first, so clustered keys keep
/// as many distinguishing bits as random ones.
#[derive(Debug, Clone, Copy)]
pub(super) struct Rank {
    shift: u32,
    low: u64,
}

impl Rank {
    /// The ranking of rows whose keys differ in the bits `varying`, with
    /// indices below `n`.
    pub(super) fn new(varying: u64, n: u64) -> Self {
        Rank {
            shift: varying.leading_zeros().min(63),
            low: n.next_power_of_two() - 1,
        }
    }

    /// The rank of the row at `index` with key `key`.
    pub(super) fn of(self, key: u64, index: u64) -> u64 {
        (key << self.shift) & !self.low | index
    }
}

/// Leaves in `ranks`, which hold the ranks of some rows, the indices of
/// the `count` rows that come first in `(key, index)` order, in that
/// order; `key(i)` is the key of the row at index `i`. The selection and
/// the sort run on the `u64` ranks, and only rows whose ranks share their
/// high bits are settled by the full `(key, index)`.
pub(super) fn order(rank: Rank, ranks: &mut Vec<u64>, count: usize, key: impl Fn(usize) -> u64) {
    let (low, n) = (rank.low, ranks.len());
    let high = |r: &u64| r & !low;
    if n > count {
        ranks.select_nth_unstable(count);
        // Every row that shares the cut's high bits may belong in front
        // of it by its full key: bring them all in.
        let cut = high(&ranks[count]);
        let mut end = count;
        for j in count..n {
            if high(&ranks[j]) == cut {
                ranks.swap(end, j);
                end += 1;
            }
        }
        ranks.truncate(end);
    }
    ranks.sort_unstable();
    for run in ranks.chunk_by_mut(|a, b| high(a) == high(b)).filter(|run| run.len() > 1) {
        run.sort_unstable_by_key(|&r| (key((r & low) as usize), r));
    }
    ranks.truncate(count);
    for r in ranks.iter_mut() {
        *r &= low;
    }
}

impl ChimeClient {
    pub(super) fn scan_impl(&mut self, start: u64, count: usize, out: &mut Rows) {
        if count == 0 {
            return;
        }
        self.retry_backoff.reset();
        let mut got = std::mem::take(&mut self.scan_buffers);
        for _ in 0..OP_RETRY_LIMIT {
            let (mut parent, idx) = self.locate_parent(start);
            got.reset(&mut self.leaf_reads);
            if self.scan_from(&mut parent, idx, start, count, &mut got) {
                for (k, stored) in got.order(start, count) {
                    self.push_row(k, stored, out);
                }
                got.reset(&mut self.leaf_reads);
                self.scan_buffers = got;
                return;
            }
            // The parent view proved stale (a retired leaf, or a sibling
            // chain that does not reconnect): drop it and start over.
            self.counters.invalidations += 1;
            self.reroute(parent.addr);
        }
        panic!("scan retry limit from key {start}");
    }

    /// One pass over the leaf level: batch-reads the children of `parent`
    /// from `idx` and of its right siblings (advancing `parent`), following
    /// the leaf sibling chain wherever it runs ahead of the parents. A
    /// cached parent that leaned left past a pivot sharing `start`'s bucket
    /// starts one child early: its rows are below `start`, and the chain
    /// bridges on. Returns `false` when the current `parent` no longer
    /// matches the leaf level.
    fn scan_from(
        &mut self,
        parent: &mut Rc<Route>,
        mut idx: usize,
        start: u64,
        count: usize,
        got: &mut Gathered,
    ) -> bool {
        // Right sibling of the previously consumed leaf: every further
        // leaf must continue this chain. A half-split leaf may be linked
        // in the chain before its pivot reaches the parent (B-link), so
        // a gap is bridged by walking the sibling pointers; only a chain
        // that cannot reconnect means the parent view is stale.
        let mut chain: Option<GlobalAddr> = None;
        loop {
            // Batch-read the next group of candidate leaves in one RTT.
            let take = self.batch_len(parent, idx, start, count.saturating_sub(got.rows));
            let addrs = &parent.children()[idx..idx + take];
            let mut batch = std::mem::take(&mut got.batch);
            self.in_phase(Phase::LeafRead, |me| {
                me.leaf()
                    .read_snapshots(&mut me.ep, addrs, &mut me.leaf_reads, &mut batch)
            });
            for (i, snap) in batch.drain(..).enumerate() {
                if !snap.meta.valid {
                    return false; // deprecated leaf
                }
                // Bridge split-off leaves the parent does not know yet.
                let addr = parent.children()[idx + i];
                if !chain.is_none_or(|c| self.walk_chain(c, Some(addr), start, count, got)) {
                    return false;
                }
                chain = Some(snap.meta.sibling);
                self.observe_density(parent.child_range(idx + i), &snap);
                got.push(snap, start);
            }
            got.batch = batch;
            idx += take;
            if got.rows >= count {
                return true;
            }
            if idx >= parent.children().len() {
                if parent.sibling.is_null() {
                    // Drain trailing split-off leaves past the parent's
                    // last known child before concluding the tree ends.
                    let c = chain.unwrap_or(GlobalAddr::NULL);
                    return self.walk_chain(c, None, start, count, got);
                }
                // Cached: a stale copy is caught like a stale first parent.
                let (at, key) = (parent.sibling, parent.fence_high);
                let next = self.in_phase(Phase::Traversal, |me| me.read_internal_cached(at, key).0);
                if !next.valid {
                    return false;
                }
                *parent = next;
                idx = 0;
            }
        }
    }

    /// Folds a leaf's keys and key range (bucket-floored, see
    /// [`Route::child_range`]) into the key density, decaying the earlier
    /// ones by 1 %; edge leaves (ranges to 0 or `u64::MAX`) stay out.
    fn observe_density(&mut self, (lo, hi): (u64, u64), leaf: &LeafSnapshot) {
        if lo != 0 && hi != u64::MAX {
            let keys = leaf.occupied() as f64;
            let (k, w) = self.scan_density;
            self.scan_density = (k * 0.99 + keys, w * 0.99 + (hi - lo) as f64);
        }
    }

    /// How many of `parent`'s children from `idx` one doorbell reads: until the
    /// rows expected (key density × key range above `start`) cover `need` within
    /// one Poisson σ. Leaves count as ¾ full until a density is seen.
    fn batch_len(&self, parent: &Route, idx: usize, start: u64, need: usize) -> usize {
        let (left, (keys, width)) = (parent.children().len() - idx, self.scan_density);
        if width == 0.0 {
            return need.div_ceil(self.span() * 3 / 4).clamp(1, left);
        }
        let mut expect = 0.0;
        for take in 1..left {
            let (lo, hi) = parent.child_range(idx + take - 1);
            expect += keys / width * hi.saturating_sub(lo.max(start)) as f64;
            if expect + expect.sqrt() >= need as f64 {
                return take;
            }
        }
        left
    }

    /// Walks the leaf sibling chain from `c`, one leaf per round trip.
    /// With a `target` (the parent's next known child) the walk bridges
    /// the gap up to it and a chain that ends first is stale; without one
    /// it drains the tail until the chain ends or `count` rows are in hand.
    /// A chain that wanders past the bridge limit is stale either way
    /// (`false`).
    fn walk_chain(
        &mut self,
        mut c: GlobalAddr,
        target: Option<GlobalAddr>,
        start: u64,
        count: usize,
        got: &mut Gathered,
    ) -> bool {
        for hops in 0.. {
            let arrived = match target {
                Some(t) => c == t,
                None => c.is_null() || got.rows >= count,
            };
            if arrived {
                break;
            }
            if c.is_null() || hops >= SCAN_BRIDGE_LIMIT {
                return false;
            }
            self.in_phase(Phase::ScanChain, |me| {
                me.leaf()
                    .read_snapshots(&mut me.ep, &[c], &mut me.leaf_reads, &mut got.leaves)
            });
            let meta = got.leaves.last().expect("one snapshot per address").meta;
            if !meta.valid {
                return false;
            }
            c = meta.sibling;
            got.count_last(start);
        }
        true
    }

    /// Walks the whole remote tree and verifies its structural invariants
    /// (test/debug aid; issues many READs):
    ///
    /// * internal fences tile the key space and children respect pivots;
    /// * the leaf sibling chain is reachable left-to-right with strictly
    ///   ascending key ranges and no duplicates;
    /// * every leaf satisfies the hopscotch bitmap/occupancy bijection
    ///   (checked by the validated read itself);
    /// * the lock word's argmax names the true maximum key.
    ///
    /// Returns the total number of keys, or a description of the first
    /// violation.
    pub fn check_integrity(&mut self) -> Result<u64, String> {
        let root = self.refresh_root();
        let node = self.shared.skeleton.internal.read(&mut self.ep, root);
        if node.fence_low != 0 || node.fence_high != u64::MAX {
            return Err(format!(
                "root fences not unbounded: [{}, {}]",
                node.fence_low, node.fence_high
            ));
        }
        let leftmost_leaf = self.check_internal_level(&node)?;
        // Walk the leaf chain.
        let mut addr = leftmost_leaf;
        let mut prev_max: Option<u64> = None;
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        while !addr.is_null() {
            if !seen.insert(addr.raw()) {
                return Err(format!("leaf chain cycle at {addr:?}"));
            }
            let snap = self.leaf().read_snapshot(&mut self.ep, addr, &mut self.leaf_reads);
            if !snap.meta.valid {
                return Err(format!("invalid leaf {addr:?} in chain"));
            }
            let keys: Vec<u64> = snap.keys.iter().copied().filter(|&k| k != 0).collect();
            if let (Some(pmax), Some(&min)) = (prev_max, keys.iter().min()) {
                if min <= pmax {
                    return Err(format!(
                        "leaf {addr:?} min {min} <= previous leaf max {pmax}"
                    ));
                }
            }
            // argmax in the lock word must name the true maximum. A leaf
            // with keys is re-read under the lock (the snapshot may have
            // raced a writer).
            let true_max = keys.iter().max().copied();
            let _lk = self.local_lock(addr);
            let word = self.leaf().lock(&mut self.ep, addr);
            let named = word.argmax() != ARGMAX_NONE;
            let locked_max = match true_max {
                Some(_) if named => self.with_locked_read(|me, lr| {
                    me.read_whole(addr, word, lr);
                    lr.max_key
                }),
                _ => None,
            };
            self.unlock(&[(addr, word)]);
            match true_max {
                Some(mx) if named && locked_max.is_none() => {
                    return Err(format!("leaf {addr:?} argmax empty but max {mx}"));
                }
                mx if mx.is_some() != named => {
                    let am = word.argmax();
                    return Err(format!("leaf {addr:?} argmax {am} vs max {mx:?}"));
                }
                _ => {}
            }
            prev_max = true_max.or(prev_max);
            total += keys.len() as u64;
            addr = snap.meta.sibling;
        }
        Ok(total)
    }

    /// Recursively checks one internal node and its subtree; returns the
    /// leftmost leaf address under it.
    fn check_internal_level(&mut self, node: &InternalNode) -> Result<GlobalAddr, String> {
        if node.entries.is_empty() {
            return Err(format!("internal {:?} has no entries", node.addr));
        }
        if node.entries[0].0 != node.fence_low {
            return Err(format!(
                "internal {:?} first pivot {} != fence_low {}",
                node.addr, node.entries[0].0, node.fence_low
            ));
        }
        for w in node.entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("internal {:?} pivots not ascending", node.addr));
            }
        }
        if node.level == 1 {
            return Ok(node.entries[0].1);
        }
        let mut leftmost = GlobalAddr::NULL;
        for (i, &(pivot, child)) in node.entries.iter().enumerate() {
            let c = self.shared.skeleton.internal.read(&mut self.ep, child);
            if c.level != node.level - 1 {
                return Err(format!(
                    "child {child:?} level {} under level {}",
                    c.level, node.level
                ));
            }
            if c.fence_low != pivot {
                return Err(format!(
                    "child {child:?} fence_low {} != pivot {pivot}",
                    c.fence_low
                ));
            }
            let hi = node
                .entries
                .get(i + 1)
                .map(|e| e.0)
                .unwrap_or(node.fence_high);
            if c.fence_high > hi && (hi != u64::MAX) {
                return Err(format!(
                    "child {child:?} fence_high {} beyond parent bound {hi}",
                    c.fence_high
                ));
            }
            let lm = self.check_internal_level(&c)?;
            if i == 0 {
                leftmost = lm;
            }
        }
        Ok(leftmost)
    }
}
