//! The learned layer ROLEX and CHIME-Learned share.
//!
//! A piecewise-linear model over one contiguous array of leaves is the
//! whole compute-side index: a leaf's address is computable from its
//! position, and the model's error bound gives the window of leaves that
//! can own a key. The two indexes differ only in the leaf format `L` —
//! Sherman's sorted leaves ([`crate::Rolex`]) or CHIME's hopscotch leaves
//! ([`crate::ChimeLearned`]) — and in the owner/synonym-chain protocol run
//! over it; both chain overflow leaves off the owner, under its lock.

use std::sync::Arc;

use chime::leaf::{LeafFields, LeafSnapshot, LockedRead};
use dmem::indirect::Values;
use dmem::versioned::Fetches;
use dmem::{ChunkAlloc, Endpoint, GlobalAddr, Pool};

use crate::plr::PlrModel;

/// Retries of an owner search or a locked operation before giving up.
pub(crate) const OP_RETRY_LIMIT: usize = 100_000;

/// ROLEX configuration (also CHIME-Learned's).
#[derive(Debug, Clone, Copy)]
pub struct RolexConfig {
    /// Leaf span (entries per leaf), also the model's error bound, as in
    /// the paper. Paper default: 16.
    pub span: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Store values out-of-line (ROLEX-Indirect).
    pub indirect_values: bool,
    /// Use hopscotch leaf nodes (CHIME-Learned, Fig. 15b). Handled by
    /// [`crate::ChimeLearned`]; plain [`crate::Rolex`] ignores it.
    pub hopscotch_leaves: bool,
}

impl Default for RolexConfig {
    fn default() -> Self {
        RolexConfig {
            span: 16,
            value_size: 8,
            indirect_values: false,
            hopscotch_leaves: false,
        }
    }
}

impl RolexConfig {
    /// How leaf entries hold values.
    pub fn values(&self) -> Values {
        Values {
            value_size: self.value_size,
            indirect: self.indirect_values,
        }
    }
}

/// What every client of a learned index shares: the model (the CN cache)
/// and the leaf array it predicts into.
pub(crate) struct Directory<L> {
    pool: Arc<Pool>,
    pub(crate) cfg: RolexConfig,
    /// Operations on the leaf format.
    pub(crate) leaf: L,
    /// How leaf entries hold values.
    pub(crate) values: Values,
    /// The model: the whole compute-side cache.
    pub(crate) model: PlrModel,
    /// Address of leaf 0.
    base: GlobalAddr,
    /// Bytes between consecutive leaves: the leaf size, 64-byte aligned.
    stride: u64,
    /// Keys per leaf at load time (the model's positions per leaf).
    per_leaf: usize,
    /// Leaves in the array.
    pub(crate) num_leaves: usize,
}

impl<L> Directory<L> {
    /// Address of leaf `i`.
    pub(crate) fn leaf_addr(&self, i: usize) -> GlobalAddr {
        self.base.add(i as u64 * self.stride)
    }

    /// Candidate leaf-index window for `key`: the model's error bound,
    /// widened by `widen` leaves on each side.
    pub(crate) fn candidates(&self, key: u64, widen: usize) -> (usize, usize) {
        let pos = self.model.predict(key);
        let d = self.cfg.span as u64 + (widen as u64) * self.per_leaf as u64;
        let lo = (pos.saturating_sub(d) as usize) / self.per_leaf;
        let hi = ((pos + d) as usize / self.per_leaf).min(self.num_leaves - 1);
        (lo.min(self.num_leaves - 1), hi)
    }
}

/// A learned index over leaves of format `L`; cloning shares it.
pub struct Learned<L> {
    pub(crate) dir: Arc<Directory<L>>,
}

impl<L> Clone for Learned<L> {
    fn clone(&self) -> Self {
        Learned {
            dir: Arc::clone(&self.dir),
        }
    }
}

/// One client of a learned index: the shared directory, an endpoint, an
/// allocator for synonym leaves and value blocks, its READ buffers, and the
/// buffers its hopscotch leaves reuse (CHIME-Learned's: the value of a
/// probe whose caller wants none, the locked windows of a write, and a
/// scan's leaves and rows).
pub struct Client<L> {
    pub(crate) dir: Arc<Directory<L>>,
    pub(crate) ep: Endpoint,
    pub(crate) alloc: ChunkAlloc,
    /// READ buffers for leaf probes and reads (ROLEX's whole leaves,
    /// CHIME-Learned's neighborhoods).
    pub(crate) reads: Fetches,
    pub(crate) spare: Vec<u8>,
    /// The owner leaf's locked window.
    pub(crate) owner_read: LockedRead,
    /// A synonym leaf's window, read while the owner's stays in use.
    pub(crate) chain_read: LockedRead,
    /// READ buffers for a scan's whole-leaf reads.
    pub(crate) leaf_reads: Fetches<LeafFields>,
    /// A scan's leaves, and a `(key, leaf, value offset)` per row.
    pub(crate) scanned: (Vec<LeafSnapshot>, Vec<(u64, u32, u32)>),
}

impl<L> Learned<L> {
    /// Bulk-loads `items` (sorted by key, unique, non-zero keys) and trains
    /// the model: `per_leaf` items go to each `leaf_size`-byte leaf of one
    /// array on MN 0, and `write(leaf, ep, addr, entries, fences)` writes
    /// leaf `i` with its entries' values already stored as `cfg` says and
    /// the fences `[first key, next leaf's first key)` (0 and `u64::MAX`
    /// at the ends).
    pub(crate) fn load(
        pool: &Arc<Pool>,
        cfg: RolexConfig,
        leaf: L,
        leaf_size: usize,
        per_leaf: usize,
        items: &[(u64, Vec<u8>)],
        write: impl Fn(&L, &mut Endpoint, GlobalAddr, Vec<(u64, Vec<u8>)>, (u64, u64)),
    ) -> Self {
        assert!(!items.is_empty());
        assert!(items.windows(2).all(|p| p[0].0 < p[1].0), "items must be sorted");
        let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let model = PlrModel::train(&keys, cfg.span as u64);
        let num_leaves = items.len().div_ceil(per_leaf);
        let stride = leaf_size.div_ceil(64) as u64 * 64;
        let base = pool
            .mn(0)
            .alloc(num_leaves as u64 * stride)
            .expect("pool too small for the learned leaf array");
        let dir = Directory {
            pool: Arc::clone(pool),
            cfg,
            leaf,
            values: cfg.values(),
            model,
            base,
            stride,
            per_leaf,
            num_leaves,
        };
        let mut ep = Endpoint::new(Arc::clone(pool));
        let mut alloc = ChunkAlloc::with_defaults();
        let values = dir.values;
        for (i, chunk) in items.chunks(per_leaf).enumerate() {
            let lo = if i == 0 { 0 } else { chunk[0].0 };
            let hi = items.get((i + 1) * per_leaf).map_or(u64::MAX, |&(k, _)| k);
            let entries: Vec<(u64, Vec<u8>)> = chunk
                .iter()
                .map(|(k, v)| (*k, values.store(&mut ep, &mut alloc, *k, v).expect("pool")))
                .collect();
            write(&dir.leaf, &mut ep, dir.leaf_addr(i), entries, (lo, hi));
        }
        Learned { dir: Arc::new(dir) }
    }

    /// Creates a client (the model is shared — it is the CN cache).
    pub fn client(&self) -> Client<L> {
        Client {
            dir: Arc::clone(&self.dir),
            ep: Endpoint::new(Arc::clone(&self.dir.pool)),
            alloc: ChunkAlloc::sim_scaled(),
            reads: Fetches::default(),
            spare: Vec::new(),
            owner_read: LockedRead::default(),
            chain_read: LockedRead::default(),
            leaf_reads: Fetches::default(),
            scanned: Default::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RolexConfig {
        &self.dir.cfg
    }
}
