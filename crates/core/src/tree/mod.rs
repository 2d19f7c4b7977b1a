//! The CHIME tree: search / insert / update / delete / scan.
//!
//! A [`Chime`] handle owns the shared description of one remote tree
//! (geometry, root-pointer slot). Each compute node creates one [`CnState`]
//! (internal-node cache + hotspot buffer, shared by its clients) and any
//! number of [`ChimeClient`]s, each with its own verb endpoint.
//!
//! The operation protocols follow §4.4 of the paper, including sibling-based
//! validation with the `argmax_keys` corner case, Sherman-style node splits
//! with up-propagation, and hotness-aware speculative reads. The internal
//! levels — descent, up-propagation, internal split, root growth — are the
//! [`crate::skeleton`] steps Sherman runs too. The client's own methods are
//! split along the phases of an operation, one definition of each protocol
//! step. Every step helper wraps exactly one phase frame, so an edit to a
//! step (a different lock verb, a batched read) is a one-place edit and
//! cannot change another step's attribution:
//!
//! | file | holds | step helpers (frame) |
//! |---|---|---|
//! | `mod.rs` | [`Chime`] / [`CnState`] / [`ChimeClient`] / [`TreeBinding`], the [`dmem::RangeIndex`] entry points, indirect-value store/resolve | `on_op_conflict` (retry + `retry_backoff`); `with_locked_read` lends each write the client's kept [`LockedRead`] (window, READ buffers, outgoing images); `read_whole` (`leaf_read`); `write_back`, `unlock`, `rewrite` (`write_back`) |
//! | `traverse.rs` | CHIME's [`SkeletonClient`] impl (left lean, backoff, forwarding override), leaf location | `reroute` — drop cached parent + refresh root + stale-route retry; `on_invalid_leaf`; `locate_leaf` (`traversal`) with `first_child_of` |
//! | `point.rs` | search, speculative read, sibling/fence chases; insert / update / delete | `lock_owner` — the one write preamble: locate-or-detour → CN-local slot → `lock_window` (lock + window READ, one doorbell: the neighborhood for updates and deletes, the group-aligned neighborhood for inserts, the whole leaf without piggybacking) → at most one more READ for an insert (whole leaf on a full bitmap, hop window when the neighborhood can take neither an upsert nor the key) → invalid-leaf and `owns_key` handling (a window key ≥ the key proves ownership), retried until the owner is held; `place` (window, whole-node fallback, split; the argmax entry only when no window key exceeds the key) |
//! | `smo.rs` | `split_leaf` (both halves rebuilt from the locked window's values, sorted by key as borrowed slices; pivots up through the skeleton's `insert_into_parent`), `try_merge` | — |
//! | `scan.rs` | `scan_impl` (behind `RangeIndex::scan_rows`), `check_integrity` | `Gathered` — the client's reused scan buffers: leaf snapshots (their READ buffers recycled through a `LeafReads`), and each row packed as a `u128` of (key, leaf, value offset), so one `select_nth_unstable` + `sort_unstable` orders rows by key, ties in gather order, and values are copied once, into the caller's `Rows`; `scan_from` (parent-guided batch reads, `leaf_read`; the next parent through the CN cache, `traversal`); `batch_len` — a doorbell takes leaves until the rows expected from their pivot ranges (the first one's above `start`) times the client's key density cover the rows missing to within one Poisson σ, ¾-full leaves before the first observation; `observe_density` — the density (`ChimeClient::scan_density`) over the interior leaves a client's scans read, 1 % decay per leaf; `walk_chain` — the one sibling-chain walker (gap bridge and tail drain, `scan_chain`); the one stale-parent reaction sits in `scan_impl` |
//! | `migrate.rs` | what `crates/part` needs: `rebind`, `leaf_addrs_under`, `move_leaf_into`, clock/alloc hooks | — |
//!
//! `crates/core/tests/op_shape.rs` pins, per operation kind and per Fig. 15
//! switch setting, the verbs, round trips, wire bytes and per-phase episode
//! counts these helpers produce.
mod migrate;
mod point;
mod scan;
mod smo;
mod traverse;

#[cfg(test)]
mod tests;

use std::borrow::Cow;
use std::sync::Arc;

use dmem::{
    indirect, ChunkAlloc, CnCell, Endpoint, GlobalAddr, IndexError, Phase, Pool, RangeIndex, RetryCause,
    Rows,
};

use crate::backoff::Backoff;
use crate::config::{ChimeConfig, KEY_SIZE};
use crate::hopscotch::Window;
use crate::hotspot::HotspotBuffer;
use crate::layout::LeafLayout;
use crate::leaf::{Fetches, LeafMeta, LeafOps, LockedRead};
use crate::lockword::LockWord;
use crate::skeleton::{Routes, Skeleton, SkeletonClient, OP_RETRY_LIMIT};

/// Shared description of one remote CHIME tree.
pub struct Shared {
    pool: Arc<Pool>,
    /// The tree configuration.
    pub cfg: ChimeConfig,
    skeleton: Skeleton,
    leaf: LeafOps,
}

/// A handle to a CHIME tree on the memory pool.
///
/// # Examples
///
/// ```
/// use chime::{Chime, ChimeConfig};
/// use dmem::{Pool, RangeIndex};
///
/// let pool = Pool::with_defaults(1, 64 << 20);
/// let tree = Chime::create(&pool, ChimeConfig::default(), 0);
/// let cn = tree.new_cn();
/// let mut client = tree.client(&cn);
/// client.insert(7, b"hello").unwrap();
/// assert_eq!(client.search(7).unwrap()[..5], *b"hello");
/// assert!(client.delete(7).unwrap());
/// ```
#[derive(Clone)]
pub struct Chime {
    shared: Arc<Shared>,
}

/// Per-compute-node shared state: the route state (internal-node cache,
/// root hint, local lock table) and the hotspot buffer, shared by all
/// clients of that CN. Both caches belong to the thread that called
/// [`Chime::new_cn`] ([`CnCell`]): every client of the CN runs there.
pub struct CnState {
    routes: Routes,
    hotspot: CnCell<HotspotBuffer>,
}

impl CnState {
    /// Bytes of compute-side memory this CN spends on the index.
    pub fn cache_bytes(&self) -> u64 {
        self.routes.cache_bytes() + self.hotspot.borrow_mut().bytes()
    }

    /// `(hits, lookups)` of the hotspot buffer.
    pub fn hotspot_stats(&self) -> (u64, u64) {
        self.hotspot.borrow_mut().hit_stats()
    }

    /// `(hits, misses)` of the internal-node cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.routes.cache_stats()
    }
}

/// Per-client operation counters beyond the raw verb statistics.
#[derive(Debug, Default, Clone)]
pub struct OpCounters {
    /// Speculative reads attempted.
    pub spec_attempts: u64,
    /// Speculative reads that returned the correct value.
    pub spec_hits: u64,
    /// Leaf splits this client performed.
    pub splits: u64,
    /// Sibling chases (half-split windows observed).
    pub chases: u64,
    /// Leaf merges this client performed.
    pub merges: u64,
    /// Compute-side cache invalidations triggered by sibling validation.
    pub invalidations: u64,
}

/// One client of a CHIME tree (implements [`RangeIndex`]).
pub struct ChimeClient {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    ep: Endpoint,
    alloc: ChunkAlloc,
    /// Operation counters.
    pub counters: OpCounters,
    /// Backoff state for whole-operation optimistic retries; the conflict
    /// streak resets at the start of each operation.
    retry_backoff: Backoff,
    /// One-shot descent override installed by a migration forwarding
    /// tombstone: the next traversal starts from this internal node (the
    /// moved subtree's root) instead of the live root slot.
    forward: Option<GlobalAddr>,
    /// Decayed `(keys, key width)` of interior leaves scanned: sizes batches.
    scan_density: (f64, f64),
    /// What scans gather, kept between scans for its buffers.
    scan_buffers: scan::Gathered,
    /// What writes lock and read, kept between writes for its buffers.
    locked: LockedRead,
    /// The READ buffers of lock-free point reads (neighborhood and
    /// speculative reads), kept between searches.
    point_reads: Fetches,
}

impl Chime {
    /// Creates a new empty tree whose root pointer lives in well-known slot
    /// `slot` of memory node 0.
    pub fn create(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64) -> Self {
        let t = Self::open(pool, cfg, slot);
        t.bootstrap(ChunkAlloc::with_defaults());
        t
    }

    /// Like [`Chime::create`], but every bootstrap allocation is pinned to
    /// memory node `mn` (partitioned deployments place each partition's
    /// subtree on its home MN). Uses the simulation-scaled chunk size so a
    /// fleet of partition trees does not exhaust the pool on reservation.
    pub fn create_pinned(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64, mn: u16) -> Self {
        let t = Self::open(pool, cfg, slot);
        t.bootstrap(ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn));
        t
    }

    /// Attaches to an existing tree whose root pointer lives in slot `slot`
    /// (no bootstrap writes; the creator already published the root).
    pub fn open(pool: &Arc<Pool>, cfg: ChimeConfig, slot: u64) -> Self {
        cfg.validate();
        let leaf = LeafOps::new(leaf_layout(&cfg)).with_lease_spins(cfg.lock_lease_spins);
        let shared = Arc::new(Shared {
            pool: Arc::clone(pool),
            cfg,
            skeleton: Skeleton::new(slot, cfg.internal_span),
            leaf,
        });
        Chime { shared }
    }

    fn bootstrap(&self, mut alloc: ChunkAlloc) {
        let s = &self.shared;
        let mut ep = Endpoint::new(Arc::clone(&s.pool));
        s.skeleton.bootstrap(&mut ep, &mut alloc, s.leaf.layout.node_size(), |ep, addr| {
            let w = s.leaf.layout.window(0, s.cfg.span);
            let meta = s.leaf.meta(GlobalAddr::NULL, true, (0, u64::MAX));
            s.leaf.write_new(ep, addr, &w, &meta);
        });
    }

    /// Creates the shared state for one compute node.
    pub fn new_cn(&self) -> Arc<CnState> {
        Arc::new(CnState {
            routes: Routes::new(self.shared.cfg.cache_bytes),
            hotspot: CnCell::new(HotspotBuffer::new(self.shared.cfg.hotspot_bytes)),
        })
    }

    /// Creates a client attached to compute node `cn`.
    pub fn client(&self, cn: &Arc<CnState>) -> ChimeClient {
        self.client_with_endpoint(cn, Endpoint::new(Arc::clone(&self.shared.pool)))
    }

    /// Creates a client whose node allocations (splits, indirect values)
    /// are pinned to memory node `mn` — see [`ChunkAlloc::pinned`].
    pub fn client_pinned(&self, cn: &Arc<CnState>, mn: u16) -> ChimeClient {
        let mut c = self.client(cn);
        c.alloc = ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn);
        c
    }

    /// Creates a client over a pre-built endpoint (e.g. one wired to a
    /// [`dmem::FaultSession`] for fault-injection runs).
    pub fn client_with_endpoint(&self, cn: &Arc<CnState>, ep: Endpoint) -> ChimeClient {
        let seed = 0xC1BE_u64 ^ ((ep.client_id() as u64) << 32);
        ChimeClient {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            ep,
            alloc: ChunkAlloc::sim_scaled(),
            counters: OpCounters::default(),
            retry_backoff: Backoff::new(seed),
            forward: None,
            scan_density: (0.0, 0.0),
            scan_buffers: scan::Gathered::default(),
            locked: LockedRead::default(),
            point_reads: Fetches::default(),
        }
    }

    /// Builds a detached [`TreeBinding`] for this tree. `home` pins the
    /// binding's allocator to that memory node (partitioned deployments);
    /// `None` round-robins allocations as usual.
    pub fn binding(&self, cn: &Arc<CnState>, home: Option<u16>) -> TreeBinding {
        TreeBinding {
            shared: Arc::clone(&self.shared),
            cn: Arc::clone(cn),
            alloc: match home {
                Some(mn) => ChunkAlloc::pinned(dmem::alloc::SIM_CHUNK_SIZE, mn),
                None => ChunkAlloc::sim_scaled(),
            },
        }
    }
}

/// A client's attachment to one tree: the root slot and geometry, the
/// CN-local cache state, and the allocator that places the tree's new
/// nodes. A partition router holds one binding per partition and swaps
/// them through a single [`ChimeClient`] (see [`ChimeClient::rebind`]),
/// so one endpoint — one clock, one statistics block, one phase profile —
/// serves the whole key space.
pub struct TreeBinding {
    shared: Arc<Shared>,
    cn: Arc<CnState>,
    alloc: ChunkAlloc,
}

/// Derives the leaf geometry from a configuration.
pub fn leaf_layout(cfg: &ChimeConfig) -> LeafLayout {
    LeafLayout {
        span: cfg.span,
        h: cfg.neighborhood,
        key_size: KEY_SIZE,
        value_size: if cfg.indirect_values {
            8
        } else {
            cfg.value_size
        },
        replication: cfg.metadata_replication,
        fences: !cfg.sibling_validation,
        piggyback: cfg.vacancy_piggyback,
    }
}

impl ChimeClient {
    /// Advances this client's virtual clock by `ns`, attributing the time
    /// to `phase`. The serve layer charges request decode, admission waits,
    /// backpressure deferrals and response encoding through this, so those
    /// costs land in the same phase taxonomy (and, under the coroutine
    /// engine, park the lane like any other virtual-time advance).
    pub fn advance_phase(&mut self, phase: Phase, ns: u64) {
        self.in_phase(phase, |me| me.ep.advance_clock(ns));
    }

    fn leaf(&self) -> LeafOps {
        self.shared.leaf
    }

    fn span(&self) -> usize {
        self.shared.cfg.span
    }

    fn h(&self) -> usize {
        self.shared.cfg.neighborhood
    }

    /// Records a whole-operation optimistic retry attributed to its root
    /// `cause` and backs off with seeded jitter before the next attempt.
    fn on_op_conflict(&mut self, cause: RetryCause) {
        self.ep.note_op_retry(cause);
        self.in_phase(Phase::RetryBackoff, |me| me.retry_backoff.wait(&mut me.ep));
    }

    /// Runs `f` with the client's [`LockedRead`], whose buffers every locked
    /// read of a write refills, and keeps it for the next write.
    fn with_locked_read<R>(&mut self, f: impl FnOnce(&mut Self, &mut LockedRead) -> R) -> R {
        let mut lr = std::mem::take(&mut self.locked);
        let r = f(self, &mut lr);
        self.locked = lr;
        r
    }

    // Step helpers: each owns exactly one phase frame.

    /// Reads the whole leaf into `lr` under its lock (split prep,
    /// delete-of-max, the placement fallback).
    fn read_whole(&mut self, addr: GlobalAddr, word: LockWord, lr: &mut LockedRead) {
        self.in_phase(Phase::LeafRead, |me| {
            me.leaf().read_full_locked(&mut me.ep, addr, word, lr)
        });
    }

    /// Writes the dirty part of the window back and releases the leaf lock
    /// with `word` as the new lock word (vacancy + argmax).
    fn write_back(&mut self, addr: GlobalAddr, lr: &mut LockedRead, word: LockWord) {
        self.in_phase(Phase::WriteBack, |me| {
            lr.write_back(&me.leaf(), &mut me.ep, addr, word)
        });
    }

    /// Releases leaf locks without writing entries (abort paths); the locks
    /// go in one frame, in the order given.
    fn unlock(&mut self, held: &[(GlobalAddr, LockWord)]) {
        self.in_phase(Phase::WriteBack, |me| {
            for &(addr, word) in held {
                me.leaf().unlock(&mut me.ep, addr, word);
            }
        });
    }

    /// Rewrites a whole locked leaf (new content, bumped node version) and
    /// releases its lock: the publish point of splits, merges and moves.
    fn rewrite(&mut self, addr: GlobalAddr, w: &Window, nv: u8, meta: &LeafMeta) {
        self.in_phase(Phase::WriteBack, |me| {
            me.leaf().rewrite_and_unlock(&mut me.ep, addr, w, nv, meta)
        });
    }

    // ------------------------------------------------------------------
    // Indirect values (§4.5)
    // ------------------------------------------------------------------

    /// Converts an application value into the stored leaf-entry bytes: the
    /// value itself, borrowed (the window zero-pads or cuts it to
    /// `value_size` as it stores it), or a pointer to a freshly written
    /// value block.
    fn store_value<'v>(
        &mut self,
        key: u64,
        value: &'v [u8],
    ) -> Result<Cow<'v, [u8]>, IndexError> {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return Ok(Cow::Borrowed(value));
        }
        let addr = self.alloc_remote(indirect::block_len(cfg.value_size))?;
        let block = indirect::encode(key, value, cfg.value_size);
        self.in_phase(Phase::WriteBack, |me| me.ep.write(addr, &block));
        Ok(Cow::Owned(indirect::pointer(addr)))
    }

    /// Converts the stored leaf-entry bytes in `value` into the application
    /// value, in place: an indirect value's block is read over its pointer.
    fn resolve_in_place(&mut self, value: &mut Vec<u8>) {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return;
        }
        self.in_phase(Phase::LeafRead, |me| {
            indirect::load_in_place(&mut me.ep, value, cfg.value_size)
        });
    }

    /// Appends the row of `key` to `rows`: the application value of
    /// `stored` ([`Self::resolve_in_place`]), written into the arena.
    fn push_row(&mut self, key: u64, stored: &[u8], rows: &mut Rows) {
        let cfg = self.shared.cfg;
        if !cfg.indirect_values {
            return rows.push(key, stored);
        }
        rows.push_with(key, |bytes| {
            self.in_phase(Phase::LeafRead, |me| {
                indirect::load_into(&mut me.ep, stored, cfg.value_size, bytes)
            })
        });
    }
}

impl RangeIndex for ChimeClient {
    dmem::span_ops!();

    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    fn cache_bytes(&self) -> u64 {
        self.cn.cache_bytes()
    }
}
