//! Allocation budget of the read paths, counted exactly.
//!
//! Host wall time is too noisy for `cargo test`; the number of heap
//! allocations an operation makes is not. A fixed-seed tree and this
//! binary's own counting allocator pin the budgets the de-striped fetch and
//! the slice-based leaf decoder bought: what is left per operation is the
//! fetch buffer(s), their container and the `Vec<u8>` per returned value
//! that `RangeIndex`'s signatures demand.
//!
//! Counts are per thread, as in `benchmark/src/alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chime::{Chime, ChimeConfig};
use dmem::{Pool, RangeIndex, TimeSeries};

thread_local! {
    // Per thread, so the test harness's own threads cannot disturb a count;
    // const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter increment that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, i.e. from `System`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

const KEYS: u64 = 10_000;
const ROWS: usize = 50;

/// SplitMix64: the fixed key stream of the test.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tree(cfg: ChimeConfig) -> chime::ChimeClient {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Chime::create(&pool, cfg, 0);
    let mut client = tree.client(&tree.new_cn());
    for k in 1..=KEYS {
        client.insert(k, &k.to_le_bytes()).unwrap();
    }
    // One telemetry window for the rest of the run: the always-on time
    // series allocates a map entry per window of virtual time, a sink cost
    // (ROADMAP item 3) that would otherwise land on whichever op crosses a
    // window boundary.
    client.endpoint_mut().telemetry_mut().series = TimeSeries::new(u64::MAX);
    assert!(client.search(1).is_some());
    client
}

#[test]
fn read_paths_stay_within_their_allocation_budgets() {
    let probes: Vec<u64> = (0..2_000).map(|i| 1 + mix(i) % KEYS).collect();

    // Neighborhood reads (no hotspot buffer, so no speculation): the piece
    // container, one buffer per piece (two when the neighborhood wraps
    // around the table) and the returned value.
    let mut client = tree(ChimeConfig {
        hotspot_bytes: 0,
        ..ChimeConfig::default()
    });
    // Touch every key once: the internal nodes are cached afterwards.
    for k in 1..=KEYS {
        assert!(client.search(k).is_some());
    }
    let remote_reads = client.endpoint().stats().reads;
    for &k in &probes {
        let (n, v) = allocs(|| client.search(k));
        assert_eq!(v.as_deref(), Some(&k.to_le_bytes()[..]));
        assert!(n <= 4, "cache-hit search of {k} allocated {n} times");
    }
    assert_eq!(
        client.endpoint().stats().reads - remote_reads,
        probes.len() as u64 + probes.iter().filter(|&&k| wraps(k)).count() as u64,
        "every probe must be a cache hit: leaf READs only"
    );

    // A scan allocates the returned rows' values plus a per-leaf and
    // per-round constant: snapshot image + keys per leaf, the batch's
    // bookkeeping vectors per round.
    let mut rows = Vec::with_capacity(ROWS);
    for &k in &probes[..500] {
        rows.clear();
        let (n, ()) = allocs(|| client.scan(k, ROWS, &mut rows));
        assert!(rows.len() == ROWS || rows.last().is_some_and(|r| r.0 == KEYS));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(
            n <= rows.len() as u64 + 25,
            "scan of {} rows from {k} allocated {n} times",
            rows.len()
        );
    }

    // Speculative-read hits: the entry buffer and the returned value. A
    // handful of hot keys, so the hotspot buffer's LFU index (a `BTreeSet`)
    // stays a single node and its own bookkeeping allocates nothing.
    let mut client = tree(ChimeConfig::default());
    let hot = &probes[..8];
    for &k in hot {
        assert!(client.search(k).is_some()); // caches the path, marks the slot hot
    }
    for &k in hot.iter().cycle().take(1_000) {
        let hits = client.counters.spec_hits;
        let (n, v) = allocs(|| client.search(k));
        assert_eq!(v.as_deref(), Some(&k.to_le_bytes()[..]));
        assert_eq!(client.counters.spec_hits, hits + 1, "search of {k} did not speculate");
        assert!(n <= 2, "speculative-read hit on {k} allocated {n} times");
    }
}

/// Whether `key`'s neighborhood wraps around the default 64-entry table (and
/// so is fetched as two pieces).
fn wraps(key: u64) -> bool {
    let cfg = ChimeConfig::default();
    dmem::hash::home_entry(key, cfg.span) + cfg.neighborhood > cfg.span
}
