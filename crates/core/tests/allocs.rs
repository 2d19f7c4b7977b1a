//! Allocation budgets of the read and write paths, counted exactly.
//!
//! Host wall time is too noisy for `cargo test`; the number of heap
//! allocations an operation makes is not. A fixed-seed tree and this
//! binary's own counting allocator pin the budgets the de-striped fetch,
//! the slice-based leaf decoder and the single write-side codec bought: a
//! search into a reused value buffer allocates nothing (its READ buffers
//! are the client's), and the allocating `search` only the returned
//! `Vec<u8>`; a scan into a reused `Rows` arena allocates nothing;
//! a write reads, holds and encodes its window in buffers the client keeps
//! and stores an inline value straight from the caller's slice, so a warm
//! update or non-splitting insert allocates nothing.
//!
//! Counts are per thread, as in `benchmark/src/alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chime::hotspot::{HotspotBuffer, ENTRY_BYTES};
use chime::{Chime, ChimeConfig};
use dmem::{GlobalAddr, Pool, RangeIndex};

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
    // `search_into` a reused buffer: nothing, on a hit or on an absent key
    // (above the preloaded ones, so in the rightmost leaf, or between them
    // once a key is deleted).
    let mut value = Vec::new();
    assert!(client.search_into(probes[0], &mut value));
    for &k in &probes {
        let (n, found) = allocs(|| client.search_into(k, &mut value));
        assert!(found && value == k.to_le_bytes(), "search_into of {k}");
        assert_eq!(n, 0, "cache-hit search_into of {k} allocated {n} times");
    }
    assert!(client.delete(probes[1]).unwrap());
    for k in [probes[1], KEYS + 1, KEYS + 1_000_000] {
        let (n, found) = allocs(|| client.search_into(k, &mut value));
        assert!(!found, "absent {k} found");
        assert_eq!(n, 0, "search_into of absent {k} allocated {n} times");
    }
    client.insert(probes[1], &probes[1].to_le_bytes()).unwrap();

    // The allocating `scan` is `scan_rows` into a fresh arena: the returned
    // rows' values, the arena's key and value-end vectors, and the doublings
    // of its value bytes. The first scan sizes the client's scan buffers.
    let mut rows = Vec::with_capacity(ROWS);
    client.scan(probes[0], ROWS, &mut rows);
    for &k in &probes[..500] {
        rows.clear();
        let (n, ()) = allocs(|| client.scan(k, ROWS, &mut rows));
        assert!(rows.len() == ROWS || rows.last().is_some_and(|r| r.0 == KEYS));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(
            n <= rows.len() as u64 + 9,
            "scan of {} rows from {k} allocated {n} times",
            rows.len()
        );
    }

    // `scan_rows` into a reused arena allocates nothing per row: the rows
    // land in the arena, the leaves' READ, key and bitmap buffers come back
    // to the client after each scan, and each doorbell's bookkeeping is the
    // client's too. So a scan that repeats one already made, of 1 row or
    // of 50, allocates nothing at all.
    let mut arena = dmem::Rows::new();
    let mut scan_rows = |client: &mut chime::ChimeClient, k: u64, n: usize| {
        arena.clear();
        let reads = client.endpoint().stats().reads;
        let (allocs, ()) = allocs(|| client.scan_rows(k, n, &mut arena));
        (
            allocs,
            client.endpoint().stats().reads - reads,
            arena
                .iter()
                .map(|(k, v)| (k, v.to_vec()))
                .collect::<Vec<_>>(),
        )
    };
    for &k in &probes[..500] {
        for n in [1, ROWS] {
            let (_, reads, first) = scan_rows(&mut client, k, n);
            let (allocs, again, got) = scan_rows(&mut client, k, n);
            assert_eq!(
                (again, &got),
                (reads, &first),
                "a repeated scan of {n} from {k} differs"
            );
            assert_eq!(
                allocs, 0,
                "a repeated scan of {n} rows from {k} allocated {allocs} times"
            );
            rows.clear();
            client.scan(k, n, &mut rows);
            assert_eq!(got, rows, "scan_rows and scan of {n} from {k} disagree");
        }
    }

    // Speculative-read hits: the entry buffer and the returned value. The
    // hotspot buffer's bookkeeping is index writes in its slabs (pinned on
    // its own, at any number of hot keys, in the last test of this file).
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
    // The same hits into a reused buffer allocate nothing.
    let mut value = Vec::with_capacity(8);
    for &k in hot.iter().cycle().take(1_000) {
        let hits = client.counters.spec_hits;
        let (n, found) = allocs(|| client.search_into(k, &mut value));
        assert!(found && value == k.to_le_bytes(), "search_into of {k}");
        assert_eq!(client.counters.spec_hits, hits + 1, "{k} did not speculate");
        assert_eq!(n, 0, "speculative-read hit on {k} allocated {n} times");
    }
}

/// Write paths: the locked window is read into, held in and encoded from
/// buffers the client keeps between writes, and an inline value is copied
/// into it from the caller's slice, so a write that does not split
/// allocates nothing.
#[test]
fn write_paths_stay_within_their_allocation_budgets() {
    let mut client = tree(ChimeConfig::default());
    for k in 1..=KEYS {
        assert!(client.search(k).is_some());
    }
    // Round trips tell the plain protocol from its detours (a hop-window or
    // whole-node read, an argmax READ or a split): a write locks and reads
    // its window in one doorbell, then writes back (2).
    let rtts = |c: &chime::ChimeClient| c.endpoint().stats().rtts;
    let mut plain = [0u64; 3];
    for i in 0..3_000u64 {
        let k = 1 + mix(i) % KEYS;
        let v = i.to_le_bytes();
        let r0 = rtts(&client);
        let (n, hit) = allocs(|| client.update(k, &v).unwrap());
        assert!(hit && rtts(&client) - r0 == 2, "update of {k} left the plain protocol");
        assert_eq!(n, 0, "update of {k} allocated {n} times");
        plain[0] += 1;
        // Unless `k` is the maximum of its leaf, the delete stays inside
        // the neighborhood window. It stores no value.
        let r0 = rtts(&client);
        let (n, hit) = allocs(|| client.delete(k).unwrap());
        assert!(hit);
        if rtts(&client) - r0 == 2 {
            assert_eq!(n, 0, "delete of {k} allocated {n} times");
            plain[1] += 1;
        }
        // Putting it back mostly finds room in the neighborhood window.
        // When no key of its window exceeds the key, the argmax READ adds
        // a third round trip, into the same buffers.
        let (r0, splits) = (rtts(&client), client.counters.splits);
        let (n, r) = allocs(|| client.insert(k, &v));
        r.unwrap();
        if client.counters.splits == splits {
            assert_eq!(n, 0, "insert of {k} allocated {n} times");
            plain[2] += u64::from(rtts(&client) - r0 == 2);
        }
    }
    assert_eq!(plain, [3_000, 2_890, 2_315], "of 3000 writes, these were plain");

    // Keys above the preloaded ones all land in the rightmost leaf, which
    // splits every few dozen inserts. Such an insert allocates for the
    // split's key-sorted list of the window's items (borrowed, not
    // copied), the two rebuilt tables and their images, the pivot and
    // address lists, and the pivot's way up the skeleton; more WRITEs mean
    // the parent split too.
    let mut splits = [0u64; 2];
    for k in KEYS + 1..=KEYS + 3_000 {
        let (before, writes) = (client.counters.splits, client.endpoint().stats().writes);
        let (n, r) = allocs(|| client.insert(k, &k.to_le_bytes()));
        r.unwrap();
        if client.counters.splits > before {
            let parent_split = client.endpoint().stats().writes - writes > 9;
            let budget = if parent_split { 48 } else { 26 };
            assert!(n <= budget, "splitting insert of {k} allocated {n} times");
            splits[usize::from(parent_split)] += 1;
        }
    }
    assert_eq!(splits, [97, 3], "of the splitting inserts, these split the parent too");
}

/// A full hotspot buffer recycles: the victim's slab node carries the new
/// description, emptied frequency nodes are reused for the next new count,
/// and the map trades one key for another. (The structure this replaced
/// kept its LFU order in a `BTreeSet`, which allocates and frees tree nodes
/// as soon as it holds more than a handful of descriptions.)
#[test]
fn full_hotspot_buffer_allocates_nothing_evictions_included() {
    const CAPACITY: u64 = 512;
    let mut buf = HotspotBuffer::new(CAPACITY * ENTRY_BYTES);
    // Three accesses in four go to 300 hot slots, skewed so that their
    // counts spread over many frequencies; the fourth describes a slot
    // never seen before and evicts.
    let mut evictions = 0;
    let mut step = |buf: &mut HotspotBuffer, i: u64| {
        let r = mix(i);
        let slot = match r % 4 {
            0 => 1_000 + i,
            _ => ((r >> 8) % 300) * ((r >> 40) % 300) / 300,
        };
        let (leaf, idx, fp) = (GlobalAddr::new(0, (slot / 8) << 12), (slot % 8) as u16, mix(slot) as u16);
        match buf.lookup(leaf, idx as usize..idx as usize + 8, 16, fp) {
            Some(hot) => buf.on_access_at(leaf, hot, fp),
            None => {
                evictions += (slot >= 1_000) as u64;
                buf.on_access(leaf, idx, fp);
            }
        }
    };
    // Warm up past the map's last resize (its tombstones make it grow once
    // more after it first fills).
    for i in 0..50_000 {
        step(&mut buf, i);
    }
    let (n, ()) = allocs(|| (50_000..100_000).for_each(|i| step(&mut buf, i)));
    assert_eq!(buf.len() as u64, CAPACITY);
    assert!(evictions > 20_000, "{evictions} evictions");
    assert_eq!(n, 0, "the full buffer allocated {n} times in 50 000 accesses");
}

/// Whether `key`'s neighborhood wraps around the default 64-entry table (and
/// so is fetched as two pieces).
fn wraps(key: u64) -> bool {
    let cfg = ChimeConfig::default();
    dmem::hash::home_entry(key, cfg.span) + cfg.neighborhood > cfg.span
}
