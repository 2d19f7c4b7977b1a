//! Allocation count of a warm SMART search, counted exactly.
//!
//! A client reads a leaf into READ buffers it keeps and copies the value
//! into the caller's vector, and keeps the descent's path of cached nodes
//! too, so a search into a reused buffer allocates nothing once the path
//! is cached.
//!
//! Counts are per thread, as in `core/tests/allocs.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmem::{Pool, RangeIndex};
use smart::{Smart, SmartConfig};

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

#[test]
fn a_cache_hit_search_into_a_reused_buffer_allocates_nothing() {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Smart::create(&pool, SmartConfig::default(), 0);
    let cn = tree.new_cn();
    let mut client = tree.client(&cn);
    for k in 1..=KEYS {
        client.insert(k, &k.to_le_bytes()).unwrap();
    }
    // Touch every key once: the inner nodes are cached afterwards.
    let mut value = Vec::new();
    for k in 1..=KEYS {
        assert!(client.search_into(k, &mut value));
    }
    let (_, misses) = cn.cache_stats();
    let reads = client.endpoint().stats().reads;
    let probes: Vec<u64> = (0..2_000u64)
        .map(|i| 1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS)
        .collect();
    for &k in &probes {
        let (n, found) = allocs(|| client.search_into(k, &mut value));
        assert!(found && value == k.to_le_bytes(), "search_into of {k}");
        assert_eq!(n, 0, "cache-hit search_into of {k} allocated {n} times");
    }
    assert_eq!(cn.cache_stats().1, misses, "every probe's inner nodes were cached");
    assert_eq!(
        client.endpoint().stats().reads - reads,
        probes.len() as u64,
        "every probe READs its leaf only"
    );
}
