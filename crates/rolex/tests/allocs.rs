//! Allocation counts of CHIME-Learned's probes, updates and scans, counted
//! exactly: a probe reads its candidate neighborhoods through the client's
//! READ buffers, so a warm search into a reused value buffer allocates
//! nothing; an update locks and writes back through the client's locked
//! window, so a warm one allocates only the entry it stores; and a scan
//! reads its leaves through the client's whole-leaf buffers into leaf and
//! row vectors the client keeps, so a warm one allocates nothing.
//!
//! Counts are per thread, as in `core/tests/allocs.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dmem::{Pool, RangeIndex};
use rolex::{ChimeLearned, RolexConfig};

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

/// A loaded CHIME-Learned index and its sorted keys.
fn loaded(pool: &std::sync::Arc<Pool>) -> (ChimeLearned, Vec<u64>) {
    let mut keys: Vec<u64> = (1..=5_000u64).map(dmem::hash::mix64).collect();
    keys.sort_unstable();
    keys.dedup();
    let items: Vec<(u64, Vec<u8>)> = keys.iter().map(|&k| (k, k.to_le_bytes().to_vec())).collect();
    (ChimeLearned::create(pool, RolexConfig::default(), &items), keys)
}

#[test]
fn a_warm_probe_allocates_nothing() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let (tree, keys) = loaded(&pool);
    let mut client = tree.client();
    // The first probes size the client's READ buffers and the value.
    let mut value = Vec::new();
    for &k in &keys {
        assert!(client.search_into(k, &mut value));
    }
    for &k in keys.iter().step_by(3) {
        let (n, found) = allocs(|| client.search_into(k, &mut value));
        assert!(found && value == k.to_le_bytes(), "search_into of {k:#x}");
        assert_eq!(n, 0, "a warm probe of {k:#x} allocated {n} times");
    }
    // An absent key probes its candidates and finds nothing, allocating
    // nothing either.
    let (n, found) = allocs(|| client.search_into(3, &mut value));
    assert!(!found);
    assert_eq!(n, 0, "a warm probe of an absent key allocated {n} times");
}

#[test]
fn a_warm_update_allocates_only_the_stored_entry() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let (tree, keys) = loaded(&pool);
    let mut client = tree.client();
    // The first updates size the client's READ buffers and locked window.
    for &k in &keys {
        assert!(client.update(k, &(k + 1).to_le_bytes()).unwrap());
    }
    for &k in keys.iter().step_by(3) {
        let (n, updated) = allocs(|| client.update(k, &(k + 2).to_le_bytes()));
        assert!(updated.unwrap(), "update of {k:#x}");
        assert_eq!(n, 1, "a warm update of {k:#x} allocated {n} times");
    }
    let mut value = Vec::new();
    for &k in keys.iter().step_by(3) {
        assert!(client.search_into(k, &mut value) && value == (k + 2).to_le_bytes());
    }
}

#[test]
fn a_warm_scan_allocates_nothing_per_leaf() {
    let pool = Pool::with_defaults(1, 256 << 20);
    let (tree, keys) = loaded(&pool);
    let mut client = tree.client();
    let mut rows = dmem::Rows::new();
    let starts: Vec<u64> = keys.iter().step_by(97).copied().collect();
    // The first scans size the client's buffers and the arena.
    for n in [1, 50, 200] {
        for &k in &starts {
            rows.clear();
            client.scan_rows(k, n, &mut rows);
        }
    }
    for n in [1, 50, 200] {
        for &k in &starts {
            rows.clear();
            let reads = client.stats().reads;
            let (allocs, ()) = allocs(|| client.scan_rows(k, n, &mut rows));
            let reads = client.stats().reads - reads;
            assert!(rows.len() == n || k >= keys[keys.len() - n], "scan of {n} from {k:#x}");
            assert_eq!(
                allocs, 0,
                "a warm scan of {n} rows from {k:#x} ({reads} READs) allocated {allocs} times"
            );
        }
    }
}
