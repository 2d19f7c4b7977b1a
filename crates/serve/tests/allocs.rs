//! Allocation counts of the serving path, counted exactly.
//!
//! A warm request allocates only what `Request::Set` owns: decoding a
//! GET, DEL, SCAN or PING borrows its words from the decoder's buffer,
//! both encoders write digits straight into the output, and
//! `execute_with` searches a GET into the connection's spare buffer and
//! stores a SET of the index's value width from the request as is; a
//! connection takes its spare back from each reply (`Conn::serve`), and
//! scans into its row arena and encodes the SCAN reply from there.
//!
//! Counts are per thread, as in `core/tests/allocs.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chime::{Chime, ChimeConfig};
use dmem::{Pool, RangeIndex};
use serve::conn::execute_with;
use serve::proto::{Decoder, Request, Response};
use serve::Conn;

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
const VALUE_SIZE: usize = 8;

/// Feeds `frame` to a warm decoder and counts the decode alone.
fn decode_allocs(d: &mut Decoder, frame: &[u8]) -> (u64, Request) {
    d.feed(frame);
    let (n, req) = allocs(|| d.try_next());
    (n, req.expect("well formed").expect("whole"))
}

#[test]
fn decoding_allocates_only_a_sets_value() {
    let mut d = Decoder::new();
    // The first frames size the decoder's buffer.
    for _ in 0..2 {
        d.feed(b"SCAN 18446744073709551615 1024\r\n");
        d.try_next().unwrap();
    }
    let inline: [(&[u8], Request); 6] = [
        (b"GET 42\r\n", Request::Get(42)),
        (b"get +7\r\n", Request::Get(7)),
        (b"DEL 18446744073709551615\r\n", Request::Del(u64::MAX)),
        (b"SCAN 10 50\r\n", Request::Scan(10, 50)),
        (b"\r\nPING\r\n", Request::Ping),
        (b"*2\r\n$3\r\nGET\r\n$2\r\n42\r\n", Request::Get(42)),
    ];
    for (frame, want) in inline {
        for _ in 0..3 {
            let (n, req) = decode_allocs(&mut d, frame);
            assert_eq!(req, want);
            assert_eq!(n, 0, "decoding {want:?} allocated {n} times");
        }
    }
    let set = b"*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$5\r\nhello\r\n";
    for _ in 0..3 {
        let (n, req) = decode_allocs(&mut d, set);
        assert_eq!(req, Request::Set(42, b"hello".to_vec()));
        assert_eq!(n, 1, "decoding a SET allocated {n} times");
    }
}

#[test]
fn encoding_allocates_nothing() {
    let reqs = [
        Request::Get(u64::MAX),
        Request::Set(u64::MAX, vec![1; 100]),
        Request::Del(0),
        Request::Scan(7, 1024),
        Request::Ping,
    ];
    let resps = [
        Response::Ok,
        Response::Value(vec![2; 100]),
        Response::Nil,
        Response::Int(i64::MIN),
        Response::Pairs(vec![(u64::MAX, vec![3; 8]), (1, Vec::new())]),
        Response::Busy,
        Response::Pong,
    ];
    let mut out = Vec::with_capacity(4096);
    for r in &reqs {
        out.clear();
        let (n, ()) = allocs(|| r.encode(&mut out));
        assert_eq!(n, 0, "encoding {r:?} allocated {n} times");
    }
    for r in &resps {
        out.clear();
        let (n, _) = allocs(|| r.encode(&mut out));
        assert_eq!(n, 0, "encoding {r:?} allocated {n} times");
    }
}

#[test]
fn executing_a_warm_get_or_set_allocates_nothing() {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Chime::create(
        &pool,
        ChimeConfig {
            value_size: VALUE_SIZE,
            ..ChimeConfig::default()
        },
        0,
    );
    let mut client = tree.client(&tree.new_cn());
    for k in 1..=KEYS {
        client.insert(k, &k.to_le_bytes()).unwrap();
    }
    // Touch every key once: the internal nodes are cached afterwards.
    let mut spare = Vec::new();
    for k in 1..=KEYS {
        assert!(client.search_into(k, &mut spare));
    }
    let probes = (0..2_000u64).map(|i| 1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS);
    for k in probes.clone() {
        let (n, resp) =
            allocs(|| execute_with(&mut client, &Request::Get(k), VALUE_SIZE, &mut spare));
        assert_eq!(resp, Response::Value(k.to_le_bytes().to_vec()));
        assert_eq!(n, 0, "GET {k} allocated {n} times");
        // Take the buffer back once the reply is encoded, as a connection does.
        let Response::Value(v) = resp else {
            unreachable!()
        };
        spare = v;
    }
    // `Conn::serve` takes it back itself; its first GET sizes its spare.
    let mut conn = Conn::new(0);
    conn.serve(&mut client, &Request::Get(1), VALUE_SIZE);
    conn.out.clear();
    for k in probes.clone() {
        let (n, ()) = allocs(|| conn.serve(&mut client, &Request::Get(k), VALUE_SIZE));
        assert_eq!(
            conn.out,
            [&b"$8\r\n"[..], &k.to_le_bytes(), b"\r\n"].concat()
        );
        assert_eq!(n, 0, "serving GET {k} allocated {n} times");
        conn.out.clear();
    }
    let splits = client.counters.splits;
    for k in probes {
        let set = Request::Set(k, (k + 1).to_le_bytes().to_vec());
        let (n, resp) = allocs(|| execute_with(&mut client, &set, VALUE_SIZE, &mut spare));
        assert_eq!(resp, Response::Ok);
        assert_eq!(n, 0, "SET {k} allocated {n} times");
        // A shorter value is padded in the warm spare.
        let set = Request::Set(k, vec![9]);
        let (n, resp) = allocs(|| execute_with(&mut client, &set, VALUE_SIZE, &mut spare));
        assert_eq!(resp, Response::Ok);
        assert_eq!(n, 0, "SET {k} of one byte allocated {n} times");
        assert!(client.search_into(k, &mut spare) && spare == [9, 0, 0, 0, 0, 0, 0, 0]);
    }
    assert_eq!(
        client.counters.splits, splits,
        "no SET of a present key splits"
    );
}

#[test]
fn serving_a_warm_scan_allocates_nothing() {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Chime::create(&pool, ChimeConfig::default(), 0);
    let mut client = tree.client(&tree.new_cn());
    for k in 1..=KEYS {
        client.insert(k, &k.to_le_bytes()).unwrap();
    }
    let scans: Vec<Request> = (0..200u64)
        .map(|i| Request::Scan(1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS, 1 + (i as usize * 7) % 100))
        .collect();
    // The first pass sizes the arena, the output and the client's scan
    // buffers; a repeat of each scan then allocates nothing.
    let mut conn = Conn::new(0);
    for req in &scans {
        conn.serve(&mut client, req, VALUE_SIZE);
        conn.out.clear();
    }
    for req in &scans {
        let (n, ()) = allocs(|| conn.serve(&mut client, req, VALUE_SIZE));
        assert!(conn.out.starts_with(b"*"), "{req:?}");
        assert_eq!(n, 0, "serving {req:?} allocated {n} times");
        conn.out.clear();
    }
}
