//! The common range-index interface all four indexes implement.
//!
//! Each *client* — one logical thread of execution on a compute node — holds
//! its own handle implementing [`RangeIndex`]. The handle owns a verb
//! [`Endpoint`] and shares CN-wide state (index cache, hotspot buffer) with
//! the other clients of its compute node. The trait is the five data
//! operations plus that endpoint: everything measured about a client
//! (clock, counters, profile, traces, telemetry) is read off the endpoint.
//!
//! A point read and a scan each have one implementation per index, into
//! buffers the caller owns and reuses: [`RangeIndex::search_into`] writes
//! the value into a `Vec<u8>`, and [`RangeIndex::scan_rows`] appends to a
//! [`Rows`] arena. [`RangeIndex::search`] and [`RangeIndex::scan`] are the
//! allocating forms, provided over them.

use crate::alloc::OutOfMemory;
use crate::stats::ClientStats;
use crate::verbs::Endpoint;

/// Errors surfaced by index operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The memory pool is exhausted.
    OutOfMemory,
    /// The key already exists (returned by strict inserts).
    DuplicateKey,
}

impl From<OutOfMemory> for IndexError {
    fn from(_: OutOfMemory) -> Self {
        IndexError::OutOfMemory
    }
}

impl core::fmt::Display for IndexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IndexError::OutOfMemory => write!(f, "memory pool exhausted"),
            IndexError::DuplicateKey => write!(f, "key already present"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Most rows [`RangeIndex::scan`] reserves room for up front.
const SCAN_RESERVE: usize = 1 << 10;

/// Scan results in buffers the caller owns and reuses: the keys in order,
/// and the values back to back in one byte arena.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Rows {
    keys: Vec<u64>,
    /// End of each row's value in `bytes`.
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl Rows {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for the keys of `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        Rows {
            keys: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            bytes: Vec::new(),
        }
    }

    /// Forgets every row and keeps the buffers.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
        self.bytes.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends the row `(key, value)`.
    pub fn push(&mut self, key: u64, value: &[u8]) {
        self.push_with(key, |bytes| bytes.extend_from_slice(value));
    }

    /// Appends a row whose value `fill` appends to the byte arena.
    pub fn push_with(&mut self, key: u64, fill: impl FnOnce(&mut Vec<u8>)) {
        fill(&mut self.bytes);
        self.keys.push(key);
        self.ends.push(self.bytes.len());
    }

    /// The value of row `i`.
    pub fn value(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.value(i)))
    }
}

/// A shared ordered index on disaggregated memory.
///
/// Keys are 8-byte integers (the paper's default); values are fixed-size
/// byte strings whose length is set per index instance.
pub trait RangeIndex {
    /// Inserts `key` with `value`, overwriting any existing value.
    fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError>;

    /// Replaces the contents of `value` with the value of `key` and returns
    /// `true`, or returns `false` if `key` is absent (and leaves `value`
    /// holding unspecified bytes). The one point read of an index: a caller
    /// that reuses `value` allocates nothing for it.
    fn search_into(&mut self, key: u64, value: &mut Vec<u8>) -> bool;

    /// Returns the value of `key`, or `None` if absent:
    /// [`Self::search_into`] into a fresh vector.
    fn search(&mut self, key: u64) -> Option<Vec<u8>> {
        let mut value = Vec::new();
        self.search_into(key, &mut value).then_some(value)
    }

    /// Updates an existing key in place; returns `false` if absent.
    fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError>;

    /// Removes `key`; returns `false` if it was absent.
    fn delete(&mut self, key: u64) -> Result<bool, IndexError>;

    /// Appends up to `count` rows with keys `>= start` to `rows`, in key
    /// order. The one scan of an index: the arena's buffers are the
    /// caller's, so a caller that reuses them allocates nothing per row.
    fn scan_rows(&mut self, start: u64, count: usize, rows: &mut Rows);

    /// Appends up to `count` items with keys `>= start`, in key order:
    /// [`Self::scan_rows`] into a fresh arena, with each value copied out.
    fn scan(&mut self, start: u64, count: usize, out: &mut Vec<(u64, Vec<u8>)>) {
        let mut rows = Rows::with_capacity(count.min(SCAN_RESERVE));
        self.scan_rows(start, count, &mut rows);
        out.reserve(rows.len());
        out.extend(rows.iter().map(|(k, v)| (k, v.to_vec())));
    }

    /// The verb endpoint this client issues its operations through: its
    /// virtual clock, verb counters, phase profile, tracer and telemetry.
    fn endpoint(&self) -> &Endpoint;

    /// Mutable access to the endpoint, for harnesses that stamp trace ids,
    /// attach tracers or record serve-layer observations on this client's
    /// virtual clock.
    fn endpoint_mut(&mut self) -> &mut Endpoint;

    /// Bytes of compute-side cache this client's CN currently uses for the
    /// index (shared structures are counted once per CN).
    fn cache_bytes(&self) -> u64;

    /// This client's verb counters (shorthand over [`Self::endpoint`]).
    fn stats(&self) -> &ClientStats {
        self.endpoint().stats()
    }

    /// This client's virtual clock, in nanoseconds.
    fn clock_ns(&self) -> u64 {
        self.endpoint().clock_ns()
    }

    /// This client's phase/retry attribution profile.
    fn profile(&self) -> Option<&obs::OpProfile> {
        Some(self.endpoint().profile())
    }

    /// Attaches a span/event tracer to this client's endpoint.
    fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.endpoint_mut().set_tracer(tracer);
    }

    /// Detaches and returns this client's tracer, if one is attached.
    fn take_tracer(&mut self) -> Option<obs::Tracer> {
        self.endpoint_mut().take_tracer()
    }
}

/// Implements [`RangeIndex`]'s five operations (inside its `impl` block;
/// the search is [`RangeIndex::search_into`], the scan
/// [`RangeIndex::scan_rows`]) over the type's inherent `insert_impl` …
/// `scan_impl`, each in one endpoint span: what puts an operation on the
/// timeline and the tracer, whichever index runs it.
#[macro_export]
macro_rules! span_ops {
    () => {
        fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), $crate::IndexError> {
            $crate::span_ops!(self, "insert", key, insert_impl(key, value), Result::is_ok)
        }
        fn search_into(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
            $crate::span_ops!(self, "search", key, search_impl(key, value), |found: &bool| *found)
        }
        fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, $crate::IndexError> {
            $crate::span_ops!(self, "update", key, update_impl(key, value), |r: &_| matches!(r, Ok(true)))
        }
        fn delete(&mut self, key: u64) -> Result<bool, $crate::IndexError> {
            $crate::span_ops!(self, "delete", key, delete_impl(key), |r: &_| matches!(r, Ok(true)))
        }
        fn scan_rows(&mut self, start: u64, count: usize, rows: &mut $crate::Rows) {
            $crate::span_ops!(self, "scan", start, scan_impl(start, count, rows), |_: &()| true)
        }
    };
    // The bracket: check the key, open the span, run the op, close it with
    // `ok`'s verdict. Every index reserves key 0.
    ($me:ident, $op:literal, $key:ident, $f:ident($($arg:ident),*), $ok:expr) => {{
        assert_ne!($key, 0, "key 0 is reserved");
        let span = $me.endpoint_mut().span_begin($op, $key);
        let r = $me.$f($($arg),*);
        $me.endpoint_mut().span_end(span, $ok(&r));
        r
    }};
}
