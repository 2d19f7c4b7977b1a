//! Op-shape pins: for each kind of index operation on a fixed tree, the
//! exact verb count, round trips, wire bytes and per-phase episode counts.
//!
//! The write path is one protocol (lock → window read → ownership check →
//! write-back + unlock; every write posts the lock and its window read as
//! one doorbell, attributed to `lock_acquire`, and an insert whose window
//! cannot take its key adds a `leaf_read`); these rows fail when
//! a change to the tree merges, drops or reorders a phase frame or a verb on
//! any branch of it, under each Fig. 15 switch that selects a different
//! branch.

use chime::{Chime, ChimeClient, ChimeConfig};
use dmem::{Phase, Pool, RangeIndex};

const N: u64 = 600;

fn v(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

fn small(base: ChimeConfig) -> ChimeConfig {
    ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 8,
        cache_bytes: 1 << 20,
        hotspot_bytes: 1 << 16,
        ..base
    }
}

/// Even keys `2..=2N`, inserted in a fixed scrambled order.
fn build(cfg: ChimeConfig) -> ChimeClient {
    let pool = Pool::with_defaults(1, 256 << 20);
    let t = Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    let mut order: Vec<u64> = (1..=N).collect();
    order.sort_by_key(|&k| dmem::hash::mix64(k));
    for k in order {
        c.insert(k * 2, &v(k)).unwrap();
    }
    c
}

#[derive(Clone, Copy)]
enum Op {
    Search(u64),
    Update(u64),
    Insert(u64),
    Delete(u64),
    Scan(u64, usize),
    /// `n` inserts of consecutive odd keys from `.0` (fills leaves until
    /// they split and the pivots propagate).
    InsertRun(u64, u64),
    /// `n` deletes of consecutive even keys from `.0` (drains leaves until
    /// they underflow and merge).
    DeleteRun(u64, u64),
}

/// `verbs/rtts/wire_bytes | phase=episodes ... | splits merges` of one row.
fn shape(c: &mut ChimeClient, op: Op) -> String {
    let s0 = c.stats().clone();
    let p0 = c.profile().expect("endpoint profile").clone();
    let (splits0, merges0) = (c.counters.splits, c.counters.merges);
    let hit = match op {
        Op::Search(k) => c.search(k).is_some(),
        Op::Update(k) => c.update(k, &v(k + 1)).unwrap(),
        Op::Insert(k) => c.insert(k, &v(k)).is_ok(),
        Op::Delete(k) => c.delete(k).unwrap(),
        Op::Scan(k, n) => {
            let mut out = Vec::new();
            c.scan(k, n, &mut out);
            out.len() == n
        }
        Op::InsertRun(k, n) => (0..n).all(|i| c.insert(k + 2 * i, &v(k)).is_ok()),
        Op::DeleteRun(k, n) => (0..n).all(|i| c.delete(k + 2 * i).unwrap()),
    };
    let s = c.stats().since(&s0);
    let p = c.profile().expect("endpoint profile").since(&p0);
    let phases: Vec<String> = Phase::ALL
        .iter()
        .filter(|&&ph| p.phase(ph).episodes > 0)
        .map(|&ph| format!("{}={}", ph.as_str(), p.phase(ph).episodes))
        .collect();
    format!(
        "{} {}v/{}r/{}B | {} | splits={} merges={}",
        if hit { "hit" } else { "miss" },
        s.reads + s.writes + s.atomics + s.rpcs,
        s.rtts,
        s.wire_bytes,
        phases.join(" "),
        c.counters.splits - splits0,
        c.counters.merges - merges0
    )
}

/// The operation table, in execution order (each row sees the effects of
/// the rows above it).
const OPS: [(&str, Op); 12] = [
    ("search hit", Op::Search(500)),
    ("search hit again (speculative)", Op::Search(500)),
    ("search miss", Op::Search(501)),
    ("update", Op::Update(700)),
    ("update miss", Op::Update(701)),
    ("insert, no split", Op::Insert(333)),
    ("insert run, splits", Op::InsertRun(335, 24)),
    ("delete, plain", Op::Delete(100)),
    ("delete, max key of its leaf", Op::Delete(2 * N)),
    ("delete miss", Op::Delete(101)),
    ("delete run, merges", Op::DeleteRun(800, 40)),
    ("scan 50", Op::Scan(201, 50)),
];
/// Keys left after [`OPS`]: 25 inserted, 42 deleted.
const LEFT: u64 = N + 25 - 42;

fn check(name: &str, cfg: ChimeConfig, want: [&str; OPS.len()]) {
    let mut c = build(cfg);
    let got: Vec<String> = OPS.iter().map(|&(_, op)| shape(&mut c, op)).collect();
    let mut bad = false;
    for ((label, _), (g, w)) in OPS.iter().zip(got.iter().zip(want)) {
        if g != w {
            eprintln!("[{name}] {label}:\n   got  {g}\n   want {w}");
            bad = true;
        }
    }
    if bad {
        eprintln!("[{name}] full table:");
        for g in &got {
            eprintln!("        \"{g}\",");
        }
        panic!("[{name}] op shapes moved");
    }
    let mut all = Vec::new();
    c.scan(1, 2 * N as usize, &mut all);
    assert_eq!(all.len() as u64, LEFT);
    // Without piggybacking, plain-locked deletes never see the argmax, so
    // the lock word's argmax is not maintained and the walker would object.
    if cfg.vacancy_piggyback {
        assert_eq!(c.check_integrity().unwrap(), LEFT);
    }
}

#[rustfmt::skip]
#[test]
fn default_switches() {
    check("default", small(ChimeConfig::default()), [
        "hit 2v/1r/184B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "hit 1v/1r/67B | cache_lookup=3 traversal=1 speculative_read=1 | splits=0 merges=0",
        "miss 1v/1r/136B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "hit 4v/2r/338B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "miss 3v/2r/272B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 8v/3r/812B | cache_lookup=3 traversal=1 lock_acquire=1 leaf_read=1 write_back=1 | splits=0 merges=0",
        "hit 163v/98r/21341B | cache_lookup=81 traversal=42 lock_acquire=30 leaf_read=17 write_back=33 | splits=3 merges=0",
        "hit 4v/2r/340B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 5v/3r/775B | cache_lookup=3 traversal=1 lock_acquire=1 leaf_read=1 write_back=1 | splits=0 merges=0",
        "miss 3v/2r/271B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 213v/121r/23769B | cache_lookup=132 traversal=48 lock_acquire=52 leaf_read=12 write_back=49 | splits=0 merges=1",
        "hit 5v/1r/1990B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
    ]);
}

// Fence keys, dedicated vacancy word, single header, no speculation: every
// write takes the plain-lock / whole-node branches.
#[rustfmt::skip]
#[test]
fn baseline_switches() {
    // `small` sets a hotspot budget, which turns speculation on; the
    // baseline has none.
    check("baseline", ChimeConfig { hotspot_bytes: 0, ..small(ChimeConfig::baseline()) }, [
        "hit 3v/1r/275B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "hit 3v/1r/275B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "miss 2v/1r/201B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "hit 5v/2r/412B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "miss 4v/2r/345B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 5v/2r/894B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 168v/81r/25304B | cache_lookup=81 traversal=42 lock_acquire=30 write_back=33 | splits=3 merges=0",
        "hit 5v/2r/411B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 5v/2r/449B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "miss 4v/2r/344B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 229v/95r/21326B | cache_lookup=123 traversal=42 lock_acquire=43 leaf_read=6 write_back=42 | splits=0 merges=0",
        "hit 5v/1r/1920B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
    ]);
}

// Out-of-line values (§4.5): stores allocate + write a block before the
// lock, reads chase the pointer after the leaf read.
#[rustfmt::skip]
#[test]
fn indirect_values() {
    let cfg = ChimeConfig {
        indirect_values: true,
        value_size: 32,
        ..small(ChimeConfig::default())
    };
    check("indirect", cfg, [
        "hit 3v/2r/280B | cache_lookup=3 traversal=1 leaf_read=2 | splits=0 merges=0",
        "hit 2v/2r/163B | cache_lookup=3 traversal=1 leaf_read=1 speculative_read=1 | splits=0 merges=0",
        "miss 1v/1r/136B | cache_lookup=3 traversal=1 leaf_read=1 | splits=0 merges=0",
        "hit 5v/3r/434B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=3 | splits=0 merges=0",
        "miss 4v/3r/368B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=3 | splits=0 merges=0",
        "hit 9v/4r/908B | cache_lookup=3 traversal=1 lock_acquire=1 leaf_read=1 write_back=3 | splits=0 merges=0",
        "hit 187v/122r/23645B | cache_lookup=81 traversal=42 lock_acquire=30 leaf_read=17 write_back=81 | splits=3 merges=0",
        "hit 4v/2r/340B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 5v/3r/775B | cache_lookup=3 traversal=1 lock_acquire=1 leaf_read=1 write_back=1 | splits=0 merges=0",
        "miss 3v/2r/271B | cache_lookup=3 traversal=1 lock_acquire=1 write_back=1 | splits=0 merges=0",
        "hit 213v/121r/23769B | cache_lookup=132 traversal=48 lock_acquire=52 leaf_read=12 write_back=49 | splits=0 merges=1",
        "hit 55v/51r/6790B | cache_lookup=3 traversal=1 leaf_read=51 | splits=0 merges=0",
    ]);
}
