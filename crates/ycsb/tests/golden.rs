//! Key-stream pins: FNV-1a hashes of the first 10 000 ops of `OpGen`,
//! recorded at the commit before `WorkloadState` began memoising the
//! Zipfian constants. A generator change that moves any key, op kind or
//! scan length moves a hash.

use std::sync::Arc;

use ycsb::{Op, OpGen, Workload, WorkloadState};

const OPS: usize = 10_000;
const LOADED: u64 = 100_000;

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn absorb(hash: &mut u64, op: &Op) {
    let (kind, key, len) = match *op {
        Op::Read(k) => (0, k, 0),
        Op::Update(k) => (1, k, 0),
        Op::Insert(k) => (2, k, 0),
        Op::Scan(k, n) => (3, k, n as u64),
    };
    fnv(hash, kind);
    fnv(hash, key);
    fnv(hash, len);
}

/// Hash of `OPS` ops drawn from `gens` generators created one after the
/// other on one state, each drawing its share before the next is built (so
/// with an inserting workload every later generator sees a larger `n`).
fn stream_hash(workload: Workload, theta: f64, gens: usize) -> u64 {
    let state = WorkloadState::new(LOADED);
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for g in 0..gens {
        let mut gen = OpGen::with_theta(workload, Arc::clone(&state), 7 + g as u64, theta);
        for _ in 0..OPS / gens {
            absorb(&mut hash, &gen.next_op());
        }
    }
    hash
}

#[test]
fn key_streams_are_the_recorded_ones() {
    let got = [
        stream_hash(Workload::A, 0.99, 1),
        stream_hash(Workload::C, 0.01, 1),
        stream_hash(Workload::D, 0.99, 1),
        // E inserts 5 %: each of the four generators is built on a grown n.
        stream_hash(Workload::E, 0.99, 4),
    ];
    let golden: [u64; 4] = [
        0x1543_9110_f617_7be6,
        0xf822_6d98_fc3c_4358,
        0x3e8a_d718_f6c8_a1ec,
        0xd23f_e856_dd53_f780,
    ];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        golden.map(|h| format!("{h:#018x}"))
    );
}
