//! Determinism guards: the virtual clock is a pure function of the seed,
//! and the harness's warm-up never replays the measured key stream.
//!
//! Each test deploys the real 100 000-key geometry, so run them optimised:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::sync::Arc;

use chime_benchmark::sim::{repetition, timed_reps, virtual_fingerprint};
use chime_benchmark::workloads::{driver_seed, find, Kind, SimWorkload, PRELOAD};
use chime_benchmark::{warmup_seed, MIN_REPS};
use ycsb::{OpGen, WorkloadState};

/// A workload of the suite, shortened so that a repetition takes about a
/// second.
fn short(name: &str) -> SimWorkload {
    match find(name) {
        Some(Kind::Sim(w)) => SimWorkload {
            ops: 40_000,
            warmup_ops: 8_000,
            ..w
        },
        _ => panic!("{name} is not a simulated workload"),
    }
}

#[test]
fn repetitions_and_invocations_of_one_seed_are_bit_identical() {
    // Serial clients, and coroutine lanes hosted on OS threads.
    for name in ["update_zipf", "update_zipf_k4"] {
        let w = short(name);
        // `timed_reps` aborts if two repetitions differ; zero seconds stops
        // it at the minimum count.
        let first = timed_reps(&w, 42, 0.0);
        assert_eq!(first.len(), MIN_REPS);
        let again = timed_reps(&w, 42, 0.0);
        assert_eq!(
            virtual_fingerprint(&first[0].result),
            virtual_fingerprint(&again[0].result),
            "{name}: a second invocation with the same seed differs"
        );
        assert!(first
            .iter()
            .chain(&again)
            .all(|r| r.failed == 0 && r.checked > 0));
    }
}

#[test]
fn another_seed_changes_the_op_stream_and_the_metrics() {
    let w = short("read_zipf");
    let stream = |seed| {
        let seed = w.setup(seed).seed;
        let mut g = OpGen::with_theta(w.mix, WorkloadState::new(PRELOAD), seed, w.theta);
        (0..64).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_ne!(stream(42), stream(43));
    let (a, _) = repetition(&w, 42, 0);
    let (b, _) = repetition(&w, 43, 0);
    assert_ne!(
        virtual_fingerprint(&a.result),
        virtual_fingerprint(&b.result)
    );
}

#[test]
fn warm_up_never_replays_the_measured_stream() {
    let w = short("read_zipf");
    let (s, warm) = (w.setup(42), w.warmup_setup(42));
    assert_eq!(warm.seed, driver_seed(warmup_seed(42)));
    // The driver seeds client (cn, i) with `seed ^ (cn << 32) ^ i`: no
    // warm-up client may share a generator seed with a measured client.
    let per_cn = s.clients.div_ceil(s.num_cns) as u64;
    let client_seeds = |seed: u64| {
        (0..s.num_cns as u64)
            .flat_map(move |cn| (0..per_cn).map(move |i| seed ^ (cn << 32) ^ i))
            .collect::<std::collections::BTreeSet<u64>>()
    };
    assert!(client_seeds(s.seed).is_disjoint(&client_seeds(warm.seed)));
    // Neighbouring --seed values must not give the same generators in
    // another order (raw seeds 0..16 would).
    assert!(client_seeds(driver_seed(1)).is_disjoint(&client_seeds(driver_seed(2))));
    // Replaying one stream twice on a deployment would report a hotspot hit
    // ratio of exactly 1; a cache-sized buffer over Zipfian keys does not.
    let (rep, _) = repetition(&w, 42, 0);
    let ratio = rep.result.hotspot_hit_ratio;
    assert!(ratio > 0.2 && ratio < 0.95, "hotspot hit ratio {ratio}");
    // Streams of one seed still agree with themselves.
    let state = WorkloadState::new(PRELOAD);
    let mut g1 = OpGen::with_theta(w.mix, Arc::clone(&state), 42, w.theta);
    let mut g2 = OpGen::with_theta(w.mix, state, 42, w.theta);
    assert!((0..64).all(|_| g1.next_op() == g2.next_op()));
}
