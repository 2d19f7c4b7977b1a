//! Cross-crate concurrency tests: threads race through the shared memory
//! pool; committed writes must never be lost and readers must never observe
//! torn state (the three-level optimistic synchronization at work).


use dmem::{Pool, RangeIndex};

fn v(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

/// Concurrent disjoint inserts: every committed key must be readable.
#[test]
fn chime_concurrent_inserts_none_lost() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = chime::ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        ..Default::default()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    let threads = 4u64;
    let per = 1_500u64;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..per {
                    let k = 1 + i * threads + tid;
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    });
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for k in 1..=(threads * per) {
        assert_eq!(c.search(k), Some(v(k)), "lost insert {k}");
    }
    let mut out = Vec::new();
    c.scan(1, (threads * per) as usize, &mut out);
    assert_eq!(out.len(), (threads * per) as usize, "scan missed keys");
}

/// Updates to per-thread counters must never be lost (write-write races go
/// through node locks).
#[test]
fn chime_concurrent_updates_not_lost() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = chime::ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        ..Default::default()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    let threads = 4u64;
    {
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for tid in 0..threads {
            c.insert(1000 + tid, &v(0)).unwrap();
        }
        // Background keys force splits during the update phase.
        for k in 1..=400u64 {
            c.insert(k, &v(k)).unwrap();
        }
    }
    let rounds = 300u64;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                // Each thread owns one key and increments it; a lost update
                // would leave the final value below `rounds`.
                for i in 1..=rounds {
                    assert!(c.update(1000 + tid, &v(i)).unwrap());
                    // Interleave inserts to churn the tree.
                    c.insert(10_000 + tid * 10_000 + i, &v(i)).unwrap();
                }
            });
        }
    });
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for tid in 0..threads {
        assert_eq!(c.search(1000 + tid), Some(v(rounds)), "thread {tid}");
    }
}

/// Readers racing writers must always see *some* committed value of the
/// correct shape — never a torn mix (EV/bitmap checks).
#[test]
fn chime_readers_never_see_torn_values() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = chime::ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: 64, // large enough to straddle cache lines
        ..Default::default()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    {
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=200u64 {
            c.insert(k, &[1u8; 64]).unwrap();
        }
    }
    std::thread::scope(|s| {
        let tw = t.clone();
        s.spawn(move || {
            let cn = tw.new_cn();
            let mut c = tw.client(&cn);
            for i in 0..2_000u64 {
                let k = 1 + i % 200;
                let fill = (i % 255) as u8 + 1;
                c.update(k, &[fill; 64]).unwrap();
            }
        });
        for _ in 0..2 {
            let tr = t.clone();
            s.spawn(move || {
                let cn = tr.new_cn();
                let mut c = tr.client(&cn);
                for i in 0..3_000u64 {
                    let k = 1 + (i * 7) % 200;
                    let got = c.search(k).expect("preloaded key");
                    assert_eq!(got.len(), 64);
                    let first = got[0];
                    assert!(
                        got.iter().all(|&b| b == first),
                        "torn value for key {k}: {got:?}"
                    );
                }
            });
        }
    });
}

/// Sherman under the same torn-value test (two-level versions).
#[test]
fn sherman_readers_never_see_torn_values() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let cfg = sherman::ShermanConfig {
        span: 8,
        internal_span: 8,
        value_size: 64,
        ..Default::default()
    };
    let t = sherman::Sherman::create(&pool, cfg, 0);
    {
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        for k in 1..=200u64 {
            c.insert(k, &[1u8; 64]).unwrap();
        }
    }
    std::thread::scope(|s| {
        let tw = t.clone();
        s.spawn(move || {
            let cn = tw.new_cn();
            let mut c = tw.client(&cn);
            for i in 0..2_000u64 {
                c.update(1 + i % 200, &[(i % 255) as u8 + 1; 64]).unwrap();
            }
        });
        let tr = t.clone();
        s.spawn(move || {
            let cn = tr.new_cn();
            let mut c = tr.client(&cn);
            for i in 0..3_000u64 {
                let got = c.search(1 + (i * 7) % 200).expect("preloaded key");
                let first = got[0];
                assert!(got.iter().all(|&b| b == first), "torn value");
            }
        });
    });
}

/// SMART: concurrent structural changes (prefix splits, node growth) with
/// random keys; nothing lost.
#[test]
fn smart_concurrent_structural_changes() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let t = smart::Smart::create(&pool, smart::SmartConfig::default(), 0);
    let threads = 4u64;
    let per = 600u64;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move || {
                let cn = t.new_cn();
                let mut c = t.client(&cn);
                for i in 0..per {
                    let k = dmem::hash::mix64(1 + i * threads + tid);
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    });
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for s in 1..=(threads * per) {
        let k = dmem::hash::mix64(s);
        assert_eq!(c.search(k), Some(v(k)), "lost insert seq {s}");
    }
}

/// ROLEX: concurrent synonym-chain inserts, nothing lost.
#[test]
fn rolex_concurrent_overflow_inserts() {
    let pool = Pool::with_defaults(1, 512 << 20);
    let pre: Vec<(u64, Vec<u8>)> = (1..=1_000u64).map(|k| (k * 5, v(k))).collect();
    let t = rolex::Rolex::create(&pool, rolex::RolexConfig::default(), &pre);
    let threads = 3u64;
    let per = 300u64;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let t = t.clone();
            s.spawn(move || {
                let mut c = t.client();
                for i in 0..per {
                    let k = 1 + (i * threads + tid) * 5 + 1; // between loaded keys
                    c.insert(k, &v(k)).unwrap();
                }
            });
        }
    });
    let mut c = t.client();
    for i in 0..(threads * per) {
        let k = 1 + i * 5 + 1;
        assert_eq!(c.search(k), Some(v(k)), "lost overflow insert {k}");
    }
}
