//! Protocol-cost tests: Table 1's round-trip counts and the paper's
//! amplification orderings, asserted from the verb statistics.

use dmem::{Pool, RangeIndex};
use ycsb::KeySpace;

fn chime_with(cache: u64, spec: bool) -> (chime::Chime, chime::ChimeClient) {
    let pool = Pool::with_defaults(1, 1 << 30);
    let cfg = chime::ChimeConfig {
        cache_bytes: cache,
        hotspot_bytes: if spec { 1 << 20 } else { 0 },
        ..Default::default()
    };
    let t = chime::Chime::create(&pool, cfg, 0);
    let cn = t.new_cn();
    let mut c = t.client(&cn);
    for seq in 0..60_000u64 {
        c.insert(KeySpace::key(seq), &[1u8; 8]).unwrap();
    }
    (t, c)
}

/// Table 1 best case: search 1 (internal nodes cached, no speculation);
/// update/delete 2 where the paper has 3, because their lock CAS and
/// neighborhood READ share one doorbell, and insert 2 to 3 where the paper
/// has 3: its neighborhood READ shares the doorbell too, and a third round
/// trip reads the argmax entry or the hop window when that window cannot
/// settle the insert (EXPERIMENTS.md, known deviation 6).
#[test]
fn table1_best_case_round_trips() {
    let (_t, mut c) = chime_with(1 << 30, false);
    // Warm the CN cache.
    for seq in 0..20_000u64 {
        c.search(KeySpace::key(seq * 3 % 60_000)).unwrap();
    }
    let samples = 200u64;
    let rtts = |c: &mut chime::ChimeClient, f: &mut dyn FnMut(&mut chime::ChimeClient, u64)| {
        let before = c.stats().rtts;
        for s in 0..samples {
            f(c, s);
        }
        (c.stats().rtts - before) as f64 / samples as f64
    };
    let search = rtts(&mut c, &mut |c, s| {
        c.search(KeySpace::key((s * 7) % 60_000)).unwrap();
    });
    assert!(
        (0.95..=1.3).contains(&search),
        "search best case should be ~1 RTT, got {search}"
    );
    let update = rtts(&mut c, &mut |c, s| {
        assert!(c.update(KeySpace::key((s * 11) % 60_000), &[2u8; 8]).unwrap());
    });
    assert!(
        (1.9..=2.3).contains(&update),
        "update best case should be ~2 RTTs, got {update}"
    );
    let insert = rtts(&mut c, &mut |c, s| {
        c.insert(KeySpace::key(70_000 + s), &[3u8; 8]).unwrap();
    });
    assert!(
        (2.4..=2.7).contains(&insert),
        "insert best case should be ~2.5 RTTs (splits amortized), got {insert}"
    );
    let delete = rtts(&mut c, &mut |c, s| {
        assert!(c.delete(KeySpace::key(70_000 + s)).unwrap());
    });
    assert!(
        (1.9..=2.6).contains(&delete),
        "delete best case should be ~2 RTTs, got {delete}"
    );
}

/// Worst case adds h (tree height) round-trips per operation.
#[test]
fn table1_worst_case_adds_tree_height() {
    let (_t, mut c) = chime_with(0, false);
    let samples = 200u64;
    let before = c.stats().rtts;
    for s in 0..samples {
        c.search(KeySpace::key((s * 7) % 60_000)).unwrap();
    }
    let per_op = (c.stats().rtts - before) as f64 / samples as f64;
    // 60k keys / (64 * 0.8) per leaf ~ 1200 leaves -> 2 internal levels.
    assert!(
        (2.9..=3.4).contains(&per_op),
        "uncached search should be ~h+1 = 3 RTTs, got {per_op}"
    );
}

/// A correct speculation reduces the search to a single small READ.
#[test]
fn speculative_read_shrinks_traffic() {
    let (_t, mut c) = chime_with(1 << 30, true);
    // Make one key hot.
    for _ in 0..20 {
        c.search(KeySpace::key(42)).unwrap();
    }
    let before = c.stats().clone();
    for _ in 0..100 {
        c.search(KeySpace::key(42)).unwrap();
    }
    let d = c.stats().since(&before);
    assert_eq!(d.rtts, 100, "hot search is exactly one RTT");
    let bytes = d.wire_bytes / 100;
    // One 19-byte entry (plus line versions + header) vs a ~200-byte
    // neighborhood.
    assert!(bytes < 120, "speculative read bytes/op = {bytes}");
    assert!(c.counters.spec_hits >= 99);
}

/// CHIME's per-search bytes sit far below Sherman's whole-node reads and
/// the measured amplification ordering matches Fig. 1.
#[test]
fn amplification_ordering_chime_sherman_smart() {
    let pool = Pool::with_defaults(1, 1 << 30);
    let n = 30_000u64;
    // CHIME (no speculation, to measure the plain neighborhood read).
    let tc = chime::Chime::create(
        &pool,
        chime::ChimeConfig {
            hotspot_bytes: 0,
            ..Default::default()
        },
        0,
    );
    let ts = sherman::Sherman::create(&pool, sherman::ShermanConfig::default(), 1);
    let tm = smart::Smart::create(&pool, smart::SmartConfig::default(), 2);
    let cnc = tc.new_cn();
    let cns = ts.new_cn();
    let cnm = tm.new_cn();
    let mut cc = tc.client(&cnc);
    let mut cs = ts.client(&cns);
    let mut cm = tm.client(&cnm);
    for seq in 0..n {
        let k = KeySpace::key(seq);
        cc.insert(k, &[1u8; 8]).unwrap();
        cs.insert(k, &[1u8; 8]).unwrap();
        cm.insert(k, &[1u8; 8]).unwrap();
    }
    let probe = |c: &mut dyn RangeIndex| {
        // Warm pass, then measure.
        for s in 0..2_000u64 {
            c.search(KeySpace::key((s * 13) % n)).unwrap();
        }
        let b0 = c.stats().clone();
        for s in 0..2_000u64 {
            c.search(KeySpace::key((s * 7) % n)).unwrap();
        }
        let d = c.stats().since(&b0);
        d.wire_bytes as f64 / 2_000.0
    };
    let chime_b = probe(&mut cc);
    let sherman_b = probe(&mut cs);
    let smart_b = probe(&mut cm);
    assert!(
        smart_b < chime_b && chime_b < sherman_b,
        "amplification ordering violated: SMART {smart_b:.0} < CHIME {chime_b:.0} < Sherman {sherman_b:.0}"
    );
    // Sherman reads whole 64-entry nodes: ~5x CHIME's 8-entry neighborhoods.
    assert!(
        sherman_b / chime_b > 3.0,
        "Sherman/CHIME bytes ratio too small: {:.1}",
        sherman_b / chime_b
    );
}
