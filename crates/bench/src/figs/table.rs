//! The figure table: what each figure runs and what the paper claims about
//! the outcome. Point keys are the contract with `BENCH_<name>.json`
//! consumers and with the claims below; paper values are the ones
//! EXPERIMENTS.md quotes.

use serve::sim::SimConfig;
use ycsb::Workload::{self, Load, A, B, C, D, E};

use super::claims::Check::{self, Order};
use super::claims::Band;
use super::studies::*;
use super::*;
use crate::driver::IndexKind;

const fn fig(
    name: &'static str,
    title: &'static str,
    (preload, ops): (u64, u64),
    cols: &'static [&'static str],
    build: fn(Scale, &mut Spec),
) -> Figure {
    Figure { name, title, scale: Scale { preload, ops }, cols, build }
}

/// Every table and figure, in `--all` order (cheapest first).
pub const FIGURES: &[Figure] = &[
    fig("fig16", "sibling-based validation vs fence keys: leaf metadata bytes by key size (§4.2.3)", (0, 0), &[], fig16),
    fig("fig4", "cost of extra metadata READs and of the neighborhood size, as raw READ streams (§3.2)", (0, 50_000), &[], fig4),
    fig("fig3", "the motivating trade-offs: cache vs amplification, limited bandwidth, limited caches, hashing (§3.1)", (100_000, 40_000), &[], fig3),
    fig("table1", "round trips per CHIME operation, best case (warm cache) and worst case (no cache)", (100_000, 0), &[], table1),
    fig("smoke", "the fixed-seed smoke matrix, every flat metric pinned in results/smoke.json: CHIME and Sherman on YCSB C/A/E, K=4, evicting caches, splitting inserts, 4-MN scale-out, the serve knee", (20_000, 10_000), &[], smoke),
    fig("fig14", "compute-side cache consumption vs loaded items, sufficient caches (§5.2)", (100_000, 0), &[], fig14),
    fig("fig15", "factor analysis: CHIME's techniques one by one from Sherman (15a) and from ROLEX (15b)", (100_000, 40_000), &[], fig15),
    fig("fig17", "speculative reads past saturation, YCSB C", (100_000, 40_000), &["hotspot_hit_ratio"], fig17),
    fig("fig19", "in-depth: span and neighborhood vs max load factor, hotspot buffer size", (100_000, 40_000), &["hotspot_hit_ratio"], fig19),
    fig("fig13", "variable-length (indirect, 64 B) values at 320 clients", (100_000, 40_000), &[], fig13),
    fig("fig18", "sensitivity at 640 clients: skew, cache, inline/indirect value size, span, neighborhood", (100_000, 40_000), &[], fig18),
    fig("fig12", "YCSB throughput-latency curves, CHIME vs Sherman, ROLEX, SMART, SMART-Opt", (150_000, 50_000), &[], fig12),
    fig("fig_coroutines", "coroutine lanes per client K (§6.1 execution model): uniform YCSB C, 64 clients, 2 CNs", (100_000, 40_000), &["qp.doorbells_per_op", "doorbell.batch_mean", "cq.depth_p99"], fig_coroutines),
    fig("fig_serve", "serving layer: open-loop arrival gap vs throughput, tail and shed rate (32 conns x 64 reqs, 2 workers)", (0, 0), &[], fig_serve),
    fig("fig_scaleout", "partitioned CHIME over 1-8 MNs: uniform, Zipfian with the migrator off, and on", (30_000, 576_000), &["migrate.migrations", "migrate.leaves_moved"], fig_scaleout),
    fig("fig_scale", "CHIME where the caches bind: cache footprint (Fig. 14) and speculative reads (Figs. 17, 19c) at 10 M keys", (10_000_000, 200_000), &["hotspot_hit_ratio"], fig_scale),
];

const RISING: Check = Check::Monotone { rising: true };
const FALLING: Check = Check::Monotone { rising: false };

/// The paper reports ratio `paper`; ours must lie in `[lo, hi]`.
fn ratio(paper: f64, lo: f64, hi: f64) -> Check {
    Check::RatioBand(Band { paper, lo, hi })
}

/// The paper reports value `paper`; ours must lie in `[lo, hi]`.
fn value(paper: f64, lo: f64, hi: f64) -> Check {
    Check::ValueBand(Band { paper, lo, hi })
}

/// The four indexes of the paper's line-up, in figure order.
fn lineup() -> [(&'static str, IndexKind); 4] {
    [("CHIME", chime()), ("Sherman", sherman()), ("ROLEX", rolex()), ("SMART", smart())]
}

/// Scan-heavy YCSB E runs a quarter of the ops (each op moves ~100 rows).
fn ycsb_scale(w: Workload, s: Scale) -> Scale {
    Scale { ops: if w == E { s.ops / 4 } else { s.ops }, ..s }
}

const YCSB: [Workload; 6] = [C, Load, D, A, B, E];

/// Cache consumption is linear in the dataset (§5.2): a footprint the paper
/// reports at 60 M keys, scaled to `keys`.
fn paper_mb_at(keys: u64, mb_at_60m: f64) -> f64 {
    mb_at_60m * keys as f64 / PAPER_KEYS
}

/// "Sufficient caches": the footprint is what the index would keep, with
/// CHIME's hotspot buffer (a fixed budget, reported separately) excluded.
fn unbounded(kind: IndexKind) -> IndexKind {
    kind.with_cache(AMPLE_CACHE).with_hotspot(0)
}

fn fig3(s: Scale, t: &mut Spec) {
    // 3a: cache footprint vs amplification, sufficient caches.
    let mut tradeoff = |name: String, kind: IndexKind| {
        t.point(format!("3a/{name}"), footprint(unbounded(kind), s.preload, s.ops / 2));
    };
    for span in [16, 64, 256] {
        tradeoff(format!("Sherman (span {span})"), sherman().with_span(span));
    }
    for span in [16, 64] {
        tradeoff(format!("ROLEX (span {span})"), rolex().with_span(span));
    }
    tradeoff("SMART".to_string(), smart());
    tradeoff("CHIME".to_string(), chime());
    let mut regime = |sub: &str, mns: u16, cache: fn(IndexKind, u64) -> IndexKind| {
        for (name, kind) in [("Sherman", sherman()), ("ROLEX", rolex()), ("SMART", smart())] {
            let setup = BenchSetup { num_mns: mns, ..testbed(cache(kind, s.preload), C, 0, s) };
            t.curve(format!("{sub}/{name}"), setup, &[40, 160, 480, 960]);
        }
    };
    // 3b: limited bandwidth (1 MN, ample caches); 3c: limited caches (10
    // MNs, caches scaled to the dataset with a 32 KiB floor).
    regime("3b", 1, |kind, _| kind.with_cache(1 << 30));
    regime("3c", 10, |kind, preload| scale_cache(kind, preload, 32 << 10));
    // 3d: max load factor of 128-entry tables over 500 trials.
    for (scheme, amp) in hashstudy::fig3d_points() {
        let (hashstudy::Scheme::Assoc(param)
        | hashstudy::Scheme::Hopscotch(param)
        | hashstudy::Scheme::Race(param)
        | hashstudy::Scheme::Farm(param)) = scheme;
        t.study(format!("3d/{}/{param}", scheme.name()), move || {
            Custom::of(&[("amp_factor", amp as f64), ("max_load_factor", scheme.max_load_factor(128, 500, 7))])
        });
    }
    let sherman_spans = ["3a/Sherman (span 16)", "3a/Sherman (span 64)", "3a/Sherman (span 256)"];
    t.claim("3a/sherman-amp-tracks-span", "KV-contiguous leaves: amplification grows with the span", "read_amp", &sherman_spans, RISING);
    t.claim("3a/sherman-cache-shrinks-with-span", "... while the cache shrinks with it", "cache_mb", &sherman_spans, FALLING);
    t.claim("3a/chime-amp-below-sherman", "CHIME reads one 8-entry neighborhood where Sherman reads a 64-entry leaf (8x)", "read_amp", &["3a/Sherman (span 64)", "3a/CHIME"], ratio(8.0, 4.0, 9.0));
    t.claim("3a/smart-cache-dwarfs-chime", "KV-discrete SMART needs 503.2 MB of cache where CHIME needs 27.6 MB (18x)", "cache_mb", &["3a/SMART", "3a/CHIME"], ratio(18.2, 10.0, 40.0));
    t.claim("3b/smart-above-contiguous", "limited bandwidth: SMART peaks above the bandwidth-bound Sherman and ROLEX", "mops", &["3b/SMART/960", "3b/ROLEX/960", "3b/Sherman/960"], Order);
    t.claim("3b/smart-vs-sherman", "... by 4.9x", "mops", &["3b/SMART/960", "3b/Sherman/960"], ratio(4.9, 4.0, 8.0));
    t.claim("3c/smart-below-contiguous", "limited caches: SMART at 480 clients falls below ROLEX and Sherman", "mops", &["3c/ROLEX/480", "3c/Sherman/480", "3c/SMART/480"], Order);
    t.claim("3c/sherman-vs-smart", "... by 5.9x (ours is smaller: at 100 k keys the radix tree is 3-4 levels deep, so a cache miss costs ~1 extra RTT, not several)", "mops", &["3c/Sherman/480", "3c/SMART/480"], ratio(5.9, 1.1, 2.5));
    t.claim("3d/hopscotch-dominates", "at amplification 8 hopscotch reaches the highest load factor, then RACE, FaRM, associativity", "max_load_factor", &["3d/hopscotch/8", "3d/RACE/2", "3d/FaRM/4", "3d/associativity/8"], Order);
    t.claim("3d/hopscotch-h8", "hopscotch H=8 fills to ~0.9", "max_load_factor", &["3d/hopscotch/8"], value(0.9, 0.8, 0.95));
    t.claim("3d/hopscotch-h16", "hopscotch H=16 fills to 99.8 %", "max_load_factor", &["3d/hopscotch/16"], value(0.998, 0.97, 1.0));
}

fn fig4(s: Scale, t: &mut Spec) {
    let hop = neighborhood_bytes(8);
    let mut stream = |key: &str, reads: Vec<u64>| t.study(key, move || read_stream(&reads, s.ops));
    // 4a, inserts: the hop range alone vs an extra vacancy-bitmap READ.
    stream("4a/hop range only (ideal)", vec![hop]);
    stream("4a/+ vacancy bitmap READ", vec![8, hop]);
    stream("4a/entire leaf node", vec![NODE_BYTES]);
    // 4b, searches: the neighborhood alone vs an extra leaf-metadata READ.
    stream("4b/neighborhood + replica", vec![hop]);
    stream("4b/+ leaf metadata READ", vec![10, hop]);
    stream("4b/entire leaf node", vec![NODE_BYTES]);
    // 4c: neighborhood size.
    for h in [1, 2, 4, 8, 16, 32, 64] {
        stream(&format!("4c/{h}"), vec![neighborhood_bytes(h)]);
    }
    t.claim("4a/bitmap-read-cost", "a separate vacancy-bitmap READ costs inserts up to 1.8x", "mops", &["4a/hop range only (ideal)", "4a/+ vacancy bitmap READ"], ratio(1.8, 1.3, 1.9));
    t.claim("4b/metadata-read-cost", "a separate leaf-metadata READ costs searches up to 1.8x", "mops", &["4b/neighborhood + replica", "4b/+ leaf metadata READ"], ratio(1.8, 1.3, 1.9));
    t.claim("4c/throughput-falls-with-neighborhood", "larger neighborhoods cost throughput (IOPS-bound, then bandwidth-bound)", "mops", &["4c/1", "4c/2", "4c/4", "4c/8", "4c/16", "4c/32", "4c/64"], FALLING);
    t.claim("4c/one-vs-eight-entries", "reading 8 entries instead of 1 costs at least 1.3x", "mops", &["4c/1", "4c/8"], ratio(1.3, 1.2, 1.6));
}

fn table1(s: Scale, t: &mut Spec) {
    let (best, worst) = ("best (warm cache)", "worst (no cache)");
    for (case, cache) in [(best, 1u64 << 30), (worst, 0)] {
        t.studies(case, &TABLE1_OPS, move || rtt_table(cache, s.preload));
    }
    // The paper's formulas with h = 2 internal levels (⌈log64(N / 0.88)⌉ at
    // 20 k to 4 M keys); inserts amortize splits, scans span leaves. Updates
    // and deletes take one round trip less than the paper's formula.
    let rows = [
        (best, "search (hit)", "search: 1-2 RTTs with all internal nodes cached", value(1.0, 1.0, 2.0)),
        (best, "update", "update: 3-4; ours is one less: the lock CAS and the neighborhood READ share one doorbell (EXPERIMENTS.md known deviation 6)", value(3.0, 2.0, 2.5)),
        (best, "insert (new key)", "insert: 3", value(3.0, 3.0, 3.5)),
        (best, "delete", "delete: 3-4; ours is one less: the lock CAS and the neighborhood READ share one doorbell (EXPERIMENTS.md known deviation 6)", value(3.0, 2.0, 2.5)),
        (best, "scan (100)", "scan: 1 (plus per-100-item leaf reads)", value(1.0, 1.0, 2.0)),
        (worst, "search (hit)", "search: h+1..h+2 with nothing cached", value(3.0, 3.0, 4.0)),
        (worst, "update", "update: h+3..h+4; ours is one less: the lock CAS and the neighborhood READ share one doorbell (EXPERIMENTS.md known deviation 6)", value(5.0, 4.0, 4.5)),
        (worst, "insert (new key)", "insert: h+3", value(5.0, 5.0, 5.5)),
        (worst, "delete", "delete: h+3..h+4; ours is one less: the lock CAS and the neighborhood READ share one doorbell (EXPERIMENTS.md known deviation 6)", value(5.0, 4.0, 4.5)),
        (worst, "scan (100)", "scan: h+1 (plus per-100-item leaf reads)", value(3.0, 3.0, 4.0)),
    ];
    for (case, op, paper, check) in rows {
        t.claim(format!("t1/{case}/{op}"), paper, "rtts_per_op", &[format!("{case}/{op}")], check);
    }
}

/// No claims: `figs` writes the flat metrics of a whole run at the
/// published scale to `smoke.json`, and `make figs` fails on any moved byte.
fn smoke(s: Scale, t: &mut Spec) {
    // 2 CNs, `s.preload` keys, `s.ops` ops a point (two fifths for scans).
    let point = |kind: IndexKind, w: Workload, clients: usize, coroutines: usize| BenchSetup {
        kind,
        workload: w,
        clients,
        coroutines,
        num_cns: 2,
        preload: s.preload,
        ops: if w == E { s.ops * 2 / 5 } else { s.ops },
        mn_capacity: 512 << 20,
        ..Default::default()
    };
    let lower = |w: Workload| w.name().to_lowercase();
    for (index, kind) in [("chime", chime()), ("sherman", sherman())] {
        for w in [C, A, E] {
            for clients in [16, 64] {
                t.point(format!("{index}/{}/{clients}", lower(w)), point(kind.clone(), w, clients, 1));
            }
        }
    }
    // Pipelined: 4 coroutine lanes per client.
    for w in [C, A] {
        t.point(format!("chime/{}/64/k4", lower(w)), point(chime(), w, 64, 4));
    }
    // Uniform reads over 5x the keys, with a 32 KiB node cache and a 16 KiB
    // hotspot buffer: both caches run full and evict (LRU and LFU).
    let small = chime().with_cache(32 << 10).with_hotspot(16 << 10);
    t.point("chime/c/64/evict", BenchSetup { preload: 5 * s.preload, theta: 0.01, ..point(small, C, 64, 1) });
    // Inserts of fresh keys: half the loaded keys again, so leaves split.
    t.point("chime/load/64", point(chime(), Load, 64, 1));
    // Scale-out: the router (uniform) and the live hotspot migrator
    // (Zipfian, migrations mid-run) on a reduced cut of fig_scaleout.
    let cut = Scale { preload: s.preload * 3 / 2, ops: s.ops * 24 / 5 };
    t.point("scaleout/uniform/4mn", scaleout_setup(4, 0.01, false, 256, cut));
    t.point("scaleout/zipf-mig/4mn", scaleout_setup(4, ycsb::ZIPFIAN_CONSTANT, true, 256, cut));
    // The serve front end at fig_serve's knee.
    t.study("serve/shed/32x64", || serve_study(&SimConfig { seed: 42, ..serve_point(2_000) }));
}

fn fig12(s: Scale, t: &mut Spec) {
    for w in YCSB {
        for (name, kind) in lineup().into_iter().chain([("SMART-Opt", smart_opt())]) {
            // ROLEX is pre-trained; the paper excludes it from LOAD.
            if (w, name) != (Load, "ROLEX") {
                let setup = testbed(scale_cache(kind, s.preload, CACHE_FLOOR), w, 0, ycsb_scale(w, s));
                t.curve(format!("{}/{name}", w.name()), setup, &[20, 80, 160, 320, 640]);
            }
        }
    }
    // Peak (640 clients) ratios: the paper's headline per workload, ours.
    const WIDE: &str = "CHIME over Sherman at peak (ours is larger on read-heavy mixes: our Sherman pays the full modeled span-64 amplification, with none of the client-side NIC relief of the testbed)";
    const SMART: &str = "CHIME over SMART at peak";
    let peaks = [
        (C, ratio(4.3, 5.5, 9.0), ratio(5.1, 4.0, 6.5)),
        (Load, ratio(1.6, 1.3, 2.1), ratio(1.2, 1.05, 1.7)),
        (D, ratio(4.2, 4.5, 7.5), ratio(4.4, 3.3, 5.5)),
        (A, ratio(2.2, 2.0, 3.5), ratio(2.5, 1.4, 3.0)),
        (B, ratio(3.6, 4.5, 7.5), ratio(4.1, 3.3, 5.3)),
    ];
    let at = |w: Workload, name: &str| format!("{}/{name}/640", w.name());
    for (w, over_sherman, over_smart) in peaks {
        let n = w.name();
        t.claim(format!("12/{n}/order"), "CHIME leads every point-query workload: above SMART, above Sherman", "mops", &[at(w, "CHIME"), at(w, "SMART"), at(w, "Sherman")], Order);
        t.claim(format!("12/{n}/chime-vs-sherman"), WIDE, "mops", &[at(w, "CHIME"), at(w, "Sherman")], over_sherman);
        t.claim(format!("12/{n}/chime-vs-smart"), SMART, "mops", &[at(w, "CHIME"), at(w, "SMART")], over_smart);
    }
    t.claim("12/E/chime-over-sherman", "YCSB E: CHIME 1.2x above Sherman", "mops", &[at(E, "CHIME"), at(E, "Sherman")], Order)
        .expected_fail("the 640-client points are bandwidth-bound and CHIME moves ~16 % more bytes per scan: it reads as many leaves as Sherman (2.17 vs 2.16 per scan at 150 k keys) but a hopscotch leaf is 1 365 B on the wire against 1 182 (per-entry hop bitmaps and versions, replicated metadata); the paper's scan-side entry exclusion (§4.4, one sentence) is not implemented (EXPERIMENTS.md known gap 3, ROADMAP item 6)");
    t.claim("12/E/smart-collapses-on-scans", "YCSB E: SMART 2.5x below CHIME", "mops", &[at(E, "CHIME"), at(E, "SMART")], ratio(2.5, 2.5, 5.0));
}

fn fig13(s: Scale, t: &mut Spec) {
    for w in YCSB {
        // SMART-RCU stores items inside its leaves (no extra block RTT):
        // its plain inline mode with the paper's 64-byte items.
        let kinds = [
            ("CHIME-Indirect", chime().indirect(64)),
            ("Marlin (indirect B+)", sherman().indirect(64)),
            ("ROLEX-Indirect", rolex().indirect(64)),
            ("SMART-RCU", smart().with_value_size(64)),
        ];
        for (name, kind) in kinds {
            if (w, name) != (Load, "ROLEX-Indirect") {
                t.point(format!("{}/{name}", w.name()), testbed(kind, w, 320, ycsb_scale(w, s)));
            }
        }
    }
    t.claim("13/C/chime-indirect-leads", "with indirect values CHIME still leads the KV-contiguous indexes on reads", "mops", &["C/CHIME-Indirect", "C/ROLEX-Indirect", "C/Marlin (indirect B+)"], Order);
    t.claim("13/A/chime-indirect-leads", "... and on the update-heavy mix", "mops", &["A/CHIME-Indirect", "A/Marlin (indirect B+)", "A/ROLEX-Indirect"], Order);
    t.claim("13/C/ties-smart-rcu", "SMART-RCU keeps items in its leaves and skips the block RTT: level with CHIME-Indirect on YCSB C", "mops", &["C/CHIME-Indirect", "C/SMART-RCU"], ratio(1.0, 0.8, 1.25));
}

fn fig14(s: Scale, t: &mut Spec) {
    let sizes = [1, 2, 4].map(|m| m * s.preload);
    for n in sizes {
        for (name, kind) in lineup() {
            // One pass over n keys warms the cache.
            let setup = BenchSetup { mn_capacity: 4 << 30, ..footprint(unbounded(kind), n, n) };
            t.point(format!("{name}/{n}"), setup);
        }
    }
    let top = sizes[2];
    let at_top = |mb_at_60m: f64| paper_mb_at(top, mb_at_60m);
    let footprints = [
        ("CHIME", "CHIME caches 27.6 MB at 60 M keys (+30 MB hotspot buffer, budgeted separately)", 27.6, 20.0, 30.0),
        ("Sherman", "Sherman caches 23.6 MB at 60 M keys", 23.6, 19.0, 27.0),
        ("ROLEX", "ROLEX caches 31.2 MB at 60 M keys (ours is far smaller: hashed-uniform keys are extremely PLR-friendly and only segments are counted)", 31.2, 1.5, 2.6),
        ("SMART", "SMART caches 503.2 MB at 60 M keys (ours is larger: compact parsed nodes cost ~14 B/key against the paper's ~8.4 B/key)", 503.2, 600.0, 1000.0),
    ];
    for (name, paper, mb, lo, hi) in footprints {
        t.claim(format!("14/{name}"), paper, "cache_mb", &[format!("{name}/{top}")], value(at_top(mb), at_top(lo), at_top(hi)));
    }
    t.claim("14/linear-in-items", "cache consumption grows linearly with the loaded items", "cache_mb", &[format!("CHIME/{top}"), format!("CHIME/{}", sizes[0])], ratio(4.0, 3.6, 4.4));
    t.claim("14/discrete-vs-contiguous", "the KV-discrete index caches 18x what CHIME does", "cache_mb", &[format!("SMART/{top}"), format!("CHIME/{top}")], ratio(18.2, 15.0, 45.0));
}

fn fig15(s: Scale, t: &mut Spec) {
    let base = chime::ChimeConfig::baseline();
    let piggyback = chime::ChimeConfig { vacancy_piggyback: true, ..base };
    let replication = chime::ChimeConfig { metadata_replication: true, sibling_validation: true, ..piggyback };
    let full = chime().with_hotspot(scaled_hotspot(s.preload));
    let steps = [
        ("Sherman", sherman()),
        ("+hopscotch leaf", IndexKind::Chime(base)),
        ("+vacancy piggyback", IndexKind::Chime(piggyback)),
        ("+metadata replication", IndexKind::Chime(replication)),
        ("+speculative read", full.clone()),
    ];
    let learned = IndexKind::Rolex(rolex::RolexConfig { hopscotch_leaves: true, ..Default::default() });
    let from_rolex = [("ROLEX", rolex()), ("CHIME-Learned (hop leaves)", learned), ("CHIME", full)];
    for w in [C, Load, A] {
        for (name, kind) in &steps {
            t.point(format!("15a/{}/{name}", w.name()), testbed(kind.clone(), w, 320, s));
        }
    }
    for w in [C, A] {
        for (name, kind) in &from_rolex {
            t.point(format!("15b/{}/{name}", w.name()), testbed(kind.clone(), w, 320, s));
        }
    }
    let c_steps: Vec<String> = steps.iter().map(|(name, _)| format!("15a/C/{name}")).collect();
    t.claim("15a/C/every-step-helps-reads", "YCSB C: no technique costs read throughput", "mops", &c_steps, RISING);
    t.claim("15a/C/hopscotch-leaf", "the hopscotch leaf lifts YCSB C 2.3x over Sherman", "mops", &[&c_steps[1], &c_steps[0]], ratio(2.3, 2.3, 4.5));
    t.claim("15a/LOAD/hopscotch-leaf-neutral", "... and leaves LOAD where it was", "mops", &["15a/LOAD/+hopscotch leaf", "15a/LOAD/Sherman"], ratio(1.0, 0.9, 1.15));
    t.claim("15a/LOAD/piggyback", "vacancy-bitmap piggybacking lifts LOAD 1.6x", "mops", &["15a/LOAD/+vacancy piggyback", "15a/LOAD/+hopscotch leaf"], ratio(1.6, 1.4, 2.1));
    t.claim("15a/LOAD/piggyback-p50", "... and cuts its median latency 1.7x", "p50_us", &["15a/LOAD/+hopscotch leaf", "15a/LOAD/+vacancy piggyback"], ratio(1.7, 1.4, 2.1));
    t.claim("15a/C/replication", "leaf-metadata replication lifts YCSB C 1.6x", "mops", &[&c_steps[3], &c_steps[2]], ratio(1.6, 1.2, 1.8));
    t.claim("15b/C/learned-between", "hopscotch leaves lift ROLEX (CHIME-Learned), but the B+-tree hybrid stays well ahead", "mops", &["15b/C/CHIME", "15b/C/CHIME-Learned (hop leaves)", "15b/C/ROLEX"], Order);
    t.claim("15b/A/learned-between", "... on YCSB A as well", "mops", &["15b/A/CHIME", "15b/A/CHIME-Learned (hop leaves)", "15b/A/ROLEX"], Order);
}

fn fig16(_: Scale, t: &mut Spec) {
    let sizes = [8usize, 16, 32, 64, 128, 256];
    for key_size in sizes {
        t.study(format!("16/{key_size}"), move || metadata_bytes(key_size));
    }
    const REDUCTION: &str = "fence_metadata_bytes/sibling_metadata_bytes";
    t.claim("16/8B-keys", "sibling-based validation shrinks leaf metadata 1.4x at 8-byte keys", REDUCTION, &["16/8"], value(1.4, 1.3, 1.5));
    t.claim("16/256B-keys", "... growing to 8.6x at 256-byte keys", REDUCTION, &["16/256"], value(8.6, 8.0, 9.0));
    t.claim("16/grows-with-key-size", "the saving grows with the key size", REDUCTION, &sizes.map(|k| format!("16/{k}")), RISING);
}

fn fig17(s: Scale, t: &mut Spec) {
    for (name, hotspot) in [("CHIME w/o SR", 0), ("CHIME w/ SR", scaled_hotspot(s.preload))] {
        t.curve(name, testbed(chime().with_hotspot(hotspot), C, 0, s), &[160, 320, 640, 960, 1280]);
    }
    let with_sr = [160, 320, 640, 960, 1280].map(|c| format!("CHIME w/ SR/{c}"));
    t.claim("17/sr-gain-past-saturation", "past saturation speculative reads buy back bandwidth: up to 1.2x", "mops", &["CHIME w/ SR/640", "CHIME w/o SR/640"], ratio(1.2, 1.1, 1.6));
    t.claim("17/hit-ratio-climbs-with-load", "the hotspot buffer's hit ratio climbs with the load", "hotspot_hit_ratio", &with_sr, RISING);
    t.claim("17/hit-ratio", "81 % of speculative reads hit", "hotspot_hit_ratio", &["CHIME w/ SR/1280"], value(0.81, 0.7, 0.95));
}

fn fig18(s: Scale, t: &mut Spec) {
    let at = |kind: IndexKind, w: Workload| testbed(kind, w, 640, s);
    let scaled = |kind: IndexKind| scale_cache(kind, s.preload, CACHE_FLOOR);
    // 18a: skew under 50 % search + 50 % update.
    for theta in [0.5, 0.7, 0.9, 0.99] {
        for (name, kind) in lineup() {
            t.point(format!("18a/theta{theta}/{name}"), BenchSetup { theta, ..at(scaled(kind), A) });
        }
    }
    // 18b: cache size (YCSB C from here on).
    for kb in [64u64, 256, 1024, 4096, 16384] {
        for (name, kind) in lineup() {
            t.point(format!("18b/cache{kb}KB/{name}"), at(kind.with_cache(kb << 10), C));
        }
    }
    // 18c: inline value size.
    for v in [8, 64, 256, 512] {
        for (name, kind) in lineup() {
            t.point(format!("18c/value{v}B/{name}"), at(scaled(kind.with_value_size(v)), C));
        }
    }
    // 18d: indirect value size.
    for v in [64, 256, 1024] {
        for (name, kind) in [("CHIME-Indirect", chime()), ("Marlin", sherman()), ("ROLEX-Indirect", rolex())] {
            t.point(format!("18d/indirect{v}B/{name}"), at(kind.indirect(v), C));
        }
    }
    // 18e: span size (SMART has none).
    for span in [16, 32, 64, 128, 256, 512] {
        for (name, kind) in lineup().into_iter().take(3) {
            t.point(format!("18e/span{span}/{name}"), at(kind.with_span(span), C));
        }
    }
    // 18f: neighborhood size.
    for h in [2, 4, 8, 16] {
        let kind = IndexKind::Chime(chime::ChimeConfig { neighborhood: h, ..Default::default() });
        t.point(format!("18f/H{h}"), at(kind, C));
    }
    let over = |sub: &str, steps: &[&str], name: &str| -> Vec<String> {
        steps.iter().map(|step| format!("{sub}/{step}/{name}")).collect()
    };
    let among = |step: &str, names: &[&str]| -> Vec<String> {
        names.iter().map(|name| format!("{step}/{name}")).collect()
    };
    let thetas = ["theta0.5", "theta0.7", "theta0.9", "theta0.99"];
    let caches = ["cache64KB", "cache256KB", "cache1024KB", "cache4096KB", "cache16384KB"];
    let spans = ["span16", "span32", "span64", "span128", "span256", "span512"];
    t.claim("18a/chime-ahead-under-skew", "CHIME stays ahead of every baseline at the highest skew", "mops", &among("18a/theta0.99", &["CHIME", "SMART", "Sherman"]), Order);
    t.claim("18a/chime-rises-with-skew", "CHIME gains from skew (RDWC combines hot-key ops)", "mops", &over("18a", &thetas, "CHIME"), RISING);
    t.claim("18a/smart-falls-with-skew", "SMART degrades as skew grows", "mops", &over("18a", &thetas, "SMART"), FALLING)
        .expected_fail("lock-retry storms are not modeled: contention in the simulator is real but host-scheduled, not proportional to the simulated client count, so SMART's cache concentrating on the hot set wins instead (EXPERIMENTS.md known gap 2, ROADMAP item 1)");
    t.claim("18b/chime-peaks-with-small-cache", "CHIME is at its peak with the smallest cache", "mops", &["18b/cache64KB/CHIME", "18b/cache16384KB/CHIME"], ratio(1.0, 0.95, 1.05));
    t.claim("18b/smart-keeps-wanting-cache", "SMART keeps improving with cache far beyond the others' needs (400 MB vs < 100 MB)", "mops", &over("18b", &caches, "SMART"), RISING);
    t.claim("18c/chime-inline-value", "8 -> 512 B inline values cost CHIME 9.4x (ours is larger: the whole 8-entry neighborhood scales with the value and stays bandwidth-bound)", "mops", &["18c/value8B/CHIME", "18c/value512B/CHIME"], ratio(9.4, 9.4, 20.0));
    t.claim("18c/sherman-inline-value", "... Sherman 15.5x (ours is larger: full span-64 leaf reads, no NIC relief)", "mops", &["18c/value8B/Sherman", "18c/value512B/Sherman"], ratio(15.5, 15.5, 35.0));
    t.claim("18c/smart-inline-value", "... and SMART only 1.2x", "mops", &["18c/value8B/SMART", "18c/value512B/SMART"], ratio(1.2, 1.1, 1.9));
    t.claim("18d/chime-indirect-leads", "with indirect values CHIME leads ROLEX and Marlin", "mops", &among("18d/indirect64B", &["CHIME-Indirect", "ROLEX-Indirect", "Marlin"]), Order);
    t.claim("18e/chime-span-insensitive", "CHIME's throughput barely depends on the span", "mops", &["18e/span512/CHIME", "18e/span16/CHIME"], ratio(1.0, 0.9, 1.8));
    t.claim("18e/sherman-falls-with-span", "Sherman degrades with the span", "mops", &over("18e", &spans, "Sherman"), FALLING);
    t.claim("18e/sherman-span-cost", "... 18.6x from span 8 to 512 (ours: 16 to 512)", "mops", &["18e/span16/Sherman", "18e/span512/Sherman"], ratio(18.6, 15.0, 27.0));
    t.claim("18e/rolex-falls-with-span", "ROLEX degrades with the span", "mops", &over("18e", &spans, "ROLEX"), FALLING);
    t.claim("18f/falls-with-neighborhood", "larger neighborhoods cost CHIME throughput", "mops", &["18f/H4", "18f/H8", "18f/H16"], FALLING);
    t.claim("18f/h2-vs-h16", "... 1.1x from H=2 to 16 (ours is larger: the 16-entry neighborhood read crosses into the bandwidth bound)", "mops", &["18f/H2", "18f/H16"], ratio(1.1, 1.1, 2.0));
}

fn fig19(s: Scale, t: &mut Spec) {
    let spans = [16usize, 32, 64, 128, 256, 512];
    let hs = [2usize, 4, 8, 16];
    for span in spans {
        t.study(format!("19a/span{span}"), move || {
            let kind = unbounded(chime().with_span(span));
            let cache = crate::driver::run(&footprint(kind, s.preload, s.preload)).cache_bytes;
            Custom::of(&[
                ("max_load_factor", max_load_factor(span, 8.min(span))),
                ("cache_mb", cache as f64 / (1 << 20) as f64),
            ])
        });
    }
    for h in hs {
        t.study(format!("19b/H{h}"), move || Custom::of(&[("max_load_factor", max_load_factor(64, h))]));
    }
    for kb in [0u64, 16, 64, 256, 1024] {
        t.point(format!("19c/buffer{kb}KB"), testbed(chime().with_hotspot(kb << 10), C, 640, s));
    }
    let span_keys = spans.map(|sp| format!("19a/span{sp}"));
    t.claim("19a/load-factor-falls-with-span", "larger spans lower the max load factor", "max_load_factor", &span_keys, FALLING);
    t.claim("19a/cache-falls-with-span", "... and the cache consumption", "cache_mb", &span_keys, FALLING);
    t.claim("19a/span64", "span 64 fills to 0.881", "max_load_factor", &["19a/span64"], value(0.881, 0.85, 0.97));
    t.claim("19b/load-factor-rises-with-h", "larger neighborhoods raise the max load factor", "max_load_factor", &hs.map(|h| format!("19b/H{h}")), RISING);
    t.claim("19b/h2", "H=2 fills to 0.377", "max_load_factor", &["19b/H2"], value(0.377, 0.35, 0.41));
    t.claim("19b/h16", "H=16 fills to 0.998", "max_load_factor", &["19b/H16"], value(0.998, 0.97, 1.0));
    t.claim("19c/buffer-gain", "the hotspot buffer lifts YCSB C up to 1.2x and saturates quickly", "mops", &["19c/buffer1024KB", "19c/buffer0KB"], ratio(1.2, 1.1, 1.6));
    t.claim("19c/hit-ratio", "81 % of lookups hit the buffer (ours is lower: at 100 k keys the Zipfian hot set is relatively far larger than at 60 M, and the run ends before the buffer fills — first-touch misses bound it, not the LFU policy; 73 % at 10 M keys)", "hotspot_hit_ratio", &["19c/buffer1024KB"], value(0.81, 0.3, 0.5));
}

fn fig_coroutines(s: Scale, t: &mut Spec) {
    // A fresh deployment per K: every point preloads identically, so the
    // sweep isolates the pipelining effect (no warm-cache carry-over).
    for k in [1, 2, 4, 8] {
        let setup = BenchSetup {
            num_cns: 2,
            coroutines: k,
            mn_capacity: 512 << 20,
            theta: 0.01, // uniform-ish: zipfian requires theta in (0,1)
            ..testbed(chime(), C, 64, s)
        };
        t.point(format!("chime/c/64/k{k}"), setup);
    }
    t.claim("coroutines/k2-doubles", "(execution model, not a paper figure) two lanes fully overlap their round trips", "mops", &["chime/c/64/k2", "chime/c/64/k1"], ratio(2.0, 1.8, 2.1));
    t.claim("coroutines/saturates-by-k4", "(not a paper figure) past the IOPS bound further lanes only queue", "mops", &["chime/c/64/k8", "chime/c/64/k4"], ratio(1.0, 0.95, 1.05));
    t.claim("coroutines/latency-grows-with-k", "(not a paper figure) ... and median latency grows with K", "p50_us", &["chime/c/64/k2", "chime/c/64/k4", "chime/c/64/k8"], RISING);
}

fn fig_serve(_: Scale, t: &mut Spec) {
    // Mean inter-arrival gaps (ns) from idle to well past saturation.
    let gaps = [16_000u64, 8_000, 4_000, 2_000, 600, 150];
    for gap in gaps {
        t.study(format!("serve/shed/gap{gap}"), move || serve_study(&serve_point(gap)));
    }
    t.claim("serve/shed-climbs-past-saturation", "(not a paper figure) past the knee the CQ watermark sheds the excess load", "shed_frac", &gaps.map(|g| format!("serve/shed/gap{g}")), RISING);
    t.claim("serve/tail-stays-bounded", "(not a paper figure) ... so the served-request tail stays pinned instead of queueing without bound", "p99_us", &["serve/shed/gap150", "serve/shed/gap16000"], ratio(1.0, 0.9, 1.5));
}

fn fig_scaleout(s: Scale, t: &mut Spec) {
    for mns in [1u16, 2, 4, 8] {
        // Enough offered load that the MN-side NIC verb rate is the binding
        // resource across the whole sweep.
        let setup = |theta, migrate| scaleout_setup(mns, theta, migrate, 1_920, s);
        t.point(format!("uniform/mns{mns}"), setup(0.01, false));
        t.point(format!("zipf/mns{mns}/off"), setup(ycsb::ZIPFIAN_CONSTANT, false));
        t.point(format!("zipf/mns{mns}/on"), setup(ycsb::ZIPFIAN_CONSTANT, true));
    }
    t.claim("scaleout/uniform-scales", "(not a paper figure) uniform throughput scales with the MN count", "mops", &["uniform/mns1", "uniform/mns2", "uniform/mns4", "uniform/mns8"], RISING);
    t.claim("scaleout/uniform-8mn", "(not a paper figure) ... close to linearly: 8 MNs serve ~8x one MN's verbs", "mops", &["uniform/mns8", "uniform/mns1"], ratio(8.0, 6.5, 8.0));
    t.claim("scaleout/migrator-recovers-skew", "(not a paper figure) at 8 MNs the live migrator recovers most of the skew-induced loss", "mops", &["zipf/mns8/on", "zipf/mns8/off"], ratio(1.56, 1.3, 1.9));
    t.claim("scaleout/no-migration-at-2mn", "(not a paper figure) with 2 MNs the imbalance trigger never fires", "migrate.migrations", &["zipf/mns2/on"], value(0.0, 0.0, 0.0));
}

fn fig_scale(s: Scale, t: &mut Spec) {
    t.point("footprint/CHIME", footprint(unbounded(chime()), s.preload, s.ops));
    t.curve("CHIME w/ SR", testbed(scale_cache(chime(), s.preload, CACHE_FLOOR), C, 0, s), &[160, 320, 640, 960, 1280]);
    // `14/CHIME`'s band, at the keys loaded here.
    let cache = value(paper_mb_at(s.preload, 27.6), paper_mb_at(s.preload, 20.0), paper_mb_at(s.preload, 30.0));
    let hit_ratio = value(0.81, 0.7, 0.95);
    t.claim("scale/chime-cache", "CHIME caches 27.6 MB at 60 M keys: a sixth of the keys, a sixth of the cache", "cache_mb", &["footprint/CHIME"], cache);
    t.claim("scale/chime-cache-under-load", "... and the paper-ratio cache budget (100 MB at 60 M keys) holds it with room to spare at 1 280 clients", "cache_mb", &["CHIME w/ SR/1280"], cache);
    t.claim("scale/hit-ratio-640", "81 % of lookups hit the hotspot buffer at 640 clients (Fig. 19c); at 100 k keys ours is 40 %", "hotspot_hit_ratio", &["CHIME w/ SR/640"], hit_ratio);
    t.claim("scale/hit-ratio-peak", "... and at the top of Fig. 17's sweep", "hotspot_hit_ratio", &["CHIME w/ SR/1280"], hit_ratio);
}
