//! The measurements that are not [`BenchSetup`](crate::driver::BenchSetup)
//! runs: raw READ streams (Fig. 4), layout arithmetic (Fig. 16), hopscotch
//! load-factor trials (Figs. 19a/b), single-client round-trip counts
//! (Table 1) and the serve simulator.

use chime::hopscotch::Window;
use chime::layout::LeafLayout;
use dmem::{Endpoint, GlobalAddr, NetConfig, Pool, RangeIndex, RunAccounting};
use serve::sim::{run_sim, SimConfig};
use ycsb::KeySpace;

use super::Custom;

/// Entry size with 8-byte keys and values (1 ver + 2 bitmap + 8 + 8).
const ENTRY: u64 = 19;
/// An H-entry neighborhood (or hop range) plus the covering replica.
pub fn neighborhood_bytes(h: u64) -> u64 {
    h * ENTRY + 10
}
/// Leaf node payload with span 64 (replicas included).
pub const NODE_BYTES: u64 = 8 * (10 + 8 * ENTRY);

/// Fig. 4: `ops` iterations of the given READ sizes against the substrate,
/// each READ its own round trip (the paper's point: a dependent metadata
/// read cannot be batched with the data read), modeled for 640 clients.
pub fn read_stream(reads: &[u64], ops: u64) -> Custom {
    let mut ep = Endpoint::new(Pool::with_defaults(1, 1 << 20));
    let base = GlobalAddr::new(0, 4096);
    let mut bufs: Vec<Vec<u8>> = reads.iter().map(|&r| vec![0u8; r as usize]).collect();
    let t0 = ep.clock_ns();
    for i in 0..ops {
        for (j, buf) in bufs.iter_mut().enumerate() {
            ep.read(base.add(((i * 131) % 1000) * 64 + j as u64 * 4096), buf);
        }
    }
    let s = ep.stats();
    let est = NetConfig::default().model(&RunAccounting {
        ops,
        clients: 640,
        mns: 1,
        total_msgs: s.msgs,
        total_wire_bytes: s.wire_bytes,
        sum_latency_ns: ep.clock_ns() - t0,
        sum_busy_ns: 0,
        max_mn_msgs: 0,
        max_mn_wire_bytes: 0,
    });
    Custom::of(&[("mops", est.mops), ("bytes_per_op", est.bytes_per_op)])
}

/// Fig. 16: per-leaf metadata bytes with fence keys vs sibling validation
/// at `key_size`-byte keys (pure layout arithmetic).
pub fn metadata_bytes(key_size: usize) -> Custom {
    let fences = LeafLayout {
        span: 64,
        h: 8,
        key_size,
        value_size: 8,
        replication: true,
        fences: true,
        piggyback: true,
    };
    let sibling = LeafLayout { fences: false, ..fences };
    Custom::of(&[
        ("fence_metadata_bytes", fences.metadata_bytes() as f64),
        ("sibling_metadata_bytes", sibling.metadata_bytes() as f64),
    ])
}

/// Figs. 19a/b: fills single hopscotch leaves with random keys until the
/// first failure; the mean achieved load factor over 300 trials.
pub fn max_load_factor(span: usize, h: usize) -> f64 {
    const TRIALS: usize = 300;
    let mut total = 0.0;
    for t in 0..TRIALS {
        let mut w = Window::new(span, h, 8, 0, span);
        let mut n = 0usize;
        for i in 0.. {
            let key = dmem::hash::mix64((t * 1_000_003 + i) as u64) | 1;
            let home = dmem::hash::home_entry(key, span);
            let empty = (0..span).map(|d| (home + d) % span).find(|&p| w.slot_empty(p));
            let Some(empty) = empty else { break };
            if w.insert(key, &[0u8; 8], empty).is_err() {
                break;
            }
            n += 1;
        }
        total += n as f64 / span as f64;
    }
    total / TRIALS as f64
}

/// The operations Table 1 counts round trips for, in measurement order
/// (`delete` removes what `insert (new key)` added).
pub const TABLE1_OPS: [&str; 6] = [
    "search (hit)",
    "search (miss)",
    "update",
    "insert (new key)",
    "delete",
    "scan (100)",
];

/// Table 1: round trips per single CHIME operation with an index cache of
/// `cache` bytes (ample = best case, 0 = worst case), one point per
/// [`TABLE1_OPS`] entry: RTTs/op, virtual-latency percentiles and the
/// per-phase RTT/ns breakdown the table exists to explain.
pub fn rtt_table(cache: u64, preload: u64) -> Vec<Custom> {
    const SAMPLES: u64 = 400;
    let pool = Pool::with_defaults(1, 2 << 30);
    let cfg = chime::ChimeConfig {
        cache_bytes: cache,
        // No hotspot buffer: isolate the protocol RTTs from speculation.
        hotspot_bytes: 0,
        ..Default::default()
    };
    let tree = chime::Chime::create(&pool, cfg, 0);
    let cn = tree.new_cn();
    let mut c = tree.client(&cn);
    for seq in 0..preload {
        c.insert(KeySpace::key(seq), &[1u8; 8]).expect("preload insert");
    }
    // Warm the cache (no-op when the budget is 0).
    for seq in 0..preload.min(20_000) {
        c.search(KeySpace::key(seq * 3 % preload));
    }
    type OpFn = fn(&mut chime::ChimeClient, u64, u64);
    let ops: [OpFn; 6] = [
        |c, s, n| assert!(c.search(KeySpace::key((s * 7) % n)).is_some()),
        |c, s, n| assert!(c.search(KeySpace::key(n + 100 + s)).is_none()),
        |c, s, n| assert!(c.update(KeySpace::key((s * 11) % n), &[2u8; 8]).expect("update")),
        |c, s, n| c.insert(KeySpace::key(n + 10_000 + s), &[3u8; 8]).expect("insert"),
        |c, s, n| assert!(c.delete(KeySpace::key(n + 10_000 + s)).expect("delete")),
        |c, s, n| c.scan(KeySpace::key((s * 13) % n), 100, &mut Vec::new()),
    ];
    ops.iter()
        .map(|op| {
            let rtts0 = c.stats().rtts;
            let prof0 = c.profile().expect("chime client profiles").clone();
            let mut lat = obs::LatencyHist::new();
            for s in 0..SAMPLES {
                let t0 = c.clock_ns();
                op(&mut c, s, preload);
                lat.record(c.clock_ns() - t0);
            }
            let delta = c.profile().expect("chime client profiles").since(&prof0);
            let mut metrics = vec![
                ("rtts_per_op".to_string(), (c.stats().rtts - rtts0) as f64 / SAMPLES as f64),
                ("p50_us".to_string(), lat.quantile(0.5) as f64 / 1_000.0),
                ("p90_us".to_string(), lat.quantile(0.9) as f64 / 1_000.0),
                ("p99_us".to_string(), lat.quantile(0.99) as f64 / 1_000.0),
            ];
            for ph in obs::Phase::ALL {
                let acc = delta.phase(ph);
                let per_op = |v: u64| v as f64 / SAMPLES as f64;
                metrics.push((format!("phase_rtts_per_op.{}", ph.as_str()), per_op(acc.rtts)));
                metrics.push((format!("phase_ns_per_op.{}", ph.as_str()), per_op(acc.ns)));
            }
            Custom { metrics, timeline: None }
        })
        .collect()
}

/// One run of the serve simulator: throughput, served-latency percentiles
/// and the shed/defer counters, with the run's timeline.
pub fn serve_study(cfg: &SimConfig) -> Custom {
    let r = run_sim(cfg);
    let shed_frac = r.shed as f64 / (r.served + r.shed).max(1) as f64;
    let metrics = Custom::of(&[
        ("mops", r.throughput_mops()),
        ("p50_us", r.hist.quantile(0.50) as f64 / 1e3),
        ("p99_us", r.hist.quantile(0.99) as f64 / 1e3),
        ("served", r.served as f64),
        ("shed", r.shed as f64),
        ("shed_frac", shed_frac),
        ("deferred", r.deferred as f64),
        ("frame_errors", r.frame_errors as f64),
        ("anomalies", r.anomalies.len() as f64),
    ]);
    Custom { timeline: Some((r.timeline, r.anomalies)), ..metrics }
}
