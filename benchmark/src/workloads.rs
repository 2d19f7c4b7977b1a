//! The six closed-loop workloads and the geometry they share.
//!
//! Why each exists is recorded once, in `BENCHMARK.json` (`workloads[].why`)
//! and at length in `benchmark/README.md`; this file holds only what runs.

use bench::driver::{BenchSetup, IndexKind};
use chime::ChimeConfig;
use ycsb::Workload;

/// Keys preloaded before every workload.
pub const PRELOAD: u64 = 100_000;
/// Inline value width.
pub const VALUE_SIZE: usize = 8;
/// One memory node of 256 MiB: a 1 GiB pool makes set-up time swing with
/// first-touch page faults.
pub const MN_CAPACITY: usize = 256 << 20;
/// Value byte the driver preloads with.
pub const PRELOAD_BYTE: u8 = 0xAB;
/// Value byte the driver's updates and inserts write.
pub const UPDATE_BYTE: u8 = 0xCD;

/// CN index-cache budget at the paper's ratio (100 MiB per 60 M keys) plus a
/// floor: the rule `fig12::scale_cache` uses. With the 30 MiB default the
/// hotspot buffer would hold the whole key space.
pub fn paper_cache_bytes(preload: u64) -> u64 {
    (preload as f64 / 60.0e6 * (100u64 << 20) as f64) as u64 + (64 << 10)
}

/// Hotspot-buffer budget at the paper's ratio (30 MiB per 60 M keys).
pub fn paper_hotspot_bytes(preload: u64) -> u64 {
    (preload as f64 / 60.0e6 * (30u64 << 20) as f64) as u64 + (16 << 10)
}

/// A workload run on the simulated substrate through `bench::driver`:
/// 64 simulated clients (4 CNs x 16), each issuing its next op when the
/// previous one completes on its virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// YCSB mix.
    pub mix: Workload,
    /// Zipfian constant (0.01 is the driver's "uniform").
    pub theta: f64,
    /// Coroutine lanes per client (K).
    pub lanes: usize,
    /// CN index-cache budget; `None` keeps the paper ratio.
    pub cache_bytes: Option<u64>,
    /// Operations in the measured phase.
    pub ops: u64,
    /// Operations in the untimed warm-up phase.
    pub warmup_ops: u64,
}

/// The real-TCP workload: one connection, pipeline window [`TCP_WINDOW`].
#[derive(Debug, Clone, Copy)]
pub struct TcpWorkload {
    /// Requests in the measured phase.
    pub requests: u64,
    /// Requests in the untimed warm-up phase.
    pub warmup_requests: u64,
}

/// Requests in flight per connection before the client reads replies.
pub const TCP_WINDOW: usize = 8;

/// What a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The simulated substrate.
    Sim(SimWorkload),
    /// A loopback `serve::tcp::Server`.
    Tcp(TcpWorkload),
}

/// The workloads by name, in `BENCHMARK.json` order.
pub const ALL: [(&str, Kind); 6] = [
    (
        "read_zipf",
        Kind::Sim(SimWorkload {
            mix: Workload::C,
            theta: 0.99,
            lanes: 1,
            cache_bytes: None,
            ops: 500_000,
            warmup_ops: 100_000,
        }),
    ),
    (
        "read_uniform_smallcache",
        Kind::Sim(SimWorkload {
            mix: Workload::C,
            theta: 0.01,
            lanes: 1,
            cache_bytes: Some(32 << 10),
            ops: 300_000,
            warmup_ops: 60_000,
        }),
    ),
    (
        "update_zipf",
        Kind::Sim(SimWorkload {
            mix: Workload::A,
            theta: 0.99,
            lanes: 1,
            cache_bytes: None,
            ops: 300_000,
            warmup_ops: 60_000,
        }),
    ),
    (
        "update_zipf_k4",
        Kind::Sim(SimWorkload {
            mix: Workload::A,
            theta: 0.99,
            lanes: 4,
            cache_bytes: None,
            ops: 40_000,
            warmup_ops: 8_000,
        }),
    ),
    (
        "scan_insert",
        Kind::Sim(SimWorkload {
            mix: Workload::E,
            theta: 0.99,
            lanes: 1,
            cache_bytes: None,
            ops: 30_000,
            warmup_ops: 5_000,
        }),
    ),
    (
        "serve_tcp",
        Kind::Tcp(TcpWorkload {
            requests: 150_000,
            warmup_requests: 15_000,
        }),
    ),
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Kind> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
}

/// The seed handed to `bench::driver` for a `--seed` value. The driver seeds
/// client `i` of CN `c` with `seed ^ (c << 32) ^ i`, so raw seeds 0..16 would
/// all give the same sixteen generators per CN in another order; hashing
/// first makes neighbouring `--seed` values unrelated inputs.
pub fn driver_seed(seed: u64) -> u64 {
    crate::splitmix(&mut { seed })
}

impl SimWorkload {
    /// The CHIME configuration of this workload: defaults (span 64, H = 8)
    /// with paper-ratio caches.
    pub fn config(&self) -> ChimeConfig {
        ChimeConfig {
            value_size: VALUE_SIZE,
            cache_bytes: self
                .cache_bytes
                .unwrap_or_else(|| paper_cache_bytes(PRELOAD)),
            hotspot_bytes: paper_hotspot_bytes(PRELOAD),
            ..ChimeConfig::default()
        }
    }

    /// The driver set-up of the measured phase for `seed`.
    pub fn setup(&self, seed: u64) -> BenchSetup {
        BenchSetup {
            kind: IndexKind::Chime(self.config()),
            num_mns: 1,
            mn_capacity: MN_CAPACITY,
            num_cns: 4,
            clients: 64,
            preload: PRELOAD,
            ops: self.ops,
            workload: self.mix,
            theta: self.theta,
            value_size: VALUE_SIZE,
            rdwc: true,
            coroutines: self.lanes,
            trace_clients: 0,
            seed: driver_seed(seed),
        }
    }

    /// The driver set-up of the warm-up phase: the same deployment shape,
    /// a different key stream.
    pub fn warmup_setup(&self, seed: u64) -> BenchSetup {
        BenchSetup {
            ops: self.warmup_ops,
            ..self.setup(crate::warmup_seed(seed))
        }
    }
}
