//! The one line-up every figure draws from: the five index configurations
//! the paper compares, the modifiers its sweeps vary, the dataset-scaled
//! cache rule, and the deployment shapes (testbed, cache-footprint pass,
//! scale-out cluster, serve point) the figures share.

use serve::sim::{OverloadPolicy, SimConfig};
use ycsb::Workload;

use super::Scale;
use crate::driver::{BenchSetup, IndexKind};

/// Keys the paper loads; its cache budgets (100 MB index cache, 30 MB
/// hotspot buffer per CN) are quoted against this dataset.
pub const PAPER_KEYS: f64 = 60.0e6;
/// A cache budget no run at our scales can fill ("sufficient caches").
pub const AMPLE_CACHE: u64 = 8 << 30;
/// Floor [`scale_cache`] adds to the scaled index cache in every figure
/// but 3c (which starves the caches harder, with 32 KiB).
pub const CACHE_FLOOR: u64 = 64 << 10;

/// CHIME, default configuration.
pub fn chime() -> IndexKind {
    IndexKind::Chime(chime::ChimeConfig::default())
}

/// Sherman, default configuration.
pub fn sherman() -> IndexKind {
    IndexKind::Sherman(sherman::ShermanConfig::default())
}

/// ROLEX, default configuration.
pub fn rolex() -> IndexKind {
    IndexKind::Rolex(rolex::RolexConfig::default())
}

/// SMART, default configuration.
pub fn smart() -> IndexKind {
    IndexKind::Smart(smart::SmartConfig::default())
}

/// SMART with a cache large enough to hold the whole radix tree.
pub fn smart_opt() -> IndexKind {
    smart().with_cache(AMPLE_CACHE)
}

impl IndexKind {
    /// The CHIME configuration inside (a partitioned cluster's per-tree
    /// one) and the number of trees a per-CN budget is divided over.
    fn chime_mut(&mut self) -> Option<(&mut chime::ChimeConfig, u64)> {
        match self {
            IndexKind::Chime(c) => Some((c, 1)),
            IndexKind::Part(p) => Some((&mut p.chime, p.parts as u64)),
            _ => None,
        }
    }

    /// Sets the per-CN index cache budget (ROLEX has none: its models are
    /// its cache).
    pub fn with_cache(mut self, bytes: u64) -> Self {
        match &mut self {
            IndexKind::Sherman(c) => c.cache_bytes = bytes,
            IndexKind::Smart(c) => c.cache_bytes = bytes,
            _ => {}
        }
        if let Some((c, trees)) = self.chime_mut() {
            c.cache_bytes = bytes / trees;
        }
        self
    }

    /// Sets CHIME's per-CN hotspot buffer budget; speculative reads are on
    /// exactly when there is a buffer to speculate from. No effect on the
    /// baselines.
    pub fn with_hotspot(mut self, bytes: u64) -> Self {
        if let Some((c, trees)) = self.chime_mut() {
            c.hotspot_bytes = bytes / trees;
        }
        self
    }

    /// Sets the inline value size.
    pub fn with_value_size(mut self, v: usize) -> Self {
        match &mut self {
            IndexKind::Sherman(c) => c.value_size = v,
            IndexKind::Rolex(c) => c.value_size = v,
            IndexKind::Smart(c) => c.value_size = v,
            _ => {}
        }
        if let Some((c, _)) = self.chime_mut() {
            c.value_size = v;
        }
        self
    }

    /// Sets the leaf span (ROLEX's error bound follows its span, as in the
    /// paper; SMART has no span).
    pub fn with_span(mut self, span: usize) -> Self {
        match &mut self {
            IndexKind::Sherman(c) => c.span = span,
            IndexKind::Rolex(c) => c.span = span,
            _ => {}
        }
        if let Some((c, _)) = self.chime_mut() {
            c.span = span;
        }
        self
    }

    /// Stores `v`-byte values out of line behind a pointer (SMART keeps
    /// items inside its leaves and has no indirect mode).
    pub fn indirect(mut self, v: usize) -> Self {
        match &mut self {
            IndexKind::Sherman(c) => c.indirect_values = true,
            IndexKind::Rolex(c) => c.indirect_values = true,
            _ => {}
        }
        if let Some((c, _)) = self.chime_mut() {
            c.indirect_values = true;
        }
        self.with_value_size(v)
    }

    /// The value size the index is configured for.
    pub fn value_size(&self) -> usize {
        match self {
            IndexKind::Chime(c) => c.value_size,
            IndexKind::Sherman(c) => c.value_size,
            IndexKind::Rolex(c) => c.value_size,
            IndexKind::Smart(c) => c.value_size,
            IndexKind::Part(c) => c.chime.value_size,
        }
    }
}

/// `paper_bytes` of CN memory at the paper's dataset size, scaled linearly
/// to `preload` keys.
fn scaled(preload: u64, paper_bytes: u64) -> u64 {
    (preload as f64 / PAPER_KEYS * paper_bytes as f64) as u64
}

/// The paper's 30 MB hotspot buffer scaled to the loaded dataset.
pub fn scaled_hotspot(preload: u64) -> u64 {
    scaled(preload, 30 << 20) + (16 << 10)
}

/// Scales the paper's 100 MB / 60 M-key CN cache (and CHIME's hotspot
/// buffer) to the loaded dataset, plus `floor` bytes of index cache.
/// SMART-Opt's ample cache is left alone.
pub fn scale_cache(kind: IndexKind, preload: u64, floor: u64) -> IndexKind {
    if matches!(&kind, IndexKind::Smart(c) if c.cache_bytes >= 1 << 30) {
        return kind;
    }
    kind.with_cache(scaled(preload, 100 << 20) + floor)
        .with_hotspot(scaled_hotspot(preload))
}

/// The paper's testbed shape: 10 CNs over one MN, RDWC on, the value size
/// the index is configured for.
pub fn testbed(kind: IndexKind, workload: Workload, clients: usize, s: Scale) -> BenchSetup {
    BenchSetup {
        value_size: kind.value_size(),
        kind,
        workload,
        clients,
        num_cns: 10,
        preload: s.preload,
        ops: s.ops,
        ..Default::default()
    }
}

/// A cache-footprint pass: one CN reads `ops` keys under a flat Zipfian
/// (θ = 0.6 touches more of the tree) so the cache holds what the index
/// would keep at this dataset size.
pub fn footprint(kind: IndexKind, preload: u64, ops: u64) -> BenchSetup {
    BenchSetup { num_cns: 1, theta: 0.6, ..testbed(kind, Workload::C, 16, Scale { preload, ops }) }
}

/// Partitions per memory node in scale-out deployments. More partitions
/// than MNs is what gives the migrator room: it rebalances by re-homing
/// whole partitions.
const PARTS_PER_MN: usize = 4;

/// A partitioned CHIME cluster over `mns` memory nodes under YCSB C with
/// Zipfian constant `theta`, the live hotspot migrator on or off.
pub fn scaleout_setup(mns: u16, theta: f64, migrate: bool, clients: usize, s: Scale) -> BenchSetup {
    let cluster = part::ClusterConfig {
        parts: PARTS_PER_MN * mns as usize,
        chime: chime::ChimeConfig {
            // Small leaves keep the one-time migration copy (leaf reads on
            // the source MN, per-item inserts on the target) cheap relative
            // to the steady-state traffic the rebalancing is meant to fix.
            span: 16,
            neighborhood: 4,
            ..Default::default()
        },
        check_every: 64,
        // The rebalancer re-evaluates on every one of its own ops: with
        // ~2000 clients sharing the op budget it only runs a handful, and
        // the window gate (min_window over *cluster-wide* traffic) is what
        // actually paces migrations.
        migrate: migrate.then_some(part::MigrateConfig {
            check_every: 1,
            min_window: 4_096,
            imbalance: 1.15,
        }),
    };
    // Fixed per-CN budgets divided over the partition trees, so adding MNs
    // does not quietly add compute-side cache.
    let kind = IndexKind::Part(cluster).with_cache(8 << 20).with_hotspot(1 << 20);
    BenchSetup {
        num_mns: mns,
        mn_capacity: 64 << 20,
        num_cns: 4,
        theta,
        // RDWC combining would collapse duplicate hot-key reads at the CN
        // and mask exactly the MN-side placement skew scale-out measures,
        // so it is off here (it is on for every paper figure).
        rdwc: false,
        ..testbed(kind, Workload::C, clients, s)
    }
}

/// The serve-layer point: 32 framed connections × 64 requests over 2
/// workers, shedding above CQ depth 12, at mean inter-arrival `gap_ns`.
pub fn serve_point(gap_ns: u64) -> SimConfig {
    SimConfig {
        seed: 1,
        conns: 32,
        workers: 2,
        requests_per_conn: 64,
        mean_gap_ns: gap_ns,
        cq_watermark: 12,
        policy: OverloadPolicy::Shed,
        ..SimConfig::default()
    }
}
