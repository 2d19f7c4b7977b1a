//! From the flat figures of a run (`bench::report::Report::flat_metrics`, or
//! the same keys computed by `tcp::replay`) to the benchmark's metric names.
//!
//! These are the **M** metrics: virtual-clock attribution the program
//! already exports, exact per seed. Names carry the crate the work happens
//! in, so a reader can tell which layer a change should move.

use std::collections::BTreeMap;

use crate::Metrics;

/// Tree phases reported as `core.phase_ns_per_op.*`.
pub const CORE_PHASES: [&str; 10] = [
    "cache_lookup",
    "traversal",
    "lock_acquire",
    "leaf_read",
    "speculative_read",
    "write_back",
    "validate",
    "retry_backoff",
    "scan_chain",
    "other",
];

/// Tree phases that issue verbs, reported as `core.phase_rtts_per_op.*`.
pub const RTT_PHASES: [&str; 6] = [
    "traversal",
    "lock_acquire",
    "leaf_read",
    "speculative_read",
    "write_back",
    "scan_chain",
];

/// Retry causes reported as `core.retries_per_op.*`.
pub const RETRY_CAUSES: [&str; 3] = ["version_mismatch", "lock_conflict", "stale_sibling"];

fn get(flat: &BTreeMap<String, f64>, key: &str) -> f64 {
    *flat
        .get(key)
        .unwrap_or_else(|| panic!("flat metrics lack `{key}`"))
}

/// The modeled (virtual-clock and count) end-to-end metrics.
pub fn modeled_e2e(flat: &BTreeMap<String, f64>) -> Metrics {
    [
        ("sim_mops", "mops"),
        ("sim_avg_us", "avg_us"),
        ("wire_bytes_per_op", "bytes_per_op"),
        ("rtts_per_op", "rtts_per_op"),
        ("cn_cache_mb", "cache_mb"),
    ]
    .into_iter()
    .map(|(name, key)| (name.to_string(), get(flat, key)))
    .collect()
}

/// The modeled per-layer metrics.
pub fn modeled_layers(flat: &BTreeMap<String, f64>) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: String, key: &str| {
        m.insert(name, get(flat, key));
    };
    // The latency quantiles come from ~4.5 %-wide histogram buckets, so they
    // move in steps: reported here, not bounded as end-to-end metrics.
    put("bench.sim_p50_us".into(), "p50_us");
    put("bench.sim_p99_us".into(), "p99_us");
    for p in CORE_PHASES {
        put(
            format!("core.phase_ns_per_op.{p}"),
            &format!("phase_ns_per_op.{p}"),
        );
    }
    for p in RTT_PHASES {
        put(
            format!("core.phase_rtts_per_op.{p}"),
            &format!("phase_rtts_per_op.{p}"),
        );
    }
    put("core.hotspot_hit_ratio".into(), "hotspot_hit_ratio");
    put("core.cache_hit_ratio".into(), "cache_hit_ratio");
    for c in RETRY_CAUSES {
        put(
            format!("core.retries_per_op.{c}"),
            &format!("retries_per_op.{c}"),
        );
    }
    for op in bench::driver::OP_NAMES {
        for q in ["p50_us", "p99_us"] {
            put(format!("core.lat.{op}.{q}"), &format!("lat.{op}.{q}"));
        }
    }
    put("dmem.verbs_per_op".into(), "verbs_per_op");
    put("dmem.msgs_per_op".into(), "msgs_per_op");
    put("dmem.read_amp".into(), "read_amp");
    put("dmem.remote_mb".into(), "remote_mb");
    put(
        "dmem.phase_ns_per_op.cq_wait".into(),
        "phase_ns_per_op.cq_wait",
    );
    put("dmem.qp.doorbell_batch_mean".into(), "doorbell.batch_mean");
    put("dmem.qp.batched_frac".into(), "doorbell.batched_frac");
    put("dmem.qp.doorbells_per_op".into(), "qp.doorbells_per_op");
    put("dmem.qp.cq_depth_p99".into(), "cq.depth_p99");
    m
}
