//! A shared key-value store: several compute nodes, many clients, a mixed
//! YCSB-style workload, and a report of the modeled system throughput.
//!
//! This mirrors the paper's deployment: 10 CNs x 64 clients share one CHIME
//! tree on the memory pool; each CN has a 100 MB-class cache (scaled) and a
//! hotspot buffer.
//!
//! Run with: `cargo run --release --example kv_store [-- --clients 320]`

use std::sync::Arc;

use chime::{Chime, ChimeConfig};
use dmem::{NetConfig, Pool, RangeIndex, RunAccounting};
use ycsb::{KeySpace, Op, OpGen, Workload, WorkloadState};

fn main() {
    let clients: usize = std::env::args()
        .skip_while(|a| a != "--clients")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(320);
    let num_cns = 10;
    let preload = 100_000u64;
    let ops_per_client = 500u64;

    let pool = Pool::with_defaults(1, 1 << 30);
    let tree = Chime::create(&pool, ChimeConfig::default(), 0);

    // Preload.
    let loader_cn = tree.new_cn();
    let mut loader = tree.client(&loader_cn);
    for seq in 0..preload {
        loader.insert(KeySpace::key(seq), &[7u8; 8]).unwrap();
    }
    println!("loaded {preload} keys ({} MB remote)", pool.allocated_bytes() >> 20);

    // Run a YCSB-A mix from `clients` clients spread over the CNs, using
    // real threads (one per CN) so writers actually contend.
    let state = WorkloadState::new(preload);
    let cns: Vec<_> = (0..num_cns).map(|_| tree.new_cn()).collect();
    let per_cn = clients / num_cns;
    let totals = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (cn_id, cn) in cns.iter().enumerate() {
            let tree = tree.clone();
            let state = Arc::clone(&state);
            handles.push(s.spawn(move || {
                let mut sum = (0u64, 0u64, 0u64); // (msgs, wire, latency)
                for i in 0..per_cn {
                    let mut c = tree.client(cn);
                    let mut gen = OpGen::new(Workload::A, Arc::clone(&state), (cn_id * 1000 + i) as u64);
                    for _ in 0..ops_per_client {
                        match gen.next_op() {
                            Op::Read(k) => {
                                c.search(k);
                            }
                            Op::Update(k) => {
                                c.update(k, &[9u8; 8]).unwrap();
                            }
                            Op::Insert(k) => c.insert(k, &[9u8; 8]).unwrap(),
                            Op::Scan(k, n) => {
                                let mut out = Vec::new();
                                c.scan(k, n, &mut out);
                            }
                        }
                    }
                    let st = c.stats();
                    sum.0 += st.msgs;
                    sum.1 += st.wire_bytes;
                    sum.2 += c.clock_ns();
                }
                sum
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    });

    let ops = clients as u64 * ops_per_client;
    let est = NetConfig::default().model(&RunAccounting {
        ops,
        clients: clients as u64,
        mns: 1,
        total_msgs: totals.0,
        total_wire_bytes: totals.1,
        sum_latency_ns: totals.2,
        sum_busy_ns: 0,
        max_mn_msgs: 0,
        max_mn_wire_bytes: 0,
    });
    println!("\nYCSB A, {clients} clients on {num_cns} CNs:");
    println!("  modeled throughput : {:.2} Mops ({:?}-bound)", est.mops, est.bound);
    println!("  avg latency        : {:.1} us", est.avg_latency_ns / 1e3);
    println!("  traffic            : {:.0} B/op, {:.2} msgs/op", est.bytes_per_op, est.msgs_per_op);
    let (hits, lookups) = cns[0].hotspot_stats();
    if lookups > 0 {
        println!("  hotspot hit ratio  : {:.1}%", hits as f64 / lookups as f64 * 100.0);
    }
}
