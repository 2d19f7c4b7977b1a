//! Figure 19: in-depth CHIME analyses.
//!
//! * 19a — span size vs maximum load factor and cache consumption;
//! * 19b — neighborhood size vs maximum load factor;
//! * 19c — hotspot buffer size vs throughput and hit ratio.
//!
//! Usage: `fig19 [--preload N] [--ops N] [--trials N]`

use bench::driver::{print_row, run, Args, BenchSetup, IndexKind};
use bench::report::Report;
use chime::hopscotch::{build_table, Window};
use dmem::hash::home_entry;
use ycsb::Workload;

fn main() {
    let args = Args::parse();
    let preload: u64 = args.get("preload", 120_000);
    let ops: u64 = args.get("ops", 50_000);
    let trials: usize = args.get("trials", 300);

    let mut rep = Report::new("fig19");
    println!("# Figure 19a: span size vs max load factor & cache consumption");
    println!(
        "{:>6} {:>16} {:>14}",
        "span", "max load factor", "cache (MB)"
    );
    for span in [16usize, 32, 64, 128, 256, 512] {
        let lf = leaf_max_load_factor(span, 8.min(span), trials);
        let r = run(&BenchSetup {
            kind: IndexKind::Chime(chime::ChimeConfig {
                span,
                cache_bytes: 8 << 30,
                hotspot_bytes: 0,
                speculative_read: false,
                ..Default::default()
            }),
            preload,
            ops: preload, // warming pass
            clients: 16,
            num_cns: 1,
            workload: Workload::C,
            theta: 0.6,
            ..Default::default()
        });
        println!(
            "{span:>6} {lf:>16.3} {:>14.3}",
            r.cache_bytes as f64 / (1 << 20) as f64
        );
        rep.add_custom(
            &format!("19a/span{span}"),
            &[
                ("max_load_factor", lf),
                ("cache_mb", r.cache_bytes as f64 / (1 << 20) as f64),
            ],
        );
    }

    println!("\n# Figure 19b: neighborhood size vs max load factor (span 64)");
    println!("{:>6} {:>16}", "H", "max load factor");
    for h in [2usize, 4, 8, 16] {
        let lf = leaf_max_load_factor(64, h, trials);
        println!("{h:>6} {lf:>16.3}");
        rep.add_custom(&format!("19b/H{h}"), &[("max_load_factor", lf)]);
    }

    println!("\n# Figure 19c: hotspot buffer size (YCSB C, 640 clients)");
    for kb in [0u64, 16, 64, 256, 1024] {
        let r = run(&BenchSetup {
            kind: IndexKind::Chime(chime::ChimeConfig {
                hotspot_bytes: kb << 10,
                speculative_read: kb > 0,
                ..Default::default()
            }),
            preload,
            ops,
            clients: 640,
            num_cns: 10,
            workload: Workload::C,
            ..Default::default()
        });
        print_row(&format!("buffer {kb} KB"), 640, &r);
        println!(
            "{:>34} hit ratio {:.1}%",
            "",
            r.hotspot_hit_ratio * 100.0
        );
        rep.add(&format!("19c/buffer{kb}KB"), &r);
    }
    rep.finish();
}

/// Fills single hopscotch tables with random keys until the first
/// failure; reports the mean achieved load factor.
fn leaf_max_load_factor(span: usize, h: usize, trials: usize) -> f64 {
    let mut total = 0.0;
    for t in 0..trials {
        let mut w = Window::new(span, h, 8, 0, span);
        let mut n = 0usize;
        for i in 0.. {
            let key = dmem::hash::mix64((t * 1_000_003 + i) as u64) | 1;
            let home = home_entry(key, span);
            let empty = (0..span)
                .map(|d| (home + d) % span)
                .find(|&p| w.slot_empty(p));
            let Some(empty) = empty else { break };
            if w.insert(key, &[0u8; 8], empty).is_err() {
                break;
            }
            n += 1;
        }
        total += n as f64 / span as f64;
    }
    // Sanity: the same routine must agree with build_table on low fills.
    debug_assert!(build_table(span, h, 8, &[(1, vec![0u8; 8])]).is_some());
    total / trials as f64
}
