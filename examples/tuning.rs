//! Tuning explorer: how span size and neighborhood size trade off read
//! amplification, space efficiency and compute-side cache consumption —
//! the §5.4 story, runnable on your own parameters.
//!
//! Run with: `cargo run --release --example tuning`

use chime::hopscotch::Window;
use chime::{Chime, ChimeConfig};
use dmem::hash::home_entry;
use dmem::{Pool, RangeIndex};
use ycsb::KeySpace;

fn main() {
    println!("## Neighborhood size H: load factor vs read size (span 64)\n");
    println!(
        "{:>4} {:>18} {:>22}",
        "H", "max load factor", "neighborhood bytes"
    );
    for h in [2usize, 4, 8, 16] {
        let lf = max_load_factor(64, h);
        let bytes = h * 19 + 10;
        println!("{h:>4} {lf:>18.3} {bytes:>22}");
    }
    println!("\n(The paper picks H = 8: ~88% load factor at a 162-byte read.)");

    println!("\n## Span size: cache consumption vs space efficiency\n");
    println!(
        "{:>6} {:>14} {:>16} {:>14}",
        "span", "cache (KB)", "remote (MB)", "amp bytes/op"
    );
    for span in [16usize, 64, 256] {
        let pool = Pool::with_defaults(1, 1 << 30);
        let cfg = ChimeConfig {
            span,
            cache_bytes: 1 << 30,
            hotspot_bytes: 0,
            ..Default::default()
        };
        let t = Chime::create(&pool, cfg, 0);
        let cn = t.new_cn();
        let mut c = t.client(&cn);
        let n = 60_000u64;
        for seq in 0..n {
            c.insert(KeySpace::key(seq), &[1u8; 8]).unwrap();
        }
        for seq in 0..n {
            c.search(KeySpace::key(seq)).unwrap();
        }
        let before = c.stats().clone();
        for seq in 0..5_000 {
            c.search(KeySpace::key(seq * 7 % n)).unwrap();
        }
        let d = c.stats().since(&before);
        println!(
            "{span:>6} {:>14.1} {:>16.1} {:>14.0}",
            c.cache_bytes() as f64 / 1024.0,
            pool.allocated_bytes() as f64 / (1 << 20) as f64,
            d.wire_bytes as f64 / 5_000.0
        );
    }
    println!("\n(Bigger spans shrink the cache but leave the per-search read");
    println!("untouched: CHIME reads neighborhoods, never whole nodes.)");
}

/// Mean achieved load factor of a single hopscotch table.
fn max_load_factor(span: usize, h: usize) -> f64 {
    let trials = 300;
    let mut total = 0.0;
    for t in 0..trials {
        let mut w = Window::new(span, h, 8, 0, span);
        let mut n = 0;
        for i in 0.. {
            let key = dmem::hash::mix64((t * 7_919 + i) as u64) | 1;
            let home = home_entry(key, span);
            let Some(empty) = (0..span).map(|d| (home + d) % span).find(|&p| w.slot_empty(p))
            else {
                break;
            };
            if w.insert(key, &[0u8; 8], empty).is_err() {
                break;
            }
            n += 1;
        }
        total += n as f64 / span as f64;
    }
    total / trials as f64
}
