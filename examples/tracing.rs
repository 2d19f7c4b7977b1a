//! Deterministic span tracing: where do an operation's round trips go?
//!
//! Runs a seeded Zipfian read-mostly workload with a tracer attached,
//! then prints the five slowest spans with a per-verb breakdown (verb kind,
//! target memory node, wire bytes, modeled latency). Because every timestamp
//! comes from the virtual clock, the output is byte-identical across runs
//! and machines for the same seed.
//!
//! Run with: `cargo run --release --example tracing`

use std::collections::BTreeMap;

use chime::{Chime, ChimeConfig};
use dmem::{Pool, RangeIndex, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ycsb::{KeySpace, Zipfian};

fn main() {
    let pool = Pool::with_defaults(2, 512 << 20);
    let cfg = ChimeConfig {
        // A small cache forces remote descents so spans carry real traffic.
        cache_bytes: 1 << 20,
        ..Default::default()
    };
    let tree = Chime::create(&pool, cfg, 0);
    let cn = tree.new_cn();
    let mut c = tree.client(&cn);
    // Bound the client's trace ring; oldest events drop first.
    c.set_tracer(Tracer::new(0, 1 << 16));

    let n = 20_000u64;
    for seq in 0..n {
        c.insert(KeySpace::key(seq), &[1u8; 8]).unwrap();
    }

    // Measured phase: 95% Zipfian searches, 5% fresh inserts.
    let zipf = Zipfian::new(n, 0.99);
    let mut rng = SmallRng::seed_from_u64(42);
    for i in 0..5_000u64 {
        if i % 20 == 0 {
            c.insert(KeySpace::key(n + i), &[2u8; 8]).unwrap();
        } else {
            c.search(KeySpace::key(zipf.next(&mut rng))).unwrap();
        }
    }

    let tracer = c.take_tracer().expect("the tracer attached above");
    let mut spans = tracer.spans();
    println!(
        "{} events in the ring ({} dropped), {} spans",
        tracer.events().len(),
        tracer.events().dropped(),
        spans.len()
    );

    spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns()));
    println!("\ntop 5 slowest spans:");
    for s in spans.iter().take(5) {
        println!(
            "  {:>6} key={:<20} {:>7} ns  ok={} verbs={} wire={}B faults={}",
            s.op,
            s.key,
            s.dur_ns(),
            s.ok,
            s.verbs.len(),
            s.wire_bytes,
            s.faults
        );
        // Aggregate the span's verb events by (kind, memory node).
        let mut by_verb: BTreeMap<(&str, u16), (u64, u64, u64)> = BTreeMap::new();
        for v in &s.verbs {
            let e = by_verb.entry((v.verb, v.mn)).or_default();
            e.0 += 1;
            e.1 += v.wire_bytes;
            e.2 += v.dur_ns;
        }
        for ((verb, mn), (count, bytes, ns)) in by_verb {
            println!("      {count:>2}x {verb:<10} mn={mn}  {bytes:>6}B  {ns:>6} ns");
        }
    }

    // The full event stream exports as JSONL for offline analysis.
    let jsonl = tracer.to_jsonl();
    println!(
        "\nJSONL export: {} lines, {} bytes (first line below)",
        jsonl.lines().count(),
        jsonl.len()
    );
    if let Some(first) = jsonl.lines().next() {
        println!("{first}");
    }
}
