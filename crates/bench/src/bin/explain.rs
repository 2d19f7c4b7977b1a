//! `explain OLD.json NEW.json` — attribute bench metric movement.
//!
//! Both arguments are bench documents with a `points` array: figure reports
//! (`BENCH_<name>.json`) or the tracked flat metrics (`results/smoke.json`).
//! The report diffs every shared point's headline metrics and, where they
//! moved, ranks the schema-2 attribution metrics (per-phase time and
//! round-trips, retry root causes, per-op-type latencies) by absolute
//! delta. Output is deterministic: the same two files always produce the
//! same bytes.
//!
//! Exits 0 after printing; exits 2 on usage or parse errors. The tool never
//! judges whether a change is acceptable: `make figs` fails on any moved
//! byte of `results/smoke.json`, and this says why it moved.

use bench::explain::{cite_anomalies, explain, load_citations, load_points};

fn label(path: &str) -> String {
    std::path::Path::new(path)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: explain OLD.json NEW.json");
        std::process::exit(2);
    };
    let mut sides = Vec::new();
    let mut citations = Vec::new();
    for path in [old_path, new_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match load_points(&text) {
            Ok(p) => sides.push(p),
            Err(e) => {
                eprintln!("error: cannot parse {path}: {e}");
                std::process::exit(2);
            }
        }
        citations.push(load_citations(&text).unwrap_or_default());
    }
    print!(
        "{}",
        explain(&label(old_path), &sides[0], &label(new_path), &sides[1])
    );
    // Schema-3 documents carry in-run anomaly findings: cite their time
    // windows so a regression report says *when*, not just *what*.
    print!("{}", cite_anomalies(&label(new_path), &citations[1]));
}
