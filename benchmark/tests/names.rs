//! `BENCHMARK.json` and the harness name the same things: every workload
//! the harness can run and every metric either pass produces is declared,
//! nothing declared is left unmeasured, and every name is well formed.
//!
//! The passes run here are the real ones on shortened workloads, so this is
//! also the harness's end-to-end smoke test. Run it optimised:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;

use chime_benchmark::spec::Spec;
use chime_benchmark::workloads::{find, Kind, SimWorkload, TcpWorkload, ALL};
use chime_benchmark::{sim, tcp, Outcome};

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_well_formed_and_used_once() {
    let s = spec();
    let names: Vec<&str> = s
        .workloads
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(
            s.end_to_end
                .iter()
                .chain(&s.per_layer)
                .map(|m| m.name.as_str()),
        )
        .collect();
    for n in &names {
        assert!(well_formed(n), "malformed name `{n}`");
    }
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
    for (name, why) in &s.workloads {
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    for m in &s.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(s
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn declared_workloads_are_the_runnable_workloads() {
    let declared: Vec<String> = spec().workloads.into_iter().map(|(n, _)| n).collect();
    let runnable: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
    assert_eq!(declared, runnable);
}

fn check(s: &Spec, traced: bool, o: &Outcome) {
    s.check_names(traced, &o.metrics).unwrap();
    assert_eq!(o.failed, 0);
    assert!(o.attempted > 0);
    for (name, v) in &o.metrics {
        assert!(v.is_finite(), "{name} = {v}");
    }
    if !traced {
        // End-to-end metrics are never zero.
        assert!(o.metrics.values().all(|v| *v > 0.0), "{:?}", o.metrics);
    }
}

#[test]
fn both_passes_of_a_simulated_workload_print_the_declared_metrics() {
    let s = spec();
    let Some(Kind::Sim(w)) = find("update_zipf_k4") else {
        panic!("update_zipf_k4 is a simulated workload")
    };
    let w = SimWorkload {
        ops: 8_000,
        warmup_ops: 2_000,
        ..w
    };
    check(&s, false, &sim::run_e2e(&w, 7, 0.0));
    let traced = sim::run_traced("update_zipf_k4", &w, 7);
    check(&s, true, &traced.outcome);
    assert!(traced.perfetto.contains("traceEvents"));
    assert!(traced.outcome.metrics["sched.k4_slowdown"] > 1.0);
}

#[test]
fn both_passes_of_the_tcp_workload_print_the_declared_metrics() {
    let s = spec();
    let w = TcpWorkload {
        requests: 20_000,
        warmup_requests: 2_000,
    };
    check(&s, false, &tcp::run_e2e(&w, 7, 0.0).unwrap());
    let traced = tcp::run_traced("serve_tcp", &w, 7).unwrap();
    check(&s, true, &traced.outcome);
    assert!(traced.perfetto.contains("traceEvents"));
    let share = traced.outcome.metrics["serve.tcp.transport_share"];
    assert!(share > 0.0 && share < 1.0, "transport share {share}");
}
