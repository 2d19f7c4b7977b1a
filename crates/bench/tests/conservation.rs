//! Conservation laws of a run's accounting.
//!
//! The endpoint records every observation once, and the aggregates a run
//! reports are folds of those observations: the client verb counters, the
//! per-phase profile, the windowed timeline and the memory nodes' traffic
//! counters must therefore agree on every total they share. Each law below
//! is checked on a seeded YCSB run for every index kind at K = 1, and for
//! CHIME at K = 4 (where CQ waits join the phase time).
//!
//! RDWC is off in every run: a read or update combined with an in-flight
//! same-key op records a latency sample but never executes, so it adds to
//! `ops_total` and to nothing the endpoint sees (with RDWC on, a CHIME
//! YCSB-A run of 8 000 ops puts 7 904 ops on its timeline).

use bench::driver::{run, BenchResult, BenchSetup, IndexKind};
use bench::figs::{chime, rolex, sherman, smart};
use obs::Phase;
use ycsb::Workload;

fn setup(kind: IndexKind, workload: Workload, coroutines: usize) -> BenchSetup {
    BenchSetup {
        kind,
        num_cns: 2,
        clients: 8,
        preload: 4_000,
        ops: 4_000,
        mn_capacity: 128 << 20,
        workload,
        rdwc: false,
        coroutines,
        seed: 5,
        ..BenchSetup::default()
    }
}

fn phase_sum(r: &BenchResult, counter: &str) -> u64 {
    Phase::ALL
        .iter()
        .map(|p| r.metrics.counter_value(counter, &[("phase", p.as_str())]))
        .sum()
}

/// How much of an op the index brackets in an endpoint span: a span is what
/// puts an op on the timeline, with its latency.
#[derive(Clone, Copy, PartialEq)]
enum Spans {
    /// The whole op.
    Whole,
    /// The tree op only: routing is charged before the span opens.
    Tree,
}

/// Checks every law on `r` that its index's `spans` allow.
fn assert_conserved(name: &str, r: &BenchResult, spans: Spans) {
    let client = |what: &str| {
        r.metrics
            .counter_value(&format!("client_{what}_total"), &[])
    };
    let windows = || r.timeline.windows().map(|(_, w)| w);

    // Time: the phases' exclusive ns, the windows' phase ns and the ops'
    // latencies are one quantity.
    let phase_ns = phase_sum(r, "phase_ns_total");
    let window_phase_ns: u64 = windows().map(|w| w.phase_ns.iter().sum::<u64>()).sum();
    assert!(phase_ns > 0, "{name}: the run charged no time");
    assert_eq!(
        phase_ns, window_phase_ns,
        "{name}: profile vs timeline phase ns"
    );
    if spans == Spans::Whole {
        let lat_sum: u64 = windows().map(|w| w.lat_sum_ns).sum();
        assert_eq!(lat_sum, window_phase_ns, "{name}: op latencies vs phase ns");
    }

    // Traffic: the client counters, the per-phase profile and the windows.
    let (rtts, msgs, wire) = (client("rtts"), client("msgs"), client("wire_bytes"));
    assert!(msgs > 0, "{name}: the run issued no verbs");
    assert_eq!(phase_sum(r, "phase_rtts_total"), rtts, "{name}: phase rtts");
    assert_eq!(
        phase_sum(r, "phase_verbs_total"),
        msgs,
        "{name}: phase msgs"
    );
    assert_eq!(
        phase_sum(r, "phase_wire_bytes_total"),
        wire,
        "{name}: phase wire bytes"
    );
    assert_eq!(
        windows().map(|w| w.rtts).sum::<u64>(),
        rtts,
        "{name}: window rtts"
    );
    assert_eq!(
        windows().map(|w| w.verbs).sum::<u64>(),
        msgs,
        "{name}: window msgs"
    );
    assert_eq!(
        windows().map(|w| w.wire_bytes).sum::<u64>(),
        wire,
        "{name}: window wire bytes"
    );

    // The memory nodes saw exactly the clients' traffic.
    let mn_msgs: u64 = r.mn_traffic.iter().map(|&(m, _)| m).sum();
    let mn_wire: u64 = r.mn_traffic.iter().map(|&(_, w)| w).sum();
    assert_eq!(
        (mn_msgs, mn_wire),
        (msgs, wire),
        "{name}: per-MN traffic vs client counters"
    );

    // Operations: every executed op is one completion on the timeline.
    let ops = r.metrics.counter_value("ops_total", &[]);
    assert_eq!(
        r.timeline.total_ops(),
        ops,
        "{name}: timeline ops vs ops_total"
    );
}

#[test]
fn chime_conserves_at_k1_for_every_mix() {
    for w in [Workload::A, Workload::E, Workload::Load] {
        let r = run(&setup(chime(), w, 1));
        assert_conserved(&format!("CHIME {}", w.name()), &r, Spans::Whole);
    }
}

#[test]
fn chime_conserves_at_k4() {
    let r = run(&setup(chime(), Workload::A, 4));
    assert_conserved("CHIME A K=4", &r, Spans::Whole);
}

#[test]
fn baselines_conserve_at_k1() {
    for kind in [sherman(), rolex(), smart()] {
        let name = format!("{} A", kind.name());
        let r = run(&setup(kind, Workload::A, 1));
        assert_conserved(&name, &r, Spans::Whole);
    }
}

/// The partitioned cluster: routing (the `route` phase) runs before the
/// tree client opens its span, so op latencies fall short of phase time.
#[test]
fn partitioned_chime_conserves_at_k1() {
    let cut = bench::figs::Scale {
        preload: 4_000,
        ops: 4_000,
    };
    let s = bench::figs::scaleout_setup(2, 0.5, false, 8, cut);
    assert_conserved("Part A", &run(&s), Spans::Tree);
}
