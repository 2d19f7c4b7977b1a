//! Simulated workloads: repetitions through `bench::driver`, output
//! verification, the end-to-end metrics, and the traced span loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bench::driver::{deploy, run_deployed, BenchResult, Deployment};
use bench::report::Report;
use dmem::RangeIndex;
use ycsb::{KeySpace, Op, OpGen, Workload, WorkloadState};

use crate::alloc::thread_allocs;
use crate::spans::{SpanLog, VirtDelta};
use crate::stats::median;
use crate::workloads::{SimWorkload, PRELOAD, PRELOAD_BYTE, UPDATE_BYTE, VALUE_SIZE};
use crate::{splitmix, Outcome};

/// Preloaded keys checked after each measured phase.
pub const VERIFY_KEYS: u64 = 10_000;
/// Scans checked after each `scan_insert` measured phase.
pub const VERIFY_SCANS: u64 = 1_000;

/// One repetition: fresh deployment, warm-up, measured phase, verification.
pub struct Rep {
    /// Host seconds `deploy` took, preload included.
    pub setup_s: f64,
    /// Host seconds the measured `run_deployed` took.
    pub host_s: f64,
    /// What the driver reported for the measured phase.
    pub result: BenchResult,
    /// Verification checks made.
    pub checked: u64,
    /// Verification checks that failed.
    pub failed: u64,
}

/// Runs one repetition and hands the deployment back for further probing.
/// `trace_clients` is `BenchSetup::trace_clients` for the measured phase.
pub fn repetition(w: &SimWorkload, seed: u64, trace_clients: usize) -> (Rep, Deployment) {
    let t = Instant::now();
    let mut dep = deploy(&w.setup(seed));
    let setup_s = t.elapsed().as_secs_f64();
    run_deployed(&w.warmup_setup(seed), &mut dep);
    let mut measured = w.setup(seed);
    measured.trace_clients = trace_clients;
    let t = Instant::now();
    let result = run_deployed(&measured, &mut dep);
    let host_s = t.elapsed().as_secs_f64();
    let (checked, failed) = verify(&mut dep, w, seed);
    (
        Rep {
            setup_s,
            host_s,
            result,
            checked,
            failed,
        },
        dep,
    )
}

fn valid_value(v: &[u8], updates_possible: bool) -> bool {
    v.len() == VALUE_SIZE
        && (v.iter().all(|&b| b == PRELOAD_BYTE)
            || (updates_possible && v.iter().all(|&b| b == UPDATE_BYTE)))
}

/// The untimed verification pass: deterministically sampled preloaded keys
/// must be found with the preload or update pattern; on YCSB-E, scans must
/// return strictly ascending keys from the start key on, with valid values.
pub fn verify(dep: &mut Deployment, w: &SimWorkload, seed: u64) -> (u64, u64) {
    let client = &mut dep.cns[0][0];
    let writes = w.mix != Workload::C;
    let mut rng = seed ^ 0x5EED_CAFE;
    let (mut checked, mut failed) = (0u64, 0u64);
    for _ in 0..VERIFY_KEYS {
        let key = KeySpace::key(splitmix(&mut rng) % PRELOAD);
        checked += 1;
        if !client.search(key).is_some_and(|v| valid_value(&v, writes)) {
            failed += 1;
        }
    }
    if w.mix == Workload::E {
        let mut rows = Vec::new();
        for _ in 0..VERIFY_SCANS {
            let start = KeySpace::key(splitmix(&mut rng) % PRELOAD);
            let count = 1 + (splitmix(&mut rng) % 100) as usize;
            rows.clear();
            client.scan(start, count, &mut rows);
            checked += 1;
            // The start key is preloaded and never deleted, so it leads.
            let ok = rows.first().is_some_and(|(k, _)| *k == start)
                && rows.len() <= count
                && rows.windows(2).all(|p| p[0].0 < p[1].0)
                && rows.iter().all(|(_, v)| valid_value(v, true));
            if !ok {
                failed += 1;
            }
        }
    }
    (checked, failed)
}

/// Every virtual-clock and count figure of a result, for the bit-identity
/// guard across repetitions.
pub fn virtual_fingerprint(r: &BenchResult) -> BTreeMap<String, u64> {
    Report::flat_metrics(r)
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

/// Runs repetitions until their measured phases add up to `seconds`
/// (see [`crate::needs_another_rep`]) and returns them. Panics if the virtual
/// metrics of two repetitions differ: every repetition replays the same
/// seed, so they must be bit-identical.
pub fn timed_reps(w: &SimWorkload, seed: u64, seconds: f64) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    let mut first_print = None;
    while crate::needs_another_rep(reps.len(), measured, seconds) {
        let (rep, _dep) = repetition(w, seed, 0);
        measured += rep.host_s;
        let print = virtual_fingerprint(&rep.result);
        assert!(
            *first_print.get_or_insert_with(|| print.clone()) == print,
            "virtual metrics differ between repetitions of one seed"
        );
        reps.push(rep);
    }
    reps
}

/// The timed pass of a simulated workload.
pub fn run_e2e(w: &SimWorkload, seed: u64, seconds: f64) -> Outcome {
    let reps = timed_reps(w, seed, seconds);
    let kops: Vec<f64> = reps.iter().map(|r| w.ops as f64 / r.host_s / 1e3).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    Outcome::timed(
        crate::layers::modeled_e2e(&Report::flat_metrics(&reps[0].result)),
        &kops,
        &setups,
        reps.iter().map(|r| w.ops + r.checked).sum(),
        reps.iter().map(|r| r.failed).sum(),
    )
}

/// Name of the `core.<optype>` span of an op.
fn core_span_name(op: &Op) -> &'static str {
    match op {
        Op::Read(_) => "core.read",
        Op::Update(_) => "core.update",
        Op::Insert(_) => "core.insert",
        Op::Scan(..) => "core.scan",
    }
}

/// The harness's span loop: one client, K = 1, over the op stream the
/// driver gives client 0. Each op is a parent span `op` with child spans
/// `ycsb.next_op` and `core.<optype>`; the virtual-clock deltas are read in
/// the parent, around the index call. Returns the log and the loop's wall
/// time in host nanoseconds.
pub fn span_loop(
    client: &mut (dyn RangeIndex + Send),
    w: &SimWorkload,
    seed: u64,
    ops: u32,
) -> (SpanLog, u64) {
    let state = WorkloadState::new(PRELOAD);
    let mut gen = OpGen::with_theta(w.mix, Arc::clone(&state), w.setup(seed).seed, w.theta);
    let value = [UPDATE_BYTE; VALUE_SIZE];
    let mut rows = Vec::new();
    let mut log = SpanLog::with_capacity(ops as usize * 3);
    let loop_start = log.now();
    for op_id in 0..ops {
        let parent = log.next_id() + 2;
        let a0 = thread_allocs();
        let t0 = log.now();
        let op = gen.next_op();
        let t1 = log.now();
        let a1 = thread_allocs();
        log.push(
            "ycsb.next_op",
            parent,
            op_id,
            t0,
            t1,
            a1 - a0,
            VirtDelta::default(),
        );
        let name = core_span_name(&op);
        let (clock0, rtts0, wire0) = {
            let s = client.stats();
            (client.clock_ns(), s.rtts, s.wire_bytes)
        };
        let a2 = thread_allocs();
        let t2 = log.now();
        match op {
            Op::Read(k) => {
                std::hint::black_box(client.search(k));
            }
            Op::Update(k) => {
                client.update(k, &value).expect("update");
            }
            Op::Insert(k) => client.insert(k, &value).expect("insert"),
            Op::Scan(k, n) => {
                rows.clear();
                client.scan(k, n, &mut rows);
            }
        }
        let t3 = log.now();
        let a3 = thread_allocs();
        let virt = {
            let s = client.stats();
            VirtDelta {
                ns: client.clock_ns() - clock0,
                rtts: s.rtts - rtts0,
                wire_bytes: s.wire_bytes - wire0,
            }
        };
        log.push(name, parent, op_id, t2, t3, a3 - a2, virt);
        let t4 = log.now();
        log.push("op", 0, op_id, t0, t4, a3 - a0, virt);
    }
    let wall = log.now() - loop_start;
    (log, wall)
}

/// What the traced pass of a workload produced besides its metrics.
pub struct Traced {
    /// Per-layer metrics and the pass's attempt/failure counts.
    pub outcome: Outcome,
    /// `BenchResult::perfetto` of the traced repetition.
    pub perfetto: String,
    /// The span file: the harness's own span log(s) as one JSON document.
    pub spans: obs::Json,
    /// Per-name span table(s), for printing.
    pub tables: Vec<(&'static str, BTreeMap<&'static str, crate::spans::NameRow>)>,
}

/// Share of each op type in a mix, in the driver's order (read, update,
/// insert, scan).
fn mix_weights(mix: Workload) -> [f64; 4] {
    match mix {
        Workload::A => [0.5, 0.5, 0.0, 0.0],
        Workload::B => [0.95, 0.05, 0.0, 0.0],
        Workload::C => [1.0, 0.0, 0.0, 0.0],
        Workload::D => [0.95, 0.0, 0.05, 0.0],
        Workload::E => [0.0, 0.0, 0.05, 0.95],
        Workload::Load => [0.0, 0.0, 1.0, 0.0],
    }
}

/// Clients that carry an `obs::Tracer` in the traced repetition. The driver
/// exports every traced client's whole ring (7.6 MB of Perfetto JSON each)
/// inside the measured phase, so tracing all 64 costs eleven times the run
/// itself and writes a 490 MB document; four keep the file loadable and the
/// overhead figure about recording rather than about export.
const TRACED_CLIENTS: usize = 4;

/// Untraced/traced repetition pairs behind `obs.trace_overhead_frac`.
pub const TRACE_PAIRS: usize = 3;

/// Ops the span loop records: enough for stable per-name totals, few enough
/// that the span file stays a few megabytes.
fn span_loop_ops(w: &SimWorkload) -> u32 {
    (w.ops / 20).clamp(3_000, 50_000) as u32
}

/// The traced pass of a simulated workload: one untraced and one traced
/// repetition (never mixed into end-to-end numbers), the span loop, and the
/// host probes.
pub fn run_traced(name: &str, w: &SimWorkload, seed: u64) -> Traced {
    // Untraced and traced repetitions alternate, so that a slow spell of the
    // host falls on both sides of the overhead ratio.
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let (plain, _dep) = repetition(w, seed, 0);
        let (traced, dep) = repetition(w, seed, TRACED_CLIENTS);
        assert!(
            virtual_fingerprint(&plain.result) == virtual_fingerprint(&traced.result),
            "attaching tracers changed the virtual metrics"
        );
        for r in [&plain, &traced] {
            attempted += w.ops + r.checked;
            failed += r.failed;
        }
        plain_ns.push(plain.host_s * 1e9 / w.ops as f64);
        traced_ns.push(traced.host_s * 1e9 / w.ops as f64);
        last = Some((plain.result, traced.result, dep));
    }
    let (plain, traced, mut dep) = last.expect("at least one pair of repetitions");
    let plain_ns = median(&plain_ns);
    let mut m = crate::layers::modeled_layers(&Report::flat_metrics(&plain));
    m.insert(
        "obs.trace_overhead_frac".into(),
        median(&traced_ns) / plain_ns - 1.0,
    );

    let client = &mut *dep.cns[0][0];
    let (log, wall) = span_loop(client, w, seed, span_loop_ops(w));
    m.insert(
        "trace.span_coverage".into(),
        log.accounted_ns() as f64 / wall as f64,
    );
    crate::probes::ycsb(&mut m, w.mix, w.theta, seed);
    crate::probes::core(&mut m, client, w.theta, seed);
    crate::probes::serve_stack(&mut m, client, w.theta, seed);
    crate::probes::dmem_verbs(&mut m);
    crate::probes::obs_sinks(&mut m);
    crate::probes::lane_switch(&mut m);

    let (mut overhead, mut slowdown) = (0.0, 0.0);
    if w.lanes == 1 {
        let core: f64 = ["search", "update", "insert", "scan"]
            .iter()
            .zip(mix_weights(w.mix))
            .map(|(op, share)| share * m[&format!("core.{op}.host_ns")])
            .sum();
        overhead = plain_ns - m["ycsb.next_op.host_ns"] - core;
    } else {
        let serial = SimWorkload { lanes: 1, ..*w };
        let (one, _dep) = repetition(&serial, seed, 0);
        slowdown = plain_ns / (one.host_s * 1e9 / w.ops as f64);
        attempted += w.ops + one.checked;
        failed += one.failed;
    }
    m.insert("bench.driver.overhead_host_ns".into(), overhead);
    m.insert("sched.k4_slowdown".into(), slowdown);
    for key in [
        "rtt_p50_us",
        "rtt_p99_us",
        "ping_kreq_per_s",
        "transport_share",
    ] {
        m.insert(format!("serve.tcp.{key}"), 0.0);
    }
    Traced {
        outcome: Outcome {
            attempted,
            failed,
            metrics: m,
            spread: BTreeMap::new(),
        },
        perfetto: traced
            .perfetto
            .expect("traced repetition exports a document"),
        spans: log.to_json(name, wall),
        tables: vec![("span loop", log.table())],
    }
}
