//! The deterministic simulated-socket serving mode.
//!
//! Connections are **seeded arrival processes** on the virtual clock: each
//! connection is one coroutine lane of a worker (one [`sched::Engine`]
//! client), generating its own request bytes from a per-connection RNG
//! stream, feeding them through the real [`crate::proto::Decoder`] in
//! randomly split chunks, and serving each decoded request against its own
//! `ChimeClient` handle. Everything — arrival gaps, pipelined bursts,
//! chunk boundaries, chaos events — is a pure function of
//! [`SimConfig::seed`], so two runs produce byte-identical metrics, bench
//! JSON and trace JSONL.
//!
//! Backpressure is CQ-depth-driven: a connection reads its worker's live
//! completion-queue depth off its own lane ([`dmem::qp::lane_cq_depth`]);
//! when a request finds the depth above [`SimConfig::cq_watermark`] the server
//! either **sheds** it (`-BUSY`, no index verbs — cheap, which is what
//! keeps decode capacity above the arrival rate under overload) or
//! **defers** it (bounded queue-wait polling before falling back to shed).
//! One lane runs at a time, so the depth read is deterministic. Each lane
//! has at most one outstanding WQE, so the depth is bounded by a worker's
//! lane count and a meaningful watermark sits below it: `fig_serve` uses 32
//! connections, 2 workers, watermark 12. Admission is a separate,
//! connection-granular valve ([`crate::Admission`]): a connection that finds
//! no permit polls for one in virtual time and is refused if none frees up.
//!
//! A worker's shared QP makes its connections one doorbell-batching domain.
//! Arrivals are open-loop Poisson (xorshift64* with exponential gaps). A
//! request charges `decode`, consults backpressure, runs the index op under
//! the client's own phases, then charges `respond`; admission polling is
//! `admission` time and deferral `queue_wait`, so serve time sums to the
//! virtual clock like everything else.
//!
//! [`ChaosConfig`] drops connections mid-pipeline (inside a frame:
//! `discarded_bytes` proves it), stalls readers (aborted past
//! [`ChaosConfig::out_limit`]) and exhausts admission; a
//! [`dmem::FaultPlan`] composes underneath. Dropped and aborted connections
//! release their permits (`tests/chaos.rs`), and the storm replays byte for
//! byte per seed.

use std::sync::Arc;

use chime::{Chime, ChimeClient, ChimeConfig};
use dmem::{Endpoint, FaultPlan, FaultSession, Pool, QpStats, RangeIndex};
use obs::{Anomaly, Event, LatencyHist, MetricsSnapshot, OpProfile, Phase, TimeSeries, Tracer};
use sched::{Engine, EngineConfig};
use ycsb::KeySpace;

use crate::admission::Admission;
use crate::conn::{Conn, ConnCounters};
use crate::proto::Request;

/// What to do with a request that arrives over the CQ-depth watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Answer `-BUSY` immediately; no index verbs are issued.
    Shed,
    /// Poll the CQ depth for up to four 1 µs queue-wait intervals, then
    /// shed if the depth never came down.
    Defer,
}

/// Chaos knobs composed into the arrival processes (all seeded).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Percent of connections that drop mid-pipeline: the byte stream
    /// truncates inside a frame and the connection vanishes.
    pub drop_pct: u32,
    /// Percent of inter-arrival gaps that become slow-reader stalls
    /// (responses queue undrained for `stall_ns`).
    pub stall_pct: u32,
    /// Stall duration, virtual ns.
    pub stall_ns: u64,
    /// Undrained-output limit: a connection whose out-buffer exceeds this
    /// while stalled is aborted (the slow-reader guard).
    pub out_limit: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_pct: 0,
            stall_pct: 0,
            stall_ns: 2_000_000,
            out_limit: 64 * 1024,
        }
    }
}

/// Longest pipelined burst a connection emits back-to-back.
const PIPELINE_WINDOW: usize = 8;
/// Modeled per-request decode cost, ns.
const DECODE_NS: u64 = 150;
/// Modeled per-response encode/write cost, ns.
const RESPOND_NS: u64 = 200;
/// One admission or queue-wait poll interval, ns.
const DEFER_POLL_NS: u64 = 1_000;
/// Polls before a refused connection gives up, and before a deferred
/// request is shed anyway.
const DEFER_ROUNDS: u32 = 4;

/// Configuration of one simulated serving run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Total connections, split evenly across workers.
    pub conns: usize,
    /// Worker count; each worker is one engine client whose lanes are its
    /// connections (sharing one QP, hence one doorbell-batching domain).
    pub workers: usize,
    /// Request budget per connection.
    pub requests_per_conn: usize,
    /// Keys preloaded before serving starts (also the key range requests
    /// draw from).
    pub preload: u64,
    /// Value width of the index.
    pub value_size: usize,
    /// Connection-admission permits (shared by all workers).
    pub admit_limit: usize,
    /// CQ-depth watermark above which requests are shed/deferred.
    pub cq_watermark: u64,
    /// What to do over the watermark.
    pub policy: OverloadPolicy,
    /// Mean open-loop inter-arrival gap per connection, virtual ns.
    pub mean_gap_ns: u64,
    /// Percent of arrivals that are pipelined bursts instead of single
    /// requests.
    pub pipeline_pct: u32,
    /// Per-client trace ring capacity (0 disables tracing).
    pub trace_events: usize,
    /// Chaos composition.
    pub chaos: ChaosConfig,
    /// Optional fault plan (e.g. fail-CAS) injected into every
    /// connection's endpoint.
    pub faults: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            conns: 16,
            workers: 2,
            requests_per_conn: 64,
            preload: 4_096,
            value_size: 8,
            admit_limit: 1_024,
            cq_watermark: 12,
            policy: OverloadPolicy::Shed,
            mean_gap_ns: 8_000,
            pipeline_pct: 25,
            trace_events: 0,
            chaos: ChaosConfig::default(),
            faults: None,
        }
    }
}

/// Outcome of one connection's lane.
#[derive(Debug, Clone)]
pub struct ConnSummary {
    /// Connection id.
    pub id: u32,
    /// Whether admission ever granted a permit.
    pub admitted: bool,
    /// Per-connection protocol counters.
    pub counters: ConnCounters,
    /// Requests served to completion (index op + response).
    pub served: u64,
    /// Whether the connection dropped mid-pipeline (chaos).
    pub dropped: bool,
    /// Whether the slow-reader guard aborted the connection.
    pub aborted: bool,
    /// Bytes still undecoded when the connection ended (partial frame at a
    /// drop).
    pub discarded_bytes: u64,
    /// Decoder resyncs (recoverable bad lines skipped).
    pub resyncs: u64,
    /// This connection's phase/verb attribution profile.
    pub profile: OpProfile,
    /// Served-request latency histogram (arrival to response complete).
    pub hist: LatencyHist,
    /// The connection's virtual clock when it finished.
    pub end_ns: u64,
    /// Trace JSONL (when tracing is enabled).
    pub trace_jsonl: Option<String>,
    /// Windowed timeline of this connection's endpoint (fresh per
    /// connection, so the whole series is the connection's activity).
    pub timeline: TimeSeries,
}

/// Aggregated outcome of a simulated serving run.
#[derive(Debug)]
pub struct SimReport {
    /// Per-connection summaries, in connection order.
    pub conns: Vec<ConnSummary>,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed (`-BUSY`).
    pub shed: u64,
    /// Requests that waited in queue-wait before running (or shedding).
    pub deferred: u64,
    /// Connections refused admission.
    pub conns_refused: u64,
    /// Connections dropped mid-pipeline.
    pub conns_dropped: u64,
    /// Connections aborted by the slow-reader guard.
    pub conns_aborted: u64,
    /// Recoverable protocol errors answered `-ERR`.
    pub frame_errors: u64,
    /// Decoder resyncs.
    pub resyncs: u64,
    /// Longest connection clock — the run's makespan, ns.
    pub makespan_ns: u64,
    /// Served-request latency (arrival to response complete).
    pub hist: LatencyHist,
    /// Serve-layer phase/verb attribution accumulated across connections.
    pub profile: OpProfile,
    /// QP statistics merged across workers.
    pub qp: QpStats,
    /// The unified metrics registry for this run.
    pub metrics: MetricsSnapshot,
    /// Concatenated per-connection trace JSONL (empty when disabled).
    pub trace_jsonl: String,
    /// Windowed timeline merged over every connection: throughput,
    /// per-phase time, shed/served decisions and CQ-depth highs per
    /// 100 µs of virtual time.
    pub timeline: TimeSeries,
    /// Anomalies detected in the merged timeline (CQ saturation is armed
    /// at the run's configured watermark).
    pub anomalies: Vec<Anomaly>,
}

impl SimReport {
    /// Served throughput in Mops over the run's makespan.
    pub fn throughput_mops(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.served as f64 * 1e3 / self.makespan_ns as f64
        }
    }
}

/// xorshift64* — one independent stream per connection.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(
            (seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x2545_F491_4F6C_DD1D)
                | 1,
        )
    }

    fn next(&mut self) -> u64 {
        dmem::hash::xorshift64star(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pct(&mut self, p: u32) -> bool {
        self.below(100) < p as u64
    }

    /// Exponential with the given mean (open-loop Poisson arrivals).
    fn exp(&mut self, mean_ns: u64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(mean_ns as f64) * (1.0 - u).max(1e-12).ln();
        gap as u64
    }
}

/// One generated arrival: a pipelined burst of requests, as their number
/// and the wire bytes that carry them.
fn gen_burst(rng: &mut Rng, cfg: &SimConfig, remaining: usize) -> (usize, Vec<u8>) {
    let burst = if cfg.pipeline_pct > 0 && rng.pct(cfg.pipeline_pct) {
        (2 + rng.below(PIPELINE_WINDOW as u64 - 1) as usize).min(remaining)
    } else {
        1
    };
    let mut wire = Vec::new();
    for _ in 0..burst {
        let key = KeySpace::key(rng.below(cfg.preload.max(1)));
        let req = match rng.below(100) {
            0..=79 => Request::Get(key),
            80..=94 => {
                let mut v = vec![0u8; cfg.value_size.clamp(1, 16)];
                let fill = rng.next().to_le_bytes();
                for (i, b) in v.iter_mut().enumerate() {
                    *b = fill[i % 8];
                }
                Request::Set(key, v)
            }
            95..=98 => Request::Del(key),
            _ => Request::Scan(key, 1 + rng.below(16) as usize),
        };
        req.encode(&mut wire);
    }
    (burst, wire)
}

/// The connection lane `id`: admission, arrival loop, decode,
/// backpressure, execute, respond. Runs on a coroutine lane — every
/// virtual-time advance parks it at the scheduler.
fn run_conn(
    cfg: &SimConfig,
    id: u32,
    admission: &Admission,
    mut client: ChimeClient,
) -> ConnSummary {
    let mut rng = Rng::new(cfg.seed, id as u64 + 1);
    let mut conn = Conn::new(id);
    let mut hist = LatencyHist::new();
    let mut served = 0u64;
    let mut dropped = false;
    let mut aborted = false;

    // Connect stagger: spread connection establishment over one mean gap.
    client.advance_phase(Phase::Other, rng.below(cfg.mean_gap_ns.max(1)));

    // Admission: try, then poll a bounded number of times, then give up.
    let mut admitted = admission.try_admit();
    if !admitted {
        for _ in 0..DEFER_ROUNDS {
            client.advance_phase(Phase::Admission, DEFER_POLL_NS);
            if admission.try_admit() {
                admitted = true;
                break;
            }
        }
    }
    if !admitted {
        return ConnSummary {
            id,
            admitted: false,
            counters: conn.counters.clone(),
            served: 0,
            dropped: false,
            aborted: false,
            discarded_bytes: 0,
            resyncs: 0,
            profile: client.endpoint().profile().clone(),
            hist,
            end_ns: client.clock_ns(),
            timeline: client.endpoint().sink().series.clone(),
            trace_jsonl: client.take_tracer().map(|t| t.to_jsonl()),
        };
    }

    // Chaos: does this connection drop mid-pipeline, and after how many
    // arrivals?
    let drop_at = if cfg.chaos.drop_pct > 0 && rng.pct(cfg.chaos.drop_pct) {
        Some(1 + rng.below(cfg.requests_per_conn.max(2) as u64 / 2))
    } else {
        None
    };

    let mut generated = 0usize;
    let mut arrivals = 0u64;
    'conn: while generated < cfg.requests_per_conn {
        // Open-loop arrival, possibly stretched into a slow-reader stall
        // (responses stay queued while the peer reads nothing).
        let stall = cfg.chaos.stall_pct > 0 && rng.pct(cfg.chaos.stall_pct);
        let gap = if stall {
            cfg.chaos.stall_ns
        } else {
            rng.exp(cfg.mean_gap_ns)
        };
        client.advance_phase(Phase::Other, gap);
        if !stall {
            conn.drain();
        } else if conn.out.len() > cfg.chaos.out_limit {
            aborted = true;
            break 'conn;
        }
        arrivals += 1;

        let (burst, wire) = gen_burst(&mut rng, cfg, cfg.requests_per_conn - generated);
        generated += burst;

        // Chaos: drop mid-pipeline — only a prefix of the burst's bytes
        // ever arrives, truncated inside a frame.
        if drop_at.is_some_and(|d| arrivals >= d) {
            let cut = (wire.len() / 2).max(1);
            conn.feed(&wire[..cut]);
            // Drain whatever whole frames made it, then vanish.
            while let Ok(Some(req)) = conn.next_request() {
                serve_one(cfg, &mut client, &mut conn, &req, &mut hist, &mut served);
            }
            dropped = true;
            break 'conn;
        }

        // Feed the burst in seeded chunks to exercise incremental decode.
        let mut off = 0usize;
        while off < wire.len() {
            let chunk = (1 + rng.below(wire.len() as u64)) as usize;
            let end = (off + chunk).min(wire.len());
            conn.feed(&wire[off..end]);
            off = end;
            loop {
                match conn.next_request() {
                    Ok(Some(req)) => {
                        serve_one(
                            cfg, &mut client, &mut conn, &req, &mut hist, &mut served,
                        );
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Fatal framing error: generated streams are well
                        // formed, so this is unreachable in practice; treat
                        // as an abort for safety.
                        aborted = true;
                        break 'conn;
                    }
                }
            }
        }
    }
    conn.drain();
    admission.release();
    ConnSummary {
        id,
        admitted: true,
        counters: conn.counters.clone(),
        served,
        dropped,
        aborted,
        discarded_bytes: conn.decoder.pending_bytes() as u64,
        resyncs: conn.decoder.resyncs(),
        profile: client.endpoint().profile().clone(),
        hist,
        end_ns: client.clock_ns(),
        timeline: client.endpoint().sink().series.clone(),
        trace_jsonl: client.take_tracer().map(|t| t.to_jsonl()),
    }
}

/// Serves one decoded request: decode charge, backpressure check, index
/// op, response.
fn serve_one(
    cfg: &SimConfig,
    client: &mut ChimeClient,
    conn: &mut Conn,
    req: &Request,
    hist: &mut LatencyHist,
    served: &mut u64,
) {
    let t0 = client.clock_ns();
    // The causal trace id is minted here, at request decode — the serve
    // entry point — and rides the op through the tree, the scheduler and
    // the queue pair: connection in the high half, request seq in the low.
    client
        .endpoint_mut()
        .set_trace_id(((conn.id as u64 + 1) << 32) | conn.counters.requests);
    client.advance_phase(Phase::Decode, DECODE_NS);

    let depth = dmem::qp::lane_cq_depth();
    let now = client.clock_ns();
    client.endpoint_mut().emit(now, Event::CqDepth { depth });
    let mut over = depth > cfg.cq_watermark;
    if over && cfg.policy == OverloadPolicy::Defer {
        conn.counters.deferred += 1;
        for _ in 0..DEFER_ROUNDS {
            client.advance_phase(Phase::QueueWait, DEFER_POLL_NS);
            over = dmem::qp::lane_cq_depth() > cfg.cq_watermark;
            if !over {
                break;
            }
        }
    }
    if over {
        conn.respond(&crate::proto::Response::Busy);
        client.advance_phase(Phase::Respond, RESPOND_NS);
        let now = client.clock_ns();
        client.endpoint_mut().emit(now, Event::Shed);
        return;
    }

    let resp = crate::conn::execute(client, req, cfg.value_size);
    conn.respond(&resp);
    client.advance_phase(Phase::Respond, RESPOND_NS);
    hist.record(client.clock_ns() - t0);
    *served += 1;
    let now = client.clock_ns();
    client.endpoint_mut().emit(now, Event::Served);
}

/// Runs one deterministic serving simulation.
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    assert!(cfg.conns > 0 && cfg.workers > 0, "need conns and workers");
    let pool = Pool::with_defaults(1, 256 << 20);
    let tree_cfg = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        value_size: cfg.value_size,
        cache_bytes: 1 << 22,
        hotspot_bytes: 1 << 18,
        ..Default::default()
    };
    let tree = Chime::create(&pool, tree_cfg, 0);
    let cn = tree.new_cn();
    {
        let mut loader = tree.client(&cn);
        let value = vec![0u8; cfg.value_size];
        for seq in 0..cfg.preload {
            loader
                .insert(KeySpace::key(seq), &value)
                .expect("preload insert");
        }
    }

    let admission = Admission::new(cfg.admit_limit);
    let session = Arc::new(FaultSession::new(
        cfg.faults.clone().unwrap_or_else(|| FaultPlan::seeded(cfg.seed)),
    ));
    let net = *pool.net();
    let per_worker = cfg.conns.div_ceil(cfg.workers);

    let mut conns: Vec<ConnSummary> = Vec::with_capacity(cfg.conns);
    let mut qp_total = QpStats::default();
    // Workers run sequentially — each is one engine client whose lanes are
    // its connections. Sequential workers keep the run single-threaded at
    // the top level; concurrency lives in the lanes.
    let mut next_id = 0u32;
    for _w in 0..cfg.workers {
        let lanes = per_worker.min(cfg.conns - next_id as usize);
        if lanes == 0 {
            break;
        }
        let engine = Engine::new(EngineConfig { lanes });
        let mut bodies = Vec::with_capacity(lanes);
        for _l in 0..lanes {
            let id = next_id;
            next_id += 1;
            let mut ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), id);
            if cfg.trace_events > 0 {
                ep.set_tracer(Tracer::new(id, cfg.trace_events));
            }
            let client = tree.client_with_endpoint(&cn, ep);
            let admission = &admission;
            bodies.push(move || run_conn(cfg, id, admission, client));
        }
        let run = engine.run_client(net, 1, bodies);
        qp_total.merge(&run.qp);
        for res in run.lanes {
            match res {
                Ok(s) => conns.push(s),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    }

    assemble(cfg, conns, qp_total)
}

/// Folds connection summaries into the run report and metrics registry.
fn assemble(cfg: &SimConfig, conns: Vec<ConnSummary>, qp: QpStats) -> SimReport {
    let mut hist = LatencyHist::new();
    let mut profile = OpProfile::new();
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut deferred = 0u64;
    let mut refused = 0u64;
    let mut dropped = 0u64;
    let mut aborted = 0u64;
    let mut frame_errors = 0u64;
    let mut resyncs = 0u64;
    let mut makespan = 0u64;
    let mut requests = 0u64;
    let mut trace = String::new();
    let mut timeline = TimeSeries::default();
    for c in &conns {
        hist.merge(&c.hist);
        profile.merge(&c.profile);
        timeline.merge(&c.timeline);
        served += c.served;
        shed += c.counters.shed;
        deferred += c.counters.deferred;
        refused += u64::from(!c.admitted);
        dropped += u64::from(c.dropped);
        aborted += u64::from(c.aborted);
        frame_errors += c.counters.frame_errors;
        resyncs += c.resyncs;
        requests += c.counters.requests;
        makespan = makespan.max(c.end_ns);
        if let Some(t) = &c.trace_jsonl {
            trace.push_str(t);
        }
    }

    let mut m = MetricsSnapshot::new();
    m.counter("serve_requests_total", &[], requests);
    m.counter("serve_served_total", &[], served);
    m.counter("serve_shed_total", &[], shed);
    m.counter("serve_deferred_total", &[], deferred);
    m.counter("serve_conns_total", &[], conns.len() as u64);
    m.counter("serve_conns_refused_total", &[], refused);
    m.counter("serve_conns_dropped_total", &[], dropped);
    m.counter("serve_conns_aborted_total", &[], aborted);
    m.counter("serve_frame_errors_total", &[], frame_errors);
    m.counter("serve_resyncs_total", &[], resyncs);
    m.counter("serve_qp_posted_total", &[], qp.posted);
    m.counter("serve_qp_doorbells_total", &[], qp.doorbells);
    m.gauge(
        "serve_throughput_mops",
        &[],
        if makespan == 0 {
            0.0
        } else {
            served as f64 * 1e3 / makespan as f64
        },
    );
    m.histogram("serve_latency", &[], hist.summary());
    for p in Phase::ALL {
        m.counter("serve_phase_ns", &[("phase", p.as_str())], profile.phase(p).ns);
    }
    for c in &conns {
        let id = c.id.to_string();
        let labels: &[(&str, &str)] = &[("conn", id.as_str())];
        m.counter("serve_conn_requests", labels, c.counters.requests);
        m.counter("serve_conn_responses", labels, c.counters.responses);
        m.counter("serve_conn_shed", labels, c.counters.shed);
        m.counter("serve_conn_served", labels, c.served);
    }
    // The serve layer arms CQ-saturation detection at its own watermark:
    // a window whose observed depth reached the shed threshold is exactly
    // the interval a tail-latency excursion should be blamed on.
    let anomalies = obs::detect(&timeline, cfg.cq_watermark.max(1));
    m.counter("anomalies_total", &[], anomalies.len() as u64);

    SimReport {
        served,
        shed,
        deferred,
        conns_refused: refused,
        conns_dropped: dropped,
        conns_aborted: aborted,
        frame_errors,
        resyncs,
        makespan_ns: makespan,
        hist,
        profile,
        qp,
        metrics: m,
        trace_jsonl: trace,
        timeline,
        anomalies,
        conns,
    }
}
