//! The generic experiment driver.
//!
//! A [`BenchSetup`] describes one measured point: which index, how many
//! memory nodes / compute nodes / simulated clients, the workload, and the
//! knobs the paper sweeps (cache size, value size, span, neighborhood,
//! skew). [`run`] preloads the store, executes the operation mix while
//! counting verbs and virtual latencies, and converts the counts into
//! modeled throughput and latency percentiles with [`dmem::NetConfig`].
//!
//! Read-delegation/write-combining (RDWC, applied to every index in the
//! paper) is modeled per CN within the serial driver's scheduling rounds
//! only: duplicate same-key reads/updates of one round execute once and
//! share the result. Pipelined runs (K > 1 lanes) do not combine.

use std::collections::HashMap;
use std::sync::Arc;

use dmem::hash::FixedState;
use dmem::{
    Bound, ClientStats, CountHist, NetConfig, Pool, QpStats, RangeIndex, Rows, RunAccounting,
};
use obs::{
    Anomaly, HistogramSummary, LatencyHist, MetricsSnapshot, OpProfile, Phase,
    RetryCause, TimeSeries, Tracer,
};
use sched::{Engine, EngineConfig};
use ycsb::{KeySpace, Op, OpGen, Workload, WorkloadState};

/// Op-type labels, indexed by the RDWC discriminant (read=0, update=1,
/// insert=2, scan=3).
pub const OP_NAMES: [&str; 4] = ["read", "update", "insert", "scan"];

/// Which index implementation a run measures.
#[derive(Debug, Clone)]
pub enum IndexKind {
    /// CHIME with an explicit configuration (factor-analysis toggles).
    Chime(chime::ChimeConfig),
    /// Sherman B+ tree.
    Sherman(sherman::ShermanConfig),
    /// ROLEX learned index.
    Rolex(rolex::RolexConfig),
    /// SMART radix tree.
    Smart(smart::SmartConfig),
    /// Partitioned CHIME: one pinned tree per range partition behind the
    /// CN-side router (multi-MN scale-out; serial runs only).
    Part(part::ClusterConfig),
}

impl IndexKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Chime(_) => "CHIME",
            IndexKind::Sherman(_) => "Sherman",
            IndexKind::Rolex(_) => "ROLEX",
            IndexKind::Smart(_) => "SMART",
            IndexKind::Part(_) => "CHIME-Part",
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchSetup {
    /// The index under test.
    pub kind: IndexKind,
    /// Memory nodes (capacity scales with this).
    pub num_mns: u16,
    /// Bytes per memory node.
    pub mn_capacity: usize,
    /// Compute nodes (each gets one cache + hotspot buffer).
    pub num_cns: usize,
    /// Total simulated clients, spread over the CNs.
    pub clients: usize,
    /// Keys preloaded before the measured phase.
    pub preload: u64,
    /// Operations executed in the measured phase (total).
    pub ops: u64,
    /// The workload mix.
    pub workload: Workload,
    /// Zipfian constant.
    pub theta: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Model RDWC combining (on for every index, as in the paper): within
    /// one serial scheduling round only; pipelined lanes never combine.
    pub rdwc: bool,
    /// Coroutine lanes per client (K). 1 runs clients strictly serially on
    /// their virtual clocks; K > 1 multiplexes K pipelined lanes per client
    /// through the deterministic coroutine engine, overlapping round trips
    /// and doorbell-batching same-quantum verbs.
    pub coroutines: usize,
    /// Attach an event [`obs::Tracer`] to this many clients (the first N in
    /// deployment order) and export their causal traces as a Perfetto
    /// document in [`BenchResult::perfetto`]. 0 (the default) traces
    /// nobody — the windowed timeline is collected regardless.
    pub trace_clients: usize,
    /// RNG seed base.
    pub seed: u64,
}

impl Default for BenchSetup {
    fn default() -> Self {
        BenchSetup {
            kind: IndexKind::Chime(chime::ChimeConfig::default()),
            num_mns: 1,
            mn_capacity: 2 << 30,
            num_cns: 4,
            clients: 64,
            preload: 200_000,
            ops: 200_000,
            workload: Workload::C,
            theta: ycsb::ZIPFIAN_CONSTANT,
            value_size: 8,
            rdwc: true,
            coroutines: 1,
            trace_clients: 0,
            seed: 42,
        }
    }
}

/// The modeled outcome of one run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Modeled throughput, million ops/s.
    pub mops: f64,
    /// Median op latency, microseconds (saturation-inflated).
    pub p50_us: f64,
    /// 90th percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub avg_us: f64,
    /// The binding resource.
    pub bound: Bound,
    /// Mean wire bytes per operation.
    pub bytes_per_op: f64,
    /// Mean NIC messages per operation.
    pub msgs_per_op: f64,
    /// Mean round-trips per operation.
    pub rtts_per_op: f64,
    /// Wire bytes / application bytes (measured read amplification).
    pub read_amp: f64,
    /// Compute-side cache bytes per CN after the run.
    pub cache_bytes: u64,
    /// Hotspot-buffer hit ratio (CHIME only; 0 elsewhere).
    pub hotspot_hit_ratio: f64,
    /// Node cache hit ratio during the measured phase (0 for ROLEX, which
    /// keeps no node cache).
    pub cache_hit_ratio: f64,
    /// Remote memory allocated across the pool, bytes.
    pub remote_bytes: u64,
    /// Per-MN `(msgs, wire_bytes)` traffic of the measured phase.
    pub mn_traffic: Vec<(u64, u64)>,
    /// The unified metrics snapshot of the measured phase: client verb
    /// counters, cache and hotspot hits, per-MN traffic, allocator bytes,
    /// and the op-latency histogram. Deterministic for a fixed seed.
    pub metrics: MetricsSnapshot,
    /// Windowed time series of the measured phase, merged over every
    /// participating client. Each client's series is opened at its clock
    /// when the phase starts, so time 0 is every client's phase start —
    /// also on a reused deployment, whose older handles' clocks carry on
    /// from earlier runs.
    pub timeline: TimeSeries,
    /// Anomalies the in-run detector found in [`Self::timeline`].
    pub anomalies: Vec<Anomaly>,
    /// Perfetto (Chrome trace-event) document covering the traced clients;
    /// `None` when [`BenchSetup::trace_clients`] is 0.
    pub perfetto: Option<String>,
}

/// One boxed client handle, as the measured loops drive it.
type Handle = Box<dyn RangeIndex + Send>;

/// A per-CN probe of cumulative `(cache hits, cache misses)`.
type CacheProbe = Box<dyn Fn() -> (u64, u64) + Send>;

/// Builds the pool, index and per-CN client handles for a setup.
pub struct Deployment {
    /// The memory pool.
    pub pool: Arc<Pool>,
    /// Per-CN lists of client handles.
    pub cns: Vec<Vec<Handle>>,
    /// Hotspot-stat probe (CHIME only; per-partition states for Part).
    hotspot_probe: Option<Vec<Arc<chime::CnState>>>,
    /// Per-CN `(cache hits, cache misses)` probes (every index but ROLEX).
    cache_probe: Vec<CacheProbe>,
    /// Routing/migration counters (partitioned deployments only).
    router_probe: Option<Arc<part::RouterStats>>,
    /// The workload state whose Zipfian constants every run's state shares
    /// ([`WorkloadState::fresh`]), so no run re-sums them.
    workload: Arc<WorkloadState>,
}

/// Handles per CN: one per logical client, times K lanes in pipelined runs.
fn handles_per_cn(setup: &BenchSetup) -> usize {
    setup.clients.div_ceil(setup.num_cns) * setup.coroutines.max(1)
}

/// The deploy step every CN-structured index shares: box `client(cn)`
/// handles for each CN, then preload through a throwaway client of CN 0.
/// The loader is created *after* the measured handles: a partitioned
/// cluster gives the rebalancer role to its first client, which must be a
/// measured handle so the migration policy never evaluates preload traffic.
fn populate<Cn, C: RangeIndex + Send + 'static>(
    setup: &BenchSetup,
    cns: &[Cn],
    client: impl Fn(&Cn) -> C,
) -> Vec<Vec<Handle>> {
    let per_cn = handles_per_cn(setup);
    let handles = cns
        .iter()
        .map(|cn| (0..per_cn).map(|_| Box::new(client(cn)) as Handle).collect())
        .collect();
    let value = vec![0xABu8; setup.value_size];
    let mut loader = client(&cns[0]);
    for seq in 0..setup.preload {
        loader
            .insert(KeySpace::key(seq), &value)
            .expect("preload insert");
    }
    handles
}

/// One cache probe per CN, reading `stats` off a clone of its state.
fn cache_probes<Cn: Clone + Send + 'static>(
    cns: &[Cn],
    stats: impl Fn(&Cn) -> (u64, u64) + Copy + Send + 'static,
) -> Vec<CacheProbe> {
    cns.iter()
        .map(|cn| {
            let cn = cn.clone();
            Box::new(move || stats(&cn)) as CacheProbe
        })
        .collect()
}

/// Creates the index and preloads `setup.preload` keys.
pub fn deploy(setup: &BenchSetup) -> Deployment {
    let pool = Pool::with_defaults(setup.num_mns, setup.mn_capacity);
    let mut dep = Deployment {
        pool: Arc::clone(&pool),
        cns: Vec::new(),
        hotspot_probe: None,
        cache_probe: Vec::new(),
        router_probe: None,
        workload: WorkloadState::new(setup.preload),
    };
    match &setup.kind {
        IndexKind::Chime(cfg) => {
            let t = chime::Chime::create(&pool, *cfg, 0);
            let cns: Vec<_> = (0..setup.num_cns).map(|_| t.new_cn()).collect();
            dep.cns = populate(setup, &cns, |cn| t.client(cn));
            dep.cache_probe = cache_probes(&cns, |cn| cn.cache_stats());
            dep.hotspot_probe = Some(cns);
        }
        IndexKind::Sherman(cfg) => {
            let t = sherman::Sherman::create(&pool, *cfg, 0);
            let cns: Vec<_> = (0..setup.num_cns).map(|_| t.new_cn()).collect();
            dep.cns = populate(setup, &cns, |cn| t.client(cn));
            dep.cache_probe = cache_probes(&cns, |cn| cn.cache_stats());
        }
        IndexKind::Smart(cfg) => {
            let t = smart::Smart::create(&pool, *cfg, 0);
            let cns: Vec<_> = (0..setup.num_cns).map(|_| t.new_cn()).collect();
            dep.cns = populate(setup, &cns, |cn| t.client(cn));
            dep.cache_probe = cache_probes(&cns, |cn| cn.cache_stats());
        }
        IndexKind::Part(cfg) => {
            assert_eq!(
                setup.coroutines, 1,
                "partitioned runs are serial: each router client multiplexes one endpoint"
            );
            let cluster = part::Cluster::create(&pool, *cfg);
            let cns: Vec<Arc<part::PartCn>> = (0..setup.num_cns)
                .map(|_| Arc::new(cluster.new_cn()))
                .collect();
            dep.cns = populate(setup, &cns, |cn| cluster.client(cn));
            // The measured phase starts from a clean migration window.
            cluster.stats().reset_window();
            dep.cache_probe = cache_probes(&cns, |cn| {
                cn.states()
                    .iter()
                    .map(|s| s.cache_stats())
                    .fold((0, 0), |(h, m), (a, b)| (h + a, m + b))
            });
            dep.hotspot_probe = Some(
                cns.iter()
                    .flat_map(|cn| cn.states().iter().cloned())
                    .collect(),
            );
            dep.router_probe = Some(Arc::clone(cluster.stats()));
        }
        // ROLEX is bulk-loaded from the sorted key set (its models are
        // trained on it) and has no per-CN state.
        IndexKind::Rolex(cfg) => {
            let value = vec![0xABu8; setup.value_size];
            let mut items: Vec<(u64, Vec<u8>)> = (0..setup.preload)
                .map(|seq| (KeySpace::key(seq), value.clone()))
                .collect();
            items.sort_by_key(|&(k, _)| k);
            items.dedup_by_key(|&mut (k, _)| k);
            let mk_clients = |f: &mut dyn FnMut() -> Handle| {
                (0..setup.num_cns)
                    .map(|_| (0..handles_per_cn(setup)).map(|_| f()).collect())
                    .collect::<Vec<Vec<_>>>()
            };
            dep.cns = if cfg.hopscotch_leaves {
                let t = rolex::ChimeLearned::create(&pool, *cfg, &items);
                mk_clients(&mut || Box::new(t.client()))
            } else {
                let t = rolex::Rolex::create(&pool, *cfg, &items);
                mk_clients(&mut || Box::new(t.client()))
            };
        }
    }
    dep
}

/// Runs the measured phase and models the outcome.
pub fn run(setup: &BenchSetup) -> BenchResult {
    let mut dep = deploy(setup);
    run_deployed(setup, &mut dep)
}

/// The RDWC discriminant of an op: its index into [`OP_NAMES`].
fn op_disc(op: &Op) -> u8 {
    match op {
        Op::Read(_) => 0,
        Op::Update(_) => 1,
        Op::Insert(_) => 2,
        Op::Scan(..) => 3,
    }
}

/// Dispatches one op on `c` under causal trace id `trace` and returns its
/// latency on the client's virtual clock.
fn exec_op(c: &mut dyn RangeIndex, op: Op, value: &[u8], scan_buf: &mut Rows, trace: u64) -> u64 {
    c.endpoint_mut().set_trace_id(trace);
    let t0 = c.clock_ns();
    match op {
        Op::Read(k) => {
            let _ = c.search(k);
        }
        Op::Update(k) => {
            let _ = c.update(k, value).expect("update");
        }
        Op::Insert(k) => {
            c.insert(k, value).expect("insert");
        }
        Op::Scan(k, n) => {
            scan_buf.clear();
            c.scan_rows(k, n, scan_buf);
        }
    }
    c.clock_ns() - t0
}

/// Runs the measured phase on an existing deployment.
pub fn run_deployed(setup: &BenchSetup, dep: &mut Deployment) -> BenchResult {
    if setup.coroutines > 1 {
        return run_pipelined(setup, dep);
    }
    let state = dep.workload.fresh(setup.preload);
    let value = vec![0xCDu8; setup.value_size];
    let num_cns = dep.cns.len();
    let ops_per_cn = setup.ops / num_cns as u64;
    let mut agg = Agg::begin(dep);
    // Per-op trace ids: a deterministic counter minted at op dispatch and
    // carried through the index, the scheduler and the queue pair.
    let mut next_trace = 1u64;
    // Each CN schedules its clients round-robin; RDWC combines duplicate
    // same-key read/update ops within one round. Client sweeps reuse one
    // deployment: only the first `setup.clients / num_cns` handles per CN
    // participate.
    let active_per_cn = setup.clients.div_ceil(num_cns);
    for (cn_id, all_clients) in dep.cns.iter_mut().enumerate() {
        let n = active_per_cn.min(all_clients.len());
        let clients = &mut all_clients[..n];
        let mut gens: Vec<OpGen> = (0..clients.len())
            .map(|i| {
                OpGen::with_theta(
                    setup.workload,
                    Arc::clone(&state),
                    setup.seed ^ ((cn_id as u64) << 32) ^ i as u64,
                    setup.theta,
                )
            })
            .collect();
        let before: Vec<HandleSnap> = clients
            .iter_mut()
            .map(|c| HandleSnap::start(c.as_mut()))
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let gid = (cn_id * active_per_cn + i) as u32;
            if (gid as usize) < setup.trace_clients {
                c.set_tracer(Tracer::new(gid, 1 << 16));
            }
        }
        let mut done = 0u64;
        let mut scan_buf = Rows::new();
        // RDWC: the reads/updates in flight in the current round.
        let mut combined: HashMap<(u8, u64), u64, FixedState> = HashMap::default();
        while done < ops_per_cn {
            // One round: each client issues one op.
            combined.clear();
            for (i, c) in clients.iter_mut().enumerate() {
                if done >= ops_per_cn {
                    break;
                }
                let op = gens[i].next_op();
                let (disc, key) = (op_disc(&op), op.key());
                done += 1;
                if setup.rdwc && disc <= 1 {
                    if let Some(&lat) = combined.get(&(disc, key)) {
                        // Combined with an in-flight same-key op: the
                        // client pays the same latency, no new traffic.
                        agg.record(disc, lat);
                        continue;
                    }
                }
                let lat = exec_op(c.as_mut(), op, &value, &mut scan_buf, next_trace);
                next_trace += 1;
                agg.record(disc, lat);
                if setup.rdwc && disc <= 1 {
                    combined.insert((disc, key), lat);
                }
            }
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let gid = cn_id * active_per_cn + i;
            agg.collect(c.as_mut(), &before[i], gid < setup.trace_clients);
        }
    }
    assemble(setup, dep, agg)
}

/// Per-lane-index aggregates, merged over every client's lane of that
/// index: lets `explain` tell lock contention amplified by pipelining
/// (retries + backoff) apart from network-bound stalls (CQ wait).
#[derive(Debug, Clone, Copy, Default)]
struct LaneAgg {
    ops: u64,
    op_retries: u64,
    lock_retries: u64,
    backoff_ns: u64,
    cq_wait_ns: u64,
}

/// A handle's cumulative sources at the start of a measured phase.
/// Deployments are reused across sweep points, so every cumulative source
/// is snapshotted before and diffed after; the time series is not
/// cumulative: it is opened here and taken by [`Agg::collect`].
struct HandleSnap {
    stats: ClientStats,
    profile: OpProfile,
}

impl HandleSnap {
    /// Snapshots `c`'s counters and profile and opens its time series.
    fn start(c: &mut dyn RangeIndex) -> Self {
        let ep = c.endpoint_mut();
        ep.open_series();
        HandleSnap {
            stats: ep.stats().clone(),
            profile: ep.profile().clone(),
        }
    }
}

/// Everything a measured loop (serial or pipelined) hands to [`assemble`].
struct Agg {
    /// Per-op-type virtual-latency histograms (read/update/insert/scan);
    /// their merge is the run's op count, latency sum and headline
    /// percentiles.
    op_hists: Vec<LatencyHist>,
    profile_delta: OpProfile,
    stats_delta: ClientStats,
    /// Σ per-client busy virtual time (max over the client's lanes); 0 in
    /// serial mode (busy time equals the latency sum).
    sum_busy: u64,
    /// Merged queue-pair statistics (pipelined runs only).
    qp: Option<QpStats>,
    /// Per-lane-index aggregates (pipelined runs only).
    lanes: Vec<LaneAgg>,
    mn_before: Vec<dmem::MnTraffic>,
    cache_before: Vec<(u64, u64)>,
    hotspot_before: (u64, u64),
    router_before: RouterSnap,
    /// Measured-phase timeline merged over every participating client.
    timeline: TimeSeries,
    /// Tracers taken back from the traced clients (empty unless
    /// `trace_clients > 0`).
    tracers: Vec<Tracer>,
}

impl Agg {
    /// Empty aggregates, with the deployment-wide cumulative sources
    /// (per-MN traffic, cache/hotspot/router probes) snapshotted.
    fn begin(dep: &Deployment) -> Self {
        Agg {
            op_hists: (0..OP_NAMES.len()).map(|_| LatencyHist::default()).collect(),
            profile_delta: OpProfile::default(),
            stats_delta: ClientStats::default(),
            sum_busy: 0,
            qp: None,
            lanes: Vec::new(),
            mn_before: dep.pool.traffic(),
            cache_before: dep.cache_probe.iter().map(|p| p()).collect(),
            hotspot_before: probe_hotspot(dep),
            router_before: probe_router(dep),
            timeline: TimeSeries::default(),
            tracers: Vec::new(),
        }
    }

    /// Records one completed (or RDWC-combined) op of type `disc`.
    fn record(&mut self, disc: u8, lat: u64) {
        self.op_hists[disc as usize].record(lat);
    }

    /// Folds a handle's measured-phase deltas in — verb counters, phase
    /// profile — and takes its time series, plus, when `traced`, its
    /// tracer. Returns the counter and profile deltas.
    fn collect(
        &mut self,
        c: &mut dyn RangeIndex,
        before: &HandleSnap,
        traced: bool,
    ) -> (ClientStats, OpProfile) {
        let ep = c.endpoint_mut();
        let stats = ep.stats().since(&before.stats);
        let profile = ep.profile().since(&before.profile);
        self.stats_delta.merge(&stats);
        self.profile_delta.merge(&profile);
        self.timeline.merge(&ep.take_series());
        if traced {
            self.tracers.extend(c.take_tracer());
        }
        (stats, profile)
    }
}

/// Cumulative routing/migration counters at a point in time. Zeroed (with
/// no per-partition entries) for deployments without a router, so the
/// assembled metric key set stays stable across index kinds.
#[derive(Debug, Clone, Default)]
struct RouterSnap {
    hits: u64,
    stale: u64,
    refreshes: u64,
    migrations: u64,
    leaves_moved: u64,
    items_moved: u64,
    part_ops: Vec<u64>,
}

fn probe_router(dep: &Deployment) -> RouterSnap {
    use std::sync::atomic::Ordering::Relaxed;
    dep.router_probe
        .as_ref()
        .map(|s| RouterSnap {
            hits: s.route_hits.load(Relaxed),
            stale: s.route_stale_epoch.load(Relaxed),
            refreshes: s.route_refreshes.load(Relaxed),
            migrations: s.migrations.load(Relaxed),
            leaves_moved: s.migrate_leaves_moved.load(Relaxed),
            items_moved: s.migrate_items_moved.load(Relaxed),
            part_ops: s.part_ops.iter().map(|c| c.load(Relaxed)).collect(),
        })
        .unwrap_or_default()
}

/// Runs the measured phase with K coroutine lanes per client on the
/// deterministic scheduler: each lane executes unmodified synchronous ops,
/// parking at every verb; the engine resumes the lane with the earliest
/// completion, and same-quantum verbs to one MN share a doorbell.
fn run_pipelined(setup: &BenchSetup, dep: &mut Deployment) -> BenchResult {
    let k = setup.coroutines;
    let state = dep.workload.fresh(setup.preload);
    let value = vec![0xCDu8; setup.value_size];
    let num_cns = dep.cns.len();
    let ops_per_cn = setup.ops / num_cns as u64;
    let mut agg = Agg::begin(dep);
    agg.lanes = vec![LaneAgg::default(); k];
    let mut qp_total = QpStats::default();
    let net = *dep.pool.net();
    let engine = Engine::new(EngineConfig { lanes: k });
    let active_per_cn = setup.clients.div_ceil(num_cns);
    for (cn_id, all_clients) in dep.cns.iter_mut().enumerate() {
        let n_clients = active_per_cn.min(all_clients.len() / k);
        for (ci, handles) in all_clients.chunks_exact_mut(k).take(n_clients).enumerate() {
            let client_ops = ops_per_cn / n_clients as u64
                + u64::from((ci as u64) < ops_per_cn % n_clients as u64);
            // Logical-client index across CNs; traced clients get one
            // tracer per lane so every lane is its own Perfetto track.
            let gci = cn_id * active_per_cn + ci;
            let traced = gci < setup.trace_clients;
            let mut before: Vec<HandleSnap> = Vec::with_capacity(k);
            // Each lane borrows its client handle and hands back the
            // (op, latency) samples it measured and its busy time.
            let mut bodies = Vec::with_capacity(k);
            for (l, handle) in handles.iter_mut().enumerate() {
                before.push(HandleSnap::start(handle.as_mut()));
                if traced {
                    handle.set_tracer(Tracer::new((gci * k + l) as u32, 1 << 16));
                }
                let lane_ops =
                    client_ops / k as u64 + u64::from((l as u64) < client_ops % k as u64);
                let mut gen = OpGen::with_theta(
                    setup.workload,
                    Arc::clone(&state),
                    setup.seed ^ ((cn_id as u64) << 32) ^ (ci * k + l) as u64,
                    setup.theta,
                );
                let value = &value;
                // Trace ids carry the lane identity in the high half so
                // interleaved lanes stay distinguishable in the trace.
                let trace_base = ((gci * k + l) as u64 + 1) << 32;
                bodies.push(move || {
                    let t_start = handle.clock_ns();
                    let mut lats: Vec<(u8, u64)> = Vec::with_capacity(lane_ops as usize);
                    let mut scan_buf = Rows::new();
                    for opno in 0..lane_ops {
                        let op = gen.next_op();
                        let disc = op_disc(&op);
                        let lat =
                            exec_op(handle.as_mut(), op, value, &mut scan_buf, trace_base | opno);
                        lats.push((disc, lat));
                    }
                    let busy = handle.clock_ns() - t_start;
                    (lats, busy)
                });
            }
            let run = engine.run_client(net, setup.num_mns, bodies);
            qp_total.merge(&run.qp);
            let mut client_busy = 0u64;
            for (l, (res, handle)) in run.lanes.into_iter().zip(handles.iter_mut()).enumerate() {
                let (lats, busy) = match res {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                };
                client_busy = client_busy.max(busy);
                for &(disc, lat) in &lats {
                    agg.record(disc, lat);
                }
                let (d, dp) = agg.collect(handle.as_mut(), &before[l], traced);
                let lane = &mut agg.lanes[l];
                lane.ops += lats.len() as u64;
                lane.op_retries += d.op_retries;
                lane.lock_retries += d.lock_retries;
                lane.backoff_ns += dp.phase(Phase::RetryBackoff).ns;
                lane.cq_wait_ns += dp.phase(Phase::CqWait).ns;
            }
            agg.sum_busy += client_busy;
        }
    }
    agg.qp = Some(qp_total);
    assemble(setup, dep, agg)
}

/// Integer histogram → metrics summary (values are counts, not ns; the
/// `*_ns` field names are reused for the quantile slots).
fn count_summary(h: &CountHist) -> HistogramSummary {
    HistogramSummary {
        count: h.count(),
        mean_ns: h.mean().round() as u64,
        p50_ns: h.quantile(0.5),
        p90_ns: h.quantile(0.9),
        p99_ns: h.quantile(0.99),
        max_ns: h.max(),
    }
}

/// Converts the collected counts into the modeled [`BenchResult`], shared
/// by the serial and pipelined measured loops.
fn assemble(setup: &BenchSetup, dep: &mut Deployment, agg: Agg) -> BenchResult {
    let Agg {
        op_hists,
        profile_delta,
        stats_delta,
        sum_busy,
        qp,
        lanes,
        mn_before,
        cache_before,
        hotspot_before,
        router_before,
        timeline,
        tracers,
    } = agg;
    let mut hist = LatencyHist::new();
    for h in &op_hists {
        hist.merge(h);
    }
    let executed = hist.count();
    let net = NetConfig::default();
    // Per-MN traffic deltas of the measured phase, computed up front: for
    // partitioned runs they are the accounting source of truth (they
    // include migration traffic, which client-side counters on the
    // migrator's endpoint alone would not attribute per MN) and their max
    // feeds the skew-aware NIC cap of the network model.
    let mn_traffic: Vec<(u64, u64)> = dep
        .pool
        .traffic()
        .iter()
        .zip(&mn_before)
        .map(|(now, before)| {
            let d = now.since(before);
            (d.msgs, d.wire_bytes)
        })
        .collect();
    let part_run = matches!(setup.kind, IndexKind::Part(_));
    let (pool_msgs, pool_wire) = mn_traffic
        .iter()
        .fold((0u64, 0u64), |(m, w), &(dm, dw)| (m + dm, w + dw));
    let (max_mn_msgs, max_mn_wire_bytes) = if part_run {
        (
            mn_traffic.iter().map(|&(m, _)| m).max().unwrap_or(0),
            mn_traffic.iter().map(|&(_, w)| w).max().unwrap_or(0),
        )
    } else {
        // Non-partitioned indexes stripe allocations over the MNs; zero
        // tells the model to assume uniform spread, as it always has.
        (0, 0)
    };
    let acc = RunAccounting {
        ops: executed,
        clients: setup.clients as u64,
        mns: setup.num_mns as u64,
        total_msgs: if part_run { pool_msgs } else { stats_delta.msgs },
        total_wire_bytes: if part_run { pool_wire } else { stats_delta.wire_bytes },
        max_mn_msgs,
        max_mn_wire_bytes,
        sum_latency_ns: hist.sum(),
        sum_busy_ns: sum_busy,
    };
    let est = net.model(&acc);
    let cache_bytes = dep
        .cns
        .iter()
        .map(|cs| cs.first().map(|c| c.cache_bytes()).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let (hs_hits, hs_lookups) = {
        let (h1, l1) = probe_hotspot(dep);
        let (h0, l0) = hotspot_before;
        (h1 - h0, l1 - l0)
    };
    let hit_ratio = ratio(hs_hits, hs_lookups);
    let (cache_hits, cache_misses) = dep
        .cache_probe
        .iter()
        .zip(&cache_before)
        .map(|(p, &(h0, m0))| {
            let (h1, m1) = p();
            (h1 - h0, m1 - m0)
        })
        .fold((0, 0), |(a, b), (h, m)| (a + h, b + m));
    let remote_bytes = dep.pool.allocated_bytes();
    let mut metrics = MetricsSnapshot::new();
    for (name, v) in stats_delta.as_pairs() {
        metrics.counter(&format!("client_{name}_total"), &[], v);
    }
    metrics.counter("cache_hits_total", &[], cache_hits);
    metrics.counter("cache_misses_total", &[], cache_misses);
    metrics.counter("hotspot_hits_total", &[], hs_hits);
    metrics.counter("hotspot_lookups_total", &[], hs_lookups);
    metrics.counter("ops_total", &[], executed);
    for (mn, &(msgs, wire)) in mn_traffic.iter().enumerate() {
        let id = mn.to_string();
        metrics.counter("mn_msgs_total", &[("mn", &id)], msgs);
        metrics.counter("mn_wire_bytes_total", &[("mn", &id)], wire);
    }
    // Routing and migration counters: the scalar series are always
    // emitted (zero without a router) so the flat key set is stable
    // across index kinds; per-partition ops only exist on routed runs.
    let router_now = probe_router(dep);
    metrics.counter("route_hits_total", &[], router_now.hits - router_before.hits);
    metrics.counter(
        "route_stale_epoch_total",
        &[],
        router_now.stale - router_before.stale,
    );
    metrics.counter(
        "route_refreshes_total",
        &[],
        router_now.refreshes - router_before.refreshes,
    );
    metrics.counter(
        "migrate_migrations_total",
        &[],
        router_now.migrations - router_before.migrations,
    );
    metrics.counter(
        "migrate_leaves_moved_total",
        &[],
        router_now.leaves_moved - router_before.leaves_moved,
    );
    metrics.counter(
        "migrate_items_moved_total",
        &[],
        router_now.items_moved - router_before.items_moved,
    );
    for (p, &ops) in router_now.part_ops.iter().enumerate() {
        let before = router_before.part_ops.get(p).copied().unwrap_or(0);
        let id = p.to_string();
        metrics.counter("part_ops_total", &[("part", &id)], ops - before);
    }
    metrics.gauge("cache_bytes", &[], cache_bytes as f64);
    metrics.gauge("remote_alloc_bytes", &[], remote_bytes as f64);
    metrics.gauge("cache_hit_ratio", &[], ratio(cache_hits, cache_hits + cache_misses));
    metrics.gauge("hotspot_hit_ratio", &[], hit_ratio);
    metrics.histogram("op_latency", &[], hist.summary());
    // Per-op-type latency percentiles. All four op types are always
    // present (zero-count histograms included) so the metric key set is
    // stable across runs and workloads.
    for (disc, name) in OP_NAMES.iter().enumerate() {
        metrics.histogram("op_latency", &[("op", name)], op_hists[disc].summary());
    }
    // Phase attribution: exclusive virtual time, verb traffic and episode
    // latencies per phase, merged over every participating client. Every
    // phase of the taxonomy is emitted (zeros included) for a stable key
    // set.
    for phase in Phase::ALL {
        let acc = profile_delta.phase(phase);
        let labels = [("phase", phase.as_str())];
        metrics.counter("phase_ns_total", &labels, acc.ns);
        metrics.counter("phase_verbs_total", &labels, acc.verbs);
        metrics.counter("phase_rtts_total", &labels, acc.rtts);
        metrics.counter("phase_wire_bytes_total", &labels, acc.wire_bytes);
        metrics.counter("phase_episodes_total", &labels, acc.episodes);
        metrics.histogram("phase_latency", &labels, acc.hist.summary());
    }
    // Retry root-cause attribution (why ops restarted, not just how often).
    for cause in RetryCause::ALL {
        metrics.counter(
            "retry_cause_total",
            &[("cause", cause.as_str())],
            profile_delta.retry_count(cause),
        );
    }
    // Queue-pair model: doorbell batching and CQ depth (pipelined runs).
    if let Some(qp) = &qp {
        metrics.counter("qp_wqes_posted_total", &[], qp.posted);
        metrics.counter("qp_doorbells_total", &[], qp.doorbells);
        metrics.counter("qp_batched_wqes_total", &[], qp.batched_wqes);
        metrics.gauge("doorbell_batch_mean", &[], qp.batch_hist.mean());
        metrics.gauge(
            "doorbell_batched_frac",
            &[],
            ratio(qp.batched_wqes, qp.posted),
        );
        metrics.histogram("doorbell_batch_size", &[], count_summary(&qp.batch_hist));
        metrics.histogram("cq_depth", &[], count_summary(&qp.depth_hist));
    }
    // Per-lane-index contention attribution: lock retries + backoff say
    // "pipelining amplified contention", CQ wait says "network-bound".
    for (l, lane) in lanes.iter().enumerate() {
        let id = l.to_string();
        let labels = [("lane", id.as_str())];
        metrics.counter("lane_ops_total", &labels, lane.ops);
        metrics.counter("lane_op_retries_total", &labels, lane.op_retries);
        metrics.counter("lane_lock_retries_total", &labels, lane.lock_retries);
        metrics.counter("lane_backoff_ns_total", &labels, lane.backoff_ns);
        metrics.counter("lane_cq_wait_ns_total", &labels, lane.cq_wait_ns);
    }
    // In-run anomaly detection over the merged timeline; findings ride the
    // result into the report where `explain` can cite them.
    let anomalies = obs::detect(&timeline, 0);
    metrics.counter("anomalies_total", &[], anomalies.len() as u64);
    let perfetto = (!tracers.is_empty())
        .then(|| obs::to_perfetto(&tracers.iter().collect::<Vec<&Tracer>>()));
    // At saturation, queueing delay dominates and is roughly exponential,
    // so the tail stretches beyond the uniform inflation of the mean.
    let queue = est.inflation - 1.0;
    let tail = 1.0 + 2.0 * queue / (1.0 + queue);
    BenchResult {
        mops: est.mops,
        p50_us: hist.quantile(0.5) as f64 * est.inflation / 1_000.0,
        p90_us: hist.quantile(0.9) as f64 * est.inflation / 1_000.0,
        p99_us: hist.quantile(0.99) as f64 * est.inflation * tail / 1_000.0,
        avg_us: est.avg_latency_ns / 1_000.0,
        bound: est.bound,
        bytes_per_op: est.bytes_per_op,
        msgs_per_op: est.msgs_per_op,
        rtts_per_op: stats_delta.rtts as f64 / executed as f64,
        read_amp: ratio(stats_delta.wire_bytes, stats_delta.app_bytes),
        cache_bytes,
        hotspot_hit_ratio: hit_ratio,
        cache_hit_ratio: ratio(cache_hits, cache_hits + cache_misses),
        remote_bytes,
        mn_traffic,
        metrics,
        timeline,
        anomalies,
        perfetto,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn probe_hotspot(dep: &Deployment) -> (u64, u64) {
    dep.hotspot_probe
        .as_ref()
        .map(|cns| {
            cns.iter()
                .map(|c| c.hotspot_stats())
                .fold((0, 0), |(a, b), (h, l)| (a + h, b + l))
        })
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: IndexKind, workload: Workload) -> BenchSetup {
        BenchSetup {
            kind,
            num_cns: 2,
            clients: 8,
            preload: 5_000,
            ops: 4_000,
            mn_capacity: 512 << 20,
            workload,
            ..Default::default()
        }
    }

    #[test]
    fn chime_runs_all_workloads() {
        for w in Workload::ALL {
            let r = run(&tiny(IndexKind::Chime(chime::ChimeConfig::default()), w));
            assert!(r.mops > 0.0, "workload {w:?}");
            assert!(r.p99_us >= r.p50_us);
        }
    }

    #[test]
    fn all_indexes_run_ycsb_c() {
        let kinds = [
            IndexKind::Chime(chime::ChimeConfig::default()),
            IndexKind::Sherman(sherman::ShermanConfig::default()),
            IndexKind::Rolex(rolex::RolexConfig::default()),
            IndexKind::Smart(smart::SmartConfig::default()),
        ];
        for k in kinds {
            let name = k.name();
            let r = run(&tiny(k, Workload::C));
            assert!(r.mops > 0.0, "{name}");
            assert!(r.bytes_per_op > 0.0, "{name}");
        }
    }

    #[test]
    fn chime_beats_sherman_on_read_amplification() {
        let rc = run(&tiny(
            IndexKind::Chime(chime::ChimeConfig::default()),
            Workload::C,
        ));
        let rs = run(&tiny(
            IndexKind::Sherman(sherman::ShermanConfig::default()),
            Workload::C,
        ));
        assert!(
            rc.bytes_per_op * 2.0 < rs.bytes_per_op,
            "CHIME {:.0} B/op vs Sherman {:.0} B/op",
            rc.bytes_per_op,
            rs.bytes_per_op
        );
    }

    #[test]
    fn smart_cache_dwarfs_chime_cache() {
        let rc = run(&tiny(
            IndexKind::Chime(chime::ChimeConfig::default()),
            Workload::C,
        ));
        let rs = run(&tiny(
            IndexKind::Smart(smart::SmartConfig::default()),
            Workload::C,
        ));
        assert!(
            rs.cache_bytes > 3 * rc.cache_bytes,
            "SMART {} vs CHIME {}",
            rs.cache_bytes,
            rc.cache_bytes
        );
    }

    #[test]
    fn smart_reports_its_node_cache_hits() {
        let r = run(&tiny(
            IndexKind::Smart(smart::SmartConfig::default()),
            Workload::C,
        ));
        assert!(
            r.cache_hit_ratio > 0.0,
            "SMART cache_hit_ratio {}",
            r.cache_hit_ratio
        );
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mk = |clients| BenchSetup {
            clients,
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::C)
        };
        let r8 = run(&mk(8));
        let r64 = run(&mk(64));
        assert!(r64.mops > r8.mops * 2.0, "{} vs {}", r64.mops, r8.mops);
    }

    #[test]
    fn pipelined_lanes_raise_modeled_throughput() {
        let mk = |k: usize| BenchSetup {
            coroutines: k,
            clients: 16,
            theta: 0.01, // near-uniform: pipelining gain, not contention
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::C)
        };
        let r1 = run(&mk(1));
        let r4 = run(&mk(4));
        assert!(
            r4.mops > r1.mops * 1.5,
            "K=4 {} Mops vs K=1 {} Mops",
            r4.mops,
            r1.mops
        );
        // The QP model keys only light up in pipelined runs.
        assert!(r4.metrics.counter_value("qp_doorbells_total", &[]) > 0);
        assert!(r4.metrics.counter_value("lane_ops_total", &[("lane", "3")]) > 0);
        assert_eq!(r1.metrics.counter_value("qp_doorbells_total", &[]), 0);
        // Pipelined lanes wait on the CQ; serial clients never do.
        let cq = [("phase", "cq_wait")];
        assert!(r4.metrics.counter_value("phase_ns_total", &cq) > 0);
        assert_eq!(r1.metrics.counter_value("phase_ns_total", &cq), 0);
    }

    #[test]
    fn pipelined_runs_are_deterministic() {
        let mk = || BenchSetup {
            coroutines: 4,
            clients: 8,
            ops: 2_000,
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::A)
        };
        let a = run(&mk());
        let b = run(&mk());
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(a.mops, b.mops);
    }

    #[test]
    fn partitioned_chime_routes_and_accounts_per_mn() {
        let cfg = part::ClusterConfig {
            parts: 4,
            chime: chime::ChimeConfig {
                cache_bytes: 1 << 20,
                hotspot_bytes: 1 << 16,
                ..Default::default()
            },
            check_every: 64,
            migrate: None,
        };
        let mut setup = tiny(IndexKind::Part(cfg), Workload::A);
        setup.num_mns = 2;
        let r = run(&setup);
        assert!(r.mops > 0.0);
        assert!(r.metrics.counter_value("route_hits_total", &[]) > 0);
        // Hashed keys spread over all partitions, partitions over both MNs.
        for p in 0..4 {
            let id = p.to_string();
            assert!(
                r.metrics.counter_value("part_ops_total", &[("part", &id)]) > 0,
                "partition {p} never hit"
            );
        }
        assert_eq!(r.mn_traffic.len(), 2);
        assert!(r.mn_traffic.iter().all(|&(m, _)| m > 0), "both MNs see traffic");
        // Deterministic replay, router included.
        let r2 = run(&setup);
        assert_eq!(r.metrics.to_json(), r2.metrics.to_json());
    }

    #[test]
    fn router_metric_keys_are_zero_without_a_router() {
        let r = run(&tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::C));
        assert_eq!(r.metrics.counter_value("route_hits_total", &[]), 0);
        assert_eq!(r.metrics.counter_value("route_stale_epoch_total", &[]), 0);
        assert_eq!(r.metrics.counter_value("migrate_migrations_total", &[]), 0);
        assert_eq!(r.metrics.counter_value("migrate_leaves_moved_total", &[]), 0);
        assert!(r
            .metrics
            .counter_labeled_values("part_ops_total", "part")
            .is_empty());
    }

    #[test]
    fn rdwc_does_not_hurt() {
        let mk = |rdwc| BenchSetup {
            rdwc,
            clients: 32,
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::C)
        };
        let with = run(&mk(true));
        let without = run(&mk(false));
        assert!(with.mops >= without.mops * 0.99);
    }

    fn op_latency(r: &BenchResult, labels: &[(&str, &str)]) -> HistogramSummary {
        r.metrics.histogram_value("op_latency", labels).unwrap()
    }

    /// The laws of a run whose every op is on the timeline (RDWC off): the
    /// headline count is the op types' counts summed and the ops executed,
    /// and its mean is the latency sum over the op count.
    fn assert_headline_counts_every_op_once(r: &BenchResult) {
        let all = op_latency(r, &[]);
        let by_op: u64 = OP_NAMES
            .iter()
            .map(|op| op_latency(r, &[("op", op)]).count)
            .sum();
        assert_eq!(all.count, by_op);
        assert_eq!(all.count, r.metrics.counter_value("ops_total", &[]));
        let ops: u64 = r.timeline.windows().map(|(_, w)| w.ops).sum();
        let lat_sum: u64 = r.timeline.windows().map(|(_, w)| w.lat_sum_ns).sum();
        assert_eq!(all.count, ops);
        assert_eq!(all.mean_ns, lat_sum / ops);
    }

    #[test]
    fn a_read_only_runs_headline_is_its_read_summary() {
        let r = run(&tiny(
            IndexKind::Chime(chime::ChimeConfig::default()),
            Workload::C,
        ));
        assert!(op_latency(&r, &[]).count > 0);
        assert_eq!(op_latency(&r, &[]), op_latency(&r, &[("op", "read")]));
    }

    #[test]
    fn a_mixed_runs_headline_counts_every_op_once() {
        let setup = BenchSetup {
            rdwc: false,
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::A)
        };
        let r = run(&setup);
        assert!(op_latency(&r, &[("op", "update")]).count > 0);
        assert_headline_counts_every_op_once(&r);
        // The pipelined loop records its lanes' samples the same way.
        assert_headline_counts_every_op_once(&run(&BenchSetup {
            coroutines: 4,
            ..setup
        }));
    }

    #[test]
    fn rdwc_combined_ops_count_in_the_headline() {
        let setup = BenchSetup {
            clients: 32,
            ..tiny(IndexKind::Chime(chime::ChimeConfig::default()), Workload::C)
        };
        assert!(setup.rdwc);
        let r = run(&setup);
        // A combined op pays its partner's latency without executing: it is
        // a headline sample, but not on the timeline.
        let all = op_latency(&r, &[]);
        assert_eq!(all.count, setup.ops);
        assert_eq!(all.count, r.metrics.counter_value("ops_total", &[]));
        let executed: u64 = r.timeline.windows().map(|(_, w)| w.ops).sum();
        assert!(
            executed < all.count,
            "{executed} of {} ops executed",
            all.count
        );
    }
}
