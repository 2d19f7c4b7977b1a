//! `sched` — a deterministic cooperative coroutine engine.
//!
//! The CHIME paper runs 64 clients per compute node as threads + coroutines
//! so independent operations overlap their RDMA round trips. This crate
//! reproduces that execution model inside the simulator without giving up
//! byte-for-byte reproducibility:
//!
//! * each logical client owns K **lanes** — coroutines running unmodified
//!   synchronous index code on their own [`dmem::Endpoint`];
//! * every verb a lane issues becomes a WQE on the client's shared
//!   [`dmem::Qp`] (via the [`dmem::LaneHook`] seam) and the lane **parks**
//!   until the scheduler delivers its completion;
//! * scheduling is discrete-event: the lane resumed next is always the one
//!   with the **earliest pending completion timestamp** (lane index breaks
//!   ties), so exactly one lane executes at any instant and the global
//!   interleaving is a pure function of the lanes' virtual-time behaviour;
//! * consecutive WQEs posted to the same memory node within one scheduling
//!   quantum share a doorbell — one round trip — which is where pipelining's
//!   modeled throughput gain comes from.
//!
//! Lanes are hosted on parked OS threads purely as a coroutine mechanism.
//! There is no scheduler thread: the right to run is a **baton**. The lane
//! that parks or finishes takes the scheduler lock, makes the next
//! scheduling decision itself and either keeps running (the completion it
//! just delivered is its own — no thread switch) or leaves the payload in
//! the chosen lane's mailbox, drops the lock and only then wakes that lane.
//! Only the baton holder ever touches scheduler state and nothing reads a
//! wall clock, so runs are deterministic regardless of OS scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};

use dmem::qp::{self, LaneHook, WqeOutcome, WqeTicket};
use dmem::{NetConfig, Qp, QpStats};

/// How a lane's execution ended.
pub type LaneResult<T> = Result<T, Box<dyn Any + Send>>;

/// The outcome of driving one client's lanes to completion.
pub struct ClientRun<T> {
    /// Per-lane results in lane order. `Err` carries the lane's panic
    /// payload (e.g. a [`dmem::CrashSignal`] from an injected crash point);
    /// the engine never re-raises — callers decide what a dead lane means.
    pub lanes: Vec<LaneResult<T>>,
    /// The client's queue-pair statistics (doorbells, batch sizes, CQ
    /// depths) accumulated across all lanes.
    pub qp: QpStats,
    /// Times the baton moved from one lane's thread to another's: at most
    /// one per park and one per finished lane, and 0 at K = 1. A host-side
    /// cost count — exact and repeatable, but no part of the virtual model.
    pub handoffs: u64,
}

impl<T> ClientRun<T> {
    /// Unwraps every lane result, panicking (with the first lane's payload
    /// resurfaced) if any lane died. Convenience for fault-free runs.
    pub fn into_results(self) -> Vec<T> {
        self.lanes
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    }
}

/// Engine settings. The queue-pair model's doorbell window and batch cap
/// are the constants [`dmem::qp::QUANTUM_NS`] and [`dmem::qp::MAX_BATCH`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Coroutine lanes multiplexed per client (K): every run passes exactly
    /// this many lane bodies. 1 reproduces serial execution through the
    /// same machinery.
    pub lanes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { lanes: 1 }
    }
}

/// A lane body: synchronous client code returning its result. Bodies
/// create (or capture) their own endpoint; every verb it issues parks the
/// lane at the scheduler.
pub type LaneBody<T> = Box<dyn FnOnce() -> T + Send>;

/// Why the running lane gives up the baton.
enum Yield {
    /// It posts a WQE (the arguments of [`Qp::post_wqe`], in order) and
    /// waits for the completion.
    Verb(u64, u16, u64, u64, u64),
    /// It waits until this virtual time without posting (backoff, RPC
    /// service, fault delay).
    Timer(u64),
    /// Its body returned or panicked.
    Finished,
}

/// What resumes a lane: the completion of the WQE it posted, or `None`
/// when all it waited for was its first turn or a timer.
type Resume = Option<WqeOutcome>;

/// The scheduler state of one client run. Only the baton holder locks it.
struct Sched {
    qp: Qp,
    /// Per lane, the virtual time the event it is parked on completes, and
    /// the ticket to reap then if that event is a WQE. A lane has at most
    /// one.
    pending: Vec<Option<(u64, Option<WqeTicket>)>>,
    /// Per lane, the payload left by whoever handed it the baton.
    mailbox: Vec<Option<Resume>>,
    /// Lanes `0..started` have been given their first turn.
    started: usize,
    handoffs: u64,
    gauge: Option<Arc<CqDepthGauge>>,
    gate: Option<Arc<LaneGate>>,
}

impl Sched {
    /// The one scheduling step: books what the lane `from` (if any) yielded
    /// for, then picks who runs next — the next unstarted lane unless a
    /// [`LaneGate`] is held, else the earliest pending completion (lane
    /// index breaks ties; a gate owner goes before everyone) — and reaps
    /// that completion. `None`: every lane has finished.
    fn step(&mut self, from: Option<(usize, Yield)>) -> Option<(usize, Resume)> {
        match from {
            Some((lane, Yield::Verb(now_ns, mn, msgs, wire_bytes, trace))) => {
                let ticket = self.qp.post_wqe(now_ns, mn, msgs, wire_bytes, trace);
                self.pending[lane] = Some((ticket.completion_ns, Some(ticket)));
                if let Some(g) = &self.gauge {
                    g.publish(self.qp.outstanding_len());
                }
            }
            Some((lane, Yield::Timer(until_ns))) => {
                self.pending[lane] = Some((until_ns, None));
            }
            Some((lane, Yield::Finished)) => {
                // A finished (or crashed) owner must release its gate
                // claim, else the remaining lanes would never resume.
                if let Some(g) = &self.gate {
                    g.clear_if(lane);
                }
            }
            None => {}
        }
        // Nothing runs during a step, so a live owner is parked. While it
        // is, only it resumes, and new lanes stay unstarted: their first
        // instructions must not interleave with the guarded section.
        let owner = self
            .gate
            .as_ref()
            .and_then(|g| g.owner())
            .filter(|&o| self.pending.get(o).is_some_and(Option::is_some));
        let earliest = || {
            let parked = self.pending.iter().enumerate();
            parked
                .filter_map(|(lane, p)| p.as_ref().map(|&(t, _)| (t, lane)))
                .min()
                .map(|(_, lane)| lane)
        };
        if owner.is_none() && self.started < self.pending.len() {
            self.started += 1;
            Some((self.started - 1, None))
        } else if let Some(lane) = owner.or_else(earliest) {
            let (t, ticket) = self.pending[lane].take().expect("chosen lane is parked");
            let resume = ticket.map(|ticket| self.qp.poll_wqe(ticket));
            if let Some(g) = &self.gauge {
                // The global frontier advances to `t`: completions at or
                // before it are delivered, so the resumed lane sees a
                // decayed depth.
                self.qp.expire_before(t);
                g.publish(self.qp.outstanding_len());
            }
            Some((lane, resume))
        } else {
            None
        }
    }
}

/// The baton: the scheduler state plus the lane threads to wake.
struct Baton {
    sched: Mutex<Sched>,
    /// The lane threads, set once they are all spawned and before the
    /// baton is first passed.
    threads: OnceLock<Vec<Thread>>,
}

impl Baton {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .expect("a lane panicked inside the scheduler")
    }

    /// Runs a scheduling step on behalf of `from` — a lane giving up the
    /// baton, or `None` for the thread that starts the run — and hands the
    /// baton to the lane it picks. Returns the payload instead when that
    /// lane is the caller itself, which then simply keeps running.
    fn pass(&self, from: Option<(usize, Yield)>) -> Option<Resume> {
        let from_lane = from.as_ref().map(|&(lane, _)| lane);
        let mut sched = self.lock();
        let (next, resume) = sched.step(from)?;
        if from_lane == Some(next) {
            return Some(resume);
        }
        sched.mailbox[next] = Some(resume);
        sched.handoffs += u64::from(from_lane.is_some());
        // Wake only after unlocking: a lane woken while the waker still
        // holds the lock pre-empts it, blocks on that lock and turns one
        // thread switch into three.
        drop(sched);
        self.threads.get().expect("lane threads registered")[next].unpark();
        None
    }

    /// Blocks lane `lane`'s thread until the baton reaches it.
    fn wait(&self, lane: usize) -> Resume {
        loop {
            // The wake-up token makes an `unpark` that came first return
            // at once; the mailbox check absorbs spurious wake-ups.
            thread::park();
            if let Some(resume) = self.lock().mailbox[lane].take() {
                return resume;
            }
        }
    }

    /// Parks lane `lane` on `event` and returns what resumes it.
    fn park(&self, lane: usize, event: Yield) -> Resume {
        self.pass(Some((lane, event)))
            .unwrap_or_else(|| self.wait(lane))
    }
}

/// The [`LaneHook`] installed on each lane thread: turns verb and timer
/// boundaries into baton passes.
struct EngineHook {
    lane: usize,
    baton: Arc<Baton>,
}

impl LaneHook for EngineHook {
    fn post(&mut self, now_ns: u64, mn: u16, msgs: u64, wire_bytes: u64, trace: u64) -> WqeOutcome {
        let event = Yield::Verb(now_ns, mn, msgs, wire_bytes, trace);
        let resume = self.baton.park(self.lane, event);
        resume.expect("a posted WQE resumes with its completion")
    }

    fn timer(&mut self, now_ns: u64, dt_ns: u64) {
        self.baton.park(self.lane, Yield::Timer(now_ns + dt_ns));
    }
}

/// A scheduler-maintained completion-queue depth gauge.
///
/// The engine refreshes the gauge at every scheduling decision: after a
/// lane posts a WQE (depth includes the new entry) and whenever a parked
/// lane is resumed (entries whose completions have passed the resumption
/// instant are expired first). Exactly one lane executes at any instant,
/// so a lane reading the gauge always sees the depth as of its own virtual
/// "now" — the load is `Relaxed` yet the value is deterministic.
///
/// The serve layer's backpressure watermark reads this to decide whether
/// to shed or defer an operation before it issues verbs.
#[derive(Debug, Default)]
pub struct CqDepthGauge {
    depth: AtomicU64,
}

impl CqDepthGauge {
    /// Creates a gauge reading zero.
    pub fn new() -> Arc<Self> {
        Arc::new(CqDepthGauge::default())
    }

    /// The CQ depth as of the engine's latest scheduling decision.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    fn publish(&self, depth: u64) {
        self.depth.store(depth, Ordering::Relaxed);
    }
}

/// Sentinel owner value: nobody holds the gate.
const GATE_FREE: usize = usize::MAX;

/// A cross-lane mutual-exclusion gate for one client's coroutine lanes.
///
/// While a lane holds the gate, the scheduler resumes only that lane: the
/// guarded section executes atomically with respect to the client's other
/// lanes (their completions stay queued until the gate drops, and lanes
/// not yet started are not spawned), while virtual time still advances
/// verb by verb. The partition migrator runs its copy/switch protocol
/// under the gate so no sibling lane observes a half-migrated partition.
///
/// `enter`/`exit` are called from lane bodies. Exactly one lane executes
/// at any instant, so the plain atomic is deterministic. A lane that dies
/// inside the section (an injected crash point) has its claim cleared by
/// the engine when the lane finishes — the crash leaves *remote* state
/// (lock words, journal) behind for recovery, but never wedges the
/// scheduler.
#[derive(Debug)]
pub struct LaneGate {
    owner: AtomicUsize,
}

impl LaneGate {
    /// Creates an unheld gate.
    pub fn new() -> Arc<Self> {
        Arc::new(LaneGate {
            owner: AtomicUsize::new(GATE_FREE),
        })
    }

    /// Claims the gate for `lane`. Re-entering while already the owner is
    /// allowed; claiming over another lane's live hold is a bug (the
    /// scheduler never resumes a non-owner inside a held section).
    pub fn enter(&self, lane: usize) {
        let prev = self.owner.swap(lane, Ordering::Relaxed);
        assert!(
            prev == GATE_FREE || prev == lane,
            "lane {lane} entered a gate held by lane {prev}"
        );
    }

    /// Releases the gate. Panics if `lane` is not the current owner.
    pub fn exit(&self, lane: usize) {
        let prev = self.owner.swap(GATE_FREE, Ordering::Relaxed);
        assert_eq!(prev, lane, "lane {lane} exited a gate held by {prev}");
    }

    /// The owning lane, if any.
    pub fn owner(&self) -> Option<usize> {
        match self.owner.load(Ordering::Relaxed) {
            GATE_FREE => None,
            lane => Some(lane),
        }
    }

    /// Drops `lane`'s claim if it holds the gate (engine cleanup when a
    /// lane finishes or dies).
    fn clear_if(&self, lane: usize) {
        let _ = self
            .owner
            .compare_exchange(lane, GATE_FREE, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// The deterministic coroutine engine.
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine { cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Drives one client's lane bodies to completion over a shared QP
    /// reaching `mns` memory nodes, returning per-lane results and QP
    /// statistics.
    ///
    /// Strict turn-taking: lanes start in index order, each running until
    /// its first verb/timer park; thereafter every park or finish delivers
    /// the earliest pending completion (ties broken by lane index) and the
    /// lane it belongs to runs until it parks again or finishes. A lane
    /// that panics (e.g. an injected crash point) simply finishes with the
    /// payload as its result; the remaining lanes keep running.
    ///
    /// Panics unless `bodies` holds exactly [`EngineConfig::lanes`] bodies.
    pub fn run_client<T: Send + 'static>(
        &self,
        net: NetConfig,
        mns: u16,
        bodies: Vec<LaneBody<T>>,
    ) -> ClientRun<T> {
        self.run_inner(net, mns, bodies, None, None)
    }

    /// [`Engine::run_client`] with a live [`CqDepthGauge`]: the engine
    /// refreshes `gauge` at every scheduling decision so lane bodies can
    /// read the client's CQ depth (e.g. for serve-layer backpressure)
    /// without breaking determinism.
    pub fn run_client_observed<T: Send + 'static>(
        &self,
        net: NetConfig,
        mns: u16,
        bodies: Vec<LaneBody<T>>,
        gauge: Arc<CqDepthGauge>,
    ) -> ClientRun<T> {
        self.run_inner(net, mns, bodies, Some(gauge), None)
    }

    /// [`Engine::run_client`] with a [`LaneGate`]: while a lane holds the
    /// gate, the scheduler resumes only that lane (and defers starting new
    /// ones), so the guarded section runs atomically with respect to this
    /// client's other lanes. A finished or crashed owner has its claim
    /// cleared automatically so the run always drains.
    pub fn run_client_gated<T: Send + 'static>(
        &self,
        net: NetConfig,
        mns: u16,
        bodies: Vec<LaneBody<T>>,
        gate: Arc<LaneGate>,
    ) -> ClientRun<T> {
        self.run_inner(net, mns, bodies, None, Some(gate))
    }

    fn run_inner<T: Send + 'static>(
        &self,
        net: NetConfig,
        mns: u16,
        bodies: Vec<LaneBody<T>>,
        gauge: Option<Arc<CqDepthGauge>>,
        gate: Option<Arc<LaneGate>>,
    ) -> ClientRun<T> {
        let lanes = bodies.len();
        assert!(lanes > 0, "a client needs at least one lane");
        assert_eq!(lanes, self.cfg.lanes, "lane bodies must match the engine's lanes");
        let baton = Arc::new(Baton {
            sched: Mutex::new(Sched {
                qp: Qp::new(net, mns),
                pending: (0..lanes).map(|_| None).collect(),
                mailbox: (0..lanes).map(|_| None).collect(),
                started: 0,
                handoffs: 0,
                gauge,
                gate,
            }),
            threads: OnceLock::new(),
        });
        // Every lane thread starts out waiting for the baton.
        let joins: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(lane, body)| {
                let baton = Arc::clone(&baton);
                thread::Builder::new()
                    .name(format!("lane-{lane}"))
                    .spawn(move || {
                        baton.wait(lane);
                        let hook = EngineHook {
                            lane,
                            baton: Arc::clone(&baton),
                        };
                        qp::install_lane_hook(Box::new(hook));
                        let result = catch_unwind(AssertUnwindSafe(body));
                        drop(qp::uninstall_lane_hook());
                        // Outside `catch_unwind`, so a crashed lane hands
                        // the baton on like any other.
                        baton.pass(Some((lane, Yield::Finished)));
                        result
                    })
                    .expect("spawn lane thread")
            })
            .collect();
        let threads = joins.iter().map(|j| j.thread().clone()).collect();
        baton.threads.set(threads).expect("threads registered once");
        baton.pass(None);
        // The lanes pass the baton among themselves; each thread ends when
        // its lane has finished and handed on.
        let results = joins
            .into_iter()
            .map(|j| j.join().expect("lane thread poisoned past catch_unwind"))
            .collect();
        let mut sched = baton.lock();
        sched.qp.finish();
        ClientRun {
            lanes: results,
            qp: sched.qp.stats().clone(),
            handoffs: sched.handoffs,
        }
    }
}
