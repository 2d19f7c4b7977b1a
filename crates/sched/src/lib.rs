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
//!   until the scheduler delivers its completion; verb-free advances of
//!   virtual time (retry backoff, allocation RPC service, injected fault
//!   delays) park it the same way, as timers;
//! * scheduling is discrete-event: the lane resumed next is always the one
//!   with the **earliest pending completion timestamp** (lane index breaks
//!   ties), so exactly one lane executes at any instant and the global
//!   interleaving is a pure function of the lanes' virtual-time behaviour;
//! * a lane reads its client's CQ depth as of its own virtual now through
//!   [`dmem::qp::lane_cq_depth`]: resuming a lane expires every completion
//!   at or before the resume instant;
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
//!
//! One `Mutex` guards that state: the `Qp`, each lane's one pending event
//! and a one-slot mailbox per lane. A lane that finishes does so after
//! `catch_unwind`, so a crashed lane hands the baton on too. Self-resume is
//! every park at K = 1 and most `acquire_with` polls at K > 1. Waking after
//! the unlock costs one futex hand-off per switch ([`ClientRun::handoffs`]);
//! waking under the lock — a `Condvar` on the same mutex — measured slower,
//! as the woken lane pre-empts the waker and blocks on the lock it still
//! holds. A wake-up says only "look in your mailbox", so a spurious or early
//! one is harmless. K = 1 through the engine reproduces serial timing byte
//! for byte (`tests/engine.rs`). The determinism argument is DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
}

impl Sched {
    /// The one scheduling step: books what the lane `from` (if any) yielded
    /// for, then picks who runs next — the next unstarted lane, else the
    /// earliest pending completion (lane index breaks ties) — and reaps that
    /// completion. `None`: every lane has finished.
    fn step(&mut self, from: Option<(usize, Yield)>) -> Option<(usize, Resume)> {
        match from {
            Some((lane, Yield::Verb(now_ns, mn, msgs, wire_bytes, trace))) => {
                let ticket = self.qp.post_wqe(now_ns, mn, msgs, wire_bytes, trace);
                self.pending[lane] = Some((ticket.completion_ns, Some(ticket)));
            }
            Some((lane, Yield::Timer(until_ns))) => self.pending[lane] = Some((until_ns, None)),
            Some((_, Yield::Finished)) | None => {}
        }
        if self.started < self.pending.len() {
            self.started += 1;
            return Some((self.started - 1, None));
        }
        let parked = self.pending.iter().enumerate();
        let (t, lane) = parked
            .filter_map(|(lane, p)| p.as_ref().map(|&(t, _)| (t, lane)))
            .min()?;
        let (_, ticket) = self.pending[lane].take().expect("chosen lane is parked");
        let resume = ticket.map(|ticket| self.qp.poll_wqe(ticket));
        // The global frontier advances to `t`: completions at or before it
        // are delivered, so the resumed lane reads a decayed CQ depth.
        self.qp.expire_before(t);
        Some((lane, resume))
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

    /// Only the running lane calls this, and it holds no lock while it runs.
    fn cq_depth(&self) -> u64 {
        self.baton.lock().qp.outstanding_len()
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
