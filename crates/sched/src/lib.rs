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
//! Each lane is a stackful coroutine on the thread that calls
//! [`Engine::run_client`]: it runs on a stack of its own, and switching
//! lanes saves six callee-saved registers and swaps the stack pointer — no
//! OS thread parks and none is spawned. The lane that parks makes the next
//! scheduling decision itself, inside its hook's `post` or `timer`: it
//! keeps running when the completion delivered is its own (every park at
//! K = 1), and otherwise switches straight to the chosen lane's stack. A
//! finished lane switches back to `run_client`, which picks the next lane
//! and returns once every lane has finished. Scheduler state is a `RefCell`
//! that no one borrows across a switch, and nothing reads a wall clock, so
//! runs are deterministic with no OS scheduler in the loop. A lane body runs
//! under `catch_unwind`, so a crashed lane finishes like any other. K = 1
//! through the engine reproduces serial timing byte for byte
//! (`tests/engine.rs`). The determinism argument is DESIGN.md §10.
//!
//! The stacks and the switch are x86_64 Linux code, and the crate does not
//! build for another target.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod stack;

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use dmem::qp::{self, LaneHook, WqeOutcome, WqeTicket};
use dmem::{NetConfig, Qp, QpStats};

use stack::{Handle, Lane, Origin};

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
    /// Times a lane was resumed right after a different lane suspended or
    /// finished: at most one per park and one per finished lane, and 0 at
    /// K = 1. A host-side cost count — exact and repeatable, but no part of
    /// the virtual model.
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

/// Why the running lane gives up its turn.
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

/// The scheduler state of one client run.
struct Sched {
    qp: Qp,
    /// Per lane, the virtual time the event it is parked on completes, and
    /// the ticket to reap then if that event is a WQE. A lane has at most
    /// one.
    pending: Vec<Option<(u64, Option<WqeTicket>)>>,
    /// Lanes `0..started` have been given their first turn.
    started: usize,
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

/// What `run_client` and the lanes' hooks share.
struct Shared {
    sched: RefCell<Sched>,
    /// The lanes as switch targets, in lane order.
    lanes: OnceCell<Vec<Handle>>,
    /// What the lane being switched to resumes with.
    resume: Cell<Resume>,
    /// The lane that just finished, for `run_client` to book.
    finished: Cell<Option<usize>>,
    handoffs: Cell<u64>,
}

impl Shared {
    /// Gives the next turn to `lane`, which resumes with `resume`; a
    /// `handoff` when the previous turn was another lane's. Returns the lane
    /// to switch to.
    fn turn_to(&self, lane: usize, resume: Resume, handoff: bool) -> &Handle {
        self.handoffs.set(self.handoffs.get() + u64::from(handoff));
        self.resume.set(resume);
        &self
            .lanes
            .get()
            .expect("lanes registered before the first turn")[lane]
    }
}

/// The [`LaneHook`] each lane installs: turns verb and timer boundaries
/// into scheduling steps.
struct EngineHook {
    lane: usize,
    shared: Rc<Shared>,
}

impl EngineHook {
    /// Parks the lane on `event` and returns what resumes it: at once when
    /// the next completion is its own, else after another lane hands the
    /// turn back.
    fn park(&self, event: Yield) -> Resume {
        let step = self
            .shared
            .sched
            .borrow_mut()
            .step(Some((self.lane, event)));
        let (next, resume) = step.expect("a parked lane is pending");
        if next == self.lane {
            return resume;
        }
        stack::switch_to(self.shared.turn_to(next, resume, true));
        self.shared.resume.take()
    }
}

impl LaneHook for EngineHook {
    fn post(&mut self, now_ns: u64, mn: u16, msgs: u64, wire_bytes: u64, trace: u64) -> WqeOutcome {
        let resume = self.park(Yield::Verb(now_ns, mn, msgs, wire_bytes, trace));
        resume.expect("a posted WQE resumes with its completion")
    }

    fn timer(&mut self, now_ns: u64, dt_ns: u64) {
        self.park(Yield::Timer(now_ns + dt_ns));
    }

    /// Only the running lane calls this, and no one holds the borrow across
    /// a switch.
    fn cq_depth(&self) -> u64 {
        self.shared.sched.borrow().qp.outstanding_len()
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
        let shared = Rc::new(Shared {
            sched: RefCell::new(Sched {
                qp: Qp::new(net, mns),
                pending: (0..lanes).map(|_| None).collect(),
                started: 0,
            }),
            lanes: OnceCell::new(),
            resume: Cell::new(None),
            finished: Cell::new(None),
            handoffs: Cell::new(0),
        });
        let results: Vec<Cell<Option<LaneResult<T>>>> =
            (0..lanes).map(|_| Cell::new(None)).collect();
        let origin = Origin::new();
        let coroutines: Vec<Lane<'_>> = bodies
            .into_iter()
            .zip(&results)
            .enumerate()
            .map(|(lane, (body, slot))| {
                let shared = Rc::clone(&shared);
                Lane::new(&origin, move || {
                    let hook = EngineHook {
                        lane,
                        shared: Rc::clone(&shared),
                    };
                    qp::install_lane_hook(Box::new(hook));
                    let result = catch_unwind(AssertUnwindSafe(body));
                    drop(qp::uninstall_lane_hook());
                    slot.set(Some(result));
                    shared.finished.set(Some(lane));
                })
            })
            .collect();
        let handles = coroutines.iter().map(Lane::handle).collect();
        assert!(shared.lanes.set(handles).is_ok(), "lanes registered once");
        // Lanes hand the turn among themselves and come back here only to
        // finish; the first turn and each finish are booked here.
        let mut from = None;
        loop {
            let after_finish = from.is_some();
            let step = shared.sched.borrow_mut().step(from.take());
            let Some((lane, resume)) = step else { break };
            origin.enter(shared.turn_to(lane, resume, after_finish));
            let done = shared
                .finished
                .take()
                .expect("only a finished lane comes back");
            from = Some((done, Yield::Finished));
        }
        drop(coroutines);
        let mut sched = shared.sched.borrow_mut();
        sched.qp.finish();
        ClientRun {
            lanes: results
                .into_iter()
                .map(|r| r.into_inner().expect("every lane finished"))
                .collect(),
            qp: sched.qp.stats().clone(),
            handoffs: shared.handoffs.get(),
        }
    }
}
