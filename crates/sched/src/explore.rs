//! Bounded schedule exploration: the cursor a scheduling step consults,
//! and the depth-first search over schedules (see the crate docs).

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::{Engine, EngineConfig};

/// A run's deviations from the default schedule: `(decision point, lane)`
/// pairs in decision order. Decision points count from 0 across every
/// [`Engine::run_client`] call the scenario makes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule(pub Vec<(usize, usize)>);

/// What [`explore`] found.
#[derive(Debug)]
pub struct Exploration {
    /// Schedules run, the failing one included.
    pub schedules: u64,
    /// The first failing schedule and its failure message.
    pub failure: Option<(Schedule, String)>,
}

/// What a scenario asks to be checked at every resume.
type Watch = Box<dyn FnMut() -> Result<(), String>>;

/// One decision point as a run met it.
struct Decision {
    /// The parked lanes, earliest completion first: `choices[0]` is the
    /// default pick.
    choices: Vec<usize>,
    /// The index into `choices` of the lane picked.
    taken: usize,
}

/// The exploration state an [`Engine`] carries through one scenario run.
pub(crate) struct Cursor {
    schedule: Schedule,
    trace: Vec<Decision>,
    resumes: usize,
    budget: usize,
    watch: Option<Watch>,
    /// Why the run is being stopped: set once, when the budget is passed
    /// or the watch fails.
    stop: Option<String>,
}

/// The panic payload of a lane stopped at its park.
pub(crate) struct Stopped;

impl Cursor {
    /// Picks the lane to resume among the `parked` `(completion, lane)`
    /// pairs; `None` when no lane is parked.
    pub(crate) fn pick(&mut self, parked: impl Iterator<Item = (u64, usize)>) -> Option<usize> {
        let mut parked: Vec<(u64, usize)> = parked.collect();
        parked.sort_unstable();
        let default = parked.first()?.1;
        self.resumes += 1;
        if self.resumes > self.budget && self.stop.is_none() {
            self.stop = Some(format!(
                "no progress: {} resumes without finishing",
                self.budget
            ));
        }
        if let (Some(watch), None) = (self.watch.as_mut(), &self.stop) {
            self.stop = watch().err();
        }
        if parked.len() < 2 {
            return Some(default);
        }
        let at = self.trace.len();
        let choices: Vec<usize> = parked.into_iter().map(|(_, lane)| lane).collect();
        let lane = match self.schedule.0.iter().find(|&&(d, _)| d == at) {
            Some(&(_, lane)) => lane,
            None => default,
        };
        let taken = choices.iter().position(|&c| c == lane).unwrap_or_else(|| {
            panic!("lane {lane} is not parked at decision {at}: the scenario is not deterministic")
        });
        self.trace.push(Decision { choices, taken });
        Some(lane)
    }

    /// Whether the run is being stopped.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.is_some()
    }

    /// Installs the check [`Engine::watch`] registers.
    pub(crate) fn set_watch(&mut self, watch: Watch) {
        self.watch = Some(watch);
    }
}

/// Runs `scenario` once under `schedule` on an engine of `lanes` lanes,
/// returning its verdict and the decision points it met.
fn run_once<S>(
    lanes: usize,
    schedule: &Schedule,
    budget: usize,
    scenario: &mut S,
) -> (Result<(), String>, Vec<Decision>)
where
    S: FnMut(&Engine) -> Result<(), String>,
{
    let cursor = Rc::new(RefCell::new(Cursor {
        schedule: schedule.clone(),
        trace: Vec::new(),
        resumes: 0,
        budget,
        watch: None,
        stop: None,
    }));
    let engine = Engine {
        cfg: EngineConfig { lanes },
        cursor: Some(Rc::clone(&cursor)),
    };
    let verdict = catch_unwind(AssertUnwindSafe(|| scenario(&engine)));
    drop(engine);
    let mut cursor = cursor.borrow_mut();
    let verdict = match (cursor.stop.take(), verdict) {
        (Some(why), _) => Err(why),
        (None, Ok(verdict)) => verdict,
        (None, Err(payload)) => Err(panic_message(payload.as_ref())),
    };
    (verdict, std::mem::take(&mut cursor.trace))
}

/// The text of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => format!("panicked: {s}"),
        (_, Some(s)) => format!("panicked: {s}"),
        _ => "panicked".to_string(),
    }
}

/// Runs `scenario` under every schedule with at most `bound` deviations,
/// each on a fresh engine of `lanes` lanes and with at most `budget`
/// resumes, until one fails.
///
/// The scenario builds its state afresh, drives its lanes through the
/// [`Engine`] it is handed (any number of [`Engine::run_client`] calls),
/// and returns `Err` with a message when a check fails; a panic fails the
/// schedule as well. A run that passes the budget fails as no progress,
/// and a failing [`Engine::watch`] check fails the run with its message.
pub fn explore<S>(lanes: usize, bound: usize, budget: usize, mut scenario: S) -> Exploration
where
    S: FnMut(&Engine) -> Result<(), String>,
{
    let mut schedule = Schedule::default();
    let mut schedules = 0;
    loop {
        schedules += 1;
        let (verdict, trace) = run_once(lanes, &schedule, budget, &mut scenario);
        if let Err(message) = verdict {
            let failure = Some((schedule, message));
            return Exploration { schedules, failure };
        }
        // The deepest decision point with an untried lane, unless it has
        // used up the bound before it.
        let next = (0..trace.len()).rev().find(|&i| {
            let before = schedule.0.iter().filter(|&&(d, _)| d < i).count();
            before < bound && trace[i].taken + 1 < trace[i].choices.len()
        });
        let Some(at) = next else {
            return Exploration {
                schedules,
                failure: None,
            };
        };
        let lane = trace[at].choices[trace[at].taken + 1];
        schedule.0.retain(|&(d, _)| d < at);
        schedule.0.push((at, lane));
    }
}

/// Runs `scenario` once under `schedule`, as [`explore`] ran it: a
/// schedule that [`explore`] reported fails again with the same message.
pub fn replay<S>(
    lanes: usize,
    schedule: &Schedule,
    budget: usize,
    mut scenario: S,
) -> Result<(), String>
where
    S: FnMut(&Engine) -> Result<(), String>,
{
    run_once(lanes, schedule, budget, &mut scenario).0
}
