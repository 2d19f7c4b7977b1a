//! `chime-model` — exhaustive interleaving exploration of the lock-lease
//! and migration protocols.
//!
//! A model is a small labelled transition system: 2–3 abstract actors
//! stepping a shared state taken from the repo's own protocol artifacts
//! (the `chime::lockword` layout for the lease model, the journal /
//! crash-point structure of `part::migrate` for the migration model).
//! The engine explores **every** interleaving from the initial state in
//! one BFS pass: it checks the safety invariants on each reachable state,
//! flags deadlocks (stuck states the model does not declare terminal) and
//! checks *progress* — from every non-terminal state, some
//! progress-labelled action (an acquire, a reclaim, a recovery) must
//! still be reachable, which is exactly the absence of lost-wakeup
//! livelock.
//!
//! Everything is deterministic: states are packed integers in
//! `BTreeSet`s, actions are enumerated in a fixed order, and the JSON
//! report is byte-identical across runs.

pub mod lease;
pub mod migrate;
pub mod suite;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A packed model state: `(shared word, control state)`.
pub type State = (u64, u64);

/// One enabled transition.
pub struct Step {
    /// Action label (stable; used in traces and progress checks).
    pub label: &'static str,
    /// Successor state.
    pub next: State,
}

/// A protocol model the engine can explore.
pub trait Model {
    /// Model name (report key).
    fn name(&self) -> &'static str;
    /// Mode tag (`sound` or `probe:*`) for the report.
    fn mode(&self) -> &'static str;
    /// Number of actors.
    fn actors(&self) -> usize;
    /// Display name of an actor (used in trace labels).
    fn actor_name(&self, actor: usize) -> String;
    /// The initial state.
    fn init(&self) -> State;
    /// Enabled transitions of `actor` in `s`, in a fixed order.
    fn steps(&self, s: State, actor: usize) -> Vec<Step>;
    /// First violated safety property in `s`: `(property, message)`.
    fn violation(&self, s: State) -> Option<(&'static str, String)>;
    /// Whether `label` counts as progress for the liveness check.
    fn is_progress(&self, label: &str) -> bool;
    /// Whether `s` may legitimately have no enabled transitions.
    fn may_halt(&self, s: State) -> bool;
    /// The safety/liveness properties this model claims, for the report.
    fn properties(&self) -> &'static [&'static str];
}

/// A property violation with its witness trace from the initial state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated property.
    pub property: &'static str,
    /// What went wrong in the witness state.
    pub message: String,
    /// Shortest action sequence from the initial state (BFS order),
    /// `actor.label` per step.
    pub trace: Vec<String>,
}

/// The result of exploring one model.
#[derive(Debug)]
pub struct Exploration {
    /// Reachable states.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// First violation found (BFS order), if any.
    pub violation: Option<Violation>,
}

fn trace_to(
    parent: &BTreeMap<State, (State, String)>,
    init: State,
    mut s: State,
) -> Vec<String> {
    let mut out = Vec::new();
    while s != init {
        let (prev, label) = parent.get(&s).expect("state reached without a parent").clone();
        out.push(label);
        s = prev;
    }
    out.reverse();
    out
}

/// Explores `m` exhaustively.
pub fn explore(m: &dyn Model) -> Exploration {
    let init = m.init();
    let mut visited: BTreeSet<State> = BTreeSet::new();
    let mut parent: BTreeMap<State, (State, String)> = BTreeMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    // (src, dst, progress) for the liveness pass.
    let mut edges: Vec<(State, State, bool)> = Vec::new();
    visited.insert(init);
    queue.push_back(init);
    let mut transitions = 0usize;
    let mut violation: Option<Violation> = None;

    while let Some(s) = queue.pop_front() {
        if violation.is_none() {
            if let Some((property, message)) = m.violation(s) {
                violation = Some(Violation {
                    property,
                    message,
                    trace: trace_to(&parent, init, s),
                });
            }
        }
        let mut any = false;
        for actor in 0..m.actors() {
            for st in m.steps(s, actor) {
                any = true;
                transitions += 1;
                edges.push((s, st.next, m.is_progress(st.label)));
                if visited.insert(st.next) {
                    parent.insert(st.next, (s, format!("{}.{}", m.actor_name(actor), st.label)));
                    queue.push_back(st.next);
                }
            }
        }
        if !any && !m.may_halt(s) && violation.is_none() {
            violation = Some(Violation {
                property: "deadlock-freedom",
                message: "reachable state has no enabled action and is not terminal".to_string(),
                trace: trace_to(&parent, init, s),
            });
        }
    }

    // Liveness: every non-terminal state must be backward-reachable from
    // a state with an outgoing progress edge (i.e. progress is always
    // still possible — no lost-wakeup livelock).
    if violation.is_none() {
        let mut can_progress: BTreeSet<State> =
            edges.iter().filter(|e| e.2).map(|e| e.0).collect();
        let mut rev: BTreeMap<State, Vec<State>> = BTreeMap::new();
        for (src, dst, _) in &edges {
            rev.entry(*dst).or_default().push(*src);
        }
        let mut q: VecDeque<State> = can_progress.iter().copied().collect();
        while let Some(s) = q.pop_front() {
            if let Some(preds) = rev.get(&s) {
                for &p in preds {
                    if can_progress.insert(p) {
                        q.push_back(p);
                    }
                }
            }
        }
        for &s in &visited {
            if !m.may_halt(s) && !can_progress.contains(&s) {
                violation = Some(Violation {
                    property: "progress",
                    message: "reachable state from which no progress action is ever possible"
                        .to_string(),
                    trace: trace_to(&parent, init, s),
                });
                break;
            }
        }
    }

    Exploration {
        states: visited.len(),
        transitions,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two actors each flip their own bit once.
    struct Diamond;
    impl Model for Diamond {
        fn name(&self) -> &'static str {
            "diamond"
        }
        fn mode(&self) -> &'static str {
            "sound"
        }
        fn actors(&self) -> usize {
            2
        }
        fn actor_name(&self, actor: usize) -> String {
            format!("a{actor}")
        }
        fn init(&self) -> State {
            (0, 0)
        }
        fn steps(&self, s: State, actor: usize) -> Vec<Step> {
            let bit = 1u64 << actor;
            if s.0 & bit == 0 {
                vec![Step {
                    label: "flip",
                    next: (s.0 | bit, 0),
                }]
            } else {
                Vec::new()
            }
        }
        fn violation(&self, _s: State) -> Option<(&'static str, String)> {
            None
        }
        fn is_progress(&self, _label: &str) -> bool {
            true
        }
        fn may_halt(&self, s: State) -> bool {
            s.0 == 0b11
        }
        fn properties(&self) -> &'static [&'static str] {
            &["deadlock-freedom", "progress"]
        }
    }

    #[test]
    fn full_pass_covers_the_diamond() {
        let e = explore(&Diamond);
        assert_eq!(e.states, 4);
        assert_eq!(e.transitions, 4);
        assert!(e.violation.is_none());
    }

    /// A lost-wakeup shape: actor 0 can move to a sink from which the
    /// progress action is never reachable again.
    struct Sink;
    impl Model for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn mode(&self) -> &'static str {
            "sound"
        }
        fn actors(&self) -> usize {
            1
        }
        fn actor_name(&self, _actor: usize) -> String {
            "a0".to_string()
        }
        fn init(&self) -> State {
            (0, 0)
        }
        fn steps(&self, s: State, _actor: usize) -> Vec<Step> {
            match s.0 {
                0 => vec![
                    Step { label: "work", next: (0, 0) },
                    Step { label: "stall", next: (1, 0) },
                ],
                // The sink spins forever without progress.
                _ => vec![Step { label: "spin", next: (1, 0) }],
            }
        }
        fn violation(&self, _s: State) -> Option<(&'static str, String)> {
            None
        }
        fn is_progress(&self, label: &str) -> bool {
            label == "work"
        }
        fn may_halt(&self, _s: State) -> bool {
            false
        }
        fn properties(&self) -> &'static [&'static str] {
            &["progress"]
        }
    }

    #[test]
    fn livelock_is_detected() {
        let e = explore(&Sink);
        let v = e.violation.expect("sink must fail the progress check");
        assert_eq!(v.property, "progress");
        assert_eq!(v.trace, vec!["a0.stall".to_string()]);
    }
}
