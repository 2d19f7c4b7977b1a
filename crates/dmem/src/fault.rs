//! Deterministic fault injection at the verb boundary.
//!
//! A [`FaultPlan`] scripts adversarial behaviour for a group of endpoints:
//! latency spikes, torn multi-line writes (the doorbell batch stalls after N
//! cache lines and heals later — or never), spuriously failed or duplicated
//! atomic completions, and labeled *crash points* that kill a simulated
//! compute node mid-operation (including while it holds a leaf lock word).
//!
//! Determinism is the core contract: every decision is drawn from a
//! per-client xorshift generator seeded from `plan.seed` and the client id,
//! keyed to per-client verb sequence numbers. Replaying the same plan against
//! the same (single-threaded) schedule reproduces the identical
//! [`FaultEvent`] trace, which is what lets a chaos harness print a failing
//! seed and have it reproduce exactly.
//!
//! The engine is wired into [`crate::verbs::Endpoint`]: endpoints created
//! with [`crate::verbs::Endpoint::with_faults`] consult the shared
//! [`FaultSession`] on every verb and at every labeled
//! [`crate::verbs::Endpoint::crash_point`].

use std::sync::Mutex;

use crate::addr::GlobalAddr;

/// Verb classes a [`FaultRule`] can match on.
///
/// Doorbell batches are classified by their element verb (a batched read is
/// [`VerbKind::Read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbKind {
    /// One-sided READ (single or doorbell-batched).
    Read,
    /// One-sided WRITE (single or doorbell-batched).
    Write,
    /// 8-byte compare-and-swap.
    Cas,
    /// Masked compare-and-swap (ConnectX extended atomic).
    MaskedCas,
    /// Fetch-and-add.
    Faa,
    /// Allocation RPC.
    Alloc,
}

/// What a fired [`FaultRule`] does to the verb it hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Adds `ns` of virtual latency to the verb.
    Delay {
        /// Extra nanoseconds charged to the endpoint's virtual clock.
        ns: u64,
    },
    /// Tears a WRITE: only the first `lines` 64-byte cache lines of the
    /// payload reach memory now. With `heal_after = Some(n)` the remainder
    /// lands after the client issues `n` more verbs (a stalled doorbell that
    /// eventually drains); with `None` it never lands (the client must be
    /// about to die for this to be sound).
    TornWrite {
        /// Cache lines that complete immediately.
        lines: usize,
        /// Verbs after which the rest completes; `None` = never.
        heal_after: Option<u64>,
    },
    /// The atomic's completion is dropped: the compare-and-swap does not
    /// execute and the returned "old value" is made to conflict with the
    /// compare, so the caller observes a clean spurious failure and retries.
    FailCas,
    /// The atomic executes twice (a retransmitted completion). Idempotent
    /// for CAS (the second application fails); visible for FAA.
    DuplicateAtomic,
    /// The client panics with [`CrashSignal`] before the verb executes.
    Crash,
}

impl FaultAction {
    fn kind_name(&self) -> &'static str {
        match self {
            FaultAction::Delay { .. } => "delay",
            FaultAction::TornWrite { .. } => "torn-write",
            FaultAction::FailCas => "fail-cas",
            FaultAction::DuplicateAtomic => "duplicate-atomic",
            FaultAction::Crash => "crash",
        }
    }
}

/// A scripted fault: *when* (verb/client/sequence window, probability) and
/// *what* ([`FaultAction`]).
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Name echoed in the trace; pick something grep-able.
    pub label: String,
    /// Verb class to match; `None` matches every verb.
    pub verb: Option<VerbKind>,
    /// Client to match; `None` matches every client.
    pub client: Option<u32>,
    /// Probability the rule fires on a matching verb (1.0 = always).
    pub probability: f64,
    /// The rule only arms once the client's verb sequence reaches this.
    pub after_seq: u64,
    /// Maximum number of times the rule fires across the session.
    pub max_fires: u64,
    /// The injected behaviour.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule that always fires on every matching verb, with no budget.
    pub fn always(label: impl Into<String>, verb: Option<VerbKind>, action: FaultAction) -> Self {
        FaultRule {
            label: label.into(),
            verb,
            client: None,
            probability: 1.0,
            after_seq: 0,
            max_fires: u64::MAX,
            action,
        }
    }
}

/// A deterministic crash at a labeled code location.
///
/// Crash points are semantic positions inside `core` operations (e.g.
/// `"leaf.lock.acquired"`, hit right after a leaf lock word is taken), so a
/// plan can kill a client at a *protocol* state rather than a verb count.
#[derive(Debug, Clone)]
pub struct CrashRule {
    /// Label passed to [`crate::verbs::Endpoint::crash_point`].
    pub label: String,
    /// Client to kill; `None` matches every client.
    pub client: Option<u32>,
    /// The crash fires on the N-th matching hit (1-based) of this label by
    /// this client.
    pub at_hit: u64,
}

/// A complete, seedable fault script shared by all endpoints of a session.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision in the session.
    pub seed: u64,
    /// Probabilistic verb-level rules.
    pub rules: Vec<FaultRule>,
    /// Deterministic labeled crash points.
    pub crashes: Vec<CrashRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed (useful as a builder base).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }
}

/// Payload carried by the panic that kills a crashed client.
///
/// Harnesses catch it with `std::panic::catch_unwind` and downcast to tell a
/// scripted crash from a genuine test failure.
#[derive(Debug, Clone)]
pub struct CrashSignal {
    /// The client that died.
    pub client: u32,
    /// The crash-point label (or rule label for verb-level crashes).
    pub label: String,
}

/// One injected fault, as recorded in the session trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Client the fault was injected into.
    pub client: u32,
    /// That client's verb sequence number (crash points reuse the current
    /// verb sequence without advancing it).
    pub seq: u64,
    /// Short action name (`delay`, `torn-write`, `fail-cas`,
    /// `duplicate-atomic`, `crash`).
    pub action: &'static str,
    /// Label of the rule or crash point that fired.
    pub label: String,
    /// Packed target address of the verb (0 for crash points).
    pub addr: u64,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "client={} seq={} {} [{}] addr={:#x}",
            self.client, self.seq, self.action, self.label, self.addr
        )
    }
}

#[derive(Default)]
struct SessionState {
    trace: Vec<FaultEvent>,
    rule_fires: Vec<u64>,
}

/// Shared state of one fault-injected run: the plan plus the cross-client
/// event trace and per-rule fire budgets.
pub struct FaultSession {
    plan: FaultPlan,
    state: Mutex<SessionState>,
}

impl FaultSession {
    /// Creates a session for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fires = vec![0u64; plan.rules.len()];
        FaultSession {
            plan,
            state: Mutex::new(SessionState {
                trace: Vec::new(),
                rule_fires: fires,
            }),
        }
    }

    /// Returns the plan this session executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Returns a copy of the fault trace so far, in injection order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.state.lock().unwrap().trace.clone()
    }

    /// Formats the trace one event per line (for failure reports).
    pub fn trace_report(&self) -> String {
        let st = self.state.lock().unwrap();
        let mut out = String::new();
        for ev in &st.trace {
            out.push_str(&format!("{ev}\n"));
        }
        out
    }

    fn record(&self, ev: FaultEvent) {
        self.state.lock().unwrap().trace.push(ev);
    }

    /// Attempts to consume one fire of rule `idx`; false when the budget is
    /// exhausted.
    fn try_consume_fire(&self, idx: usize) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.rule_fires[idx] >= self.plan.rules[idx].max_fires {
            return false;
        }
        st.rule_fires[idx] += 1;
        true
    }
}

/// Faults resolved for one verb, applied by the endpoint.
#[derive(Debug, Default)]
pub(crate) struct VerbFaults {
    /// Extra virtual latency to charge.
    pub delay_ns: u64,
    /// `(lines, heal_after)` of a torn write, if one fired.
    pub torn: Option<(usize, Option<u64>)>,
    /// Fail the atomic with a conflicting old value.
    pub fail_cas: bool,
    /// Apply the atomic twice.
    pub duplicate: bool,
    /// `(action, label)` of each fired rule: the endpoint emits one fault
    /// event per entry.
    /// Crash rules never appear here — they unwind out of `on_verb`
    /// (the session trace still records them).
    pub fired: Vec<(&'static str, String)>,
}

/// A write that tore and is scheduled to complete later.
struct PendingHeal {
    due_seq: u64,
    addr: GlobalAddr,
    bytes: Vec<u8>,
}

/// Per-endpoint fault state: deterministic RNG, verb sequence, pending heals
/// and per-crash-point hit counts.
pub(crate) struct FaultClient {
    session: std::sync::Arc<FaultSession>,
    client: u32,
    rng: u64,
    verb_seq: u64,
    heals: Vec<PendingHeal>,
    crash_hits: Vec<u64>,
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultClient {
    pub(crate) fn new(session: std::sync::Arc<FaultSession>, client: u32) -> Self {
        let rng = mix64(session.plan.seed ^ mix64(client as u64 + 1));
        let crash_hits = vec![0u64; session.plan.crashes.len()];
        FaultClient {
            session,
            client,
            rng: if rng == 0 { 1 } else { rng },
            verb_seq: 0,
            heals: Vec::new(),
            crash_hits,
        }
    }

    pub(crate) fn client_id(&self) -> u32 {
        self.client
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*; the state is never zero.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Advances the verb sequence, drains due heals, and resolves which
    /// rules fire on this verb. Panics with [`CrashSignal`] if a crash rule
    /// fires.
    pub(crate) fn on_verb(&mut self, kind: VerbKind, addr: u64) -> (VerbFaults, Vec<PendingWrite>) {
        self.verb_seq += 1;
        let seq = self.verb_seq;
        let due: Vec<PendingWrite> = {
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.heals.len() {
                if self.heals[i].due_seq <= seq {
                    let h = self.heals.swap_remove(i);
                    out.push(PendingWrite {
                        addr: h.addr,
                        bytes: h.bytes,
                    });
                } else {
                    i += 1;
                }
            }
            out
        };

        let mut faults = VerbFaults::default();
        let n_rules = self.session.plan.rules.len();
        for idx in 0..n_rules {
            let rule = &self.session.plan.rules[idx];
            if let Some(v) = rule.verb {
                if v != kind {
                    continue;
                }
            }
            if let Some(c) = rule.client {
                if c != self.client {
                    continue;
                }
            }
            if seq < rule.after_seq {
                continue;
            }
            let probability = rule.probability;
            // The draw is a function of (seed, client, verb history) alone —
            // budgets are part of the plan, so consuming the draw only for
            // armed rules is still deterministic.
            let fire = probability >= 1.0 || self.next_unit() < probability;
            if !fire || !self.session.try_consume_fire(idx) {
                continue;
            }
            let action = self.session.plan.rules[idx].action.clone();
            let label = self.session.plan.rules[idx].label.clone();
            self.session.record(FaultEvent {
                client: self.client,
                seq,
                action: action.kind_name(),
                label: label.clone(),
                addr,
            });
            faults.fired.push((action.kind_name(), label.clone()));
            match action {
                FaultAction::Delay { ns } => faults.delay_ns += ns,
                FaultAction::TornWrite { lines, heal_after } => {
                    faults.torn = Some((lines, heal_after));
                }
                FaultAction::FailCas => faults.fail_cas = true,
                FaultAction::DuplicateAtomic => faults.duplicate = true,
                FaultAction::Crash => {
                    std::panic::panic_any(CrashSignal {
                        client: self.client,
                        label,
                    });
                }
            }
        }
        (faults, due)
    }

    /// Schedules the torn-off remainder of a write to land `after` verbs
    /// from now.
    pub(crate) fn schedule_heal(&mut self, addr: GlobalAddr, bytes: Vec<u8>, after: u64) {
        self.heals.push(PendingHeal {
            due_seq: self.verb_seq + after.max(1),
            addr,
            bytes,
        });
    }

    /// Hit a labeled crash point; panics with [`CrashSignal`] when a crash
    /// rule's hit count is reached.
    pub(crate) fn on_crash_point(&mut self, label: &str) {
        let n = self.session.plan.crashes.len();
        for idx in 0..n {
            let rule = &self.session.plan.crashes[idx];
            if rule.label != label {
                continue;
            }
            if let Some(c) = rule.client {
                if c != self.client {
                    continue;
                }
            }
            self.crash_hits[idx] += 1;
            if self.crash_hits[idx] == rule.at_hit {
                self.session.record(FaultEvent {
                    client: self.client,
                    seq: self.verb_seq,
                    action: "crash",
                    label: label.to_string(),
                    addr: 0,
                });
                std::panic::panic_any(CrashSignal {
                    client: self.client,
                    label: label.to_string(),
                });
            }
        }
    }
}

/// A deferred write produced by a healing torn write.
pub(crate) struct PendingWrite {
    pub addr: GlobalAddr,
    pub bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn plan_with_rule(rule: FaultRule) -> Arc<FaultSession> {
        Arc::new(FaultSession::new(FaultPlan {
            seed: 42,
            rules: vec![rule],
            crashes: vec![],
        }))
    }

    #[test]
    fn deterministic_decisions_by_seed() {
        let mk = || {
            plan_with_rule(FaultRule {
                label: "p50-delay".into(),
                verb: Some(VerbKind::Read),
                client: None,
                probability: 0.5,
                after_seq: 0,
                max_fires: u64::MAX,
                action: FaultAction::Delay { ns: 100 },
            })
        };
        let run = |s: Arc<FaultSession>| {
            let mut c = FaultClient::new(Arc::clone(&s), 3);
            let mut fired = Vec::new();
            for i in 0..200 {
                let (f, _) = c.on_verb(VerbKind::Read, i);
                fired.push(f.fired.len() as u64);
            }
            fired
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a, b);
        assert!(a.iter().sum::<u64>() > 50, "p=0.5 should fire often");
        assert!(a.iter().sum::<u64>() < 150);
    }

    #[test]
    fn rule_filters_by_verb_client_seq_and_budget() {
        let s = plan_with_rule(FaultRule {
            label: "one-shot".into(),
            verb: Some(VerbKind::Cas),
            client: Some(7),
            probability: 1.0,
            after_seq: 3,
            max_fires: 1,
            action: FaultAction::FailCas,
        });
        let mut other = FaultClient::new(Arc::clone(&s), 1);
        assert_eq!(other.on_verb(VerbKind::Cas, 0).0.fired.len(), 0);

        let mut c = FaultClient::new(Arc::clone(&s), 7);
        assert_eq!(c.on_verb(VerbKind::Cas, 0).0.fired.len(), 0); // seq 1 < 3
        assert_eq!(c.on_verb(VerbKind::Read, 0).0.fired.len(), 0); // wrong verb
        assert!(c.on_verb(VerbKind::Cas, 0).0.fail_cas); // seq 3 >= 3: fires
        let trace = s.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "one-shot");
        assert_eq!(trace[0].seq, 3);
        // Budget exhausted: never fires again.
        for _ in 0..10 {
            assert_eq!(c.on_verb(VerbKind::Cas, 0).0.fired.len(), 0);
        }
    }

    #[test]
    fn torn_write_heals_on_schedule() {
        let s = plan_with_rule(FaultRule::always(
            "tear",
            Some(VerbKind::Write),
            FaultAction::TornWrite {
                lines: 1,
                heal_after: Some(2),
            },
        ));
        let mut c = FaultClient::new(Arc::clone(&s), 0);
        let (f, due) = c.on_verb(VerbKind::Write, 0x100);
        assert!(due.is_empty());
        assert_eq!(f.torn, Some((1, Some(2))));
        c.schedule_heal(GlobalAddr::new(0, 0x140), vec![1, 2, 3], 2);
        let (_, due) = c.on_verb(VerbKind::Read, 0);
        assert!(due.is_empty(), "heal not due yet");
        let (_, due) = c.on_verb(VerbKind::Read, 0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].bytes, vec![1, 2, 3]);
    }

    #[test]
    fn crash_point_fires_on_nth_hit() {
        let s = Arc::new(FaultSession::new(FaultPlan {
            seed: 1,
            rules: vec![],
            crashes: vec![CrashRule {
                label: "leaf.lock.acquired".into(),
                client: Some(2),
                at_hit: 2,
            }],
        }));
        let mut c = FaultClient::new(Arc::clone(&s), 2);
        c.on_crash_point("leaf.lock.acquired"); // hit 1: survives
        c.on_crash_point("other.label"); // no match
        let mut c_moved = c;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            c_moved.on_crash_point("leaf.lock.acquired"); // hit 2: dies
        }));
        let payload = r.unwrap_err();
        let sig = payload.downcast_ref::<CrashSignal>().expect("CrashSignal");
        assert_eq!(sig.client, 2);
        assert_eq!(sig.label, "leaf.lock.acquired");
        let trace = s.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].action, "crash");
    }

}
