//! Deterministic multi-client chaos runs under injected faults.
//!
//! A seeded scheduler drives several clients (each on its own CN, each with
//! its own fault-engine RNG stream) through randomized operation schedules
//! against one tree, checking every result against an in-memory oracle.
//! Crash rules kill clients at labeled crash points — including while they
//! hold a leaf lock — and surviving clients must reclaim the stale lock via
//! the lease epoch. Everything is a pure function of the seed: a failure
//! prints the seed and the verb-level fault trace needed to replay it: re-run
//! the test, or call `run()` with the printed seed, and the identical trace
//! fires again. `make chaos` runs a fixed-seed smoke of this suite.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use chime::leaf::CRASH_LEAF_LOCKED;
use chime::{Chime, ChimeClient, ChimeConfig};
use dmem::{
    CrashRule, CrashSignal, Endpoint, FaultAction, FaultEvent, FaultPlan, FaultRule, FaultSession,
    Pool, RangeIndex, VerbKind,
};

const KEYS: u64 = 40;

/// xorshift64* scheduler RNG, independent of the fault engine's streams.
struct SchedRng(u64);

impl SchedRng {
    fn new(seed: u64) -> Self {
        SchedRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Suppresses the default panic printout for intentional [`CrashSignal`]
/// panics (the simulated client deaths) while keeping it for real failures.
fn quiet_crash_signals() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                default(info);
            }
        }));
    });
}

struct RunResult {
    /// Final tree contents as observed by a surviving client's scan.
    items: Vec<(u64, Vec<u8>)>,
    trace: Vec<FaultEvent>,
    crashed: Vec<u32>,
    reclaimed: u64,
    torn_detected: u64,
    op_retries: u64,
    lock_retries: u64,
    faults: u64,
}

fn chaos_cfg(lease_spins: u32) -> ChimeConfig {
    ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        cache_bytes: 1 << 20,
        hotspot_bytes: 1 << 16,
        lock_lease_spins: lease_spins,
        ..Default::default()
    }
}

fn val(key: u64, step: usize) -> Vec<u8> {
    (key ^ ((step as u64) << 32)).to_le_bytes().to_vec()
}

/// Runs one deterministic chaos schedule; panics (with seed + fault trace)
/// on any oracle violation.
fn run(seed: u64, steps: usize, n_clients: usize, plan: FaultPlan, lease_spins: u32) -> RunResult {
    quiet_crash_signals();
    let pool = Pool::with_defaults(1, 256 << 20);
    let tree = Chime::create(&pool, chaos_cfg(lease_spins), 0);
    let session = Arc::new(FaultSession::new(plan));
    let mut clients: Vec<ChimeClient> = (0..n_clients)
        .map(|i| {
            let cn = tree.new_cn();
            let ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), i as u32);
            tree.client_with_endpoint(&cn, ep)
        })
        .collect();
    let mut alive = vec![true; n_clients];
    let mut crashed: Vec<u32> = Vec::new();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = SchedRng::new(seed);

    macro_rules! check {
        ($cond:expr, $($msg:tt)*) => {
            if !$cond {
                eprintln!(
                    "chaos violation (seed {seed}); fault trace:\n{}",
                    session.trace_report()
                );
                panic!($($msg)*);
            }
        };
    }

    for step in 0..steps {
        let live: Vec<usize> = (0..n_clients).filter(|&i| alive[i]).collect();
        if live.is_empty() {
            break;
        }
        let ci = live[rng.below(live.len() as u64) as usize];
        let key = 1 + rng.below(KEYS);
        let v = val(key, step);
        let op = rng.below(10);
        let c = &mut clients[ci];
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| match op {
            0..=3 => {
                c.insert(key, &v).unwrap();
                (Some(v.clone()), None, None)
            }
            4..=5 => {
                let did = c.update(key, &v).unwrap();
                (did.then(|| v.clone()), Some(did), None)
            }
            6..=7 => {
                let did = c.delete(key).unwrap();
                (None, Some(did), None)
            }
            8 => (None, None, Some(c.search(key))),
            _ => {
                let mut out = Vec::new();
                c.scan(key, 8, &mut out);
                (None, None, Some(out.first().map(|(_, v)| v.clone())))
            }
        }));
        match outcome {
            Ok((wrote, did, read)) => match op {
                0..=3 => {
                    oracle.insert(key, wrote.unwrap());
                }
                4..=5 => {
                    let expect = oracle.contains_key(&key);
                    check!(did == Some(expect), "update({key}) hit = {did:?}, oracle {expect}");
                    if expect {
                        oracle.insert(key, v);
                    }
                }
                6..=7 => {
                    let expect = oracle.remove(&key).is_some();
                    check!(did == Some(expect), "delete({key}) hit = {did:?}, oracle {expect}");
                }
                8 => {
                    let expect = oracle.get(&key).cloned();
                    check!(read == Some(expect.clone()), "search({key}) = {read:?}, oracle {expect:?}");
                }
                _ => {
                    let expect = oracle.range(key..).next().map(|(_, v)| v.clone());
                    check!(
                        read == Some(expect.clone()),
                        "scan({key}) first = {read:?}, oracle {expect:?}"
                    );
                }
            },
            Err(payload) => {
                let Some(sig) = payload.downcast_ref::<CrashSignal>() else {
                    eprintln!(
                        "chaos violation (seed {seed}); fault trace:\n{}",
                        session.trace_report()
                    );
                    panic::resume_unwind(payload);
                };
                assert_eq!(sig.client, ci as u32, "crash killed the wrong client");
                alive[ci] = false;
                crashed.push(ci as u32);
                // Crash points fire strictly before a mutation publishes, so
                // the crashed op must not have taken effect. A survivor's
                // lock-free read is the ground truth for the one touched key.
                if let Some(&s) = (0..n_clients).find(|&i| alive[i]).as_ref() {
                    let truth = clients[s].search(key);
                    let expect = oracle.get(&key).cloned();
                    check!(
                        truth == expect,
                        "crashed op on key {key} leaked an effect: tree {truth:?}, oracle {expect:?}"
                    );
                }
            }
        }
    }

    // Final audit by the first survivor: every key, then a full scan.
    if let Some(s) = (0..n_clients).find(|&i| alive[i]) {
        for key in 1..=KEYS {
            let got = clients[s].search(key);
            let expect = oracle.get(&key).cloned();
            check!(got == expect, "final search({key}) = {got:?}, oracle {expect:?}");
        }
        let mut out = Vec::new();
        clients[s].scan(1, oracle.len() + KEYS as usize, &mut out);
        let expect: Vec<(u64, Vec<u8>)> =
            oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
        check!(out == expect, "final scan diverged from oracle");
    }

    let mut agg = dmem::ClientStats::default();
    for c in &clients {
        agg.merge(c.stats());
    }
    RunResult {
        items: oracle.into_iter().collect(),
        trace: session.trace(),
        crashed,
        reclaimed: agg.stale_locks_reclaimed,
        torn_detected: agg.torn_reads_detected,
        op_retries: agg.op_retries,
        lock_retries: agg.lock_retries,
        faults: agg.faults_injected,
    }
}

/// The acceptance scenario: a crash rule kills client 0 at the
/// "leaf.lock.acquired" crash point — it dies holding a leaf lock. The
/// survivors must reclaim the stale lock via the lease epoch, the oracle
/// must pass, and the same seed must reproduce the identical verb-level
/// fault trace on two consecutive runs.
#[test]
fn crash_while_holding_leaf_lock_recovers_and_replays() {
    let plan = || {
        let mut p = FaultPlan::seeded(0xC0FFEE);
        p.crashes.push(CrashRule {
            label: CRASH_LEAF_LOCKED.to_string(),
            client: Some(0),
            at_hit: 5,
        });
        p
    };
    let a = run(7, 400, 3, plan(), 4);
    assert_eq!(a.crashed, vec![0], "client 0 must die at the crash point");
    assert!(
        a.trace.iter().any(|e| e.action == "crash" && e.label == CRASH_LEAF_LOCKED),
        "crash must appear in the fault trace"
    );
    assert!(
        a.reclaimed >= 1,
        "a survivor must reclaim the dead client's leaf lock (got {})",
        a.reclaimed
    );
    assert!(a.lock_retries >= 1);

    // Determinism: an identical run replays the identical fault trace and
    // converges to the identical final state.
    let b = run(7, 400, 3, plan(), 4);
    assert_eq!(a.trace, b.trace, "same seed must replay the same fault trace");
    assert_eq!(a.items, b.items);
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.reclaimed, b.reclaimed);
}

/// Multi-client schedule under retry-visible faults (latency spikes and
/// spuriously failing atomics): the oracle must hold and the injected
/// conflicts must surface in the retry counters.
#[test]
fn verb_faults_only_cause_retries() {
    let plan = || {
        let mut p = FaultPlan::seeded(0xBEEF);
        p.rules.push(FaultRule {
            probability: 0.05,
            ..FaultRule::always("read-spike", Some(VerbKind::Read), FaultAction::Delay { ns: 40_000 })
        });
        p.rules.push(FaultRule {
            probability: 0.25,
            ..FaultRule::always(
                "lock-cas-fails",
                Some(VerbKind::MaskedCas),
                FaultAction::FailCas,
            )
        });
        p.rules.push(FaultRule {
            probability: 0.10,
            ..FaultRule::always("cas-fails", Some(VerbKind::Cas), FaultAction::FailCas)
        });
        p
    };
    let a = run(21, 500, 4, plan(), 0);
    assert!(a.crashed.is_empty());
    assert!(a.faults > 0, "faults must actually fire");
    assert!(
        a.lock_retries > 0,
        "failing lock CASes must show up as lock retries"
    );
    let b = run(21, 500, 4, plan(), 0);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.items, b.items);
}

/// Torn multi-line writes that heal a few verbs later: version validation
/// must detect every torn read and the oracle must still hold. Single
/// client, so its own follow-up verbs drain the heals.
#[test]
fn torn_writes_heal_and_are_detected() {
    let plan = || {
        let mut p = FaultPlan::seeded(0xD15C);
        p.rules.push(FaultRule {
            probability: 0.3,
            ..FaultRule::always(
                "torn-write",
                Some(VerbKind::Write),
                FaultAction::TornWrite {
                    lines: 1,
                    heal_after: Some(2),
                },
            )
        });
        p
    };
    let a = run(33, 300, 1, plan(), 0);
    assert!(a.crashed.is_empty());
    assert!(a.faults > 0, "torn writes must actually fire");
    let b = run(33, 300, 1, plan(), 0);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.items, b.items);
    // torn_detected is workload-dependent (reads must race the heal window)
    // but determinism makes it a stable property of the seed.
    assert_eq!(a.torn_detected, b.torn_detected);
}

/// A fault-free schedule is the control: no faults, no crashes, and the
/// backoff-instrumented retry path stays quiet under a single client.
#[test]
fn fault_free_control_run() {
    let a = run(1, 300, 2, FaultPlan::seeded(0), 0);
    assert!(a.crashed.is_empty());
    assert_eq!(a.faults, 0);
    assert!(a.trace.is_empty());
    let b = run(1, 300, 2, FaultPlan::seeded(0), 0);
    assert_eq!(a.items, b.items);
    assert_eq!(a.op_retries, b.op_retries);
}
