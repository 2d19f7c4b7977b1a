//! Fault injection composed with the coroutine engine: lanes of one
//! pipelined client absorb verb faults, one lane is killed at a crash
//! point while holding a leaf lock, and the survivors reclaim the stale
//! lock — all of it byte-for-byte reproducible per seed.

use std::panic;
use std::sync::Arc;

use chime::leaf::CRASH_LEAF_LOCKED;
use chime::{Chime, ChimeConfig};
use dmem::{
    CrashRule, CrashSignal, Endpoint, FaultAction, FaultEvent, FaultPlan, FaultRule, FaultSession,
    Pool, RangeIndex, VerbKind,
};
use sched::{Engine, EngineConfig, LaneBody};

const LANES: usize = 4;
const OPS_PER_LANE: u64 = 120;
/// Per-lane disjoint key block (lane l owns [BLOCK*l+1, BLOCK*l+1+OPS); key 0 is reserved).
const BLOCK: u64 = 1_000;
/// One shared key every lane hammers, to force cross-lane lock conflicts
/// (and give survivors a stale lock to reclaim after the crash).
const SHARED_KEY: u64 = 9_999;

/// Suppresses the default panic printout for intentional [`CrashSignal`]
/// deaths while keeping it for real failures.
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

struct PipelinedChaos {
    /// Which lanes died (by index).
    crashed: Vec<usize>,
    /// Final value of every lane-owned key, audited serially afterwards.
    audit: Vec<(u64, Option<Vec<u8>>)>,
    trace: Vec<FaultEvent>,
    reclaimed: u64,
    lock_retries: u64,
    faults: u64,
}

fn run(crash_lane: u32, plan: FaultPlan) -> PipelinedChaos {
    quiet_crash_signals();
    let pool = Pool::with_defaults(1, 256 << 20);
    let cfg = ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        cache_bytes: 1 << 20,
        hotspot_bytes: 0,
        lock_lease_spins: 4,
        ..Default::default()
    };
    let tree = Chime::create(&pool, cfg, 0);
    let cn = tree.new_cn();
    let session = Arc::new(FaultSession::new(plan));

    let mut loader = tree.client(&cn);
    loader.insert(SHARED_KEY, &0u64.to_le_bytes()).unwrap();

    let engine = Engine::new(EngineConfig { lanes: LANES });
    let bodies: Vec<LaneBody<dmem::ClientStats>> = (0..LANES)
        .map(|l| {
            let ep = Endpoint::with_faults(Arc::clone(&pool), Arc::clone(&session), l as u32);
            let mut c = tree.client_with_endpoint(&cn, ep);
            Box::new(move || {
                for i in 0..OPS_PER_LANE {
                    let v = (l as u64 ^ (i << 32)).to_le_bytes();
                    c.insert(BLOCK * l as u64 + i + 1, &v).unwrap();
                    if i % 8 == 0 {
                        c.insert(SHARED_KEY, &v).unwrap();
                    }
                }
                c.stats().clone()
            }) as LaneBody<dmem::ClientStats>
        })
        .collect();
    let net = *pool.net();
    let run = engine.run_client(net, 1, bodies);

    let mut crashed = Vec::new();
    let mut agg = dmem::ClientStats::default();
    for (l, r) in run.lanes.into_iter().enumerate() {
        match r {
            Ok(stats) => agg.merge(&stats),
            Err(payload) => {
                if let Some(msg) = payload.downcast_ref::<String>() {
                    panic!("lane {l} died: {msg}");
                }
                if let Some(msg) = payload.downcast_ref::<&str>() {
                    panic!("lane {l} died: {msg}");
                }
                let sig = payload
                    .downcast_ref::<CrashSignal>()
                    .expect("lane died of something other than an injected crash");
                assert_eq!(sig.client, l as u32, "crash killed the wrong lane");
                crashed.push(l);
            }
        }
    }
    assert_eq!(crashed, vec![crash_lane as usize]);

    // Serial post-mortem audit with a fresh, fault-free client. The dead
    // lane's leaf lock must be reclaimable: these reads and the survivors'
    // earlier inserts prove the tree is not wedged.
    let mut auditor = tree.client(&cn);
    let mut audit = Vec::new();
    for l in 0..LANES as u64 {
        for i in (0..OPS_PER_LANE).step_by(7) {
            let key = BLOCK * l + i + 1;
            audit.push((key, auditor.search(key)));
        }
    }
    audit.push((SHARED_KEY, auditor.search(SHARED_KEY)));
    // Survivor-owned keys must all be present with the exact lane value.
    for l in (0..LANES as u64).filter(|&l| l != crash_lane as u64) {
        for i in 0..OPS_PER_LANE {
            let got = auditor.search(BLOCK * l + i + 1);
            assert_eq!(
                got,
                Some((l ^ (i << 32)).to_le_bytes().to_vec()),
                "survivor lane {l} lost key {i}"
            );
        }
    }

    PipelinedChaos {
        crashed,
        audit,
        trace: session.trace(),
        reclaimed: agg.stale_locks_reclaimed,
        lock_retries: agg.lock_retries,
        faults: agg.faults_injected,
    }
}

/// A crash rule kills lane 1 at the leaf-lock crash point mid-run; verb
/// faults (read delays, spuriously failing lock CASes) fire throughout.
/// The engine must surface the death as that lane's result, the other
/// lanes must finish their schedules, and the run must replay exactly.
#[test]
fn a_lane_crash_under_verb_faults_leaves_survivors_consistent() {
    let plan = || {
        let mut p = FaultPlan::seeded(0xFACE);
        p.crashes.push(CrashRule {
            label: CRASH_LEAF_LOCKED.to_string(),
            client: Some(1),
            at_hit: 40,
        });
        p.rules.push(FaultRule {
            probability: 0.05,
            ..FaultRule::always("read-spike", Some(VerbKind::Read), FaultAction::Delay { ns: 40_000 })
        });
        p.rules.push(FaultRule {
            probability: 0.15,
            ..FaultRule::always(
                "lock-cas-fails",
                Some(VerbKind::MaskedCas),
                FaultAction::FailCas,
            )
        });
        p.rules.push(FaultRule {
            probability: 0.10,
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
    let a = run(1, plan());
    assert!(a.faults > 0, "verb faults must actually fire");
    assert!(
        a.trace.iter().any(|e| e.action == "torn-write"),
        "torn writes must fire under pipelined lanes"
    );
    assert!(a.lock_retries > 0, "lanes contending on the shared key must retry");
    assert!(
        a.trace.iter().any(|e| e.action == "crash" && e.label == CRASH_LEAF_LOCKED),
        "crash must appear in the fault trace"
    );

    let b = run(1, plan());
    assert_eq!(a.trace, b.trace, "same seed must replay the same fault trace");
    assert_eq!(a.audit, b.audit, "same seed must converge to the same tree");
    assert_eq!(a.crashed, b.crashed);
    assert_eq!((a.reclaimed, a.lock_retries, a.faults), (b.reclaimed, b.lock_retries, b.faults));
}
