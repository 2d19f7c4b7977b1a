//! The migration model: `part::migrate`'s crash points against recovery.
//!
//! Mirrors the live-migration state machine of `crates/part/src/migrate.rs`
//! step for step: CAS `part_lock`, journal the intent, move K leaves, CAS
//! the root switch, publish the routing change (journal cleared under the
//! lock), release the lock. The migrator can crash at each of the four
//! named crash points (`part.migrate.locked`, `.copied` — once per moved
//! leaf, `.switched`, `.done`), after which the recovery actor replays
//! `recover()`'s decision tree exactly: unlock when nothing was journaled
//! or the publish already happened, abort when the copy never started,
//! roll forward when it had, finish the publish when the switch was
//! already live. A contender actor attempts the lock CAS while it is held
//! and observes `Busy` — the loser path of the single-migrator guarantee.
//!
//! Safety invariants checked on every reachable state:
//!
//! * **routing-integrity** — the switch never makes a tree with missing
//!   leaves authoritative, and routing is never published before the
//!   switch (a CN routed to the new home must find the new tree live);
//! * **journal-discipline** — the journal is never valid while
//!   `part_lock` is free (a journal without its lock would let a second
//!   migrator run over a half-moved partition).
//!
//! The `probe:publish-flip` mode adds the classic ordering bug: publish
//! the routing change while leaves are still unmoved. The checker must
//! refute routing-integrity on that mode — the "reads through the new
//! root lose keys" state becomes reachable.

use super::{Model, State, Step};

/// Leaves to move; two is the smallest count that distinguishes "copy
/// started" from "copy complete" (the recovery decision boundary).
const K: u64 = 2;

// Shared-word bit layout.
const LOCK: u64 = 1 << 0;
const JOURNAL: u64 = 1 << 1;
const COPIED_SHIFT: u32 = 2; // 2 bits, 0..=K
const SWITCHED: u64 = 1 << 4;
const PUBLISHED: u64 = 1 << 5;
const MIG_PC_SHIFT: u32 = 8; // 3 bits
const CONTENDER_PC_SHIFT: u32 = 12; // 1 bit

// Migrator program counters.
const START: u64 = 0;
const LOCKED: u64 = 1;
const COPYING: u64 = 2;
const SWITCHED_PC: u64 = 3;
const PUBLISHED_PC: u64 = 4;
const DONE: u64 = 5;
const CRASHED: u64 = 6;

fn copied(w: u64) -> u64 {
    (w >> COPIED_SHIFT) & 0b11
}
fn with_copied(w: u64, c: u64) -> u64 {
    (w & !(0b11 << COPIED_SHIFT)) | (c << COPIED_SHIFT)
}
fn mig_pc(w: u64) -> u64 {
    (w >> MIG_PC_SHIFT) & 0b111
}
fn with_mig_pc(w: u64, pc: u64) -> u64 {
    (w & !(0b111 << MIG_PC_SHIFT)) | (pc << MIG_PC_SHIFT)
}
fn contender_done(w: u64) -> bool {
    w & (1 << CONTENDER_PC_SHIFT) != 0
}

/// The migration protocol model.
pub struct MigrateModel {
    /// Probe mode: the migrator may publish before the copy completes.
    pub publish_flip: bool,
}

impl Model for MigrateModel {
    fn name(&self) -> &'static str {
        "part-migrate"
    }
    fn mode(&self) -> &'static str {
        if self.publish_flip {
            "probe:publish-flip"
        } else {
            "sound"
        }
    }
    fn actors(&self) -> usize {
        3
    }
    fn actor_name(&self, actor: usize) -> String {
        ["migrator", "contender", "recovery"][actor].to_string()
    }
    fn init(&self) -> State {
        (0, 0)
    }

    fn steps(&self, (w, _aux): State, actor: usize) -> Vec<Step> {
        let mut out = Vec::new();
        let step = |label, w2| Step { label, next: (w2, 0) };
        match actor {
            // The migrator walks the numbered steps of `migrate()`; each
            // crash point from the source is a `crash-*` action.
            0 => match mig_pc(w) {
                START if w & LOCK == 0 => {
                    out.push(step("lock", with_mig_pc(w | LOCK, LOCKED)));
                }
                LOCKED => {
                    out.push(step("journal", with_mig_pc(w | JOURNAL, COPYING)));
                    out.push(step("crash-locked", with_mig_pc(w, CRASHED)));
                }
                COPYING => {
                    if copied(w) < K {
                        out.push(step("copy-leaf", with_copied(w, copied(w) + 1)));
                        if self.publish_flip {
                            // The ordering bug: routing goes live while
                            // leaves are still on the old tree.
                            out.push(step(
                                "publish-early",
                                with_mig_pc((w | SWITCHED | PUBLISHED) & !JOURNAL, PUBLISHED_PC),
                            ));
                        }
                    } else {
                        out.push(step("switch", with_mig_pc(w | SWITCHED, SWITCHED_PC)));
                    }
                    out.push(step("crash-copied", with_mig_pc(w, CRASHED)));
                }
                SWITCHED_PC => {
                    out.push(step("publish", with_mig_pc((w | PUBLISHED) & !JOURNAL, PUBLISHED_PC)));
                    out.push(step("crash-switched", with_mig_pc(w, CRASHED)));
                }
                PUBLISHED_PC => {
                    out.push(step("unlock", with_mig_pc(w & !LOCK, DONE)));
                    out.push(step("crash-done", with_mig_pc(w, CRASHED)));
                }
                _ => {}
            },
            // The contender attempts the lock CAS while it is held and
            // takes the `MigrateError::Busy` exit.
            1 => {
                if !contender_done(w) && w & LOCK != 0 {
                    out.push(step("lock-busy", w | (1 << CONTENDER_PC_SHIFT)));
                }
            }
            // Recovery replays `recover()`'s decision tree, one atomic
            // action, only once the migrator is dead.
            _ => {
                if mig_pc(w) == CRASHED {
                    let finish = |w2: u64| with_mig_pc(w2 & !LOCK, DONE);
                    if w & SWITCHED != 0 && w & PUBLISHED == 0 {
                        out.push(step("recover-finish", finish((w | PUBLISHED) & !JOURNAL)));
                    } else if w & JOURNAL != 0 && copied(w) > 0 {
                        out.push(step(
                            "recover-roll-forward",
                            finish(with_copied(w | SWITCHED | PUBLISHED, K) & !JOURNAL),
                        ));
                    } else if w & JOURNAL != 0 {
                        out.push(step("recover-abort", finish(w & !JOURNAL)));
                    } else {
                        out.push(step("recover-unlock", finish(w)));
                    }
                }
            }
        }
        out
    }

    fn violation(&self, (w, _aux): State) -> Option<(&'static str, String)> {
        if w & SWITCHED != 0 && copied(w) < K {
            return Some((
                "routing-integrity",
                format!(
                    "root switched with {} of {K} leaves copied — reads through the new root lose keys",
                    copied(w)
                ),
            ));
        }
        if w & PUBLISHED != 0 && w & SWITCHED == 0 {
            return Some((
                "routing-integrity",
                "routing published before the root switch".to_string(),
            ));
        }
        if w & LOCK == 0 && w & JOURNAL != 0 {
            return Some((
                "journal-discipline",
                "migration journal valid while part_lock is free".to_string(),
            ));
        }
        None
    }

    fn is_progress(&self, label: &str) -> bool {
        label == "unlock" || label.starts_with("recover")
    }

    fn may_halt(&self, (w, _aux): State) -> bool {
        mig_pc(w) == DONE
    }

    fn properties(&self) -> &'static [&'static str] {
        &["routing-integrity", "journal-discipline", "progress", "deadlock-freedom"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::explore;

    #[test]
    fn sound_migration_verifies() {
        let e = explore(&MigrateModel { publish_flip: false });
        assert!(e.violation.is_none(), "sound model must verify: {:?}", e.violation);
        assert!(e.states > 20, "expected all crash/recovery paths, got {}", e.states);
    }

    #[test]
    fn publish_flip_probe_loses_keys() {
        let e = explore(&MigrateModel { publish_flip: true });
        let v = e.violation.expect("the probe must refute routing-integrity");
        assert_eq!(v.property, "routing-integrity");
        assert!(
            v.trace.iter().any(|s| s.contains("publish-early")),
            "witness must pass through the reordered publish: {:?}",
            v.trace
        );
    }

    #[test]
    fn every_crash_point_recovers() {
        // All four crash labels and all four recovery outcomes must be
        // reachable (the progress check in `explore` separately proves
        // every crashed state leads back to DONE).
        let m = MigrateModel { publish_flip: false };
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![m.init()];
        let mut labels = std::collections::BTreeSet::new();
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            for actor in 0..m.actors() {
                for st in m.steps(s, actor) {
                    labels.insert(st.label);
                    stack.push(st.next);
                }
            }
        }
        for l in ["crash-locked", "crash-copied", "crash-switched", "crash-done"] {
            assert!(labels.contains(l), "crash point {l} unreachable");
        }
        for l in ["recover-unlock", "recover-abort", "recover-roll-forward", "recover-finish"] {
            assert!(labels.contains(l), "recovery outcome {l} unreachable");
        }
    }
}
