//! The lock-lease model: 3 abstract clients racing one CHIME lock word.
//!
//! The shared state *is* a lock word packed with the repo's own layout —
//! the bit positions are the public constants of [`chime::lockword`], so if
//! the layout moves, the model moves with it. The lock bit and the lease
//! epoch are exactly the protocol's fields; the argmax field's bits are
//! borrowed to carry the abstract owner id, which the real protocol
//! keeps implicit (the model needs it to *check* mutual exclusion, the
//! protocol only needs it to hold).
//!
//! Transitions per client: the masked-CAS **acquire** (lock bit 0→1,
//! owner stamped), the plain-write **release** (lock and owner cleared),
//! **lease-expire** (the holder dies holding the lock — after this the
//! sound model never lets it act again; that is the lease assumption),
//! and **reclaim** (full-word CAS by another client once the holder is
//! dead: lock stays set, owner re-stamped, epoch bumped — Fig. 8's
//! recovery path). A failed CAS leaves the state unchanged and is
//! therefore not a distinct transition.
//!
//! The `probe:zombie-release` mode deliberately breaks the lease
//! assumption: a dead holder may resurrect and perform its release
//! write. The checker must then find the lease-safety violation (the
//! zombie clears a word that a reclaimer now owns) — proving the
//! properties are checked, not assumed.

use chime::lockword;

use super::{Model, State, Step};

/// Lock-word field positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordLayout {
    /// The lock bit's mask (bit 0 in the documented layout).
    pub lock_bit: u64,
    /// Shift of the owner-carrying field (the argmax field).
    pub owner_shift: u32,
    /// Unshifted mask of the owner field.
    pub owner_mask: u64,
    /// Shift of the lease-epoch field.
    pub epoch_shift: u32,
    /// Unshifted mask of the epoch field.
    pub epoch_mask: u64,
}

impl WordLayout {
    /// The documented layout (Fig. 8–9): lock bit 0, argmax 1..=10,
    /// epoch 56..=63.
    pub fn documented() -> WordLayout {
        WordLayout {
            lock_bit: 0x1,
            owner_shift: 1,
            owner_mask: 0x3FF,
            epoch_shift: 56,
            epoch_mask: 0xFF,
        }
    }

    /// The layout the index ships: the constants of [`chime::lockword`].
    pub fn shipping() -> WordLayout {
        WordLayout {
            lock_bit: lockword::LOCK_BIT,
            owner_shift: lockword::ARGMAX_SHIFT,
            owner_mask: lockword::ARGMAX_MASK,
            epoch_shift: lockword::EPOCH_SHIFT,
            epoch_mask: lockword::EPOCH_MASK,
        }
    }
}

/// Client program counters.
const IDLE: u64 = 0;
const CRITICAL: u64 = 1;
const CRASHED: u64 = 2;

/// The lease epoch is explored modulo this bound (the protocol only ever
/// compares epochs for equality in the reclaim CAS, so a small ring is
/// behavior-preserving and keeps the state space finite).
const EPOCH_BOUND: u64 = 4;

/// Control-word layout of the auxiliary state: 2 bits of pc per client,
/// then the violation record (flag, violator id, owner id at the time).
const VIOLATED_BIT: u64 = 1 << 32;
const VIOLATOR_SHIFT: u32 = 33;
const OWNER_AT_SHIFT: u32 = 37;

/// The lock-lease protocol model.
pub struct LeaseModel {
    /// Field positions ([`WordLayout::shipping`] or
    /// [`WordLayout::documented`]).
    pub layout: WordLayout,
    /// Number of clients (2 or 3).
    pub clients: usize,
    /// Probe mode: dead holders may resurrect and release.
    pub zombie: bool,
}

impl LeaseModel {
    fn locked(&self, w: u64) -> bool {
        w & self.layout.lock_bit != 0
    }
    fn owner(&self, w: u64) -> u64 {
        (w >> self.layout.owner_shift) & self.layout.owner_mask
    }
    fn epoch(&self, w: u64) -> u64 {
        (w >> self.layout.epoch_shift) & self.layout.epoch_mask
    }
    /// Word with lock set, owner stamped, epoch as given.
    fn packed(&self, owner: u64, epoch: u64) -> u64 {
        self.layout.lock_bit
            | ((owner & self.layout.owner_mask) << self.layout.owner_shift)
            | ((epoch & self.layout.epoch_mask) << self.layout.epoch_shift)
    }
    /// Word with lock and owner cleared (the release write).
    fn released(&self, w: u64) -> u64 {
        w & !(self.layout.lock_bit | (self.layout.owner_mask << self.layout.owner_shift))
    }

    fn pc(aux: u64, i: usize) -> u64 {
        (aux >> (2 * i)) & 0b11
    }
    fn with_pc(aux: u64, i: usize, pc: u64) -> u64 {
        (aux & !(0b11 << (2 * i))) | (pc << (2 * i))
    }
}

impl Model for LeaseModel {
    fn name(&self) -> &'static str {
        "lock-lease"
    }
    fn mode(&self) -> &'static str {
        if self.zombie {
            "probe:zombie-release"
        } else {
            "sound"
        }
    }
    fn actors(&self) -> usize {
        self.clients
    }
    fn actor_name(&self, actor: usize) -> String {
        format!("c{}", actor + 1)
    }
    fn init(&self) -> State {
        (0, 0)
    }

    fn steps(&self, (w, aux): State, i: usize) -> Vec<Step> {
        if aux & VIOLATED_BIT != 0 {
            return Vec::new(); // freeze on violation: the trace is the witness
        }
        let id = (i + 1) as u64;
        let mut out = Vec::new();
        match Self::pc(aux, i) {
            IDLE => {
                if !self.locked(w) {
                    // masked_cas(addr, 0, LOCK_BIT, LOCK_BIT, LOCK_BIT)
                    out.push(Step {
                        label: "acquire",
                        next: (self.packed(id, self.epoch(w)), Self::with_pc(aux, i, CRITICAL)),
                    });
                } else {
                    let j = self.owner(w);
                    if j != 0
                        && (j as usize) <= self.clients
                        && Self::pc(aux, j as usize - 1) == CRASHED
                    {
                        // Lease expired: full-word reclaim CAS — lock bit
                        // stays set, owner re-stamped, epoch bumped.
                        let e = (self.epoch(w) + 1) % EPOCH_BOUND;
                        out.push(Step {
                            label: "reclaim",
                            next: (self.packed(id, e), Self::with_pc(aux, i, CRITICAL)),
                        });
                    }
                }
            }
            CRITICAL => {
                out.push(Step {
                    label: "release",
                    next: (self.released(w), Self::with_pc(aux, i, IDLE)),
                });
                out.push(Step {
                    label: "lease-expire",
                    next: (w, Self::with_pc(aux, i, CRASHED)),
                });
            }
            _ => {
                // CRASHED. The sound lease model never lets a dead holder
                // act again; the probe resurrects it for one last write.
                if self.zombie && self.locked(w) {
                    let j = self.owner(w);
                    if j == id {
                        // Nobody reclaimed yet: the late release is benign.
                        out.push(Step {
                            label: "zombie-release",
                            next: (self.released(w), aux),
                        });
                    } else {
                        // The word was reclaimed: a stale-owner write.
                        out.push(Step {
                            label: "zombie-release",
                            next: (
                                self.released(w),
                                aux | VIOLATED_BIT
                                    | (id << VIOLATOR_SHIFT)
                                    | (j << OWNER_AT_SHIFT),
                            ),
                        });
                    }
                }
            }
        }
        out
    }

    fn violation(&self, (w, aux): State) -> Option<(&'static str, String)> {
        if aux & VIOLATED_BIT != 0 {
            let v = (aux >> VIOLATOR_SHIFT) & 0xF;
            let o = (aux >> OWNER_AT_SHIFT) & 0xF;
            return Some((
                "lease-safety",
                format!(
                    "crashed client c{v} released a lock word that c{o} had reclaimed (stale-owner write past the lease)"
                ),
            ));
        }
        let critical: Vec<usize> = (0..self.clients)
            .filter(|&i| Self::pc(aux, i) == CRITICAL)
            .collect();
        if critical.len() > 1 {
            return Some((
                "mutual-exclusion",
                format!(
                    "clients c{} and c{} are both inside the critical section",
                    critical[0] + 1,
                    critical[1] + 1
                ),
            ));
        }
        let o = self.owner(w);
        if self.locked(w) != (o != 0) || o as usize > self.clients {
            return Some((
                "lease-safety",
                format!("lock word inconsistent: locked={} owner={o}", self.locked(w)),
            ));
        }
        None
    }

    fn is_progress(&self, label: &str) -> bool {
        label == "acquire" || label == "reclaim"
    }

    fn may_halt(&self, (_w, aux): State) -> bool {
        aux & VIOLATED_BIT != 0 || (0..self.clients).all(|i| Self::pc(aux, i) == CRASHED)
    }

    fn properties(&self) -> &'static [&'static str] {
        &["mutual-exclusion", "lease-safety", "progress", "deadlock-freedom"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::explore;

    fn model(zombie: bool) -> LeaseModel {
        LeaseModel {
            layout: WordLayout::documented(),
            clients: 3,
            zombie,
        }
    }

    #[test]
    fn sound_lease_verifies() {
        let e = explore(&model(false));
        assert!(e.violation.is_none(), "sound model must verify: {:?}", e.violation);
        assert!(e.states > 20, "expected a non-trivial state space, got {}", e.states);
    }

    #[test]
    fn zombie_probe_finds_the_lease_violation() {
        let e = explore(&model(true));
        let v = e.violation.expect("the zombie probe must refute lease-safety");
        assert_eq!(v.property, "lease-safety");
        // The witness must contain a crash, a reclaim and the stale write.
        let joined = v.trace.join(" ");
        assert!(joined.contains("lease-expire"), "trace: {joined}");
        assert!(joined.contains("reclaim"), "trace: {joined}");
        assert!(joined.contains("zombie-release"), "trace: {joined}");
    }

    #[test]
    fn shipping_layout_matches_documented_positions() {
        assert_eq!(WordLayout::shipping(), WordLayout::documented());
    }

    #[test]
    fn model_words_decode_as_shipping_lock_words() {
        // The model's packed word is a real lock word: the index's own
        // decoder reads its lock bit, owner (argmax) and epoch back.
        let m = LeaseModel { layout: WordLayout::shipping(), clients: 3, zombie: false };
        for (owner, epoch) in [(0, 0), (1, 3), (2, 1), (lockword::ARGMAX_MASK, 0xFF)] {
            let w = lockword::LockWord(m.packed(owner, epoch));
            assert!(w.locked());
            assert_eq!((w.argmax() as u64, w.epoch() as u64), (owner, epoch));
            let r = lockword::LockWord(m.released(w.0));
            assert!(!r.locked());
            assert_eq!((r.argmax(), r.epoch() as u64), (0, epoch), "release keeps the epoch");
        }
    }

    #[test]
    fn two_clients_also_verify() {
        let e = explore(&LeaseModel {
            layout: WordLayout::documented(),
            clients: 2,
            zombie: false,
        });
        assert!(e.violation.is_none(), "{:?}", e.violation);
    }
}
