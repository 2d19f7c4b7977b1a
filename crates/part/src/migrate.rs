//! Live partition migration with crash-safe recovery.
//!
//! Moving partition `p` from MN `a` to MN `b` rebuilds its tree on `b`
//! while point operations keep flowing:
//!
//! 1. **lock** — CAS `part_lock` 0→1 (single migrator cluster-wide), then
//!    zero the scratch slot and journal the intent `(p, old_root, b)` in
//!    one atomic 32-byte write;
//! 2. **build + copy** — bootstrap an empty tree pinned to `b` under the
//!    scratch slot, then move leaves left→right with
//!    [`chime::ChimeClient::move_leaf_into`]: each source leaf is locked,
//!    drained into the new tree, and retired behind a forwarding tombstone
//!    naming the new tree's current root. In-flight reads, updates and
//!    deletes that land on a tombstone chase the forward; inserts and
//!    scans instead retry through the (still-old) live root slot — an
//!    insert that split in the new tree would up-propagate pivots through
//!    the *old* root slot, and a scan following a forward would silently
//!    skip unmoved leaves;
//! 3. **switch** — CAS the partition's live root slot `old_root → new
//!    root`: the new tree becomes authoritative in one verb;
//! 4. **publish** — bump `route_epoch`, rewrite the partition's home word,
//!    zero the journal, release `part_lock`. CNs notice the epoch on their
//!    next check and re-pin allocators; until then they run with stale
//!    placement, never stale data.
//!
//! Each step ends at a named crash point. [`recover`] replays a crashed
//! migration from the journal: roll forward when the copy started (moves
//! are idempotent — tombstoned leaves are skipped, inserts upsert), abort
//! when it had not, finish the publish when the switch already happened.

use chime::{Chime, ChimeClient};
use dmem::{Endpoint, Event, GlobalAddr, IndexError, RangeIndex};

use crate::layout;
use crate::router::Cluster;

/// Crash point: `part_lock` acquired, nothing journaled yet.
pub const CRASH_MIGRATE_LOCKED: &str = "part.migrate.locked";
/// Crash point: fires after *each* leaf is moved (select one via `at_hit`).
pub const CRASH_MIGRATE_COPIED: &str = "part.migrate.copied";
/// Crash point: live root slot switched, routing not yet published.
pub const CRASH_MIGRATE_SWITCHED: &str = "part.migrate.switched";
/// Crash point: routing published and journal cleared, lock still held.
pub const CRASH_MIGRATE_DONE: &str = "part.migrate.done";

/// Why a migration did not run.
#[derive(Debug)]
pub enum MigrateError {
    /// Another migrator holds `part_lock`.
    Busy,
    /// Copying failed (e.g. the destination MN ran out of memory). The
    /// lock and journal are left in place for [`recover`] to roll the
    /// migration forward once the cause clears.
    Index(IndexError),
}

/// What a completed migration did.
#[derive(Debug, Clone, Copy)]
pub struct MigrationReport {
    /// The migrated partition.
    pub part: usize,
    /// Destination memory node.
    pub target: u16,
    /// Leaves moved (tombstoned source leaves are skipped, not counted).
    pub leaves: u64,
    /// Items moved.
    pub items: u64,
    /// The retired root of the source tree.
    pub old_root: GlobalAddr,
    /// The published root of the destination tree.
    pub new_root: GlobalAddr,
}

/// How [`recover`] resolved the on-disk migration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// `part_lock` was free: no migration was in flight.
    Clean,
    /// Lock held but nothing journaled (crash at lock or after publish):
    /// released the lock.
    Unlocked,
    /// Journaled but the copy never started: cleared the journal and
    /// released the lock; the source tree stays authoritative.
    Aborted,
    /// Copy had started: re-drove the moves, switched and published.
    RolledForward,
    /// Switch already done: finished the publish and released the lock.
    Finished,
}

/// Emits a control-plane note on both the control endpoint (at its clock)
/// and the source client (at the later of the two clocks, since the copy
/// advances `src` while `ctl` stands still): each lands in that endpoint's
/// time series and flight ring. The anomaly detector pairs
/// `migrate.locked` / `migrate.published` notes to measure each
/// migration's lock-to-publish interval.
fn note_step(ctl: &mut Endpoint, src: &mut ChimeClient, label: &str) {
    let note = || Event::Note { label: label.to_string() };
    ctl.emit(ctl.clock_ns(), note());
    let t = ctl.clock_ns().max(src.clock_ns());
    src.endpoint_mut().emit(t, note());
}

/// The migration journal: a 32-byte record in MN 0's reserved region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Journal {
    valid: u64,
    part: u64,
    old_root: u64,
    target: u64,
}

impl Journal {
    fn read(ep: &mut Endpoint) -> Journal {
        let mut b = [0u8; 32];
        ep.read(layout::journal_addr(), &mut b);
        let w = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        Journal {
            valid: w(0),
            part: w(1),
            old_root: w(2),
            target: w(3),
        }
    }

    fn write(&self, ep: &mut Endpoint) {
        let mut b = [0u8; 32];
        for (i, v) in [self.valid, self.part, self.old_root, self.target]
            .into_iter()
            .enumerate()
        {
            b[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        ep.write(layout::journal_addr(), &b);
    }

    fn clear(ep: &mut Endpoint) {
        ep.write(layout::journal_addr(), &[0u8; 32]);
    }
}

/// Proof that the control endpoint holds `part_lock`, which
/// `publish_routing` takes. Its field is private to this module, where
/// only the winning CAS of [`migrate`] and [`recover`]'s takeover of a lock
/// a crashed migrator left held construct it.
///
/// ```compile_fail,E0423
/// let forged = part::migrate::PartLockHeld(());
/// ```
///
/// Nor can a holder duplicate it past the lock's release:
///
/// ```compile_fail,E0599
/// fn keep(held: &part::migrate::PartLockHeld) -> part::migrate::PartLockHeld {
///     held.clone()
/// }
/// ```
pub struct PartLockHeld(());

/// Publishes the routing-table change of a switched migration under
/// `part_lock` (checked as well): the `route_epoch` bump, the home-word
/// rewrite and the journal clear all happen under it, so a CN that sees
/// the new epoch always reads the new home word.
fn publish_routing(ctl: &mut Endpoint, _held: &PartLockHeld, part: usize, target: u16) {
    let mut lock = [0u8; 8];
    ctl.read(layout::part_lock_addr(), &mut lock);
    assert_eq!(u64::from_le_bytes(lock), 1, "routing published without part_lock held");
    ctl.write(layout::home_addr(part), &(target as u64).to_le_bytes());
    ctl.faa(layout::route_epoch_addr(), 1);
    Journal::clear(ctl);
}

/// Moves every live leaf under `old_root` into `dst`'s tree, retiring each
/// behind a forwarding tombstone. Idempotent: a re-drive after a crash
/// skips already-retired leaves and upserts the rest.
fn copy_leaves(
    src: &mut ChimeClient,
    dst: &mut ChimeClient,
    old_root: GlobalAddr,
    ctl: &mut Endpoint,
) -> Result<(u64, u64), IndexError> {
    let (mut leaves, mut items) = (0u64, 0u64);
    for addr in src.leaf_addrs_under(old_root) {
        // Tombstones name the destination's *current* root: late leaves
        // forward straight to the grown tree instead of an older level.
        let fwd = dst.current_root();
        if let Some(moved) = src.move_leaf_into(addr, dst, fwd)? {
            leaves += 1;
            items += moved;
        }
        ctl.crash_point(CRASH_MIGRATE_COPIED);
    }
    Ok((leaves, items))
}

/// Runs one migration of `part` to `target` on the caller's timeline.
/// `ctl` issues the control-word verbs (and hosts the crash points);
/// `src` must be a client of `part`'s tree.
pub fn migrate(
    cluster: &Cluster,
    part: usize,
    target: u16,
    ctl: &mut Endpoint,
    src: &mut ChimeClient,
) -> Result<MigrationReport, MigrateError> {
    let prev = ctl.cas(layout::part_lock_addr(), 0, 1);
    let Some(held) = (prev == 0).then_some(PartLockHeld(())) else {
        return Err(MigrateError::Busy);
    };
    ctl.crash_point(CRASH_MIGRATE_LOCKED);
    note_step(ctl, src, &format!("migrate.locked part={part} dst={target}"));
    let old_root = src.current_root();
    ctl.write(layout::scratch_addr(), &0u64.to_le_bytes());
    Journal {
        valid: 1,
        part: part as u64,
        old_root: old_root.raw(),
        target: target as u64,
    }
    .write(ctl);
    // Build the destination tree pinned to the target MN under the
    // scratch slot; its root becomes live only at the switch CAS.
    let dst_tree = Chime::create_pinned(
        cluster.pool(),
        cluster.config().chime,
        layout::SCRATCH_SLOT,
        target,
    );
    let dst_cn = dst_tree.new_cn();
    let mut dst = dst_tree.client_pinned(&dst_cn, target);
    dst.sync_clock_to(src.clock_ns().max(ctl.clock_ns()));
    let (leaves, items) =
        copy_leaves(src, &mut dst, old_root, ctl).map_err(MigrateError::Index)?;
    note_step(
        ctl,
        src,
        &format!("migrate.copied part={part} dst={target} leaves={leaves} items={items}"),
    );
    let new_root = dst.current_root();
    let live = ctl.cas(layout::tree_slot_addr(part), old_root.raw(), new_root.raw());
    assert_eq!(live, old_root.raw(), "live root changed under part_lock");
    ctl.crash_point(CRASH_MIGRATE_SWITCHED);
    publish_routing(ctl, &held, part, target);
    note_step(ctl, src, &format!("migrate.published part={part} dst={target}"));
    ctl.crash_point(CRASH_MIGRATE_DONE);
    ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
    let span = src.clock_ns().max(dst.clock_ns());
    src.sync_clock_to(span);
    if span > ctl.clock_ns() {
        ctl.advance_clock(span - ctl.clock_ns());
    }
    Ok(MigrationReport {
        part,
        target,
        leaves,
        items,
        old_root,
        new_root,
    })
}

/// Replays whatever migration state a crash left behind. `src` may be any
/// client sharing the cluster's tree geometry (it walks the old tree and
/// drives leaf moves); `ctl` issues the control-word verbs.
pub fn recover(
    cluster: &Cluster,
    ctl: &mut Endpoint,
    src: &mut ChimeClient,
) -> RecoveryOutcome {
    let mut word = [0u8; 8];
    ctl.read(layout::part_lock_addr(), &mut word);
    if u64::from_le_bytes(word) == 0 {
        return RecoveryOutcome::Clean;
    }
    // A crashed migrator left `part_lock` held: recovery takes it over.
    let held = PartLockHeld(());
    let j = Journal::read(ctl);
    if j.valid == 0 {
        // Crash at the lock step or after publish: nothing (left) to redo.
        ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
        return RecoveryOutcome::Unlocked;
    }
    let part = j.part as usize;
    let old_root = GlobalAddr::from_raw(j.old_root);
    let target = j.target as u16;
    ctl.read(layout::tree_slot_addr(part), &mut word);
    let live = u64::from_le_bytes(word);
    if live == old_root.raw() {
        ctl.read(layout::scratch_addr(), &mut word);
        if u64::from_le_bytes(word) == 0 {
            // Journaled but the destination tree was never bootstrapped:
            // the source tree is untouched, so abort.
            Journal::clear(ctl);
            ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
            return RecoveryOutcome::Aborted;
        }
        // The copy started: re-drive it. `leaf_addrs_under` walks level-1
        // entries, which tombstones do not sever, so the enumeration is
        // complete even though the leaf sibling chain is cut.
        let dst_tree = Chime::open(cluster.pool(), cluster.config().chime, layout::SCRATCH_SLOT);
        let dst_cn = dst_tree.new_cn();
        let mut dst = dst_tree.client_pinned(&dst_cn, target);
        dst.sync_clock_to(src.clock_ns().max(ctl.clock_ns()));
        let _ = copy_leaves(src, &mut dst, old_root, ctl)
            .expect("roll-forward copy failed");
        let new_root = dst.current_root();
        let prev = ctl.cas(layout::tree_slot_addr(part), old_root.raw(), new_root.raw());
        assert_eq!(prev, old_root.raw(), "live root changed under part_lock");
        publish_routing(ctl, &held, part, target);
        ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
        src.sync_clock_to(dst.clock_ns().max(ctl.clock_ns()));
        return RecoveryOutcome::RolledForward;
    }
    // Switched but not published: the new tree is live; finish the
    // routing publish.
    publish_routing(ctl, &held, part, target);
    ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
    RecoveryOutcome::Finished
}
