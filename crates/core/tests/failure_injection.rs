//! Failure injection: crafted torn/intermediate remote states that the
//! three-level optimistic synchronization must refuse to return.
//!
//! A "stalled writer" is simulated by writing an inconsistent intermediate
//! image directly through the substrate (bypassing the index protocol),
//! letting a reader observe it, and then completing the write. The reader
//! must block in its retry loop while the state is torn and return the
//! correct value once it heals — never a torn result.

#![allow(clippy::disallowed_methods, reason = "the reader must spin on a real stall")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chime::hopscotch::build_table;
use chime::layout::LeafLayout;
use chime::leaf::{Fetches, LeafMeta, LeafOps, SpecRead};
use dmem::node::RESERVED_BYTES;
use dmem::versioned::{pack_ver, Layout};
use dmem::{Endpoint, GlobalAddr, Pool};

fn ops() -> LeafOps {
    LeafOps::new(LeafLayout {
        span: 64,
        h: 8,
        key_size: 8,
        value_size: 8,
        replication: true,
        fences: false,
        piggyback: true,
    })
}

type Setup = (Arc<Pool>, LeafOps, GlobalAddr, Vec<(u64, Vec<u8>)>);

fn setup(n: u64) -> Setup {
    let pool = Pool::with_defaults(1, 4 << 20);
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let ops = ops();
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let items: Vec<(u64, Vec<u8>)> = (1..=n).map(|k| (k * 3, k.to_le_bytes().to_vec())).collect();
    let w = build_table(64, 8, 8, &items).unwrap();
    let meta = LeafMeta {
        sibling: GlobalAddr::NULL,
        valid: true,
        fences: None,
    };
    ops.write_new(&mut ep, addr, &w, &meta);
    (pool, ops, addr, items)
}

/// Overwrites one entry's version byte with a mismatching NV, simulating a
/// node write stalled after touching only part of the node.
fn tear_nv(pool: &Arc<Pool>, ops: &LeafOps, addr: GlobalAddr, entry: usize) -> Vec<u8> {
    let layout: Layout = ops.layout.versioned();
    let off = ops.layout.entry_off(entry);
    let p = layout.phys_of(off);
    let mut ep = Endpoint::new(Arc::clone(pool));
    let mut orig = vec![0u8; 1];
    ep.read(addr.add(p as u64), &mut orig);
    ep.write(addr.add(p as u64), &[pack_ver(0xA, 0)]);
    orig
}

#[test]
fn reader_waits_out_torn_nv_and_returns_correct_value() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, target_val) = items[10].clone();
    // Find the entry index so we can tear exactly the fetched range.
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key).unwrap();
    // Tear the entry: a stalled node write bumped this NV only.
    let orig = tear_nv(&pool, &ops, addr, idx);
    let healed = Arc::new(AtomicBool::new(false));
    let reader = {
        let pool = Arc::clone(&pool);
        let healed = Arc::clone(&healed);
        std::thread::spawn(move || {
            let mut ep = Endpoint::new(pool);
            let (mut reads, mut value) = (Fetches::default(), Vec::new());
            let r = ops.read_neighborhood(&mut ep, addr, target_key, &mut reads, &mut value);
            // By the time the read validates, the state must be healed.
            assert!(
                healed.load(Ordering::SeqCst),
                "reader returned from a torn state"
            );
            r.found.expect("key present");
            value
        })
    };
    // Let the reader spin on the torn state, then heal it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!reader.is_finished(), "reader must retry while torn");
    healed.store(true, Ordering::SeqCst);
    let layout = ops.layout.versioned();
    let p = layout.phys_of(ops.layout.entry_off(idx));
    let mut ep = Endpoint::new(Arc::clone(&pool));
    ep.write(addr.add(p as u64), &orig);
    assert_eq!(reader.join().unwrap(), target_val);
}

/// A hop-range write stalled between moving a key and updating its home
/// bitmap: the reused-bitmap check must reject the intermediate state.
#[test]
fn reader_rejects_intermediate_hop_state() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, target_val) = items[5].clone();
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key).unwrap();
    let home = dmem::hash::home_entry(target_key, 64);
    // Simulate: the key moved out of `idx` (zeroed) but the home bitmap
    // still claims it — exactly the middle row of the paper's Fig. 7b.
    let layout = ops.layout.versioned();
    let key_off = ops.layout.entry_off(idx) + chime::layout::entry_field::KEY;
    let p = layout.phys_of(key_off);
    let mut orig = vec![0u8; 8];
    ep.read(addr.add(p as u64), &mut orig);
    ep.write(addr.add(p as u64), &0u64.to_le_bytes());
    let healed = Arc::new(AtomicBool::new(false));
    let reader = {
        let pool = Arc::clone(&pool);
        let healed = Arc::clone(&healed);
        std::thread::spawn(move || {
            let mut ep = Endpoint::new(pool);
            let (mut reads, mut value) = (Fetches::default(), Vec::new());
            let r = ops.read_neighborhood(&mut ep, addr, target_key, &mut reads, &mut value);
            assert!(
                healed.load(Ordering::SeqCst),
                "reader accepted a half-hopped state"
            );
            r.found.expect("key present after heal");
            value
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!reader.is_finished(), "bitmap check must force retries");
    healed.store(true, Ordering::SeqCst);
    ep.write(addr.add(p as u64), &orig);
    assert_eq!(reader.join().unwrap(), target_val);
    let _ = home;
}

/// Speculative reads fail closed: a torn entry never yields a value, the
/// caller just falls back to the neighborhood path.
#[test]
fn speculative_read_fails_closed_on_torn_entry() {
    let (pool, ops, addr, items) = setup(40);
    let (target_key, _) = items[3];
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let snap = ops.read_full(&mut ep, addr);
    let (idx, _) = snap.find(target_key).unwrap();
    // Tear the entry's EV (lead byte bumped, line slots not).
    let layout = ops.layout.versioned();
    let off = ops.layout.entry_off(idx);
    let p = layout.phys_of(off);
    let mut orig = vec![0u8; 1];
    ep.read(addr.add(p as u64), &mut orig);
    // Entries straddling a line have interior version slots; bumping only
    // the lead byte makes them disagree.
    let slots = layout.slot_lines(off, off + ops.layout.entry_size());
    if slots.is_empty() {
        // Entry fits one line: a torn EV is impossible by construction;
        // nothing to inject (that is itself the guarantee).
        return;
    }
    ep.write(addr.add(p as u64), &[pack_ver(0, 0x7)]);
    let (mut reads, mut value) = (Fetches::default(), Vec::new());
    assert_eq!(
        ops.spec_read(&mut ep, addr, idx, target_key, &mut reads, &mut value),
        SpecRead::Torn,
        "speculation must fail closed on EV mismatch"
    );
    ep.write(addr.add(p as u64), &orig);
}

/// A displacement bit at or above H (here H = 8, bit 9) names a key that
/// searches never probe. The whole-leaf read must treat the image as torn
/// and retry until a writer repairs it, not hand out a snapshot in which
/// the key is unreachable.
#[test]
fn whole_leaf_read_retries_on_a_displacement_bit_beyond_h() {
    let (pool, ops, addr, items) = setup(40);
    let meta = LeafMeta {
        sibling: GlobalAddr::NULL,
        valid: true,
        fences: None,
    };
    let key = 1_000_003u64;
    let home = dmem::hash::home_entry(key, 64);
    let mut w = chime::hopscotch::Window::new(64, 8, 8, 0, 64);
    w.set_slot((home + 9) % 64, key, &[7u8; 8], 0, 0);
    w.set_slot(home, 0, &[0u8; 8], 1 << 9, 0);
    let mut ep = Endpoint::new(Arc::clone(&pool));
    ops.write_new(&mut ep, addr, &w, &meta);
    let healed = Arc::new(AtomicBool::new(false));
    let reader = {
        let pool = Arc::clone(&pool);
        let healed = Arc::clone(&healed);
        std::thread::spawn(move || {
            let mut ep = Endpoint::new(pool);
            let snap = ops.read_full(&mut ep, addr);
            assert!(
                healed.load(Ordering::SeqCst),
                "reader accepted a bitmap bit beyond H"
            );
            (snap.items().count(), ep.stats().torn_reads_detected)
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!reader.is_finished(), "the decoder must force retries");
    healed.store(true, Ordering::SeqCst);
    // A node write bumps NV, so a reader racing the repair sees a mixed
    // image as torn rather than as a smaller consistent leaf.
    ops.rewrite_and_unlock(&mut ep, addr, &build_table(64, 8, 8, &items).unwrap(), 0, &meta);
    let (count, torn_reads) = reader.join().unwrap();
    assert_eq!(count, items.len());
    assert!(torn_reads > 0, "the retries must be counted as torn reads");
}
