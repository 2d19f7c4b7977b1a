use super::*;
use crate::hopscotch::build_table;
use crate::layout::entry_field;
use dmem::node::RESERVED_BYTES;
use dmem::Pool;

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

fn setup() -> (Endpoint, LeafOps, GlobalAddr) {
    let pool = Pool::with_defaults(1, 4 << 20);
    (Endpoint::new(pool), ops(), GlobalAddr::new(0, RESERVED_BYTES))
}

fn meta() -> LeafMeta {
    LeafMeta {
        sibling: GlobalAddr::new(0, 0xBEEF00),
        valid: true,
        fences: None,
    }
}

fn populated(ep: &mut Endpoint, ops: &LeafOps, addr: GlobalAddr, n: u64) -> Vec<(u64, Vec<u8>)> {
    let items: Vec<(u64, Vec<u8>)> =
        (1..=n).map(|k| (k * 7, (k * 7).to_le_bytes().to_vec())).collect();
    let w = build_table(64, 8, 8, &items).unwrap();
    ops.write_new(ep, addr, &w, &meta());
    items
}

/// A neighborhood read through fresh buffers: the metadata, and the found
/// entry's index with its stored value.
fn read_nbh(
    ops: &LeafOps,
    ep: &mut Endpoint,
    addr: GlobalAddr,
    key: u64,
) -> (LeafMeta, Option<(usize, Vec<u8>)>) {
    let mut value = Vec::new();
    let r = ops.read_neighborhood(ep, addr, key, &mut Fetches::default(), &mut value);
    (r.meta, r.found.map(|i| (i, value)))
}

#[test]
fn write_new_then_neighborhood_reads() {
    let (mut ep, ops, addr) = setup();
    let items = populated(&mut ep, &ops, addr, 40);
    for (k, v) in &items {
        let (meta, found) = read_nbh(&ops, &mut ep, addr, *k);
        let (_, got) = found.expect("key must be found");
        assert_eq!(&got, v);
        assert_eq!(meta.sibling.offset(), 0xBEEF00);
        assert!(meta.valid);
    }
    // Absent keys miss cleanly.
    assert!(read_nbh(&ops, &mut ep, addr, 999_999).1.is_none());
}

#[test]
fn full_read_matches_items() {
    let (mut ep, ops, addr) = setup();
    let items = populated(&mut ep, &ops, addr, 40);
    let snap = ops.read_snapshot(&mut ep, addr, &mut Fetches::default());
    let mut got: Vec<(u64, Vec<u8>)> = snap.items().map(|(k, v)| (k, v.to_vec())).collect();
    got.sort();
    let mut want = items.clone();
    want.sort();
    assert_eq!(got, want);
    assert_eq!(snap.max_key(), Some(40 * 7));
    assert_eq!(snap.keys[snap.argmax() as usize], 40 * 7);
}

#[test]
fn lock_piggybacks_vacancy_and_argmax() {
    let (mut ep, ops, addr) = setup();
    populated(&mut ep, &ops, addr, 30);
    let word = ops.lock(&mut ep, addr);
    // 30 of 64 entries used: every group must still report vacancy in
    // aggregate, and argmax must point at the true maximum.
    assert!(ops.vm.first_vacant_group(word, 0).is_some());
    let snap = ops.read_snapshot(&mut ep, addr, &mut Fetches::default());
    assert_eq!(word.argmax(), snap.argmax());
    ops.unlock(&mut ep, addr, word);
    // Lock can be re-acquired after release.
    let w2 = ops.lock(&mut ep, addr);
    ops.unlock(&mut ep, addr, w2);
}

#[test]
fn hop_insert_roundtrip() {
    let (mut ep, ops, addr) = setup();
    populated(&mut ep, &ops, addr, 30);
    let key = 424_242u64;
    let home = home_entry(key, 64);
    let word = ops.lock(&mut ep, addr);
    let mut lr = LockedRead::default();
    assert!(ops.read_hop_window(&mut ep, addr, home, word, &mut lr), "node not full");
    assert_eq!(lr.max_key, Some(30 * 7), "argmax entry piggybacked");
    let empty = lr.w.first_empty_from(home).expect("space available");
    let pos = lr.w.insert(key, &[9u8; 8], empty).unwrap();
    let w = &lr.w;
    let new_word = ops
        .vm
        .recompute(word, w.start(), empty, |i| !w.slot_empty(i))
        .with_argmax(if key > lr.max_key.unwrap() {
            pos as u16
        } else {
            word.argmax()
        });
    lr.write_back(&ops, &mut ep, addr, new_word);
    let (_, found) = read_nbh(&ops, &mut ep, addr, key);
    assert_eq!(found.expect("inserted key readable").1, vec![9u8; 8]);
    // All earlier keys are still readable.
    for k in 1..=30u64 {
        assert!(read_nbh(&ops, &mut ep, addr, k * 7).1.is_some());
    }
}

#[test]
fn spec_read_hit_and_miss() {
    let (mut ep, ops, addr) = setup();
    let items = populated(&mut ep, &ops, addr, 40);
    let (k, v) = &items[3];
    let snap = ops.read_snapshot(&mut ep, addr, &mut Fetches::default());
    let (idx, _) = snap.find(*k).unwrap();
    let (mut reads, mut got) = (Fetches::default(), Vec::new());
    let hit = ops.spec_read(&mut ep, addr, idx, *k, &mut reads, &mut got);
    assert_eq!(hit, SpecRead::Hit);
    assert_eq!(&got, v);
    // Wrong slot: speculation fails, no false positive, and says what the
    // slot holds instead (0 when it is empty).
    let wrong = (idx + 1) % 64;
    let (occupant, ..) = snap.into_window().slot(wrong);
    assert_ne!(occupant, *k);
    assert_eq!(
        ops.spec_read(&mut ep, addr, wrong, *k, &mut reads, &mut got),
        SpecRead::Occupant(occupant)
    );
}

#[test]
fn rewrite_bumps_nv_and_preserves_content() {
    let (mut ep, ops, addr) = setup();
    let items = populated(&mut ep, &ops, addr, 20);
    let snap0 = ops.read_snapshot(&mut ep, addr, &mut Fetches::default());
    let word = ops.lock(&mut ep, addr);
    let _ = word;
    let w = ops.read_snapshot(&mut ep, addr, &mut Fetches::default()).into_window();
    ops.rewrite_and_unlock(&mut ep, addr, &w, snap0.nv, &meta());
    let snap1 = ops.read_snapshot(&mut ep, addr, &mut Fetches::default());
    assert_eq!(snap1.nv, bump(snap0.nv));
    let mut got: Vec<(u64, Vec<u8>)> = snap1.items().map(|(k, v)| (k, v.to_vec())).collect();
    got.sort();
    let mut want = items;
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn no_piggyback_uses_separate_vacancy_word() {
    let pool = Pool::with_defaults(1, 4 << 20);
    let mut ep = Endpoint::new(pool);
    let ops = LeafOps::new(LeafLayout {
        span: 64,
        h: 8,
        key_size: 8,
        value_size: 8,
        replication: true,
        fences: false,
        piggyback: false,
    });
    let addr = GlobalAddr::new(0, RESERVED_BYTES);
    let items: Vec<(u64, Vec<u8>)> = (1..=10).map(|k| (k, vec![k as u8; 8])).collect();
    let w = build_table(64, 8, 8, &items).unwrap();
    ops.write_new(&mut ep, addr, &w, &meta());
    let r0 = ep.stats().reads;
    let word = ops.lock(&mut ep, addr);
    assert_eq!(ep.stats().reads, r0 + 1, "dedicated vacancy READ");
    assert!(ops.vm.first_vacant_group(word, 0).is_some());
    ops.unlock(&mut ep, addr, word);
}

#[test]
fn cyclic_segment_helper() {
    let l = ops().layout;
    assert_eq!(l.cyclic_split(3, 10), ((3, 10), None));
    assert_eq!(l.cyclic_split(60, 2), ((60, 63), Some((0, 2))));
}

// ----- the unified decoder vs the per-byte decoder it replaced ---------------

/// The decoder as it stood before the de-striped view: every byte through
/// `phys_of`, a `Vec` per helper, sixteen bitmap bits whatever H is. Kept
/// verbatim as the oracle of the differential test below.
mod oracle {
    use dmem::hash::home_entry;
    use dmem::versioned::{ev, nv, Layout, LINE, LINE_PAYLOAD};
    use dmem::GlobalAddr;

    use crate::hopscotch::cyc_dist;
    use crate::layout::{entry_field, replica_field, LeafLayout};
    use crate::leaf::LeafMeta;

    pub struct Fetched {
        layout: Layout,
        lstart: usize,
        lend: usize,
        pstart: usize,
        buf: Vec<u8>,
    }

    impl Fetched {
        pub fn from_raw(layout: Layout, lstart: usize, lend: usize, buf: Vec<u8>) -> Self {
            let pstart = layout.phys_start(lstart);
            assert_eq!(buf.len(), layout.phys_of(lend - 1) + 1 - pstart);
            Fetched { layout, lstart, lend, pstart, buf }
        }

        fn get(&self, l: usize) -> u8 {
            assert!(l >= self.lstart && l < self.lend);
            self.buf[self.layout.phys_of(l) - self.pstart]
        }

        fn copy(&self, l: usize, len: usize) -> Vec<u8> {
            (l..l + len).map(|i| self.get(i)).collect()
        }

        fn u64_at(&self, l: usize) -> u64 {
            u64::from_le_bytes(self.copy(l, 8).try_into().unwrap())
        }

        fn u16_at(&self, l: usize) -> u16 {
            u16::from_le_bytes([self.get(l), self.get(l + 1)])
        }

        fn line_ver_slots(&self, lstart: usize, lend: usize) -> Vec<usize> {
            let pstart = self.layout.phys_start(lstart);
            let pend = self.layout.phys_of(lend - 1) + 1;
            let mut v = Vec::new();
            for line in pstart / LINE..=(pend - 1) / LINE {
                let p = line * LINE;
                if p >= pstart && p < pend {
                    v.push(line * LINE_PAYLOAD);
                }
            }
            v
        }

        fn line_versions(&self, a: usize, b: usize) -> Vec<u8> {
            self.line_ver_slots(a, b)
                .iter()
                .map(|&slot| self.buf[(slot / LINE_PAYLOAD) * LINE - self.pstart])
                .collect()
        }

        fn check_nv(&self, object_leads: &[usize]) -> Option<u8> {
            let mut expect: Option<u8> = None;
            let mut probe = |b: u8| -> bool {
                let n = nv(b);
                match expect {
                    None => {
                        expect = Some(n);
                        true
                    }
                    Some(e) => e == n,
                }
            };
            for b in self.line_versions(self.lstart, self.lend) {
                if !probe(b) {
                    return None;
                }
            }
            for &l in object_leads {
                if !probe(self.get(l)) {
                    return None;
                }
            }
            expect
        }

        fn check_ev(&self, a: usize, b: usize) -> bool {
            let lead = ev(self.get(a));
            self.line_versions(a, b).iter().all(|&v| ev(v) == lead)
        }
    }

    pub fn entries_in(l: &LeafLayout, a: usize, b: usize) -> Vec<usize> {
        (0..l.span)
            .filter(|&i| l.entry_off(i) >= a && l.entry_off(i) + l.entry_size() <= b)
            .collect()
    }

    pub fn replicas_in(l: &LeafLayout, a: usize, b: usize) -> Vec<usize> {
        if !l.replication {
            return if a == 0 { vec![0] } else { vec![] };
        }
        (0..l.span / l.h)
            .filter(|&blk| l.replica_off(blk) >= a && l.replica_off(blk) + l.replica_size() <= b)
            .collect()
    }

    pub fn pieces_nv(l: &LeafLayout, pieces: &[Fetched]) -> Option<u8> {
        let mut expect = None;
        for p in pieces {
            let mut leads: Vec<usize> =
                entries_in(l, p.lstart, p.lend).iter().map(|&i| l.entry_off(i)).collect();
            for b in replicas_in(l, p.lstart, p.lend) {
                leads.push(l.replica_off(b));
            }
            let nv = p.check_nv(&leads)?;
            match expect {
                None => expect = Some(nv),
                Some(e) if e != nv => return None,
                _ => {}
            }
        }
        expect
    }

    pub fn pieces_ev(l: &LeafLayout, pieces: &[Fetched]) -> bool {
        pieces.iter().all(|p| {
            entries_in(l, p.lstart, p.lend).iter().all(|&i| {
                let off = l.entry_off(i);
                p.check_ev(off, off + l.entry_size())
            })
        })
    }

    pub fn parse_meta(l: &LeafLayout, f: &Fetched, replica_off: usize) -> LeafMeta {
        LeafMeta {
            sibling: GlobalAddr::from_raw(f.u64_at(replica_off + replica_field::SIBLING)),
            valid: f.get(replica_off + replica_field::VALID) != 0,
            fences: l.fences.then(|| {
                (
                    f.u64_at(replica_off + replica_field::FENCE_LOW),
                    f.u64_at(replica_off + replica_field::FENCE_LOW + l.key_size),
                )
            }),
        }
    }

    /// `(key, value, bitmap, ev)` of entry `i`.
    pub fn entry(l: &LeafLayout, f: &Fetched, i: usize) -> (u64, Vec<u8>, u16, u8) {
        let off = l.entry_off(i);
        (
            f.u64_at(off + entry_field::KEY),
            f.copy(off + entry_field::KEY + l.key_size, l.value_size),
            f.u16_at(off + entry_field::BITMAP),
            ev(f.get(off)),
        )
    }

    pub struct Snapshot {
        pub entries: Vec<(u64, Vec<u8>, u16, u8)>,
        pub nv: u8,
        pub meta: LeafMeta,
    }

    fn bitmaps_consistent(l: &LeafLayout, s: &Snapshot) -> bool {
        let span = l.span;
        for i in 0..span {
            for d in 0..16 {
                if s.entries[i].2 & (1 << d) != 0 {
                    let k = s.entries[(i + d) % span].0;
                    if k == 0 || home_entry(k, span) != i {
                        return false;
                    }
                }
            }
        }
        for (pos, e) in s.entries.iter().enumerate() {
            if e.0 != 0 {
                let hm = home_entry(e.0, span);
                let d = cyc_dist(hm, pos, span);
                if d >= 16 || s.entries[hm].2 & (1 << d) == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// A whole-leaf read's accept/reject decision and result on one image.
    pub fn decode(l: &LeafLayout, f: Fetched) -> Option<Snapshot> {
        let pieces = [f];
        let nv = pieces_nv(l, &pieces)?;
        if !pieces_ev(l, &pieces) {
            return None;
        }
        let snap = Snapshot {
            entries: (0..l.span).map(|i| entry(l, &pieces[0], i)).collect(),
            nv,
            meta: parse_meta(l, &pieces[0], l.replica_off(0)),
        };
        bitmaps_consistent(l, &snap).then_some(snap)
    }
}

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A random leaf geometry: every layout toggle, span 16–128, H 2–16, value
/// sizes 1/8/64/200.
fn random_layout(rng: &mut SmallRng) -> LeafLayout {
    let h = rng.gen_range(2..=16usize);
    let blocks = rng.gen_range(16usize.div_ceil(h)..=128 / h);
    LeafLayout {
        span: h * blocks,
        h,
        key_size: 8,
        value_size: [1, 8, 64, 200][rng.gen_range(0..4usize)],
        replication: rng.gen(),
        fences: rng.gen(),
        piggyback: rng.gen(),
    }
}

/// The physical image of a consistent random leaf with random per-entry EVs.
fn random_image(rng: &mut SmallRng, ops: &LeafOps) -> Vec<u8> {
    let l = ops.layout;
    let mut items: Vec<(u64, Vec<u8>)> = (0..rng.gen_range(0..=l.span * 3 / 4))
        .map(|_| {
            let mut v = vec![0u8; l.value_size];
            rng.fill_bytes(&mut v);
            (rng.gen_range(1..u64::MAX), v)
        })
        .collect();
    let w = loop {
        match build_table(l.span, l.h, l.value_size, &items) {
            Some(w) => break w,
            None => items.truncate(items.len() / 2),
        }
    };
    let nv = rng.gen_range(0..16u8);
    let meta = ops.meta(GlobalAddr::new(0, rng.gen_range(0..1u64 << 40)), rng.gen(), (rng.gen(), rng.gen()));
    // The same table as read from a leaf whose entries carry random EVs.
    let mut read = l.window(0, l.span);
    for i in 0..l.span {
        let (k, v, bm) = w.slot(i);
        read.set_slot(i, k, v, bm, rng.gen_range(0..16u8));
    }
    let mut phys = Vec::new();
    ops.encode(&read, (0, l.payload_len()), nv, &meta, true, &mut phys);
    phys
}

/// Entries that straddle a line boundary, and entries whose first byte sits
/// on a 63-byte payload boundary (so they own the slot in front of them).
fn torn_ev_targets(l: &LeafLayout) -> (Vec<usize>, Vec<usize>) {
    let layout = l.versioned();
    let straddling = (0..l.span)
        .filter(|&i| {
            let off = l.entry_off(i);
            !off.is_multiple_of(63) && !layout.slot_lines(off, off + l.entry_size()).is_empty()
        })
        .collect();
    let on_boundary = (0..l.span).filter(|&i| l.entry_off(i).is_multiple_of(63)).collect();
    (straddling, on_boundary)
}

/// Applies one adversarial tear (or none) to a physical leaf image; `true`
/// when it left a mid-hop state every whole-leaf decode must reject.
fn tear(rng: &mut SmallRng, l: &LeafLayout, phys: &mut [u8]) -> bool {
    let layout = l.versioned();
    let flip_nv = |b: &mut u8| *b ^= 0x10;
    let flip_ev = |b: &mut u8| *b ^= 0x01;
    // The slot of a random line an entry covers.
    let slot_in = |rng: &mut SmallRng, i: usize| {
        let lines = layout.slot_lines(l.entry_off(i), l.entry_off(i) + l.entry_size());
        rng.gen_range(lines) * 64
    };
    let (straddling, on_boundary) = torn_ev_targets(l);
    // Payload fields, read and written through the stripes.
    let field = |i: usize, f: usize, b: usize| layout.phys_of(l.entry_off(i) + f + b);
    let key_at = |phys: &[u8], i: usize| {
        u64::from_le_bytes(std::array::from_fn(|b| phys[field(i, entry_field::KEY, b)]))
    };
    let set_key = |phys: &mut [u8], i: usize, k: u64| {
        for (b, byte) in k.to_le_bytes().into_iter().enumerate() {
            phys[field(i, entry_field::KEY, b)] = byte;
        }
    };
    let bitmap_at = |phys: &[u8], i: usize| {
        u16::from_le_bytes(std::array::from_fn(|b| {
            phys[field(i, entry_field::BITMAP, b)]
        }))
    };
    let occupied: Vec<usize> = (0..l.span).filter(|&i| key_at(phys, i) != 0).collect();
    match rng.gen_range(0..10u32) {
        0 => flip_nv(&mut phys[rng.gen_range(0..layout.lines()) * 64]),
        1 => flip_nv(&mut phys[layout.phys_of(l.entry_off(rng.gen_range(0..l.span)))]),
        2 if !straddling.is_empty() => {
            let i = straddling[rng.gen_range(0..straddling.len())];
            flip_ev(&mut phys[slot_in(rng, i)]);
        }
        3 if !on_boundary.is_empty() => {
            // The slot in front of the entry is the entry's own.
            let i = on_boundary[rng.gen_range(0..on_boundary.len())];
            flip_ev(&mut phys[layout.phys_start(l.entry_off(i))]);
        }
        4 if !on_boundary.is_empty() => {
            let i = on_boundary[rng.gen_range(0..on_boundary.len())];
            flip_ev(&mut phys[layout.phys_of(l.entry_off(i))]);
        }
        5 => {
            // A stray bitmap bit, below or above H.
            let off = l.entry_off(rng.gen_range(0..l.span)) + entry_field::BITMAP;
            let bit = rng.gen_range(0..16usize);
            phys[layout.phys_of(off + bit / 8)] ^= 1 << (bit % 8);
        }
        6 => {
            // A key vanishes under its bitmap bit (mid-hop state).
            let off = l.entry_off(rng.gen_range(0..l.span)) + entry_field::KEY;
            for b in 0..8 {
                phys[layout.phys_of(off + b)] = 0;
            }
        }
        7 if !occupied.is_empty() => {
            // A key copied into a second slot without its bit (mid-hop
            // state): a slot its home's bitmap does not name.
            let i = occupied[rng.gen_range(0..occupied.len())];
            let (k, span) = (key_at(phys, i), l.span);
            let home = home_entry(k, span);
            let named = |j: usize| {
                cyc_dist(home, j, span) < l.h
                    && bitmap_at(phys, home) >> cyc_dist(home, j, span) & 1 != 0
            };
            let unnamed: Vec<usize> = (0..span).filter(|&j| !named(j)).collect();
            set_key(phys, unnamed[rng.gen_range(0..unnamed.len())], k);
            return true;
        }
        8 if !occupied.is_empty() => {
            // A key moved H or more slots from its home, its bit cleared
            // (mid-hop state).
            let i = occupied[rng.gen_range(0..occupied.len())];
            let (k, span) = (key_at(phys, i), l.span);
            let home = home_entry(k, span);
            let far: Vec<usize> = (l.h..span)
                .map(|d| (home + d) % span)
                .filter(|&j| key_at(phys, j) == 0)
                .collect();
            if far.is_empty() {
                return false;
            }
            set_key(phys, i, 0);
            set_key(phys, far[rng.gen_range(0..far.len())], k);
            let d = cyc_dist(home, i, span);
            phys[field(home, entry_field::BITMAP, d / 8)] &= !(1 << (d % 8));
            return true;
        }
        _ => {}
    }
    false
}

#[test]
fn unified_decoder_matches_the_per_byte_decoder() {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..500u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = LeafOps::new(random_layout(&mut rng));
        let l = ops.layout;
        let layout = l.versioned();
        let mut phys = random_image(&mut rng, &ops);
        let mid_hop = tear(&mut rng, &l, &mut phys);
        let pieces_of = |ranges: &[(usize, usize)]| -> (Vec<Fetched>, Vec<oracle::Fetched>) {
            ranges
                .iter()
                .map(|&(a, b)| {
                    let (ps, pe) = layout.phys_range(a, b);
                    let raw = phys[ps..pe].to_vec();
                    (layout.from_raw(a, b, raw.clone()), oracle::Fetched::from_raw(layout, a, b, raw))
                })
                .unzip()
        };

        // Whole leaf: same decision, same snapshot.
        let (mut new, mut old) = pieces_of(&[(0, l.payload_len())]);
        let new = ops.decode(&mut new.pop().unwrap(), &mut Default::default());
        let old = oracle::decode(&l, old.pop().unwrap());
        assert!(
            !mid_hop || new.is_none(),
            "seed {seed}: a mid-hop state decoded: {l:?}"
        );
        let bit_above_h = old
            .as_ref()
            .is_some_and(|s| s.entries.iter().any(|e| u32::from(e.2) >> l.h != 0));
        assert_eq!(new.is_some(), old.is_some() && !bit_above_h, "seed {seed}: {l:?}");
        if let (Some(new), Some(old)) = (&new, &old) {
            accepted += 1;
            assert_eq!((new.nv, new.meta), (old.nv, old.meta), "seed {seed}");
            for (i, e) in old.entries.iter().enumerate() {
                let got = (new.keys[i], new.value(i).to_vec(), new.bitmap(i), new.ev(i));
                assert_eq!(&got, e, "seed {seed}: entry {i}");
            }
        } else {
            rejected += 1;
        }

        // Every partial read the layout can produce, wrap-around pairs
        // included: same NV/EV verdicts, same fields of every covered object.
        let mut reads: Vec<Vec<(usize, usize)>> =
            (0..l.span).map(|home| l.neighborhood_ranges(home)).collect();
        for _ in 0..l.span {
            let (first, wrap) = l.hop_ranges(rng.gen_range(0..l.span), rng.gen_range(0..l.span));
            reads.push(std::iter::once(first).chain(wrap).collect());
        }
        for ranges in reads {
            let (new, old) = pieces_of(&ranges);
            let verdict = oracle::pieces_nv(&l, &old).filter(|_| oracle::pieces_ev(&l, &old));
            assert_eq!(ops.validate(&new).map(|(nv, _)| nv), verdict, "seed {seed}: {ranges:?}");
            for (n, (o, &(a, b))) in new.iter().zip(old.iter().zip(&ranges)) {
                assert_eq!(ops.locator.entries_in(a, b).collect::<Vec<_>>(), oracle::entries_in(&l, a, b));
                for i in ops.locator.entries_in(a, b) {
                    let got = (entry_key(&l, n, i), entry_value(&l, n, i).to_vec(), entry_bitmap(&l, n, i), entry_ev(&l, n, i));
                    assert_eq!(got, oracle::entry(&l, o, i), "seed {seed}: entry {i} of {ranges:?}");
                }
                assert_eq!(ops.locator.replicas_in(a, b).collect::<Vec<_>>(), oracle::replicas_in(&l, a, b));
                for k in ops.locator.replicas_in(a, b) {
                    assert_eq!(ops.parse_meta(n, l.replica_off(k)), oracle::parse_meta(&l, o, l.replica_off(k)));
                }
            }
        }
    }
    // The generator must exercise both outcomes.
    assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
}

// ----- division-free index math vs a modulo reference ------------------------

/// The geometries the division-free index math must be exact for:
/// power-of-two spans, and spans that are only a multiple of H, which
/// `ChimeConfig` allows.
pub(crate) fn geometries() -> Vec<(usize, usize)> {
    let pow2 = [16, 64, 256].into_iter().flat_map(|span| [2, 4, 8, 16].map(|h| (span, h)));
    pow2.chain([(6, 2), (24, 8), (40, 4), (48, 16)]).collect()
}

/// What [`LeafLocator::entries_in`] answers, computed the plain way: two
/// divisions (by the block and the entry size) per end of the range.
fn divided_entries_in(l: &LeafLayout, a: usize, b: usize) -> std::ops::Range<usize> {
    let block = l.replica_size() + l.h * l.entry_size();
    let locate = |at: usize| {
        let (blocks, within) = if l.replication { (at / block, at % block) } else { (0, at) };
        let body = within.saturating_sub(l.replica_size());
        ((blocks * l.h + body / l.entry_size()).min(l.span), body % l.entry_size() == 0)
    };
    let (ended, on_boundary) = locate(a);
    let first = if on_boundary { ended } else { ended + 1 };
    let end = locate(b).0;
    first.min(end)..end
}

/// What [`LeafLocator::replicas_in`] answers, computed with divisions.
fn divided_replicas_in(l: &LeafLayout, a: usize, b: usize) -> std::ops::Range<usize> {
    if !l.replication {
        return 0..usize::from(a == 0 && b >= l.replica_size());
    }
    let block = l.replica_size() + l.h * l.entry_size();
    let first = a.div_ceil(block);
    first..((b + l.h * l.entry_size()) / block).max(first)
}

/// The locator inverts its divisors once and multiplies per query; over
/// every geometry of the index-math test, with and without replicas and
/// fences and at two entry sizes, it must answer exactly what dividing
/// does, for every start and end of a range and for random ranges.
#[test]
fn locator_matches_the_division_reference() {
    let mut rng = SmallRng::seed_from_u64(7);
    for (span, h) in geometries() {
        for (replication, fences, key_size, value_size) in
            [(true, false, 8, 8), (false, false, 8, 8), (true, true, 16, 57), (false, true, 16, 57)]
        {
            let l = LeafLayout { span, h, key_size, value_size, replication, fences, piggyback: true };
            let loc = l.locator();
            let check = |a: usize, b: usize| {
                assert_eq!(loc.entries_in(a, b), divided_entries_in(&l, a, b), "{l:?} [{a}, {b})");
                assert_eq!(loc.replicas_in(a, b), divided_replicas_in(&l, a, b), "{l:?} [{a}, {b})");
            };
            let end = l.payload_len();
            for at in 0..=end {
                check(at, end);
                check(0, at);
            }
            for _ in 0..end {
                let a = rng.gen_range(0..=end);
                check(a, rng.gen_range(a..=end));
            }
        }
    }
}

/// The image of logical `[lstart, lend)` as `encode` writes it for an entry
/// write, built the plain way: every field at `entry_off(i)`, every line
/// version through `entry_at`, and `src` read at absolute indices (its
/// window starts at 0, so they are its relative ones too).
fn reference_image(l: &LeafLayout, src: &Window, (lstart, lend): (usize, usize), nv: u8, meta: &LeafMeta) -> Vec<u8> {
    assert_eq!((src.start(), src.len()), (0, l.span));
    let ver = |i: usize| match src.version(i) {
        (ev, true) => pack_ver(nv, bump(ev)),
        (ev, false) => pack_ver(nv, ev),
    };
    let mut logical = vec![0u8; lend - lstart];
    let inside = |off: usize, len: usize| lstart <= off && off + len <= lend;
    let blocks = if l.replication { l.span / l.h } else { 1 };
    for k in (0..blocks).filter(|&k| inside(l.replica_off(k), l.replica_size())) {
        let b = &mut logical[l.replica_off(k) - lstart..];
        b[replica_field::VER] = pack_ver(nv, 0);
        b[replica_field::SIBLING..][..8].copy_from_slice(&meta.sibling.raw().to_le_bytes());
        b[replica_field::VALID] = meta.valid as u8;
    }
    for i in (0..l.span).filter(|&i| inside(l.entry_off(i), l.entry_size())) {
        let (key, value, bitmap) = src.slot(i);
        let b = &mut logical[l.entry_off(i) - lstart..];
        b[entry_field::VER] = ver(i);
        b[entry_field::BITMAP..][..2].copy_from_slice(&bitmap.to_le_bytes());
        b[entry_field::KEY..][..8].copy_from_slice(&key.to_le_bytes());
        b[entry_field::KEY + l.key_size..][..l.value_size].copy_from_slice(value);
    }
    let line_ver = |p: usize| l.entry_at(p).map_or(pack_ver(nv, 0), ver);
    l.versioned().build_phys(lstart, &logical, line_ver).1
}

/// `load` and `encode` walk entry offsets and wrap cyclic indices without
/// dividing; over every geometry of the index-math test, with and without
/// replicas, both must agree with the plain per-entry reference on windows
/// that wrap, full-span windows at a non-zero start included.
#[test]
fn load_and_encode_match_the_modulo_reference() {
    for (g, (span, h)) in geometries().into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(g as u64);
        let ops = LeafOps::new(LeafLayout {
            span,
            h,
            key_size: 8,
            value_size: 8,
            replication: g % 2 == 0,
            fences: false,
            piggyback: true,
        });
        let l = ops.layout;
        let mut items: Vec<(u64, Vec<u8>)> =
            (0..span * 3 / 4).map(|_| (rng.gen_range(1..u64::MAX), rng.gen::<u64>().to_le_bytes().to_vec())).collect();
        let table = loop {
            match build_table(span, h, 8, &items) {
                Some(w) => break w,
                None => items.truncate(items.len() / 2),
            }
        };
        // The table as read with random EVs, some slots dirtied since.
        let mut src = l.window(0, span);
        for i in 0..span {
            let (k, v, bm) = table.slot(i);
            src.set_slot(i, k, v, bm, rng.gen_range(0..16u8));
        }
        let dirty: Vec<bool> = (0..span).map(|_| rng.gen_bool(0.3)).collect();
        for i in (0..span).filter(|&i| dirty[i]) {
            let v = src.slot(i).1.to_vec();
            src.set_value(i, &v);
        }
        let (nv, meta) = (rng.gen_range(0..16u8), ops.meta(GlobalAddr::new(0, 4096), true, (0, u64::MAX)));
        let whole = (0, l.payload_len());
        let image = reference_image(&l, &src, whole, nv, &meta);
        let mut buf = Vec::new();
        assert_eq!(ops.encode(&src, whole, nv, &meta, true, &mut buf), 0);
        assert_eq!(buf, image, "span {span}, H {h}: whole image");
        for len in [1, h, rng.gen_range(1..=span), span, span] {
            let a = rng.gen_range(1..span);
            let e = (a + len - 1) % span;
            let at = |r: usize| (a + r) % span;
            // The window as a writer holds it.
            let mut w = l.window(a, len);
            for abs in (0..len).map(at) {
                let ((k, v, bm), (ev, _)) = (src.slot(abs), src.version(abs));
                w.set_slot(abs, k, v, bm, ev);
                if dirty[abs] {
                    w.set_value(abs, v);
                }
            }
            let (first, wrap) = l.cyclic_split(a, e);
            for (s, t) in std::iter::once(first).chain(wrap) {
                let range = (l.entry_off(s), l.entry_off(t) + l.entry_size());
                let pstart = ops.encode(&w, range, nv, &meta, true, &mut buf);
                assert_eq!(pstart, l.versioned().phys_range(range.0, range.1).0);
                assert_eq!(buf, reference_image(&l, &src, range, nv, &meta), "span {span}, H {h}: [{a}, {e}]");
            }
            // The window as a locked read loads it from the image.
            let (first, wrap) = l.hop_ranges(a, e);
            let pieces: Vec<Fetched> = std::iter::once(first)
                .chain(wrap)
                .map(|(ls, le)| {
                    let (ps, pe) = l.versioned().phys_range(ls, le);
                    l.versioned().from_raw(ls, le, image[ps..pe].to_vec())
                })
                .collect();
            let mut read = l.window(a, len);
            load(&l, &ops.locator, &pieces, &mut read);
            for abs in (0..len).map(at) {
                let (ev, was_dirty) = src.version(abs);
                let want = if was_dirty { bump(ev) } else { ev };
                assert_eq!(read.slot(abs), src.slot(abs), "span {span}, H {h}: slot {abs} of [{a}, {e}]");
                assert_eq!(read.version(abs), (want, false), "span {span}, H {h}: slot {abs} of [{a}, {e}]");
            }
        }
    }
}
