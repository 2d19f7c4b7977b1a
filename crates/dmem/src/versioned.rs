//! Versioned memory layout (two-level cache-line versions).
//!
//! Sherman and CHIME stripe every tree node over 64-byte cache lines whose
//! first byte is a *version byte*; the remaining 63 bytes per line hold
//! payload. A version byte packs a 4-bit node-level version (NV, high nibble)
//! and a 4-bit entry-level version (EV, low nibble):
//!
//! * a **node write** bumps NV in every version byte of the node;
//! * an **entry write** bumps EV in the entry's own leading version byte and
//!   in every line version byte that falls physically inside the entry;
//! * a reader checks that all fetched version bytes agree on NV, and that the
//!   version bytes within each fetched entry agree on EV.
//!
//! This module provides the logical↔physical mapping, fetch/write helpers and
//! nibble arithmetic. The convention throughout the workspace is that every
//! *object* (node header or entry) begins with its own version byte in
//! logical space, so a fetch that starts at an object boundary always carries
//! enough version information to detect cross-line tearing.

use std::ops::Range;

use crate::addr::GlobalAddr;
use crate::verbs::Endpoint;

/// Payload bytes per 64-byte line (one byte is the version byte).
pub const LINE_PAYLOAD: usize = 63;
/// Physical line size.
pub const LINE: usize = 64;

/// Packs node-level and entry-level versions into one version byte.
#[inline]
pub fn pack_ver(nv: u8, ev: u8) -> u8 {
    (nv << 4) | (ev & 0x0F)
}

/// Extracts the node-level version (high nibble).
#[inline]
pub fn nv(b: u8) -> u8 {
    b >> 4
}

/// Extracts the entry-level version (low nibble).
#[inline]
pub fn ev(b: u8) -> u8 {
    b & 0x0F
}

/// Increments a 4-bit version, wrapping at 16.
#[inline]
pub fn bump(v: u8) -> u8 {
    (v + 1) & 0x0F
}

/// The versioned layout of one node: a payload of `payload_len` logical
/// bytes striped over 64-byte lines, followed by an 8-byte lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    payload_len: usize,
}

impl Layout {
    /// Creates a layout for `payload_len` logical bytes.
    pub fn new(payload_len: usize) -> Self {
        assert!(payload_len > 0);
        Layout { payload_len }
    }

    /// Logical payload length.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Number of 64-byte lines the payload occupies.
    #[inline]
    pub fn lines(&self) -> usize {
        self.payload_len.div_ceil(LINE_PAYLOAD)
    }

    /// Physical size of the versioned payload area.
    #[inline]
    pub fn versioned_size(&self) -> usize {
        self.lines() * LINE
    }

    /// Physical offset of the 8-byte lock word (8-aligned by construction).
    #[inline]
    pub fn lock_offset(&self) -> usize {
        self.versioned_size()
    }

    /// Total physical node size including the lock word.
    #[inline]
    pub fn node_size(&self) -> usize {
        self.versioned_size() + 8
    }

    /// Maps a logical payload offset to its physical offset in the node.
    #[inline]
    pub fn phys_of(&self, logical: usize) -> usize {
        debug_assert!(logical <= self.payload_len);
        (logical / LINE_PAYLOAD) * LINE + 1 + logical % LINE_PAYLOAD
    }

    /// Physical start of an access whose logical range begins at `lstart`.
    ///
    /// When `lstart` falls exactly on a line-payload boundary the access
    /// also covers that line's version byte (Sherman-style writes begin at
    /// the version byte), so the physical start is one byte earlier than
    /// `phys_of(lstart)`.
    #[inline]
    pub fn phys_start(&self, lstart: usize) -> usize {
        if lstart.is_multiple_of(LINE_PAYLOAD) {
            self.phys_of(lstart) - 1
        } else {
            self.phys_of(lstart)
        }
    }

    /// Physical byte range `[pstart, pend)` an access to logical
    /// `[lstart, lend)` covers.
    pub fn phys_range(&self, lstart: usize, lend: usize) -> (usize, usize) {
        assert!(lstart < lend && lend <= self.payload_len);
        (self.phys_start(lstart), self.phys_of(lend - 1) + 1)
    }

    /// Lines whose version slot an access to logical `[lstart, lend)`
    /// covers: every line the range enters, plus the line it starts on when
    /// it starts on a line-payload boundary ([`Layout::phys_start`]).
    #[inline]
    pub fn slot_lines(&self, lstart: usize, lend: usize) -> Range<usize> {
        debug_assert!(lstart < lend && lend <= self.payload_len);
        lstart.div_ceil(LINE_PAYLOAD)..(lend - 1) / LINE_PAYLOAD + 1
    }

    /// Fetches logical range `[lstart, lend)` with one READ.
    ///
    /// The physical fetch starts at [`Layout::phys_start`]`(lstart)` — by
    /// convention an object boundary carrying a version byte — and ends at
    /// `phys_of(lend - 1) + 1`.
    pub fn fetch(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        lstart: usize,
        lend: usize,
    ) -> Fetched {
        let (pstart, pend) = self.phys_range(lstart, lend);
        let mut buf = vec![0u8; pend - pstart];
        ep.read(node.add(pstart as u64), &mut buf);
        self.from_raw(lstart, lend, buf)
    }

    /// Wraps raw physical bytes (read by the caller, starting at
    /// [`Layout::phys_start`]`(lstart)`) into a [`Fetched`] view,
    /// de-striping them in place.
    pub fn from_raw(&self, lstart: usize, lend: usize, mut buf: Vec<u8>) -> Fetched {
        let (pstart, pend) = self.phys_range(lstart, lend);
        assert_eq!(buf.len(), pend - pstart, "raw buffer size mismatch");
        // Stash the covered version bytes (on the stack for nodes up to
        // 4 KiB), close the payload up over their slots, then park them
        // behind the payload.
        let lines = self.slot_lines(lstart, lend);
        let (mut stash, mut spill) = ([0u8; 64], Vec::new());
        let vers = match stash.get_mut(..lines.len()) {
            Some(vers) => vers,
            None => {
                spill.resize(lines.len(), 0);
                &mut spill[..]
            }
        };
        // Payload in front of the first slot (all of it, if none) stays put.
        let mut w = (lines.start * LINE - pstart).min(buf.len());
        for (ver, line) in vers.iter_mut().zip(lines.clone()) {
            let slot = line * LINE - pstart;
            let end = (slot + LINE).min(buf.len());
            *ver = buf[slot];
            buf.copy_within(slot + 1..end, w);
            w += end - slot - 1;
        }
        buf[w..].copy_from_slice(vers);
        debug_assert_eq!(w, lend - lstart);
        Fetched {
            lstart,
            len: w,
            first_line: lines.start,
            buf,
        }
    }

    /// The READs of up to [`MAX_RANGES`] logical ranges (none is allowed),
    /// handed to `post` to issue — alone or behind another verb of the same
    /// doorbell batch. `post` returns whether the contents are wanted: if
    /// so, the buffers are de-striped into [`Fetched`] views that replace
    /// `pieces`; if not, they are dropped (`false`).
    ///
    /// The buffers are the caller's: each READ takes one from `spare` (a new
    /// one when it runs out), `pieces`' buffers go back to `spare` first,
    /// and so do a dropped fetch's. A caller that keeps both vectors fetches
    /// without allocating once they have grown to its largest fetch.
    pub fn fetch_into(
        &self,
        node: GlobalAddr,
        ranges: &[(usize, usize)],
        pieces: &mut Vec<Fetched>,
        spare: &mut Vec<Vec<u8>>,
        post: impl FnOnce(&mut [(GlobalAddr, &mut [u8])]) -> bool,
    ) -> bool {
        assert!(ranges.len() <= MAX_RANGES);
        spare.extend(pieces.drain(..).map(Fetched::into_buf));
        // Work requests sit on the stack; unused slots stay empty and are
        // not posted. A READ overwrites its whole buffer, so a reused one
        // is only resized.
        let mut bufs: [Vec<u8>; MAX_RANGES] = Default::default();
        for (buf, &(ls, le)) in bufs.iter_mut().zip(ranges) {
            let (ps, pe) = self.phys_range(ls, le);
            *buf = spare.pop().unwrap_or_default();
            buf.resize(pe - ps, 0);
        }
        let mut slots = bufs.iter_mut();
        let mut reqs: [(GlobalAddr, &mut [u8]); MAX_RANGES] = std::array::from_fn(|i| {
            let ls = ranges.get(i).map_or(0, |r| r.0);
            let buf = slots.next().expect("MAX_RANGES buffers");
            (node.add(self.phys_start(ls) as u64), &mut buf[..])
        });
        let kept = post(&mut reqs[..ranges.len()]);
        let bufs = bufs.into_iter().take(ranges.len());
        if kept {
            pieces.extend(ranges.iter().zip(bufs).map(|(&(ls, le), buf)| self.from_raw(ls, le, buf)));
        } else {
            spare.extend(bufs);
        }
        kept
    }

    /// Builds the physical image of logical range `[lstart, lend)`.
    ///
    /// `data` supplies the logical bytes; `line_ver` is called with the
    /// logical offset *following* each interleaved line-version slot and must
    /// return the version byte to store there.
    pub fn build_phys(
        &self,
        lstart: usize,
        data: &[u8],
        line_ver: impl FnMut(usize) -> u8,
    ) -> (usize, Vec<u8>) {
        let (pstart, pend) = self.phys_range(lstart, lstart + data.len());
        let mut out = Vec::with_capacity(pend - pstart);
        out.extend_from_slice(data);
        self.stripe(lstart, &mut out, line_ver);
        (pstart, out)
    }

    /// [`Layout::build_phys`] in place: `buf` holds the logical bytes from
    /// `lstart` on and leaves as their physical image (the inverse of
    /// [`Layout::from_raw`]). Reserve [`Layout::phys_range`]'s length up
    /// front and the buffer is not reallocated.
    pub fn stripe(&self, lstart: usize, buf: &mut Vec<u8>, mut line_ver: impl FnMut(usize) -> u8) {
        let lend = lstart + buf.len();
        let (pstart, pend) = self.phys_range(lstart, lend);
        buf.resize(pend - pstart, 0);
        // Open the version slots back to front, so no payload byte is
        // overwritten before it has moved.
        let mut r = lend - lstart;
        for line in self.slot_lines(lstart, lend).rev() {
            let slot = line * LINE - pstart;
            let end = (slot + LINE).min(buf.len());
            r -= end - slot - 1;
            buf.copy_within(r..r + (end - slot - 1), slot + 1);
            buf[slot] = line_ver(line * LINE_PAYLOAD);
        }
    }

    /// Writes logical range `[lstart, lstart+data.len())` with one WRITE.
    ///
    /// See [`Layout::build_phys`] for the `line_ver` contract.
    pub fn write(
        &self,
        ep: &mut Endpoint,
        node: GlobalAddr,
        lstart: usize,
        data: &[u8],
        line_ver: impl FnMut(usize) -> u8,
    ) {
        let (pstart, img) = self.build_phys(lstart, data, line_ver);
        ep.write(node.add(pstart as u64), &img);
    }
}

/// Most ranges one [`Layout::fetch_into`] doorbell batch takes (a wrapped
/// hop window, the leaf header and the argmax entry), and most READs
/// [`Endpoint::masked_cas_read`] posts behind its atomic.
pub const MAX_RANGES: usize = 4;

/// The result of a versioned fetch, de-striped once on arrival: the logical
/// payload bytes of `[lstart, lend)` as one contiguous slice, followed in
/// the same buffer by the version bytes of the covered line slots
/// ([`Layout::slot_lines`]) in line order.
#[derive(Debug)]
pub struct Fetched {
    lstart: usize,
    /// Payload length; `buf[len..]` holds the line versions.
    len: usize,
    /// Line index of the first covered version slot.
    first_line: usize,
    buf: Vec<u8>,
}

impl Fetched {
    /// First logical offset covered.
    pub fn lstart(&self) -> usize {
        self.lstart
    }

    /// One past the last logical offset covered.
    pub fn lend(&self) -> usize {
        self.lstart + self.len
    }

    /// The `len` logical bytes starting at absolute logical offset `l`.
    #[inline]
    pub fn bytes(&self, l: usize, len: usize) -> &[u8] {
        let at = l - self.lstart;
        &self.buf[..self.len][at..at + len]
    }

    /// Returns the logical byte at absolute logical offset `l`.
    #[inline]
    pub fn get(&self, l: usize) -> u8 {
        self.bytes(l, 1)[0]
    }

    /// Copies `len` logical bytes starting at absolute logical offset `l`.
    pub fn copy(&self, l: usize, len: usize) -> Vec<u8> {
        self.bytes(l, len).to_vec()
    }

    /// Reads a little-endian `u64` at absolute logical offset `l`.
    #[inline]
    pub fn u64_at(&self, l: usize) -> u64 {
        u64::from_le_bytes(self.bytes(l, 8).try_into().expect("8 bytes"))
    }

    /// Reads a little-endian `u16` at absolute logical offset `l`.
    #[inline]
    pub fn u16_at(&self, l: usize) -> u16 {
        u16::from_le_bytes(self.bytes(l, 2).try_into().expect("2 bytes"))
    }

    /// Version bytes of the line slots inside logical `[a, b)` (both bounds
    /// absolute), i.e. the interleaved cache-line versions a reader must
    /// check for an object spanning that range.
    #[inline]
    pub fn line_versions(&self, a: usize, b: usize) -> &[u8] {
        debug_assert!(self.lstart <= a && a < b && b <= self.lend());
        let first = a.div_ceil(LINE_PAYLOAD);
        let end = ((b - 1) / LINE_PAYLOAD + 1).max(first);
        &self.buf[self.len..][first - self.first_line..end - self.first_line]
    }

    /// The version bytes of the covered line slots, in line order, with the
    /// line index of the first: line `first + j`'s slot sits at logical
    /// offset `(first + j) * LINE_PAYLOAD`.
    #[inline]
    pub fn line_slots(&self) -> (usize, &[u8]) {
        (self.first_line, &self.buf[self.len..])
    }

    /// Hands the buffer back for another fetch ([`Layout::from_raw`]).
    pub fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// Checks that every version byte in the fetch (line slots plus the
    /// object-leading bytes at `object_leads`, absolute logical offsets)
    /// agrees on NV. Returns that NV on success.
    pub fn check_nv(&self, object_leads: impl IntoIterator<Item = usize>) -> Option<u8> {
        let leads = object_leads.into_iter().map(|l| self.get(l));
        let mut vers = self.buf[self.len..].iter().copied().chain(leads).map(nv);
        let expect = vers.next()?;
        vers.all(|n| n == expect).then_some(expect)
    }

    /// Checks that the object spanning logical `[a, b)` with leading version
    /// byte at `a` is EV-consistent (no concurrent entry write observed).
    #[inline]
    pub fn check_ev(&self, a: usize, b: usize) -> bool {
        let lead = ev(self.get(a));
        self.line_versions(a, b).iter().all(|&v| ev(v) == lead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Pool, RESERVED_BYTES};

    fn ep() -> Endpoint {
        Endpoint::new(Pool::with_defaults(1, 1 << 20))
    }

    #[test]
    fn nibble_ops() {
        let b = pack_ver(0xA, 0x5);
        assert_eq!(nv(b), 0xA);
        assert_eq!(ev(b), 0x5);
        assert_eq!(bump(0xF), 0);
        assert_eq!(bump(7), 8);
    }

    #[test]
    fn layout_geometry() {
        let l = Layout::new(63);
        assert_eq!(l.lines(), 1);
        assert_eq!(l.versioned_size(), 64);
        assert_eq!(l.lock_offset(), 64);
        assert_eq!(l.node_size(), 72);
        let l = Layout::new(64);
        assert_eq!(l.lines(), 2);
        assert_eq!(l.node_size(), 136);
    }

    #[test]
    fn phys_mapping_skips_version_bytes() {
        let l = Layout::new(200);
        assert_eq!(l.phys_of(0), 1);
        assert_eq!(l.phys_of(62), 63);
        assert_eq!(l.phys_of(63), 65); // next line, after its version byte
        assert_eq!(l.phys_of(126), 129);
    }

    #[test]
    fn write_then_fetch_roundtrip() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let data: Vec<u8> = (0..200u8).collect();
        layout.write(&mut e, node, 40, &data, |_| pack_ver(3, 1));
        let f = layout.fetch(&mut e, node, 40, 240);
        assert_eq!(f.copy(40, 200), data);
        // All interleaved line versions must be what we wrote.
        assert_eq!(f.line_versions(40, 240), [pack_ver(3, 1); 3]);
    }

    #[test]
    fn u64_and_u16_accessors() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let mut data = vec![0u8; 100];
        data[58..66].copy_from_slice(&0xDEAD_BEEF_1234_5678u64.to_le_bytes());
        data[0..2].copy_from_slice(&0xABCDu16.to_le_bytes());
        layout.write(&mut e, node, 0, &data, |_| 0);
        let f = layout.fetch(&mut e, node, 0, 100);
        assert_eq!(f.u64_at(58), 0xDEAD_BEEF_1234_5678); // straddles a line
        assert_eq!(f.u16_at(0), 0xABCD);
    }

    #[test]
    fn nv_check_detects_mixed_versions() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        let data = vec![7u8; 150];
        layout.write(&mut e, node, 0, &data, |_| pack_ver(2, 0));
        // Overwrite the second line only, with a different NV.
        layout.write(&mut e, node, 63, &[7u8; 63], |_| pack_ver(3, 0));
        let f = layout.fetch(&mut e, node, 0, 150);
        assert_eq!(f.check_nv([]), None);
        // A fetch confined to the second line is self-consistent.
        let f2 = layout.fetch(&mut e, node, 63, 126);
        assert_eq!(f2.check_nv([]), Some(3));
    }

    #[test]
    fn ev_check_detects_partial_entry_write() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        // An "entry" spanning logical [50, 90): leading version byte at 50,
        // one interleaved line version slot at logical 63.
        let mut entry = vec![1u8; 40];
        entry[0] = pack_ver(0, 4);
        layout.write(&mut e, node, 50, &entry, |_| pack_ver(0, 4));
        let f = layout.fetch(&mut e, node, 50, 90);
        assert!(f.check_ev(50, 90));
        // Simulate a torn write: the line version got bumped but the lead
        // byte has not (reader raced the writer).
        layout.write(&mut e, node, 63, &[1u8], |_| pack_ver(0, 5));
        let f = layout.fetch(&mut e, node, 50, 90);
        assert!(!f.check_ev(50, 90));
    }

    #[test]
    fn slot_lines_positions() {
        let layout = Layout::new(300);
        // A range starting on a line-payload boundary owns that line's slot.
        assert_eq!(layout.slot_lines(0, 63), 0..1);
        // Range [0, 64) crosses into line 1: also the slot guarding 63.
        assert_eq!(layout.slot_lines(0, 64), 0..2);
        // A mid-line start does not own the slot before it.
        assert_eq!(layout.slot_lines(50, 130), 1..3);
        // An object inside one line covers no slot.
        assert!(layout.slot_lines(5, 40).is_empty());
    }

    #[test]
    fn fetch_into_is_one_doorbell() {
        let mut e = ep();
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        let layout = Layout::new(300);
        layout.write(&mut e, node, 0, &[9u8; 20], |_| 0);
        layout.write(&mut e, node, 200, &[8u8; 20], |_| 0);
        let before = e.stats().rtts;
        let (ranges, mut f) = ([(0, 20), (200, 220)], Vec::new());
        let kept = layout.fetch_into(node, &ranges, &mut f, &mut Vec::new(), |reqs| {
            e.read_batch(reqs);
            true
        });
        assert!(kept);
        assert_eq!(e.stats().rtts, before + 1);
        assert_eq!(f[0].copy(0, 20), vec![9u8; 20]);
        assert_eq!(f[1].copy(200, 20), vec![8u8; 20]);
    }

    /// The per-byte view this module used to serve every access through:
    /// kept as the oracle the de-striped [`Fetched`] is checked against.
    struct PerByte {
        layout: Layout,
        pstart: usize,
        raw: Vec<u8>,
    }

    impl PerByte {
        fn get(&self, l: usize) -> u8 {
            self.raw[self.layout.phys_of(l) - self.pstart]
        }

        fn line_versions(&self, a: usize, b: usize) -> Vec<u8> {
            let pstart = self.layout.phys_start(a);
            let pend = self.layout.phys_of(b - 1) + 1;
            (pstart / LINE..=(pend - 1) / LINE)
                .map(|line| line * LINE)
                .filter(|&p| p >= pstart && p < pend)
                .map(|p| self.raw[p - self.pstart])
                .collect()
        }
    }

    proptest::proptest! {
        /// De-striping keeps every logical byte and every covered line
        /// version where the per-byte mapping finds them, for any range and
        /// any sub-object of it.
        #[test]
        fn destriped_view_matches_per_byte_mapping(
            // Up to 96 lines: past the 64 version bytes `from_raw` stashes
            // on the stack.
            payload_len in 1usize..6000,
            cut in (0usize..6000, 0usize..6000, 0usize..6000, 0usize..6000),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let layout = Layout::new(payload_len);
            let (x, y) = (cut.0 % payload_len, cut.1 % payload_len);
            let (lstart, lend) = (x.min(y), x.max(y) + 1);
            let (pstart, pend) = layout.phys_range(lstart, lend);
            let mut rng = seed | 1;
            let raw: Vec<u8> = (pstart..pend)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng as u8
                })
                .collect();
            let old = PerByte { layout, pstart, raw: raw.clone() };
            let new = layout.from_raw(lstart, lend, raw);
            proptest::prop_assert_eq!((new.lstart(), new.lend()), (lstart, lend));
            for l in lstart..lend {
                proptest::prop_assert_eq!(new.get(l), old.get(l));
            }
            proptest::prop_assert_eq!(
                new.line_versions(lstart, lend),
                &old.line_versions(lstart, lend)[..]
            );
            // Striping the view again gives the raw bytes back.
            let vers = old.line_versions(lstart, lend);
            let first = layout.slot_lines(lstart, lend).start;
            let striped = layout.build_phys(lstart, new.bytes(lstart, lend - lstart), |p| vers[p / LINE_PAYLOAD - first]);
            proptest::prop_assert_eq!(striped, (pstart, old.raw.clone()));
            // A sub-object, including ones that begin on a 63-byte boundary.
            let (u, v) = (lstart + cut.2 % (lend - lstart), lstart + cut.3 % (lend - lstart));
            let (a, b) = (u.min(v), u.max(v) + 1);
            proptest::prop_assert_eq!(new.line_versions(a, b), &old.line_versions(a, b)[..]);
            proptest::prop_assert_eq!(new.bytes(a, b - a), &(a..b).map(|l| old.get(l)).collect::<Vec<_>>()[..]);
            let a63 = a / LINE_PAYLOAD * LINE_PAYLOAD;
            if a63 >= lstart && a63 < b {
                proptest::prop_assert_eq!(new.line_versions(a63, b), &old.line_versions(a63, b)[..]);
            }
        }
    }
}
