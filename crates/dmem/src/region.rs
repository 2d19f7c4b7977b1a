//! A registered memory region on a memory node.
//!
//! The region emulates the atomicity domain that CHIME's synchronization
//! depends on with commodity RNICs (ConnectX and later):
//!
//! * one-sided READs and WRITEs may observe/produce tearing **between** 64-byte
//!   cache lines, but never within one line;
//! * 8-byte RDMA atomics (CAS, masked-CAS, FAA) are atomic with respect to
//!   each other *and* coherent with DMA writes to the same address.
//!
//! Internally every 64-byte line is guarded by a sequence lock. Writers and
//! atomics serialize per line; readers copy a line optimistically and retry it
//! if the sequence number changed. Data is copied with volatile accesses, the
//! standard systems-code discipline for seqlock-protected memory.

use core::sync::atomic::{fence, AtomicU32, Ordering};

use crate::pages::Pages;

/// Size of the hardware atomicity unit (one cache line).
pub const LINE: usize = 64;

/// A seqlock-protected byte region, shared by all clients of a memory node.
pub struct Region {
    /// The `len` data bytes; page-aligned, so every `u64` word is aligned.
    buf: Pages,
    /// One `AtomicU32` sequence lock per 64-byte line. Odd = a writer is in
    /// the line.
    seq: Pages,
    len: usize,
}

// SAFETY: all mutable access to `buf` happens through the per-line seqlocks
// (writers hold the odd state exclusively; readers detect and retry torn
// reads), `seq` is accessed only as atomics, and `len` is immutable, so
// `Region` can be shared across threads.
unsafe impl Sync for Region {}
// SAFETY: the region owns both mappings; moving it between threads is fine.
unsafe impl Send for Region {}

impl Region {
    /// Allocates a zeroed region of `len` bytes (rounded up to a whole line).
    ///
    /// Both the data and the sequence words are fresh anonymous mappings
    /// ([`Pages`]), so a region is resident only where it was written, and
    /// every sequence word starts at zero (even: no writer). Allocator
    /// memory would not do: once an earlier region of the same size was
    /// freed, glibc serves the next large `calloc` from its heap and zeroes
    /// all of it by hand, making it resident.
    pub fn new(len: usize) -> Self {
        let len = len.div_ceil(LINE) * LINE;
        Region {
            buf: Pages::new(len),
            seq: Pages::new(len / LINE * size_of::<AtomicU32>()),
            len,
        }
    }

    /// Returns the region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the region has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        self.buf.as_ptr()
    }

    /// The sequence lock of every line.
    #[inline]
    fn seqs(&self) -> &[AtomicU32] {
        // SAFETY: `seq` maps at least `len / LINE` initialised, 4-aligned
        // `u32`s (zeroed by the kernel; any `u32` is a valid `AtomicU32`),
        // which live as long as `self` and are only accessed as atomics.
        unsafe { core::slice::from_raw_parts(self.seq.as_ptr().cast(), self.len / LINE) }
    }

    /// Reads `dst.len()` bytes starting at byte offset `off`.
    ///
    /// Each 64-byte line is internally consistent; tearing may occur between
    /// lines, exactly like a one-sided RDMA READ racing with remote WRITEs.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, off: usize, dst: &mut [u8]) {
        assert!(off + dst.len() <= self.len, "read out of bounds");
        let mut cur = off;
        let end = off + dst.len();
        while cur < end {
            let line = cur / LINE;
            let line_end = (line + 1) * LINE;
            let chunk_end = end.min(line_end);
            let dst_off = cur - off;
            self.read_line(line, cur, &mut dst[dst_off..dst_off + (chunk_end - cur)]);
            cur = chunk_end;
        }
    }

    /// Reads a sub-range of one line under its seqlock.
    fn read_line(&self, line: usize, off: usize, dst: &mut [u8]) {
        let seq = &self.seqs()[line];
        let mut spins = 0u32;
        loop {
            let s1 = seq.load(Ordering::Acquire);
            if s1 & 1 != 0 {
                spins += 1;
                if spins.is_multiple_of(64) {
                    // The writer may be descheduled mid-line on an
                    // oversubscribed host.
                    std::thread::yield_now();
                } else {
                    core::hint::spin_loop();
                }
                continue;
            }
            // SAFETY: the range was bounds-checked by the caller; racing
            // writers are detected by the sequence check below and the copy
            // uses volatile accesses (seqlock discipline).
            unsafe { volatile_copy_out(self.base().add(off), dst) };
            fence(Ordering::Acquire);
            if seq.load(Ordering::Relaxed) == s1 {
                return;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Writes `src` starting at byte offset `off`.
    ///
    /// Lines are written one at a time; concurrent readers of a single line
    /// never observe a torn line.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&self, off: usize, src: &[u8]) {
        assert!(off + src.len() <= self.len, "write out of bounds");
        let mut cur = off;
        let end = off + src.len();
        while cur < end {
            let line = cur / LINE;
            let line_end = (line + 1) * LINE;
            let chunk_end = end.min(line_end);
            let src_off = cur - off;
            self.write_line(line, cur, &src[src_off..src_off + (chunk_end - cur)]);
            cur = chunk_end;
        }
    }

    /// Writes a sub-range of one line under its seqlock.
    fn write_line(&self, line: usize, off: usize, src: &[u8]) {
        let s = self.lock_line(line);
        // SAFETY: bounds checked by caller; we hold the line's seqlock in the
        // odd state, so no other writer touches the line and readers retry.
        unsafe { volatile_copy_in(self.base().add(off), src) };
        self.unlock_line(line, s);
    }

    /// Acquires the seqlock of `line` (leaves it odd) and returns the even
    /// sequence value observed before acquisition.
    fn lock_line(&self, line: usize) -> u32 {
        let seq = &self.seqs()[line];
        let mut spins = 0u32;
        loop {
            let s = seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return s;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn unlock_line(&self, line: usize, prev: u32) {
        self.seqs()[line].store(prev.wrapping_add(2), Ordering::Release);
    }

    /// Runs `f` on the aligned `u64` word at byte offset `off`, atomically
    /// with respect to all other accesses (the word's line is locked).
    ///
    /// Returns `(old, f(old))`; if `f` yields `Some(new)`, `new` is stored.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not 8-byte aligned or out of bounds.
    pub fn atomic_rmw_u64<F>(&self, off: usize, f: F) -> u64
    where
        F: FnOnce(u64) -> Option<u64>,
    {
        assert!(off.is_multiple_of(8), "atomic target must be 8-byte aligned");
        assert!(off + 8 <= self.len, "atomic out of bounds");
        let line = off / LINE;
        let s = self.lock_line(line);
        // SAFETY: `off` is 8-aligned and in bounds; the base pointer is
        // page-aligned so the access is aligned. We hold the line
        // seqlock, excluding all concurrent writers.
        let p = unsafe { self.base().add(off) } as *mut u64;
        // SAFETY: see above; volatile keeps the compiler from caching across
        // the seqlock.
        let old = unsafe { core::ptr::read_volatile(p) };
        if let Some(new) = f(old) {
            // SAFETY: see above.
            unsafe { core::ptr::write_volatile(p, new) };
        }
        self.unlock_line(line, s);
        old
    }
}

/// Copies out of shared memory with volatile loads (seqlock read side):
/// aligned 8-byte words, and single bytes before the first and after the
/// last of them.
///
/// # Safety
///
/// `src..src+dst.len()` must be valid for reads.
unsafe fn volatile_copy_out(src: *const u8, dst: &mut [u8]) {
    let head = src.align_offset(8).min(dst.len());
    let (head, rest) = dst.split_at_mut(head);
    let (words, tail) = rest.as_chunks_mut::<8>();
    // SAFETY: every address read lies in `src..src+dst.len()`, valid by the
    // caller's contract; the word loads start at `src + head.len()`, which
    // `align_offset` made 8-aligned. Volatile loads keep each access as
    // issued; a racing writer is caught by the caller's sequence check.
    unsafe {
        for (i, d) in head.iter_mut().enumerate() {
            *d = core::ptr::read_volatile(src.add(i));
        }
        let at = src.add(head.len()).cast::<u64>();
        for (i, d) in words.iter_mut().enumerate() {
            *d = core::ptr::read_volatile(at.add(i)).to_ne_bytes();
        }
        let at = src.add(head.len() + 8 * words.len());
        for (i, d) in tail.iter_mut().enumerate() {
            *d = core::ptr::read_volatile(at.add(i));
        }
    }
}

/// Copies into shared memory with volatile stores (seqlock write side):
/// aligned 8-byte words, and single bytes before the first and after the
/// last of them.
///
/// # Safety
///
/// `dst..dst+src.len()` must be valid for writes and the enclosing line's
/// seqlock must be held.
unsafe fn volatile_copy_in(dst: *mut u8, src: &[u8]) {
    let head = dst.align_offset(8).min(src.len());
    let (head, rest) = src.split_at(head);
    let (words, tail) = rest.as_chunks::<8>();
    // SAFETY: every address written lies in `dst..dst+src.len()`, valid by
    // the caller's contract, which also holds the line's seqlock; the word
    // stores start at `dst + head.len()`, which `align_offset` made 8-aligned.
    unsafe {
        for (i, s) in head.iter().enumerate() {
            core::ptr::write_volatile(dst.add(i), *s);
        }
        let at = dst.add(head.len()).cast::<u64>();
        for (i, s) in words.iter().enumerate() {
            core::ptr::write_volatile(at.add(i), u64::from_ne_bytes(*s));
        }
        let at = dst.add(head.len() + 8 * words.len());
        for (i, s) in tail.iter().enumerate() {
            core::ptr::write_volatile(at.add(i), *s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip() {
        let r = Region::new(256);
        let data: Vec<u8> = (0..100u8).collect();
        r.write(30, &data);
        let mut out = vec![0u8; 100];
        r.read(30, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn len_rounds_to_line() {
        let r = Region::new(100);
        assert_eq!(r.len(), 128);
        assert!(!r.is_empty());
    }

    #[test]
    fn atomic_rmw_cas_semantics() {
        let r = Region::new(64);
        let old = r.atomic_rmw_u64(8, |v| {
            assert_eq!(v, 0);
            Some(42)
        });
        assert_eq!(old, 0);
        let old = r.atomic_rmw_u64(8, |_| None);
        assert_eq!(old, 42);
        let mut out = [0u8; 8];
        r.read(8, &mut out);
        assert_eq!(u64::from_le_bytes(out), 42);
    }

    #[test]
    #[should_panic]
    fn unaligned_atomic_panics() {
        let r = Region::new(64);
        r.atomic_rmw_u64(4, |_| None);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let r = Region::new(64);
        let mut b = [0u8; 8];
        r.read(60, &mut b);
    }

    /// Readers must never observe a torn 64-byte line: not a reader of one
    /// whole line, nor one of an unaligned range across a line boundary,
    /// which must see each of its two lines whole.
    #[test]
    fn no_intra_line_tearing() {
        let r = Arc::new(Region::new(2 * LINE));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0u8;
                while !stop.load(Ordering::Relaxed) {
                    let buf = [v; 2 * LINE];
                    r.write(0, &buf);
                    v = v.wrapping_add(1);
                }
            })
        };
        let mut buf = [0u8; LINE];
        // Bytes 5..123: 59 from line 0, 59 from line 1.
        let mut across = [0u8; 2 * LINE - 10];
        for _ in 0..20_000 {
            r.read(0, &mut buf);
            let first = buf[0];
            assert!(
                buf.iter().all(|&b| b == first),
                "torn intra-line read observed"
            );
            r.read(5, &mut across);
            for part in across.chunks(LINE - 5) {
                assert!(
                    part.iter().all(|&b| b == part[0]),
                    "torn unaligned read observed"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// Atomics must serialize against plain writes to the same word.
    #[test]
    fn atomics_are_coherent_with_writes() {
        let r = Arc::new(Region::new(LINE));
        let iters = 20_000u64;
        let adder = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    r.atomic_rmw_u64(0, |v| Some(v + 1));
                }
            })
        };
        for _ in 0..iters {
            r.atomic_rmw_u64(0, |v| Some(v + 1));
        }
        adder.join().unwrap();
        let v = r.atomic_rmw_u64(0, |_| None);
        assert_eq!(v, 2 * iters);
    }
}
