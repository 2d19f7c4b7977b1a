//! Kernel-zeroed memory: one anonymous private mapping per [`Pages`].
//!
//! A fresh anonymous mapping reads zero and is backed by no memory until a
//! page of it is written, whatever the process freed before it. That is
//! why a memory node's capacity is address space. The allocator makes no
//! such promise: glibc serves a large `calloc` from the heap once the free
//! of an earlier block that size has raised its mmap threshold, and then
//! zeroes — so makes resident — every byte of it by hand.

use core::ptr::{self, NonNull};

/// The x86_64 base page: a mapping's length is a whole number of these.
pub const PAGE: usize = 4096;

// The Linux values of the `mmap` arguments used below.
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
/// Reserves no swap for the mapping: its length is address space, not a
/// commitment. Left out under Miri, whose `mmap` accepts exactly
/// `MAP_PRIVATE | MAP_ANONYMOUS`; it changes no contents.
const MAP_NORESERVE: i32 = if cfg!(miri) { 0 } else { 0x4000 };

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// An owned, page-aligned, read-write anonymous mapping that starts zeroed
/// and is unmapped on drop.
pub struct Pages {
    base: NonNull<u8>,
    /// Mapped bytes: the requested length rounded up to whole pages.
    len: usize,
}

impl Pages {
    /// Maps `len` bytes rounded up to whole pages, all reading zero. A zero
    /// length maps nothing.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping (the address space is
    /// exhausted).
    pub fn new(len: usize) -> Pages {
        let len = len.next_multiple_of(PAGE);
        if len == 0 {
            return Pages {
                base: NonNull::<u64>::dangling().cast(),
                len,
            };
        }
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases no existing memory.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        // `MAP_FAILED` is `(void *)-1`.
        assert!(base.addr() != usize::MAX, "mmap of {len} bytes failed");
        Pages {
            base: NonNull::new(base).expect("mmap returned a null mapping"),
            len,
        }
    }

    /// The first byte; page-aligned unless the length is zero.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// Makes the lowest `len` bytes inaccessible, so that an access there
    /// faults: the guard below a stack that grows down.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is a whole number of pages within the mapping,
    /// or if the kernel refuses.
    pub fn guard_low(&mut self, len: usize) {
        assert!(
            len.is_multiple_of(PAGE) && len <= self.len,
            "a guard of {len} bytes in a {}-byte mapping",
            self.len
        );
        // SAFETY: `base..base + len` lies in this mapping, page-aligned, and
        // `&mut self` holds no borrow into it; later accesses there fault.
        let rc = unsafe { mprotect(self.as_ptr(), len, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a {len}-byte guard failed");
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: `base` and `len` are exactly what `Pages::new` mapped, and
        // the mapping is unmapped only here, once.
        let rc = unsafe { munmap(self.as_ptr(), self.len) };
        debug_assert_eq!(rc, 0, "munmap of {} bytes failed", self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte of a mapping, read through its pointer.
    fn bytes(p: &Pages) -> &[u8] {
        // SAFETY: `p` maps `p.len` readable bytes (or none, at an aligned
        // dangling pointer), and nothing writes them during the borrow.
        unsafe { core::slice::from_raw_parts(p.as_ptr(), p.len) }
    }

    #[test]
    fn a_mapping_is_zero_filled_and_whole_pages() {
        let p = Pages::new(3 * PAGE + 1);
        assert_eq!(p.len, 4 * PAGE);
        assert!(p.as_ptr().addr().is_multiple_of(PAGE));
        assert!(bytes(&p).iter().all(|&b| b == 0));
    }

    #[test]
    fn a_zero_length_maps_nothing() {
        let p = Pages::new(0);
        assert_eq!(p.len, 0);
        assert_eq!(bytes(&p), [0u8; 0]);
    }

    #[test]
    fn a_new_mapping_after_a_drop_reads_zero() {
        let len = 2 * PAGE;
        let p = Pages::new(len);
        // SAFETY: `p` maps `len` writable bytes, and nothing else uses them.
        unsafe { p.as_ptr().write_bytes(0xA5, len) };
        assert!(bytes(&p).iter().all(|&b| b == 0xA5));
        drop(p);
        let q = Pages::new(len);
        assert!(bytes(&q).iter().all(|&b| b == 0));
    }
}
