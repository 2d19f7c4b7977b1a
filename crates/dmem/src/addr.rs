//! Global addresses for the disaggregated memory pool.
//!
//! Like Sherman, SMART and CHIME, every remote pointer is 8 bytes and packs
//! the memory-node id together with the byte offset inside that node's
//! registered region.

use core::fmt;

/// Number of low bits holding the byte offset inside a memory node.
const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// An 8-byte pointer into the disaggregated memory pool.
///
/// Bit layout: `[63:48]` memory-node id, `[47:0]` byte offset. The all-zero
/// value is reserved as the null pointer (memory nodes never hand out offset
/// 0; the first allocatable byte is at [`crate::node::RESERVED_BYTES`]),
/// which is also the default.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddr(u64);

impl GlobalAddr {
    /// The null remote pointer.
    pub const NULL: GlobalAddr = GlobalAddr(0);

    /// Builds an address from a memory-node id and a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit into 48 bits.
    #[inline]
    pub fn new(mn: u16, offset: u64) -> Self {
        assert!(offset <= OFFSET_MASK, "offset {offset:#x} exceeds 48 bits");
        GlobalAddr(((mn as u64) << OFFSET_BITS) | offset)
    }

    /// Reconstructs an address from its raw 8-byte representation.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        GlobalAddr(raw)
    }

    /// Returns the raw 8-byte representation (what is stored in node fields).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the memory-node id.
    #[inline]
    pub fn mn(self) -> u16 {
        (self.0 >> OFFSET_BITS) as u16
    }

    /// Returns the byte offset within the memory node's region.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// Returns `true` for the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns this address advanced by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the new offset overflows 48 bits.
    // Not `ops::Add`: mixing address + byte-delta under the `+` operator
    // reads like pointer arithmetic on the raw u64 and hides the 48-bit
    // offset check; the explicit method keeps call sites unambiguous.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, delta: u64) -> Self {
        GlobalAddr::new(self.mn(), self.offset() + delta)
    }
}

impl fmt::Debug for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "GlobalAddr(NULL)")
        } else {
            write!(f, "GlobalAddr(mn={}, off={:#x})", self.mn(), self.offset())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = GlobalAddr::new(7, 0xdead_beef);
        assert_eq!(a.mn(), 7);
        assert_eq!(a.offset(), 0xdead_beef);
        assert_eq!(GlobalAddr::from_raw(a.raw()), a);
        assert!(!a.is_null());
    }

    #[test]
    fn null_is_null() {
        assert!(GlobalAddr::NULL.is_null());
        assert_eq!(GlobalAddr::NULL.raw(), 0);
    }

    #[test]
    fn add_advances_offset() {
        let a = GlobalAddr::new(3, 0x1000);
        let b = a.add(0x10);
        assert_eq!(b.mn(), 3);
        assert_eq!(b.offset(), 0x1010);
    }

    #[test]
    #[should_panic]
    fn offset_overflow_panics() {
        let _ = GlobalAddr::new(0, 1 << 48);
    }

    #[test]
    fn max_offset_ok() {
        let a = GlobalAddr::new(u16::MAX, (1 << 48) - 1);
        assert_eq!(a.mn(), u16::MAX);
        assert_eq!(a.offset(), (1 << 48) - 1);
    }
}
