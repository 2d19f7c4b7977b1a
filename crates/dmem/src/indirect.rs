//! Out-of-line value blocks (§4.5 of the CHIME paper).
//!
//! An index configured for indirect values keeps an 8-byte pointer in the
//! leaf entry and the value itself in a remote block:
//!
//! ```text
//! [key: u64 LE][len: u64 LE][value, zero-padded to value_size]
//! ```
//!
//! This module is the only place that knows the format. [`Values`] is the
//! whole job for an index that stores values one way or the other;
//! [`block_len`], [`encode`] and [`pointer()`] let an index issue the
//! allocation and the WRITE inside phase frames of its own.

use crate::addr::GlobalAddr;
use crate::alloc::{ChunkAlloc, OutOfMemory};
use crate::verbs::Endpoint;

/// Bytes of the `[key][len]` block header.
const HEADER: usize = 16;

/// Size of the block holding values of up to `value_size` bytes.
pub fn block_len(value_size: usize) -> usize {
    HEADER + value_size
}

/// The inline leaf entry for `value`: zero-padded (or cut) to `value_size`.
pub fn inline(value: &[u8], value_size: usize) -> Vec<u8> {
    let mut v = value.to_vec();
    v.resize(value_size, 0);
    v
}

/// Encodes the block for `(key, value)`.
pub fn encode(key: u64, value: &[u8], value_size: usize) -> Vec<u8> {
    let mut block = Vec::with_capacity(block_len(value_size));
    block.extend_from_slice(&key.to_le_bytes());
    block.extend_from_slice(&(value.len() as u64).to_le_bytes());
    block.extend_from_slice(value);
    block.resize(block_len(value_size), 0);
    block
}

/// The length of the value held by `block` (its recorded length, capped
/// at the block).
fn value_len(block: &[u8]) -> usize {
    let len = u64::from_le_bytes(block[8..HEADER].try_into().expect("block header")) as usize;
    len.min(block.len() - HEADER)
}

/// The 8-byte leaf entry pointing at the block at `addr`.
pub fn pointer(addr: GlobalAddr) -> Vec<u8> {
    addr.raw().to_le_bytes().to_vec()
}

/// The block address a leaf entry written by [`pointer`] names.
fn target(stored: &[u8]) -> GlobalAddr {
    GlobalAddr::from_raw(u64::from_le_bytes(
        stored[..8].try_into().expect("pointer entry"),
    ))
}

/// How an index keeps values in its leaf entries: inline, zero-padded to
/// `value_size` bytes, or (`indirect`) as an 8-byte pointer to a block
/// holding up to `value_size` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Values {
    /// Largest value the index stores, in bytes.
    pub value_size: usize,
    /// Whether values live out of line.
    pub indirect: bool,
}

impl Values {
    /// Bytes of a leaf entry's value field.
    pub fn slot_size(self) -> usize {
        if self.indirect {
            8
        } else {
            self.value_size
        }
    }

    /// The leaf entry for `(key, value)`: the inline bytes, or a pointer to
    /// a block allocated and written here.
    pub fn store(
        self,
        ep: &mut Endpoint,
        alloc: &mut ChunkAlloc,
        key: u64,
        value: &[u8],
    ) -> Result<Vec<u8>, OutOfMemory> {
        if !self.indirect {
            return Ok(inline(value, self.value_size));
        }
        let addr = alloc.alloc(ep, block_len(self.value_size) as u64)?;
        ep.write(addr, &encode(key, value, self.value_size));
        Ok(pointer(addr))
    }

    /// The value a leaf entry holds: the entry itself, or the block it
    /// points at, read here.
    pub fn resolve(self, ep: &mut Endpoint, stored: Vec<u8>) -> Vec<u8> {
        if self.indirect {
            load(ep, &stored, self.value_size)
        } else {
            stored
        }
    }

    /// [`Self::resolve`], appending the value to `out`.
    pub fn resolve_into(self, ep: &mut Endpoint, stored: &[u8], out: &mut Vec<u8>) {
        if self.indirect {
            load_into(ep, stored, self.value_size, out);
        } else {
            out.extend_from_slice(stored);
        }
    }
}

/// Reads the block the leaf entry `stored` points at and returns its value.
pub fn load(ep: &mut Endpoint, stored: &[u8], value_size: usize) -> Vec<u8> {
    let mut value = Vec::new();
    load_into(ep, stored, value_size, &mut value);
    value
}

/// [`load`], appending the value to `out`: the block is read into `out`'s
/// tail and its header closed up, so nothing else is allocated.
pub fn load_into(ep: &mut Endpoint, stored: &[u8], value_size: usize, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + block_len(value_size), 0);
    ep.read(target(stored), &mut out[at..]);
    let len = value_len(&out[at..]);
    out.copy_within(at + HEADER..at + HEADER + len, at);
    out.truncate(at + len);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_and_padding() {
        let decode = |b: &[u8]| b[HEADER..HEADER + value_len(b)].to_vec();
        let b = encode(7, b"abc", 8);
        assert_eq!(b.len(), block_len(8));
        assert_eq!(&b[..8], &7u64.to_le_bytes());
        assert_eq!(decode(&b), b"abc");
        // A value longer than the slot is cut to the block, never overrun.
        assert_eq!(decode(&encode(7, b"0123456789", 4)), b"0123");
        assert_eq!(inline(b"ab", 4), [b'a', b'b', 0, 0]);
        let a = GlobalAddr::from_raw(0xABCD_0123);
        assert_eq!(target(&pointer(a)), a);
    }
}
