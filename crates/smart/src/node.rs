//! ART node formats and remote operations.
//!
//! Child pointers are tagged 8-byte words: bit 63 marks a leaf, bits 62:61
//! carry the node type (so a reader knows how many bytes to fetch), and the
//! low 60 bits are the [`GlobalAddr`] (memory-node ids are limited to 12
//! bits here). Node headers and the prefix are immutable after creation —
//! structural changes build a new node and swap the parent slot — so node
//! reads need no version protocol; child slots are single 8-byte words and
//! inherit the substrate's word atomicity.
//!
//! Leaves are versioned objects `[ver | key | value]` with a lock word, so
//! large values can be updated in place under the leaf lock while readers
//! validate EVs; 8-byte values are updated with one atomic-width WRITE.

use chime::backoff::read_node;
use chime::cache::Cached;
use chime::lockword;
use dmem::versioned::{bump, pack_ver, Fetches, Layout};
use dmem::{Endpoint, GlobalAddr};

/// The obsolete bit of a node's lock word, beside the lock bit.
const OBSOLETE: u64 = 0b10;
/// Tag bit marking a leaf pointer.
const LEAF_TAG: u64 = 1 << 63;
const TYPE_SHIFT: u32 = 61;
const TYPE_MASK: u64 = 0b11 << TYPE_SHIFT;
const ADDR_MASK: u64 = (1 << 60) - 1;

/// The four adaptive node types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeType {
    /// Up to 4 children.
    N4,
    /// Up to 16 children.
    N16,
    /// Up to 48 children (256-byte index).
    N48,
    /// Direct 256-slot array.
    N256,
}

impl NodeType {
    /// Child capacity.
    pub fn capacity(self) -> usize {
        match self {
            NodeType::N4 => 4,
            NodeType::N16 => 16,
            NodeType::N48 => 48,
            NodeType::N256 => 256,
        }
    }

    /// The next larger type.
    pub fn grown(self) -> NodeType {
        match self {
            NodeType::N4 => NodeType::N16,
            NodeType::N16 => NodeType::N48,
            NodeType::N48 => NodeType::N256,
            NodeType::N256 => panic!("Node256 cannot grow"),
        }
    }

    fn code(self) -> u64 {
        match self {
            NodeType::N4 => 0,
            NodeType::N16 => 1,
            NodeType::N48 => 2,
            NodeType::N256 => 3,
        }
    }

    fn from_code(c: u64) -> NodeType {
        match c {
            0 => NodeType::N4,
            1 => NodeType::N16,
            2 => NodeType::N48,
            _ => NodeType::N256,
        }
    }

    /// Byte offset of the key array (N4/N16) or index array (N48).
    pub const KEYS_OFF: usize = 16;

    /// Byte offset of the pointer array.
    pub fn ptrs_off(self) -> usize {
        match self {
            NodeType::N4 => 24,
            NodeType::N16 => 32,
            NodeType::N48 => 272,
            NodeType::N256 => 16,
        }
    }

    /// Physical offset of the lock word.
    pub fn lock_off(self) -> usize {
        self.ptrs_off()
            + 8 * match self {
                NodeType::N256 => 256,
                t => t.capacity(),
            }
    }

    /// Total node size (including the lock word).
    pub fn size(self) -> usize {
        self.lock_off() + 8
    }
}

/// A tagged child pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// No child.
    Empty,
    /// A single-KV leaf.
    Leaf(GlobalAddr),
    /// An internal node of the given type.
    Node(GlobalAddr, NodeType),
}

impl Child {
    /// Decodes a raw slot word.
    pub fn decode(raw: u64) -> Child {
        if raw == 0 {
            Child::Empty
        } else if raw & LEAF_TAG != 0 {
            Child::Leaf(GlobalAddr::from_raw(raw & ADDR_MASK))
        } else {
            Child::Node(
                GlobalAddr::from_raw(raw & ADDR_MASK),
                NodeType::from_code((raw & TYPE_MASK) >> TYPE_SHIFT),
            )
        }
    }

    /// Encodes to a raw slot word.
    pub fn encode(self) -> u64 {
        match self {
            Child::Empty => 0,
            Child::Leaf(a) => {
                assert_eq!(a.raw() & !ADDR_MASK, 0, "mn id too large for tagging");
                a.raw() | LEAF_TAG
            }
            Child::Node(a, t) => {
                assert_eq!(a.raw() & !ADDR_MASK, 0, "mn id too large for tagging");
                a.raw() | (t.code() << TYPE_SHIFT)
            }
        }
    }
}

/// A parsed ART internal node.
#[derive(Debug, Clone)]
pub struct ArtNode {
    /// Remote address.
    pub addr: GlobalAddr,
    /// Node type.
    pub ty: NodeType,
    /// Compressed path (pessimistic, full bytes).
    pub prefix: Vec<u8>,
    /// `(key byte, raw child)` pairs, sorted by key byte.
    pub children: Vec<(u8, u64)>,
    /// Set when the node has been replaced (copy-on-write).
    pub obsolete: bool,
}

impl ArtNode {
    /// The raw child for `byte` (0 when absent).
    pub fn child(&self, byte: u8) -> u64 {
        self.children
            .binary_search_by_key(&byte, |e| e.0)
            .map(|i| self.children[i].1)
            .unwrap_or(0)
    }

    /// Whether every slot is occupied.
    pub fn full(&self) -> bool {
        self.children.len() >= self.ty.capacity()
    }
}

impl Cached for ArtNode {
    fn addr(&self) -> GlobalAddr {
        self.addr
    }

    /// The compact parsed form (header + prefix + one key byte and one
    /// 8-byte pointer per child), which is what a CN cache actually stores.
    fn cached_bytes(&self) -> u64 {
        24 + 9 * self.children.len() as u64
    }
}

/// Result of [`ArtOps::insert_slot_locked`]; the node lock is released on
/// every outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// The child was installed.
    Inserted,
    /// The slot is already taken (concurrent insert won; re-descend).
    Occupied,
    /// The node is full (grow it).
    Full,
}

/// Remote ART node/leaf operations for one value size.
#[derive(Debug, Clone, Copy)]
pub struct ArtOps {
    /// Value size in bytes.
    pub value_size: usize,
}

impl ArtOps {
    /// The versioned layout of a leaf object.
    pub fn leaf_layout(&self) -> Layout {
        Layout::new(1 + 8 + self.value_size)
    }

    /// Physical leaf size (payload + lock word).
    pub fn leaf_size(&self) -> usize {
        self.leaf_layout().node_size()
    }

    /// Writes a fresh leaf.
    pub fn write_leaf(&self, ep: &mut Endpoint, addr: GlobalAddr, key: u64, value: &[u8]) {
        let mut data = vec![0u8; 9 + self.value_size];
        data[0] = pack_ver(0, 0);
        data[1..9].copy_from_slice(&key.to_le_bytes());
        data[9..9 + value.len().min(self.value_size)]
            .copy_from_slice(&value[..value.len().min(self.value_size)]);
        let (ps, phys) = self.leaf_layout().build_phys(0, &data, |_| pack_ver(0, 0));
        ep.write(addr.add(ps as u64), &phys);
    }

    /// Reads a leaf through the client's READ buffers `reads`, retrying
    /// torn large-value updates: returns its key and copies its value into
    /// `value`.
    pub fn read_leaf_into(&self, ep: &mut Endpoint, addr: GlobalAddr, reads: &mut Fetches, value: &mut Vec<u8>) -> u64 {
        let end = 9 + self.value_size;
        read_node(ep, &self.leaf_layout(), addr, reads, |f, _| {
            (f.check_nv([0]).is_some() && f.check_ev(0, end)).then(|| {
                value.clear();
                value.extend_from_slice(f.bytes(9, self.value_size));
                f.u64_at(1)
            })
        })
    }

    /// Updates a leaf value in place.
    ///
    /// Values up to 8 bytes are one atomic-width WRITE (1 RTT); larger
    /// values take the leaf lock and bump the EV (3 RTTs).
    pub fn update_leaf(&self, ep: &mut Endpoint, addr: GlobalAddr, value: &[u8]) {
        let l = self.leaf_layout();
        if self.value_size <= 8 {
            // Offset 9 in payload = physical offset 10, within line 0.
            let mut v = value.to_vec();
            v.resize(self.value_size, 0);
            ep.write(addr.add(l.phys_of(9) as u64), &v);
            return;
        }
        let lock_addr = addr.add(l.lock_offset() as u64);
        let _held = lockword::acquire(ep, lock_addr, 0);
        let f = l.fetch(ep, addr, 0, 9 + self.value_size);
        let old_ev = dmem::versioned::ev(f.get(0));
        let e = bump(old_ev);
        let mut data = vec![0u8; 9 + self.value_size];
        data[0] = pack_ver(0, e);
        data[1..9].copy_from_slice(&f.copy(1, 8));
        data[9..9 + value.len().min(self.value_size)]
            .copy_from_slice(&value[..value.len().min(self.value_size)]);
        let (ps, phys) = l.build_phys(0, &data, |_| pack_ver(0, e));
        ep.write_batch(&[
            (addr.add(ps as u64), &phys),
            (lock_addr, &0u64.to_le_bytes()),
        ]);
    }

    /// Reads and parses an internal node (type known from the tagged
    /// pointer). Includes the lock word so `obsolete` is visible.
    pub fn read_node(&self, ep: &mut Endpoint, addr: GlobalAddr, ty: NodeType) -> ArtNode {
        let mut buf = vec![0u8; ty.size()];
        ep.read(addr, &mut buf);
        Self::parse(addr, ty, &buf)
    }

    fn parse(addr: GlobalAddr, ty: NodeType, buf: &[u8]) -> ArtNode {
        let plen = buf[1] as usize;
        let prefix = buf[2..2 + plen.min(8)].to_vec();
        let ptr_at = |i: usize| {
            u64::from_le_bytes(
                buf[ty.ptrs_off() + 8 * i..ty.ptrs_off() + 8 * i + 8]
                    .try_into()
                    .unwrap(),
            )
        };
        let mut children = Vec::new();
        match ty {
            NodeType::N4 | NodeType::N16 => {
                for i in 0..ty.capacity() {
                    let p = ptr_at(i);
                    if p != 0 {
                        children.push((buf[NodeType::KEYS_OFF + i], p));
                    }
                }
            }
            NodeType::N48 => {
                for b in 0..256usize {
                    let idx = buf[NodeType::KEYS_OFF + b];
                    if idx != 0 {
                        let p = ptr_at(idx as usize - 1);
                        if p != 0 {
                            children.push((b as u8, p));
                        }
                    }
                }
            }
            NodeType::N256 => {
                for b in 0..256usize {
                    let p = ptr_at(b);
                    if p != 0 {
                        children.push((b as u8, p));
                    }
                }
            }
        }
        children.sort_by_key(|e| e.0);
        let lock = u64::from_le_bytes(buf[ty.lock_off()..ty.lock_off() + 8].try_into().unwrap());
        ArtNode {
            addr,
            ty,
            prefix,
            children,
            obsolete: lock & OBSOLETE != 0,
        }
    }

    /// Serializes and writes a brand-new node; returns its tagged pointer.
    pub fn write_node(&self, ep: &mut Endpoint, addr: GlobalAddr, ty: NodeType, prefix: &[u8], children: &[(u8, u64)]) -> u64 {
        assert!(prefix.len() <= 8);
        assert!(children.len() <= ty.capacity());
        let mut buf = vec![0u8; ty.size()];
        buf[0] = ty.code() as u8;
        buf[1] = prefix.len() as u8;
        buf[2..2 + prefix.len()].copy_from_slice(prefix);
        match ty {
            NodeType::N4 | NodeType::N16 => {
                for (i, (b, p)) in children.iter().enumerate() {
                    buf[NodeType::KEYS_OFF + i] = *b;
                    buf[ty.ptrs_off() + 8 * i..ty.ptrs_off() + 8 * i + 8]
                        .copy_from_slice(&p.to_le_bytes());
                }
            }
            NodeType::N48 => {
                for (i, (b, p)) in children.iter().enumerate() {
                    buf[NodeType::KEYS_OFF + *b as usize] = i as u8 + 1;
                    buf[ty.ptrs_off() + 8 * i..ty.ptrs_off() + 8 * i + 8]
                        .copy_from_slice(&p.to_le_bytes());
                }
            }
            NodeType::N256 => {
                for (b, p) in children {
                    let off = ty.ptrs_off() + 8 * *b as usize;
                    buf[off..off + 8].copy_from_slice(&p.to_le_bytes());
                }
            }
        }
        ep.write(addr, &buf);
        Child::Node(addr, ty).encode()
    }

    /// Acquires the node lock (bit 0); fails fast when obsolete (bit 1).
    ///
    /// Returns `false` when the node is obsolete (caller restarts from the
    /// root).
    pub fn lock_node(&self, ep: &mut Endpoint, addr: GlobalAddr, ty: NodeType) -> bool {
        lockword::acquire(ep, addr.add(ty.lock_off() as u64), OBSOLETE).is_some()
    }

    /// Releases the node lock.
    pub fn unlock_node(&self, ep: &mut Endpoint, addr: GlobalAddr, ty: NodeType) {
        ep.write(addr.add(ty.lock_off() as u64), &0u64.to_le_bytes());
    }

    /// Marks a locked node obsolete and releases the lock.
    pub fn retire_node(&self, ep: &mut Endpoint, addr: GlobalAddr, ty: NodeType) {
        ep.write(addr.add(ty.lock_off() as u64), &OBSOLETE.to_le_bytes());
    }

    /// Writes child `byte -> raw` into a locked, non-full node.
    ///
    /// `node` must be the fresh under-lock image; it is updated in place.
    pub fn write_slot(&self, ep: &mut Endpoint, node: &mut ArtNode, byte: u8, raw: u64) {
        let ty = node.ty;
        match ty {
            NodeType::N4 | NodeType::N16 => {
                if let Ok(i) = node.children.binary_search_by_key(&byte, |e| e.0) {
                    // Overwrite existing slot: find its physical index by
                    // re-deriving from order of insertion; we must locate
                    // the slot whose key byte matches remotely. Read-free:
                    // we track slots implicitly by rewriting both arrays.
                    let slot = self.locate_slot(ep, node, byte).expect("slot exists");
                    ep.write(
                        node.addr.add((ty.ptrs_off() + 8 * slot) as u64),
                        &raw.to_le_bytes(),
                    );
                    node.children[i].1 = raw;
                    return;
                }
                let slot = self.first_free_slot(ep, node);
                let key_addr = node.addr.add((NodeType::KEYS_OFF + slot) as u64);
                let ptr_addr = node.addr.add((ty.ptrs_off() + 8 * slot) as u64);
                ep.write_batch(&[(key_addr, &[byte]), (ptr_addr, &raw.to_le_bytes())]);
                node.children.push((byte, raw));
                node.children.sort_by_key(|e| e.0);
            }
            NodeType::N48 => {
                if node.children.binary_search_by_key(&byte, |e| e.0).is_ok() {
                    let slot = self.locate_slot(ep, node, byte).expect("slot exists");
                    ep.write(
                        node.addr.add((ty.ptrs_off() + 8 * slot) as u64),
                        &raw.to_le_bytes(),
                    );
                    let i = node
                        .children
                        .binary_search_by_key(&byte, |e| e.0)
                        .unwrap();
                    node.children[i].1 = raw;
                    return;
                }
                let slot = self.first_free_slot(ep, node);
                let idx_addr = node.addr.add((NodeType::KEYS_OFF + byte as usize) as u64);
                let ptr_addr = node.addr.add((ty.ptrs_off() + 8 * slot) as u64);
                ep.write_batch(&[(idx_addr, &[slot as u8 + 1]), (ptr_addr, &raw.to_le_bytes())]);
                node.children.push((byte, raw));
                node.children.sort_by_key(|e| e.0);
            }
            NodeType::N256 => {
                ep.write(
                    node.addr.add((ty.ptrs_off() + 8 * byte as usize) as u64),
                    &raw.to_le_bytes(),
                );
                match node.children.binary_search_by_key(&byte, |e| e.0) {
                    Ok(i) => {
                        if raw == 0 {
                            node.children.remove(i);
                        } else {
                            node.children[i].1 = raw;
                        }
                    }
                    Err(i) => {
                        if raw != 0 {
                            node.children.insert(i, (byte, raw));
                        }
                    }
                }
            }
        }
    }

    /// Finds the physical slot storing `byte` (N4/16/48) with one small
    /// READ of the key/index array.
    fn locate_slot(&self, ep: &mut Endpoint, node: &ArtNode, byte: u8) -> Option<usize> {
        match node.ty {
            NodeType::N4 | NodeType::N16 => {
                let cap = node.ty.capacity();
                let mut keys = vec![0u8; cap];
                ep.read(node.addr.add(NodeType::KEYS_OFF as u64), &mut keys);
                let mut ptrs = vec![0u8; 8 * cap];
                ep.read(node.addr.add(node.ty.ptrs_off() as u64), &mut ptrs);
                (0..cap).find(|&i| {
                    keys[i] == byte
                        && u64::from_le_bytes(ptrs[8 * i..8 * i + 8].try_into().unwrap()) != 0
                })
            }
            NodeType::N48 => {
                let mut idx = [0u8; 1];
                ep.read(
                    node.addr.add((NodeType::KEYS_OFF + byte as usize) as u64),
                    &mut idx,
                );
                (idx[0] != 0).then_some(idx[0] as usize - 1)
            }
            NodeType::N256 => Some(byte as usize),
        }
    }

    /// Finds a free physical slot in a locked node (N4/16/48).
    fn first_free_slot(&self, ep: &mut Endpoint, node: &ArtNode) -> usize {
        let cap = node.ty.capacity();
        assert!(node.children.len() < cap, "node full");
        let mut ptrs = vec![0u8; 8 * cap];
        ep.read(node.addr.add(node.ty.ptrs_off() as u64), &mut ptrs);
        (0..cap)
            .find(|&i| u64::from_le_bytes(ptrs[8 * i..8 * i + 8].try_into().unwrap()) == 0)
            .expect("free slot must exist")
    }

    /// One-round-trip slot insert under the node lock: reads the key/ptr
    /// arrays once, then writes the key byte, the pointer and the unlock in
    /// a single doorbell batch (SMART's lean insert path).
    pub fn insert_slot_locked(
        &self,
        ep: &mut Endpoint,
        addr: GlobalAddr,
        ty: NodeType,
        byte: u8,
        raw: u64,
    ) -> SlotOutcome {
        let body_off = NodeType::KEYS_OFF;
        let body_len = ty.lock_off() - body_off;
        let mut body = vec![0u8; body_len];
        ep.read(addr.add(body_off as u64), &mut body);
        let ptr_at = |i: usize| {
            let o = ty.ptrs_off() - body_off + 8 * i;
            u64::from_le_bytes(body[o..o + 8].try_into().unwrap())
        };
        let unlock_addr = addr.add(ty.lock_off() as u64);
        let zero = 0u64.to_le_bytes();
        let raw_b = raw.to_le_bytes();
        match ty {
            NodeType::N4 | NodeType::N16 => {
                let cap = ty.capacity();
                let mut free = None;
                #[allow(clippy::needless_range_loop)] // `i` also feeds ptr_at
                for i in 0..cap {
                    if ptr_at(i) != 0 {
                        if body[i] == byte {
                            ep.write(unlock_addr, &zero);
                            return SlotOutcome::Occupied;
                        }
                    } else if free.is_none() {
                        free = Some(i);
                    }
                }
                let Some(i) = free else {
                    ep.write(unlock_addr, &zero);
                    return SlotOutcome::Full;
                };
                ep.write_batch(&[
                    (addr.add((NodeType::KEYS_OFF + i) as u64), &[byte]),
                    (addr.add((ty.ptrs_off() + 8 * i) as u64), &raw_b),
                    (unlock_addr, &zero),
                ]);
                SlotOutcome::Inserted
            }
            NodeType::N48 => {
                if body[byte as usize] != 0 && ptr_at(body[byte as usize] as usize - 1) != 0 {
                    ep.write(unlock_addr, &zero);
                    return SlotOutcome::Occupied;
                }
                let Some(i) = (0..48).find(|&i| ptr_at(i) == 0) else {
                    ep.write(unlock_addr, &zero);
                    return SlotOutcome::Full;
                };
                ep.write_batch(&[
                    (addr.add((NodeType::KEYS_OFF + byte as usize) as u64), &[i as u8 + 1]),
                    (addr.add((ty.ptrs_off() + 8 * i) as u64), &raw_b),
                    (unlock_addr, &zero),
                ]);
                SlotOutcome::Inserted
            }
            NodeType::N256 => {
                if ptr_at(byte as usize) != 0 {
                    ep.write(unlock_addr, &zero);
                    return SlotOutcome::Occupied;
                }
                ep.write_batch(&[
                    (addr.add((ty.ptrs_off() + 8 * byte as usize) as u64), &raw_b),
                    (unlock_addr, &zero),
                ]);
                SlotOutcome::Inserted
            }
        }
    }

    /// Clears child `byte` in a locked node (delete path).
    pub fn clear_slot(&self, ep: &mut Endpoint, node: &mut ArtNode, byte: u8) {
        match node.ty {
            NodeType::N4 | NodeType::N16 => {
                if let Some(slot) = self.locate_slot(ep, node, byte) {
                    ep.write(
                        node.addr.add((node.ty.ptrs_off() + 8 * slot) as u64),
                        &0u64.to_le_bytes(),
                    );
                }
            }
            NodeType::N48 => {
                // Clear both the index byte and the pointer: a dangling
                // index byte would alias the slot once it is reused.
                if let Some(slot) = self.locate_slot(ep, node, byte) {
                    ep.write_batch(&[
                        (
                            node.addr.add((NodeType::KEYS_OFF + byte as usize) as u64),
                            &[0u8],
                        ),
                        (
                            node.addr.add((node.ty.ptrs_off() + 8 * slot) as u64),
                            &0u64.to_le_bytes(),
                        ),
                    ]);
                }
            }
            NodeType::N256 => {
                ep.write(
                    node.addr.add((node.ty.ptrs_off() + 8 * byte as usize) as u64),
                    &0u64.to_le_bytes(),
                );
            }
        }
        if let Ok(i) = node.children.binary_search_by_key(&byte, |e| e.0) {
            node.children.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem::node::RESERVED_BYTES;
    use dmem::Pool;

    fn setup() -> (Endpoint, ArtOps) {
        (
            Endpoint::new(Pool::with_defaults(1, 16 << 20)),
            ArtOps { value_size: 8 },
        )
    }

    /// The leaf's key and value, read into fresh buffers.
    fn read_leaf(ops: &ArtOps, ep: &mut Endpoint, addr: GlobalAddr) -> (u64, Vec<u8>) {
        let mut value = Vec::new();
        let key = ops.read_leaf_into(ep, addr, &mut Fetches::default(), &mut value);
        (key, value)
    }

    #[test]
    fn child_tagging_roundtrip() {
        let a = GlobalAddr::new(3, 0x1234);
        for c in [
            Child::Empty,
            Child::Leaf(a),
            Child::Node(a, NodeType::N4),
            Child::Node(a, NodeType::N48),
            Child::Node(a, NodeType::N256),
        ] {
            assert_eq!(Child::decode(c.encode()), c);
        }
    }

    #[test]
    fn node_type_geometry() {
        assert_eq!(NodeType::N4.size(), 64);
        assert!(NodeType::N16.size() < NodeType::N48.size());
        assert!(NodeType::N48.size() < NodeType::N256.size());
        assert_eq!(NodeType::N256.lock_off() % 8, 0);
    }

    #[test]
    fn leaf_roundtrip_and_update() {
        let (mut ep, ops) = setup();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_leaf(&mut ep, addr, 42, &7u64.to_le_bytes());
        assert_eq!(read_leaf(&ops, &mut ep, addr), (42, 7u64.to_le_bytes().to_vec()));
        ops.update_leaf(&mut ep, addr, &9u64.to_le_bytes());
        assert_eq!(read_leaf(&ops, &mut ep, addr), (42, 9u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn large_value_leaf_locked_update() {
        let pool = Pool::with_defaults(1, 16 << 20);
        let mut ep = Endpoint::new(pool);
        let ops = ArtOps { value_size: 256 };
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_leaf(&mut ep, addr, 5, &[1u8; 256]);
        ops.update_leaf(&mut ep, addr, &[2u8; 256]);
        let (k, v) = read_leaf(&ops, &mut ep, addr);
        assert_eq!(k, 5);
        assert_eq!(v, vec![2u8; 256]);
    }

    /// A large-value leaf torn by a stalled update — its second line already
    /// on the next entry version — holds its reader in the retry loop, which
    /// counts each torn image, until an update completes; the reader then
    /// returns the updated value.
    #[test]
    #[allow(clippy::disallowed_methods, reason = "the reader must spin on a real stall")]
    fn leaf_read_retries_a_torn_leaf_until_healed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let pool = Pool::with_defaults(1, 16 << 20);
        let mut ep = Endpoint::new(Arc::clone(&pool));
        let ops = ArtOps { value_size: 256 };
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_leaf(&mut ep, addr, 5, &[1u8; 256]);
        ops.leaf_layout().write(&mut ep, addr, 63, &[2u8; 63], |_| pack_ver(0, 1));
        let healed = Arc::new(AtomicBool::new(false));
        let reader = {
            let healed = Arc::clone(&healed);
            std::thread::spawn(move || {
                let mut ep = Endpoint::new(pool);
                let got = read_leaf(&ops, &mut ep, addr);
                assert!(healed.load(Ordering::SeqCst), "reader accepted a torn leaf");
                (got, ep.stats().torn_reads_detected)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(!reader.is_finished(), "the torn leaf must force retries");
        healed.store(true, Ordering::SeqCst);
        ops.update_leaf(&mut ep, addr, &[3u8; 256]);
        let (got, torn_reads) = reader.join().unwrap();
        assert_eq!(got, (5, vec![3u8; 256]));
        assert!(torn_reads > 0, "the retries must be counted as torn reads");
    }

    #[test]
    fn node_write_parse_roundtrip() {
        let (mut ep, ops) = setup();
        for ty in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
            let addr = GlobalAddr::new(0, RESERVED_BYTES + 8192 * ty.code());
            let kids = vec![
                (3u8, Child::Leaf(GlobalAddr::new(0, 0x100)).encode()),
                (200u8, Child::Leaf(GlobalAddr::new(0, 0x200)).encode()),
            ];
            ops.write_node(&mut ep, addr, ty, &[9, 8], &kids);
            let n = ops.read_node(&mut ep, addr, ty);
            assert_eq!(n.ty, ty);
            assert_eq!(n.prefix, vec![9, 8]);
            assert_eq!(n.children, kids);
            assert!(!n.obsolete);
            assert_eq!(Child::decode(n.child(3)), Child::Leaf(GlobalAddr::new(0, 0x100)));
            assert_eq!(n.child(4), 0);
        }
    }

    #[test]
    fn slot_writes_visible() {
        let (mut ep, ops) = setup();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_node(&mut ep, addr, NodeType::N16, &[], &[]);
        let mut n = ops.read_node(&mut ep, addr, NodeType::N16);
        assert!(ops.lock_node(&mut ep, addr, NodeType::N16));
        for b in [5u8, 1, 9] {
            let leaf = Child::Leaf(GlobalAddr::new(0, 0x1000 + b as u64)).encode();
            ops.write_slot(&mut ep, &mut n, b, leaf);
        }
        ops.unlock_node(&mut ep, addr, NodeType::N16);
        let got = ops.read_node(&mut ep, addr, NodeType::N16);
        assert_eq!(got.children.len(), 3);
        assert_eq!(got.children[0].0, 1);
        assert_eq!(got.children[2].0, 9);
        // Overwrite an existing byte.
        assert!(ops.lock_node(&mut ep, addr, NodeType::N16));
        let mut n2 = ops.read_node(&mut ep, addr, NodeType::N16);
        let nl = Child::Leaf(GlobalAddr::new(0, 0x9999)).encode();
        ops.write_slot(&mut ep, &mut n2, 5, nl);
        ops.unlock_node(&mut ep, addr, NodeType::N16);
        let got = ops.read_node(&mut ep, addr, NodeType::N16);
        assert_eq!(Child::decode(got.child(5)), Child::Leaf(GlobalAddr::new(0, 0x9999)));
    }

    #[test]
    fn retire_blocks_locking() {
        let (mut ep, ops) = setup();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_node(&mut ep, addr, NodeType::N4, &[], &[]);
        assert!(ops.lock_node(&mut ep, addr, NodeType::N4));
        ops.retire_node(&mut ep, addr, NodeType::N4);
        assert!(!ops.lock_node(&mut ep, addr, NodeType::N4));
        let n = ops.read_node(&mut ep, addr, NodeType::N4);
        assert!(n.obsolete);
    }

    #[test]
    fn an_obsolete_node_is_abandoned_even_while_locked() {
        // A retirer's write may land while another waiter still sees the
        // lock held: the waiter restarts instead of waiting.
        let (mut ep, ops) = setup();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_node(&mut ep, addr, NodeType::N4, &[], &[]);
        ep.write(addr.add(NodeType::N4.lock_off() as u64), &(OBSOLETE | 1).to_le_bytes());
        assert!(!ops.lock_node(&mut ep, addr, NodeType::N4));
        assert_eq!(ep.stats().lock_retries, 0);
    }

    /// An endpoint on a fresh pool whose first `n` masked CASes report the
    /// lock held.
    fn contended(n: u64) -> Endpoint {
        let mut plan = dmem::FaultPlan::seeded(1);
        let mut rule = dmem::FaultRule::always("held", Some(dmem::VerbKind::MaskedCas), dmem::FaultAction::FailCas);
        rule.max_fires = n;
        plan.rules.push(rule);
        let session = std::sync::Arc::new(dmem::FaultSession::new(plan));
        Endpoint::with_faults(Pool::with_defaults(1, 16 << 20), session, 0)
    }

    #[test]
    fn lock_node_counts_each_conflict_as_a_lock_retry() {
        let ops = ArtOps { value_size: 8 };
        let mut ep = contended(3);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_node(&mut ep, addr, NodeType::N16, &[], &[]);
        assert!(ops.lock_node(&mut ep, addr, NodeType::N16));
        assert_eq!(ep.stats().lock_retries, 3);
        let mut word = [0u8; 8];
        ep.read(addr.add(NodeType::N16.lock_off() as u64), &mut word);
        assert_eq!(u64::from_le_bytes(word), 1, "locked, not obsolete");
    }

    #[test]
    fn large_value_update_counts_each_lock_conflict() {
        let ops = ArtOps { value_size: 64 };
        let mut ep = contended(2);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ops.write_leaf(&mut ep, addr, 5, &[1u8; 64]);
        ops.update_leaf(&mut ep, addr, &[2u8; 64]);
        assert_eq!(ep.stats().lock_retries, 2);
        assert_eq!(read_leaf(&ops, &mut ep, addr), (5, vec![2u8; 64]));
    }

    #[test]
    fn clear_slot_removes_child() {
        let (mut ep, ops) = setup();
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        let kid = Child::Leaf(GlobalAddr::new(0, 0x100)).encode();
        ops.write_node(&mut ep, addr, NodeType::N48, &[], &[(7, kid)]);
        let mut n = ops.read_node(&mut ep, addr, NodeType::N48);
        assert!(ops.lock_node(&mut ep, addr, NodeType::N48));
        ops.clear_slot(&mut ep, &mut n, 7);
        ops.unlock_node(&mut ep, addr, NodeType::N48);
        let got = ops.read_node(&mut ep, addr, NodeType::N48);
        assert_eq!(got.child(7), 0);
        assert!(got.children.is_empty());
    }
}
