//! Fixture for R12: hand-written literal masks that are not lock-word
//! field masks (the compare/swap operands are runtime values).
//! Not compiled — consumed as text by `tests/lint.rs`.

pub fn epoch_slice_probe(ep: &mut Endpoint, addr: GlobalAddr, old: u64, next: u64) -> u64 {
    ep.masked_cas(addr, old, 0xFFFF_FFFF, next, 0xFF00)
}

pub fn derived_mask_ok(ep: &mut Endpoint, addr: GlobalAddr, old: u64, next: u64) -> u64 {
    ep.masked_cas(addr, old, EPOCH_MASK << EPOCH_SHIFT, next, EPOCH_MASK << EPOCH_SHIFT)
}
