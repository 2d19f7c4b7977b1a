//! SMART: an adaptive-radix-tree range index on disaggregated memory
//! (OSDI'23), the KV-discrete baseline of the CHIME evaluation.
//!
//! Each leaf holds exactly one KV item at its own remote address, giving a
//! read amplification factor of ~1 — but the compute-side cache must hold
//! one pointer per key (plus the adaptive node overhead), which is the high
//! cache consumption CHIME's Fig. 14 measures.
//!
//! The implementation is a classic ART with pessimistic path compression and
//! the four adaptive node types (Node4/16/48/256), keys stored big-endian so
//! radix order equals numeric order. Structural changes replace nodes
//! copy-on-write under per-node locks (obsolete markers send racing writers
//! back to the root); 8-byte values are updated in place with a single
//! atomic-width WRITE.
//!
//! The CN cache is CHIME's [`chime::cache::NodeCache`] over
//! [`node::ArtNode`] (24 + 9 B per child): the same exact LRU, evictions and
//! budget rule as CHIME's routes. The radix descent, copy-on-write node
//! growth, prefix splits and one leaf per key are SMART's own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod tree;

pub use tree::{Smart, SmartClient, SmartConfig};
