//! Sherman: a write-optimized B+ tree on disaggregated memory (SIGMOD'22),
//! the KV-contiguous baseline of the CHIME evaluation.
//!
//! Leaf nodes store sorted KV entries contiguously; every point query reads
//! the **whole leaf node** (the read amplification CHIME attacks), while
//! updates remain fine-grained thanks to the two-level cache-line versions
//! (the corrected scheme the CHIME paper retrofits onto Sherman). The
//! internal levels — nodes, the CN-side cache, the descent, pivot
//! up-propagation and root growth — are `chime::skeleton`'s, run with a
//! right-leaning route: CHIME is built on Sherman's internal-node design, so
//! they are one code. The fence-key leaf protocol stays here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod leaf;
pub mod tree;

pub use tree::{Sherman, ShermanClient, ShermanConfig};
