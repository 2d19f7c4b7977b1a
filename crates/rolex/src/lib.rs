//! ROLEX: a learned range index on disaggregated memory (FAST'23), the
//! learned-index baseline of the CHIME evaluation.
//!
//! ROLEX keeps piecewise-linear models (with a hard error bound) on every
//! compute node as the *entire* index cache; leaves live contiguously in the
//! memory pool so leaf addresses are computable. Each search fetches the
//! model-predicted candidate leaves (typically two, the paper's
//! amplification factor of 2x span) in one doorbell batch; overflow inserts
//! chain synonym leaves off the owner leaf.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod learned;
pub mod learned_hop;
pub mod plr;
pub mod tree;

pub use learned::RolexConfig;
pub use learned_hop::{ChimeLearned, ChimeLearnedClient};
pub use plr::PlrModel;
pub use tree::{Rolex, RolexClient};
