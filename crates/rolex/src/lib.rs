//! ROLEX: a learned range index on disaggregated memory (FAST'23), the
//! learned-index baseline of the CHIME evaluation.
//!
//! ROLEX keeps piecewise-linear models (with a hard error bound) on every
//! compute node as the *entire* index cache; leaves live contiguously in the
//! memory pool so leaf addresses are computable. Each search fetches the
//! model-predicted candidate leaves (typically two, the paper's
//! amplification factor of 2x span) in one doorbell batch; overflow inserts
//! chain synonym leaves off the owner leaf. The greedy PLR models (error
//! bound δ = the leaf span) are trained at load.
//!
//! ROLEX and CHIME-Learned (Fig. 15b) are both [`learned::Learned`] over
//! their leaf format: [`learned`] holds the model, the contiguous leaf array
//! (`leaf_addr`, `candidates`), the bulk load with fences and `client()`,
//! and values go through `dmem::indirect::Values`; [`tree`] (ROLEX, on
//! Sherman's leaf and its `splice_and_unlock` edit) and [`learned_hop`]
//! (CHIME-Learned, on CHIME's hopscotch leaf in fence mode) keep only the
//! leaf protocol. ROLEX keeps the batched candidate read (`read_owner`), the
//! synonym chain under the owner's lock, and `lock_holder` — the one
//! owner-or-synonym locate loop under update and delete. CHIME-Learned keeps
//! the per-candidate neighborhood `probe`, synonym-chain inserts, and
//! `edit_locked` — the one locked chain walk under update and delete.

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
