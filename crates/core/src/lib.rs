//! CHIME: a cache-efficient and high-performance hybrid range index on
//! disaggregated memory (SOSP'24).
//!
//! CHIME combines B+-tree internal nodes (low compute-side cache
//! consumption) with hopscotch-hashing leaf nodes (low memory-side read
//! amplification), synchronized entirely with one-sided RDMA verbs:
//!
//! * [`hopscotch`] — the hopping algorithm over cyclic leaf windows;
//! * [`layout`] / [`lockword`] — node geometry, the replica scheme and the
//!   vacancy-bitmap / argmax lock word;
//! * [`leaf`] / [`internal`] — remote node operations with three-level
//!   optimistic synchronization;
//! * [`cache`] / [`hotspot`] — compute-side internal-node cache and the
//!   hotness-aware speculative-read buffer;
//! * [`skeleton`] — the B+-tree internal levels CHIME shares with Sherman:
//!   the cached descent, pivot up-propagation, internal split and root
//!   growth, and the per-CN route state;
//! * [`tree`] — the full index: search / insert / update / delete / scan
//!   with node splits, up-propagation and sibling-based validation;
//! * [`backoff`] — bounded exponential backoff with seeded jitter, charged
//!   to the virtual clock, used by every optimistic retry loop;
//! * [`config`] — the settings the experiments vary, including the Fig. 15
//!   per-technique toggles and indirect (variable-length) values;
//! * crash-safe lock recovery — the lock word carries a lease epoch
//!   ([`lockword`]) so survivors can reclaim a dead client's leaf lock
//!   (opt-in via [`config::ChimeConfig::lock_lease_spins`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod cache;
pub mod config;
pub mod hopscotch;
pub mod hotspot;
pub mod internal;
pub mod layout;
pub mod leaf;
pub mod lockword;
pub mod skeleton;
mod slablist;
pub mod tree;
pub mod varkey;

pub use config::ChimeConfig;
pub use tree::{Chime, ChimeClient, CnState, TreeBinding};
pub use varkey::{VarKeyClient, VarKeyTree};
