//! `chime-model` — exhaustive model checking of CHIME's lock-lease and
//! partition-migration protocols.
//!
//! The lock-lease model packs its shared word with the shipping
//! [`chime::lockword`] layout, so a layout change moves the model with it.
//! See [`model`] for the exploration engine and [`model::suite`] for what
//! each model must prove.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
