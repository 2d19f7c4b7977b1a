//! `chime-model` — exhaustive model checking of CHIME's lock-lease and
//! partition-migration protocols.
//!
//! The lock-lease model packs its shared word with the shipping
//! [`chime::lockword`] layout, so a layout change moves the model with it.
//! See [`model`] for the exploration engine and [`model::suite`] for what
//! each model must prove: [`model::lease`] (mutual exclusion, lease safety,
//! progress, deadlock freedom) and [`model::migrate`] (routing integrity,
//! journal discipline), each beside a seeded-bug probe the checker must
//! refute. A violation comes with its BFS-shortest witness trace
//! (`actor.label` per step).
//!
//! `make model-check` (part of `make verify`) runs the suite. Its text
//! summary and `results/model.json` (schema 1, with the layout's
//! provenance) are byte-identical across runs, `cmp`-checked in CI and
//! shipped in the `analysis-reports` artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
