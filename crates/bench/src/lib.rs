//! Experiment harness library: the measured-run driver, the figure table
//! (`figs`, with the §3.1.2 hashing study) and the report/explain documents.
//! `tests/` holds the cross-crate integration tests (indexes agree,
//! concurrency, Table 1 round trips, the workload pipeline, the lint
//! configuration); host-clock micro-measurements live in the out-of-tree
//! `benchmark/` harness. What follows is the design document, `DESIGN.md`.

#![doc = include_str!("../../../DESIGN.md")]
#![forbid(unsafe_code)]
pub mod driver;
pub mod explain;
pub mod figs;
pub mod report;

/// README.md's Rust snippets, run as doctests so the front page compiles.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
