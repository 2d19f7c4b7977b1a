//! Experiment harness library: the measured-run driver, the figure table
//! (`figs`) and the report/explain documents.

#![forbid(unsafe_code)]
pub mod driver;
pub mod explain;
pub mod figs;
pub mod report;
