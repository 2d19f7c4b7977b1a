//! `obs` — deterministic observability for the disaggregated-memory stack.
//!
//! CHIME's performance argument is verb economics: round trips, wire bytes
//! and IOPS per operation. This crate makes those economics observable
//! without sacrificing the simulator's core property — bit-for-bit
//! reproducibility from a seed:
//!
//! * [`event`] — the one telemetry stream: typed [`Event`]s, the [`Sink`]
//!   an endpoint feeds with one `emit` per observation, and the bounded
//!   [`event::Ring`] both rings below keep events in; every other view is a
//!   fold of the stream;
//! * [`trace`] — span/event tracing on the virtual clock: each index
//!   operation opens a span, every verb and injected fault records an event
//!   in a bounded per-client ring buffer, exportable as JSONL;
//! * [`metrics`] — the unified [`metrics::MetricsSnapshot`] registry
//!   (labeled counters / gauges / histogram summaries) with Prometheus-text
//!   and JSON exporters;
//! * [`phase`] — the phase-attribution layer: a fixed [`phase::Phase`]
//!   taxonomy, retry root-cause tagging ([`phase::RetryCause`]), the
//!   deterministic fixed-bucket [`phase::LatencyHist`] and the per-client
//!   [`phase::OpProfile`] that attributes every charged nanosecond, verb
//!   and wire byte to a phase;
//! * [`timeseries`] — continuous telemetry: fixed-width virtual-clock
//!   windows ([`timeseries::TimeSeries`]) accumulating per-window
//!   throughput, per-phase time, retries, CQ depth and shed/served counts,
//!   plus timestamped control-plane events;
//! * [`flight`] — the always-on black-box [`flight::FlightRecorder`]: a
//!   bounded ring of each client's last moments;
//! * [`anomaly`] — in-run anomaly detection over a time series (throughput
//!   cliffs, latency bursts, CQ saturation, over-budget migrations);
//! * [`perfetto`] — the Chrome trace-event exporter turning tracer rings
//!   into a document `ui.perfetto.dev` opens directly;
//! * [`json`] — the dependency-free, deterministic JSON writer/parser the
//!   other modules (and `bench`'s `BENCH_*.json` reports) are built on.
//!
//! Everything here is pure data handling: no wall clocks, no randomness, no
//! hash-map iteration orders in any exported byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod phase;
pub mod timeseries;
pub mod trace;

pub use anomaly::{detect, Anomaly, AnomalyKind};
pub use event::{Event, Ring, Sink};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use json::Json;
pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use perfetto::to_perfetto;
pub use phase::{LatencyHist, OpProfile, Phase, PhaseAcc, RetryCause};
pub use timeseries::{TimeSeries, TsEvent, Window};
pub use trace::{Record, SpanSummary, Tracer};
