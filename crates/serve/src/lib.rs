//! `serve` — the serving front end over the CHIME stack.
//!
//! The repro's north star is "serving heavy traffic", and this crate is
//! the layer that turns connections into index operations: a RESP-like
//! framed protocol ([`proto`]), a transport-agnostic connection state
//! machine and command executor ([`conn`]), semaphore-based connection
//! admission ([`admission`]), and two transports built from that one core:
//!
//! * [`sim`] — the **deterministic simulated-socket mode**: connections
//!   are seeded arrival processes on the virtual clock, multiplexed as
//!   coroutine lanes of `sched` workers, with CQ-depth-driven backpressure
//!   that reads the worker's queue pair through the lane's hook
//!   ([`dmem::qp::lane_cq_depth`]). CI-runnable, chaos-composable,
//!   byte-identical per seed.
//! * [`tcp`] — the **real-TCP mode** behind the `chime-server` /
//!   `chime-loadgen` binaries, for manual runs against actual sockets.
//!
//! The split mirrors the rest of the repo: the protocol, admission and
//! backpressure logic is exercised (and gated) deterministically; the
//! wall-clock transport is a thin shell around the same functions. For a
//! fixed [`SimConfig`] the metrics JSON, trace JSONL, per-connection
//! counters and `BENCH_fig_serve.json` are byte-identical across runs
//! (`tests/determinism.rs`, `tests/chaos.rs`, `examples/server.rs`);
//! `make serve-smoke` boots the TCP server on a loopback port and drives
//! the loadgen through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod conn;
pub mod proto;
pub mod sim;
pub mod tcp;

pub use admission::Admission;
pub use conn::{execute, Conn, ConnCounters};
pub use proto::{Decoder, ProtoError, Request, Response};
pub use sim::{run_sim, ChaosConfig, ConnSummary, OverloadPolicy, SimConfig, SimReport};
