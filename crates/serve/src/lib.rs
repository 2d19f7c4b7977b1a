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
//! A warm request allocates only the value a `SET` owns: the decoder
//! borrows its words from its own buffer, both encoders write digits
//! straight into the output, and [`conn::execute_with`] searches a GET into
//! a spare buffer that each connection keeps and takes back from the
//! encoded `Value` reply ([`Conn::serve`], which both transports call, and
//! which encodes a SCAN reply from a row arena the connection keeps).
//! [`execute`] is the adapter over it with a fresh buffer
//! (`tests/allocs.rs` pins the counts). Key 0, which every index reserves,
//! is answered without reaching the index.
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
