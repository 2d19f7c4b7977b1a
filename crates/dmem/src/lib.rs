//! `dmem` — a deterministic disaggregated-memory substrate.
//!
//! This crate simulates the hardware platform of the CHIME paper (SOSP'24):
//! a pool of memory nodes reached exclusively through one-sided RDMA verbs
//! (READ, WRITE, CAS, masked-CAS, FAA) from compute-node clients. It provides
//!
//! * [`region::Region`] — registered memory with the 64-byte line atomicity
//!   real RNICs exhibit (reads may tear between lines, never within one),
//!   resident only where written;
//! * [`pages::Pages`] — kernel-zeroed anonymous mappings, which back every
//!   region and every `sched` lane stack;
//! * [`verbs::Endpoint`] — per-client verb issue with doorbell batching,
//!   traffic counters and a virtual clock;
//! * [`net::NetConfig`] — the analytic network model converting counted
//!   traffic into modeled throughput/latency (bandwidth- and IOPS-bound);
//! * [`versioned`] — the two-level cache-line version layout shared by
//!   Sherman-style and CHIME-style nodes;
//! * [`alloc::ChunkAlloc`] — RPC chunk allocation with client-side bumping;
//! * [`qp`] — the queue-pair model pipelined lanes post through;
//! * [`index::RangeIndex`] — the interface every evaluated index implements;
//! * [`indirect`] — the out-of-line value block format (§4.5) they share:
//!   [`indirect::Values`] is the whole store/resolve path of Sherman, ROLEX
//!   and CHIME-Learned, and CHIME frames the same calls in its own phases;
//! * [`fault`] — a seeded, scriptable fault engine intercepting every verb
//!   (latency spikes, torn writes, failed/duplicated atomics, labeled crash
//!   points) with a deterministic, replayable fault trace.
//!
//! No RDMA hardware is involved: all semantics relevant to index correctness
//! and performance shape are preserved (DESIGN.md §2).

#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod fault;
pub mod hash;
pub mod index;
pub mod indirect;
pub mod locktable;
pub mod net;
pub mod node;
pub mod pages;
pub mod qp;
pub mod region;
pub mod stats;
pub mod verbs;
pub mod versioned;

pub use addr::GlobalAddr;
pub use alloc::{ChunkAlloc, OutOfMemory};
pub use fault::{
    CrashRule, CrashSignal, FaultAction, FaultEvent, FaultPlan, FaultRule, FaultSession, VerbKind,
};
pub use index::{IndexError, RangeIndex, Rows};
pub use locktable::{LocalLockGuard, LocalLockTable};
pub use net::{Bound, NetConfig, RunAccounting, ThroughputEstimate};
pub use node::{root_slot, MemoryNode, MnTraffic, Pool};
pub use qp::{
    install_lane_hook, lane_active, uninstall_lane_hook, CountHist, LaneHook, Qp, QpStats,
    WqeOutcome, WqeTicket,
};
pub use obs::{
    Event, FlightRecorder, LatencyHist, OpProfile, Phase, RetryCause, Sink, TimeSeries, Tracer,
};
pub use stats::{ClientStats, Histogram};
pub use verbs::{Endpoint, PhaseFrame, Span};
