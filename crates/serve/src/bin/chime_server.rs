//! `chime-server` — the real-TCP serving binary.
//!
//! ```text
//! chime-server [--addr 127.0.0.1:7979] [--preload N] [--value-size B]
//!              [--admit N] [--metrics-out PATH] [--smoke]
//! ```
//!
//! `--metrics-out PATH` writes the server's counters at shutdown as a
//! Prometheus exposition file at `PATH` and a JSON
//! [`obs::MetricsSnapshot`] document at `PATH.json`.
//!
//! `--smoke` starts the server on a free port, drives an in-process load
//! generator over 64 connections against it — the default admission limit,
//! all served by the server's one thread — checks the responses (including
//! that a requested metrics file came out non-empty), and exits: the
//! self-test behind `make serve-smoke`.

use std::sync::atomic::Ordering;

use obs::MetricsSnapshot;
use serve::tcp::{run_load, Server, TcpCounters, TcpConfig};

/// Connections the smoke run drives: as many as `--admit` admits by
/// default.
const SMOKE_CONNS: usize = 64;

/// Snapshots the live counters into the unified metrics registry.
fn snapshot(counters: &TcpCounters) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    m.counter(
        "serve_conns_total",
        &[],
        counters.conns.load(Ordering::Relaxed),
    );
    m.counter(
        "serve_conns_refused_total",
        &[],
        counters.conns_refused.load(Ordering::Relaxed),
    );
    m.counter(
        "serve_requests_total",
        &[],
        counters.requests.load(Ordering::Relaxed),
    );
    m.counter(
        "serve_frame_errors_total",
        &[],
        counters.frame_errors.load(Ordering::Relaxed),
    );
    m
}

/// Writes `PATH` (Prometheus exposition) and `PATH.json` (JSON snapshot).
fn write_metrics(path: &str, m: &MetricsSnapshot) {
    std::fs::write(path, m.to_prometheus()).expect("write metrics");
    std::fs::write(format!("{path}.json"), m.to_json()).expect("write metrics json");
}

fn arg_u64(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cfg = TcpConfig {
        addr: arg_str(
            &args,
            "--addr",
            if smoke { "127.0.0.1:0" } else { "127.0.0.1:7979" },
        ),
        preload: arg_u64(&args, "--preload", 10_000),
        value_size: arg_u64(&args, "--value-size", 8) as usize,
        admit_limit: arg_u64(&args, "--admit", 64) as usize,
    };
    let preload = cfg.preload;
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let server = Server::start(cfg).expect("bind server");
    println!("chime-server listening on {}", server.addr());

    if smoke {
        let addr = server.addr().to_string();
        let rep = run_load(&addr, SMOKE_CONNS, 500, 42, preload).expect("loadgen");
        println!(
            "smoke: sent={} ok={} busy={} err={} elapsed_us={}",
            rep.sent, rep.ok, rep.busy, rep.errors, rep.elapsed_us
        );
        let served = server.counters().requests.load(Ordering::Relaxed);
        let m = snapshot(server.counters());
        server.stop();
        assert_eq!(rep.sent, SMOKE_CONNS as u64 * 500, "every request sent");
        assert_eq!(rep.ok + rep.busy + rep.errors, rep.sent, "every request answered");
        assert!(rep.ok > 0, "some requests must succeed");
        assert_eq!(served, rep.sent, "server saw every request");
        if let Some(path) = &metrics_out {
            write_metrics(path, &m);
            println!("wrote {path} and {path}.json");
            let prom = std::fs::read_to_string(path).expect("read metrics back");
            let json = std::fs::read_to_string(format!("{path}.json")).expect("read json back");
            assert!(
                prom.contains("serve_requests_total"),
                "metrics exposition must be non-empty"
            );
            assert!(!json.trim().is_empty(), "metrics JSON must be non-empty");
        }
        println!("serve-smoke OK");
        return;
    }

    // Serve until killed; on SIGINT/SIGTERM the process dies without
    // unwinding, so a periodic refresh keeps --metrics-out current.
    loop {
        std::thread::park_timeout(std::time::Duration::from_secs(5));
        if let Some(path) = &metrics_out {
            write_metrics(path, &snapshot(server.counters()));
        }
    }
}
