//! The real-TCP transport: the same protocol/connection core as the
//! simulated mode, bound to actual sockets for manual runs.
//!
//! This module is intentionally thin: framing, command execution and
//! admission are the shared [`crate::proto`] / [`crate::conn`] /
//! [`crate::admission`] code; all this adds is `TcpListener` plumbing and
//! a thread per connection. It is **not** part of the deterministic
//! surface — nothing here feeds metrics JSON, bench reports or traces —
//! so its wall-clock reads are explicitly allowed past clippy.
//!
//! Backpressure in this mode is admission-only: the serial (hook-free)
//! endpoint completes every verb inline, so there is no CQ depth to
//! watch; a connection beyond the permit limit is answered `-BUSY` and
//! closed, which is the same observable behavior a shed request sees in
//! the simulated mode.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use chime::{Chime, ChimeConfig};
use dmem::{Pool, RangeIndex};
use ycsb::KeySpace;

use crate::admission::Admission;
use crate::conn::{execute, Conn};
use crate::proto::{Request, Response};

/// Configuration of the real-TCP server.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (port 0 picks a free port).
    pub addr: String,
    /// Keys preloaded at startup.
    pub preload: u64,
    /// Value width of the index.
    pub value_size: usize,
    /// Connection-admission permits.
    pub admit_limit: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            addr: "127.0.0.1:0".to_string(),
            preload: 10_000,
            value_size: 8,
            admit_limit: 64,
        }
    }
}

/// Live counters the server accumulates (printed at shutdown).
#[derive(Debug, Default)]
pub struct TcpCounters {
    /// Connections accepted and admitted.
    pub conns: AtomicU64,
    /// Connections refused admission (`-BUSY` + close).
    pub conns_refused: AtomicU64,
    /// Requests executed.
    pub requests: AtomicU64,
    /// Recoverable protocol errors answered `-ERR`.
    pub frame_errors: AtomicU64,
}

/// A running TCP server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<TcpCounters>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Builds the index, preloads it, binds the listener and starts the
    /// accept loop on a background thread.
    pub fn start(cfg: TcpConfig) -> std::io::Result<Server> {
        let pool = Pool::with_defaults(1, pool_capacity(cfg.preload, cfg.value_size));
        let tree_cfg = ChimeConfig {
            value_size: cfg.value_size,
            ..Default::default()
        };
        let tree = Arc::new(Chime::create(&pool, tree_cfg, 0));
        let cn = tree.new_cn();
        {
            let mut loader = tree.client(&cn);
            let value = vec![0u8; cfg.value_size];
            for seq in 0..cfg.preload {
                loader
                    .insert(KeySpace::key(seq), &value)
                    .map_err(|e| std::io::Error::other(format!("preload insert {seq}: {e}")))?;
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(TcpCounters::default());
        let admission = Arc::new(Admission::new(cfg.admit_limit));
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let value_size = cfg.value_size;
        let accept_thread = thread::spawn(move || {
            let mut conn_id = 0u32;
            let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                // Drop the handles of handler threads that have exited: a
                // dropped handle detaches its thread, whose stack the OS
                // then frees, so a long-running server does not keep one
                // per connection it has served.
                handlers.retain(|h| !h.is_finished());
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if !admission.try_admit() {
                            accept_counters.conns_refused.fetch_add(1, Ordering::Relaxed);
                            let mut s = stream;
                            let mut buf = Vec::new();
                            Response::Busy.encode(&mut buf);
                            let _ = s.write_all(&buf);
                            continue;
                        }
                        accept_counters.conns.fetch_add(1, Ordering::Relaxed);
                        let id = conn_id;
                        conn_id += 1;
                        let tree = Arc::clone(&tree);
                        let cn = Arc::clone(&cn);
                        let admission = Arc::clone(&admission);
                        let counters = Arc::clone(&accept_counters);
                        handlers.push(thread::spawn(move || {
                            let mut client = tree.client(&cn);
                            handle_conn(id, stream, &mut client, value_size, &counters);
                            admission.release();
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        #[allow(clippy::disallowed_methods, reason = "wall-clock transport poll")]
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(Server {
            addr,
            stop,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn counters(&self) -> &TcpCounters {
        &self.counters
    }

    /// Stops accepting, waits for the accept loop (open connections finish
    /// when their peers close).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Memory-node capacity for `preload` keys of `value_size` bytes: four times
/// what ~70 %-full leaves need (room for later SETs), at least 256 MiB.
/// Untouched capacity is not resident (a region's words are fresh kernel
/// mappings, [`dmem::pages::Pages`], not allocator memory that an earlier
/// free may have left dirty), so generous is free.
fn pool_capacity(preload: u64, value_size: usize) -> usize {
    let keys = usize::try_from(preload).unwrap_or(usize::MAX);
    keys.saturating_mul(value_size.saturating_add(24)).saturating_mul(4).max(256 << 20)
}

/// Serves one TCP connection until EOF or a fatal protocol error.
fn handle_conn(
    id: u32,
    mut stream: TcpStream,
    client: &mut (impl RangeIndex + ?Sized),
    value_size: usize,
    counters: &TcpCounters,
) {
    let mut conn = Conn::new(id);
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        conn.feed(&buf[..n]);
        let mut fatal = false;
        loop {
            match conn.next_request() {
                Ok(Some(req)) => {
                    counters.requests.fetch_add(1, Ordering::Relaxed);
                    let resp = execute(client, &req, value_size);
                    conn.respond(&resp);
                }
                Ok(None) => break,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        counters
            .frame_errors
            .fetch_add(conn.counters.frame_errors, Ordering::Relaxed);
        conn.counters.frame_errors = 0;
        let out = conn.drain();
        if !out.is_empty() && stream.write_all(&out).is_err() {
            break;
        }
        if fatal {
            break;
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Successful responses (`+OK`, values, nil, ints, pairs).
    pub ok: u64,
    /// `-BUSY` responses.
    pub busy: u64,
    /// `-ERR` responses.
    pub errors: u64,
    /// Wall-clock run duration, microseconds.
    pub elapsed_us: u64,
}

/// Drives `requests` pipelined requests per connection over `conns`
/// connections against `addr`, reading responses back. Client-side tool:
/// wall-clock timing only, never part of the deterministic surface.
pub fn run_load(
    addr: &str,
    conns: usize,
    requests: usize,
    seed: u64,
    key_range: u64,
) -> std::io::Result<LoadReport> {
    #[allow(clippy::disallowed_methods, reason = "the load generator measures real time")]
    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let addr = addr.to_string();
        handles.push(thread::spawn(move || -> std::io::Result<(u64, u64, u64, u64)> {
            let mut stream = TcpStream::connect(&addr)?;
            let mut state = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || dmem::hash::xorshift64star(&mut state);
            let (mut sent, mut ok, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
            let mut wire = Vec::new();
            let window = 8usize;
            let mut inflight = 0usize;
            let mut rd = std::io::BufReader::new(stream.try_clone()?);
            for i in 0..requests {
                wire.clear();
                let key = KeySpace::key(next() % key_range.max(1));
                let req = match next() % 100 {
                    0..=79 => Request::Get(key),
                    80..=94 => Request::Set(key, next().to_le_bytes().to_vec()),
                    95..=98 => Request::Del(key),
                    _ => Request::Scan(key, 8),
                };
                req.encode(&mut wire);
                stream.write_all(&wire)?;
                sent += 1;
                inflight += 1;
                if inflight >= window || i + 1 == requests {
                    for _ in 0..inflight {
                        match read_response(&mut rd)? {
                            ResponseClass::Busy => busy += 1,
                            ResponseClass::Err => errors += 1,
                            ResponseClass::Ok => ok += 1,
                        }
                    }
                    inflight = 0;
                }
            }
            Ok((sent, ok, busy, errors))
        }));
    }
    let mut rep = LoadReport::default();
    for h in handles {
        let (sent, ok, busy, errors) = h.join().expect("loadgen thread")?;
        rep.sent += sent;
        rep.ok += ok;
        rep.busy += busy;
        rep.errors += errors;
    }
    rep.elapsed_us = t0.elapsed().as_micros() as u64;
    Ok(rep)
}

enum ResponseClass {
    Ok,
    Busy,
    Err,
}

/// Reads exactly one response frame off the stream, classifying it.
fn read_response(rd: &mut impl std::io::BufRead) -> std::io::Result<ResponseClass> {
    let mut line = Vec::new();
    read_line(rd, &mut line)?;
    match line.first() {
        Some(b'+') | Some(b':') => Ok(ResponseClass::Ok),
        Some(b'-') => {
            if line.starts_with(b"-BUSY") {
                Ok(ResponseClass::Busy)
            } else {
                Ok(ResponseClass::Err)
            }
        }
        Some(b'$') => {
            let n = ascii(&line[1..]);
            if n >= 0 {
                skip(rd, n as usize + 2)?;
            }
            Ok(ResponseClass::Ok)
        }
        Some(b'*') => {
            let items = ascii(&line[1..]).max(0) as usize;
            for _ in 0..items {
                let mut hdr = Vec::new();
                read_line(rd, &mut hdr)?;
                if hdr.first() == Some(&b'$') {
                    let n = ascii(&hdr[1..]);
                    if n >= 0 {
                        skip(rd, n as usize + 2)?;
                    }
                }
            }
            Ok(ResponseClass::Ok)
        }
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unparseable response",
        )),
    }
}

fn read_line(rd: &mut impl std::io::BufRead, out: &mut Vec<u8>) -> std::io::Result<()> {
    loop {
        let mut byte = [0u8; 1];
        rd.read_exact(&mut byte)?;
        if byte[0] == b'\n' {
            if out.last() == Some(&b'\r') {
                out.pop();
            }
            return Ok(());
        }
        out.push(byte[0]);
    }
}

fn skip(rd: &mut impl std::io::BufRead, n: usize) -> std::io::Result<()> {
    let mut left = n;
    let mut buf = [0u8; 256];
    while left > 0 {
        let take = left.min(buf.len());
        rd.read_exact(&mut buf[..take])?;
        left -= take;
    }
    Ok(())
}

fn ascii(b: &[u8]) -> i64 {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.trim().parse::<i64>().ok())
        .unwrap_or(-1)
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::thread;

    use super::{pool_capacity, TcpConfig};

    #[test]
    fn reaping_drops_exited_handlers_and_keeps_live_ones() {
        // The accept loop's reaping step, on one blocked and three exited
        // handler threads.
        let (release, wait) = mpsc::channel::<()>();
        let mut handlers = vec![thread::spawn(move || wait.recv().unwrap())];
        handlers.extend((0..3).map(|_| thread::spawn(|| ())));
        while !handlers[1..].iter().all(|h| h.is_finished()) {
            thread::yield_now();
        }
        handlers.retain(|h| !h.is_finished());
        assert_eq!(handlers.len(), 1, "only the blocked handler is left");
        release.send(()).unwrap();
        handlers.pop().unwrap().join().unwrap();
    }

    #[test]
    fn pool_capacity_has_a_floor_and_grows_with_the_load() {
        assert_eq!(pool_capacity(0, 8), 256 << 20);
        assert_eq!(pool_capacity(TcpConfig::default().preload, 8), 256 << 20);
        // The whole 10 M-key server process peaks near 800 MiB.
        assert!(pool_capacity(10_000_000, 8) >= 1 << 30);
        let preloads = [0, 10_000, 10_000_000, u64::MAX];
        let value_sizes = [0, 8, 64, 1024, usize::MAX];
        for v in value_sizes {
            for p in preloads.windows(2) {
                assert!(pool_capacity(p[0], v) >= 256 << 20);
                assert!(pool_capacity(p[0], v) <= pool_capacity(p[1], v));
            }
        }
        for p in preloads {
            for v in value_sizes.windows(2) {
                assert!(pool_capacity(p, v[0]) <= pool_capacity(p, v[1]));
            }
        }
    }
}
