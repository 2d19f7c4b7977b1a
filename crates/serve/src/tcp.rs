//! The real-TCP transport: the same protocol/connection core as the
//! simulated mode, bound to actual sockets for manual runs.
//!
//! One thread serves every connection, as Redis does: it builds and
//! preloads the index, then runs a readiness loop ([`dmem::pages::poll`])
//! over the nonblocking listener and connections. A readable connection's
//! complete frames are decoded by [`crate::conn`] and executed in arrival
//! order on its own client; the replies go out as the socket takes them.
//! No two operations overlap on the host, and the CN stays on the thread
//! that created it ([`dmem::CnCell`]). Nothing here feeds metrics JSON,
//! bench reports or traces, so the load generator's wall-clock read is
//! allowed past clippy.
//!
//! Backpressure is admission-only, as no verb waits on a CQ: a connection
//! beyond the permit limit is answered `-BUSY` and closed, as a shed
//! request is in the simulated mode. A connection whose unsent replies
//! pass [`OUT_HIGH_WATER`] is not read until its peer drains them.

use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use chime::{Chime, ChimeClient, ChimeConfig, CnState};
use dmem::pages::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use dmem::{Pool, RangeIndex};
use ycsb::KeySpace;

use crate::admission::Admission;
use crate::conn::Conn;
use crate::proto::{Request, Response};

/// Unsent reply bytes past which a connection is not read.
pub const OUT_HIGH_WATER: usize = 1 << 20;

/// The longest the loop waits for readiness before it checks for a stop.
const POLL_MS: i32 = 10;

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
    thread: thread::JoinHandle<()>,
}

impl Server {
    /// Starts the server thread, which builds and preloads the index, binds
    /// the listener and serves. Returns once it listens, or with the error
    /// that kept it from listening.
    pub fn start(cfg: TcpConfig) -> io::Result<Server> {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(TcpCounters::default());
        let (listening, addr) = mpsc::channel();
        let (s, c) = (Arc::clone(&stop), Arc::clone(&counters));
        let thread = thread::spawn(move || match Served::open(&cfg) {
            Ok((served, addr)) => {
                let _ = listening.send(Ok(addr));
                served.run(&s, &c);
            }
            Err(e) => drop(listening.send(Err(e))),
        });
        match addr.recv() {
            Ok(Ok(addr)) => Ok(Server {
                addr,
                stop,
                counters,
                thread,
            }),
            failed => {
                let _ = thread.join();
                Err(match failed {
                    Ok(Err(e)) => e,
                    _ => io::Error::other("the server thread panicked"),
                })
            }
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn counters(&self) -> &TcpCounters {
        &self.counters
    }

    /// Stops accepting and waits for the server thread, which serves the
    /// open connections until their peers close them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// What the server thread owns: the index with its compute node, the
/// listener (until a stop) and the admitted connections.
struct Served {
    tree: Chime,
    cn: Arc<CnState>,
    value_size: usize,
    listener: Option<TcpListener>,
    admission: Admission,
    open: Vec<Open>,
}

impl Served {
    /// Builds and preloads the index, then binds the listener.
    fn open(cfg: &TcpConfig) -> io::Result<(Served, SocketAddr)> {
        let pool = Pool::with_defaults(1, pool_capacity(cfg.preload, cfg.value_size));
        let tree_cfg = ChimeConfig {
            value_size: cfg.value_size,
            ..Default::default()
        };
        let tree = Chime::create(&pool, tree_cfg, 0);
        let cn = tree.new_cn();
        let mut loader = tree.client(&cn);
        let value = vec![0u8; cfg.value_size];
        for seq in 0..cfg.preload {
            loader
                .insert(KeySpace::key(seq), &value)
                .map_err(|e| io::Error::other(format!("preload insert {seq}: {e}")))?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let served = Served {
            tree,
            cn,
            value_size: cfg.value_size,
            listener: Some(listener),
            admission: Admission::new(cfg.admit_limit),
            open: Vec::new(),
        };
        Ok((served, addr))
    }

    /// The readiness loop, until a stop has closed the listener and the
    /// last connection has closed.
    fn run(mut self, stop: &AtomicBool, counters: &TcpCounters) {
        let (mut fds, mut buf) = (Vec::new(), vec![0u8; 16 << 10]);
        loop {
            if stop.load(Ordering::Relaxed) {
                self.listener = None;
                if self.open.is_empty() {
                    return;
                }
            }
            let listener = self.listener.iter().map(|l| (l.as_raw_fd(), POLLIN));
            let conns = self
                .open
                .iter()
                .map(|c| (c.stream.as_raw_fd(), c.interest()));
            let watch = |(fd, events)| PollFd {
                fd,
                events,
                revents: 0,
            };
            fds.clear();
            fds.extend(listener.chain(conns).map(watch));
            if poll(&mut fds, POLL_MS).is_err() {
                return;
            }
            let (listener, conns) = fds.split_at(usize::from(self.listener.is_some()));
            for (c, fd) in self.open.iter_mut().zip(conns) {
                if fd.revents != 0 {
                    c.serve(fd.revents, &mut buf, self.value_size, counters);
                }
            }
            // A closed connection returns its permit.
            let before = self.open.len();
            self.open.retain(|c| !c.finished());
            (self.open.len()..before).for_each(|_| self.admission.release());
            if listener.first().is_some_and(|fd| fd.revents != 0) {
                self.accept(counters);
            }
        }
    }

    /// Accepts every pending connection: an admitted one joins the loop
    /// with a client of its own, the rest are answered `-BUSY` and closed.
    fn accept(&mut self, counters: &TcpCounters) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if !self.admission.try_admit() {
                counters.conns_refused.fetch_add(1, Ordering::Relaxed);
                // A fresh socket takes the short reply whole.
                let mut busy = Vec::new();
                Response::Busy.encode(&mut busy);
                let _ = (&stream).write_all(&busy);
                continue;
            }
            let id = counters.conns.fetch_add(1, Ordering::Relaxed) as u32;
            self.open.push(Open {
                stream,
                conn: Conn::new(id),
                client: self.tree.client(&self.cn),
                sent: 0,
                reading: true,
            });
        }
    }
}

/// Whether a socket call that failed with `e` may succeed once the socket
/// is ready again.
fn later(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// One admitted connection: its socket, protocol state and index client.
struct Open {
    stream: TcpStream,
    conn: Conn,
    client: ChimeClient,
    /// Bytes at the front of `conn.out` already written.
    sent: usize,
    /// No end of stream, fatal frame or socket error yet.
    reading: bool,
}

impl Open {
    fn unsent(&self) -> &[u8] {
        &self.conn.out[self.sent..]
    }

    /// The readiness to wait for: input while reading and under the high
    /// water mark, output while replies are unsent.
    fn interest(&self) -> i16 {
        let unsent = self.unsent().len();
        let read = self.reading && unsent <= OUT_HIGH_WATER;
        (if read { POLLIN } else { 0 }) | (if unsent > 0 { POLLOUT } else { 0 })
    }

    fn finished(&self) -> bool {
        !self.reading && self.unsent().is_empty()
    }

    /// Reads what the socket holds, executes every complete request in
    /// arrival order and writes what the socket takes of the replies.
    fn serve(&mut self, revents: i16, buf: &mut [u8], value_size: usize, counters: &TcpCounters) {
        if self.reading && revents & (POLLIN | POLLHUP | POLLERR) != 0 {
            match self.stream.read(buf) {
                Ok(0) => self.reading = false,
                Ok(n) => {
                    self.conn.feed(&buf[..n]);
                    self.execute(value_size, counters);
                }
                Err(e) if later(&e) => {}
                Err(_) => self.fail(),
            }
        }
        while !self.unsent().is_empty() {
            match (&self.stream).write(&self.conn.out[self.sent..]) {
                Ok(n) if n > 0 => self.sent += n,
                Err(e) if later(&e) => return,
                _ => self.fail(),
            }
        }
        self.conn.out.clear();
        self.sent = 0;
    }

    /// Executes the decoded requests. A fatal frame ends the reading: the
    /// connection closes once its `-ERR` is out.
    fn execute(&mut self, value_size: usize, counters: &TcpCounters) {
        let mut next = self.conn.next_request();
        while let Ok(Some(req)) = next {
            counters.requests.fetch_add(1, Ordering::Relaxed);
            self.conn.serve(&mut self.client, &req, value_size);
            next = self.conn.next_request();
        }
        self.reading &= next.is_ok();
        let errors = std::mem::take(&mut self.conn.counters.frame_errors);
        counters.frame_errors.fetch_add(errors, Ordering::Relaxed);
    }

    /// Gives the connection up: it closes, unsent replies and all.
    fn fail(&mut self) {
        self.reading = false;
        self.sent = self.conn.out.len();
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
) -> io::Result<LoadReport> {
    #[allow(clippy::disallowed_methods, reason = "the load generator measures real time")]
    let t0 = std::time::Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let addr = addr.to_string();
        handles.push(thread::spawn(move || -> io::Result<(u64, u64, u64, u64)> {
            let mut stream = TcpStream::connect(&addr)?;
            let mut state = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || dmem::hash::xorshift64star(&mut state);
            let (mut sent, mut ok, mut busy, mut errors) = (0u64, 0u64, 0u64, 0u64);
            let mut wire = Vec::new();
            let window = 8usize;
            let mut inflight = 0usize;
            let mut rd = io::BufReader::new(stream.try_clone()?);
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
fn read_response(rd: &mut impl BufRead) -> io::Result<ResponseClass> {
    let mut line = Vec::new();
    read_line(rd, &mut line)?;
    match line.first() {
        Some(b'+' | b':') => Ok(ResponseClass::Ok),
        Some(b'-') if line.starts_with(b"-BUSY") => Ok(ResponseClass::Busy),
        Some(b'-') => Ok(ResponseClass::Err),
        Some(b'$') => skip_bulk(rd, &line).map(|()| ResponseClass::Ok),
        Some(b'*') => {
            for _ in 0..ascii(&line[1..]).max(0) {
                let mut hdr = Vec::new();
                read_line(rd, &mut hdr)?;
                skip_bulk(rd, &hdr)?;
            }
            Ok(ResponseClass::Ok)
        }
        _ => Err(io::Error::new(
            ErrorKind::InvalidData,
            "unparseable response",
        )),
    }
}

/// Appends the next line to `out`, without its CRLF.
fn read_line(rd: &mut impl BufRead, out: &mut Vec<u8>) -> io::Result<()> {
    rd.read_until(b'\n', out)?;
    if out.pop() != Some(b'\n') {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    if out.last() == Some(&b'\r') {
        out.pop();
    }
    Ok(())
}

/// Skips the payload and CRLF a `$len` header `hdr` announces (none for
/// `$-1` or another header).
fn skip_bulk(rd: &mut impl BufRead, hdr: &[u8]) -> io::Result<()> {
    let n = hdr.strip_prefix(b"$").map_or(-1, ascii);
    if n < 0 {
        return Ok(());
    }
    let n = n as u64 + 2;
    if io::copy(&mut rd.take(n), &mut io::sink())? < n {
        return Err(ErrorKind::UnexpectedEof.into());
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
    use std::io::{BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use super::{pool_capacity, read_line, run_load, Server, TcpConfig};
    use crate::proto::MAX_SCAN;

    fn start(preload: u64, value_size: usize, admit_limit: usize) -> Server {
        Server::start(TcpConfig {
            preload,
            value_size,
            admit_limit,
            ..TcpConfig::default()
        })
        .expect("the server starts")
    }

    /// A connection that gives up on a reply after 30 s instead of hanging.
    fn connect(server: &Server) -> TcpStream {
        let c = TcpStream::connect(server.addr()).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        c
    }

    /// Whether a PING on `c` is answered PONG.
    fn pongs(c: &mut TcpStream) -> bool {
        let mut pong = [0u8; 7];
        c.write_all(b"PING\r\n").is_ok() && c.read_exact(&mut pong).is_ok() && &pong == b"+PONG\r\n"
    }

    #[test]
    fn start_returns_what_kept_the_server_from_listening() {
        let first = start(10, 8, 1);
        let taken = Server::start(TcpConfig {
            addr: first.addr().to_string(),
            preload: 10,
            ..TcpConfig::default()
        });
        assert_eq!(taken.err().map(|e| e.kind()), Some(ErrorKind::AddrInUse));
        first.stop();
    }

    #[test]
    fn one_server_thread_answers_every_request_of_64_connections() {
        let server = start(2_000, 8, 64);
        let rep = run_load(&server.addr().to_string(), 64, 200, 7, 2_000).expect("loadgen");
        let (conns, served) = (
            server.counters().conns.load(Ordering::Relaxed),
            server.counters().requests.load(Ordering::Relaxed),
        );
        server.stop();
        assert_eq!(rep.sent, 64 * 200);
        assert_eq!((rep.ok, rep.busy, rep.errors), (rep.sent, 0, 0));
        assert_eq!((conns, served), (64, rep.sent));
    }

    #[test]
    fn a_scan_reply_larger_than_the_socket_buffers_arrives_whole() {
        // 1 024 rows of 8 KiB: an 8 MiB reply, twice the most a Linux TCP
        // send buffer holds by default, so the server writes it in parts.
        const VALUE: usize = 8 << 10;
        let server = start(MAX_SCAN as u64 + 100, VALUE, 64);
        let mut big = connect(&server);
        let scan = format!("SCAN 1 {MAX_SCAN}\r\n");
        big.write_all(scan.as_bytes()).unwrap();
        // While that reply waits for its reader, the thread serves others.
        let mut other = connect(&server);
        assert!(pongs(&mut other));
        let mut rd = BufReader::new(big);
        let mut line = Vec::new();
        read_line(&mut rd, &mut line).unwrap();
        assert_eq!(line, format!("*{}", 2 * MAX_SCAN).into_bytes());
        let mut keys = Vec::with_capacity(MAX_SCAN);
        let mut value = vec![1u8; VALUE + 2];
        for _ in 0..MAX_SCAN {
            line.clear();
            read_line(&mut rd, &mut line).unwrap();
            line.clear();
            read_line(&mut rd, &mut line).unwrap();
            keys.push(std::str::from_utf8(&line).unwrap().parse::<u64>().unwrap());
            line.clear();
            read_line(&mut rd, &mut line).unwrap();
            assert_eq!(line, format!("${VALUE}").into_bytes());
            rd.read_exact(&mut value).unwrap();
            assert!(value[..VALUE].iter().all(|&b| b == 0) && value[VALUE..] == *b"\r\n");
        }
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "rows in key order");
        assert!(rd.buffer().is_empty(), "nothing follows the reply");
        assert!(pongs(rd.get_mut()));
        drop((rd, other));
        server.stop();
    }

    #[test]
    fn requests_for_the_reserved_key_0_are_answered_and_the_server_keeps_serving() {
        let server = start(100, 8, 64);
        let (mut zero, mut other) = (connect(&server), connect(&server));
        let replies: [(&[u8], &[u8]); 3] = [
            (b"GET 0\r\n", b"$-1\r\n"),
            (b"DEL 0\r\n", b":0\r\n"),
            (b"SET 0 v\r\n", b"-ERR key 0 is reserved\r\n"),
        ];
        for (req, reply) in replies {
            zero.write_all(req).unwrap();
            let mut got = vec![0u8; reply.len()];
            zero.read_exact(&mut got).unwrap();
            assert_eq!(got, reply, "{}", String::from_utf8_lossy(req));
            assert!(pongs(&mut other), "a second connection is answered after {req:?}");
        }
        // A scan from 0 starts at key 1: one row, the smallest key.
        zero.write_all(b"SCAN 0 1\r\n").unwrap();
        let mut rd = BufReader::new(&mut zero);
        let mut lines = [(); 5].map(|_| Vec::new());
        for line in &mut lines {
            read_line(&mut rd, line).unwrap();
        }
        assert_eq!((&lines[0][..], &lines[3][..]), (&b"*2"[..], &b"$8"[..]));
        assert!(std::str::from_utf8(&lines[2]).unwrap().parse::<u64>().unwrap() >= 1);
        assert!(rd.buffer().is_empty(), "nothing follows the reply");
        drop(rd);
        assert!(pongs(&mut other), "a second connection is answered after a scan from 0");
        assert!(pongs(&mut zero));
        drop((zero, other));
        server.stop();
    }

    #[test]
    fn a_connection_beyond_the_admit_limit_gets_busy() {
        let server = start(100, 8, 2);
        let mut admitted: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        for c in &mut admitted {
            assert!(pongs(c));
        }
        let mut reply = Vec::new();
        connect(&server).read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"-BUSY server overloaded\r\n");
        // A closed connection returns its permit, once the server has seen
        // the close.
        drop(admitted.pop());
        let admitted_again = (0..1_000).any(|_| pongs(&mut connect(&server)));
        assert!(admitted_again, "a freed permit admits a new connection");
        assert!(server.counters().conns_refused.load(Ordering::Relaxed) >= 1);
        drop(admitted);
        server.stop();
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
