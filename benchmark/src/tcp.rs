//! The `serve_tcp` workload: a loopback `serve::tcp::Server` driven by the
//! harness's own single-connection load generator, a shadow map that checks
//! every reply in order, and an in-process replica that replays the same
//! request stream to put the workload on the virtual clock.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chime::{Chime, ChimeClient, ChimeConfig, CnState};
use dmem::{Histogram, NetConfig, Pool, RangeIndex, RunAccounting};
use obs::{LatencyHist, Phase, RetryCause};
use serve::proto::{Decoder, Request, Response};
use serve::tcp::{Server, TcpConfig};
use ycsb::KeySpace;

use crate::alloc::thread_allocs;
use crate::spans::{SpanLog, VirtDelta};
use crate::workloads::{TcpWorkload, MN_CAPACITY, PRELOAD, TCP_WINDOW, VALUE_SIZE};
use crate::{splitmix, warmup_seed, Outcome};

/// Items a generated `SCAN` asks for (the `run_load` mix).
const SCAN_LEN: usize = 8;

/// The seeded request stream: 80 % GET, 15 % SET, 4 % DEL, 1 % SCAN 8 over
/// the preloaded key space (the mix of `serve::tcp::run_load`).
pub struct RequestGen {
    rng: u64,
}

impl RequestGen {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> RequestGen {
        RequestGen {
            rng: seed ^ 0x7C9_5EED,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let key = KeySpace::key(splitmix(&mut self.rng) % PRELOAD);
        match splitmix(&mut self.rng) % 100 {
            0..=79 => Request::Get(key),
            80..=94 => Request::Set(key, splitmix(&mut self.rng).to_le_bytes().to_vec()),
            95..=98 => Request::Del(key),
            _ => Request::Scan(key, SCAN_LEN),
        }
    }
}

/// What the store must hold, kept beside the server: an overlay on the
/// preloaded key space (every generated key is a preloaded key whose value
/// starts as zeros).
#[derive(Default)]
pub struct Shadow {
    overlay: HashMap<u64, Option<Vec<u8>>>,
}

impl Shadow {
    fn value(&self, key: u64) -> Option<Vec<u8>> {
        match self.overlay.get(&key) {
            Some(v) => v.clone(),
            None => Some(vec![0u8; VALUE_SIZE]),
        }
    }

    /// Applies `req` and says whether `reply` is the one a correct server
    /// gives at this point of the stream. `-ERR` and `-BUSY` are never
    /// correct: the workload issues no request that may fail.
    pub fn check(&mut self, req: &Request, reply: &Response) -> bool {
        match req {
            Request::Get(k) => match self.value(*k) {
                Some(v) => *reply == Response::Value(v),
                None => *reply == Response::Nil,
            },
            Request::Set(k, v) => {
                let mut stored = v.clone();
                stored.resize(VALUE_SIZE, 0);
                self.overlay.insert(*k, Some(stored));
                *reply == Response::Ok
            }
            Request::Del(k) => {
                let existed = self.value(*k).is_some();
                self.overlay.insert(*k, None);
                *reply == Response::Int(i64::from(existed))
            }
            Request::Scan(start, count) => match reply {
                Response::Pairs(rows) => {
                    rows.len() <= *count
                        && rows.first().is_none_or(|(k, _)| k >= start)
                        && rows.windows(2).all(|p| p[0].0 < p[1].0)
                        && rows.iter().all(|(k, v)| self.value(*k).as_ref() == Some(v))
                }
                _ => false,
            },
            Request::Ping => *reply == Response::Pong,
        }
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line(rd: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<()> {
    line.clear();
    if rd.read_until(b'\n', line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    if !line.ends_with(b"\r\n") {
        return Err(bad("reply line without CRLF"));
    }
    line.truncate(line.len() - 2);
    Ok(())
}

fn number<T: std::str::FromStr>(digits: &[u8]) -> std::io::Result<T> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("reply number"))
}

/// Longest bulk string the client accepts: replies carry fixed-width
/// values and decimal keys, so anything larger is a framing error.
const MAX_REPLY_BULK: i64 = 1 << 16;

fn read_bulk(rd: &mut impl BufRead, header: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
    if header.first() != Some(&b'$') {
        return Err(bad("expected a bulk string"));
    }
    let len: i64 = number(&header[1..])?;
    if len < 0 {
        return Ok(None);
    }
    if len > MAX_REPLY_BULK {
        return Err(bad("oversized bulk string"));
    }
    let mut body = vec![0u8; len as usize + 2];
    rd.read_exact(&mut body)?;
    body.truncate(len as usize);
    Ok(Some(body))
}

/// Reads exactly one reply frame (the inverse of `Response::encode`).
pub fn read_reply(rd: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<Response> {
    read_line(rd, line)?;
    match line.first() {
        Some(b'+') if line == b"+OK" => Ok(Response::Ok),
        Some(b'+') if line == b"+PONG" => Ok(Response::Pong),
        Some(b'-') if line.starts_with(b"-BUSY") => Ok(Response::Busy),
        Some(b'-') => {
            let detail = line.strip_prefix(b"-ERR ").unwrap_or(&line[1..]);
            Ok(Response::Err(String::from_utf8_lossy(detail).into_owned()))
        }
        Some(b':') => Ok(Response::Int(number(&line[1..])?)),
        Some(b'$') => Ok(read_bulk(rd, line)?.map_or(Response::Nil, Response::Value)),
        Some(b'*') => {
            let items: i64 = number(&line[1..])?;
            if !(0..=2 * serve::proto::MAX_SCAN as i64).contains(&items) || items % 2 != 0 {
                return Err(bad("reply array length"));
            }
            let mut rows = Vec::with_capacity(items as usize / 2);
            for _ in 0..items / 2 {
                read_line(rd, line)?;
                let key = read_bulk(rd, line)?.ok_or_else(|| bad("nil key"))?;
                read_line(rd, line)?;
                let value = read_bulk(rd, line)?.ok_or_else(|| bad("nil value"))?;
                rows.push((number::<u64>(&key)?, value));
            }
            Ok(Response::Pairs(rows))
        }
        _ => Err(bad("unparseable reply")),
    }
}

/// One pass of the load generator over a connection.
pub struct SocketRun {
    /// Host seconds from the first write to the last reply.
    pub host_s: f64,
    /// Requests sent or meant to be sent.
    pub attempted: u64,
    /// Wrong, refused, errored or unanswered requests.
    pub failed: u64,
    /// Host nanoseconds from writing a window to reading its last reply.
    pub window_rtt_ns: Vec<u64>,
}

/// A client connection: the write half and a buffered read half.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to `addr`; a reply that takes longer than ten seconds
    /// counts as unanswered instead of hanging the benchmark.
    pub fn open(addr: std::net::SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader })
    }

    /// Drives `requests` requests from `next` through the connection in
    /// closed-loop windows of [`TCP_WINDOW`], checking each reply with
    /// `check` in order. With a span log, each window records a parent span
    /// `client.window` with children `client.encode`, `client.write` and
    /// `client.wait_read`.
    pub fn drive(
        &mut self,
        requests: u64,
        mut next: impl FnMut() -> Request,
        mut check: impl FnMut(&Request, &Response) -> bool,
        mut log: Option<&mut SpanLog>,
    ) -> SocketRun {
        let mut window: Vec<Request> = Vec::with_capacity(TCP_WINDOW);
        let mut wire = Vec::with_capacity(TCP_WINDOW * 64);
        let mut line = Vec::with_capacity(64);
        let mut rtts = Vec::with_capacity(requests as usize / TCP_WINDOW + 1);
        let (mut sent, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        let mut window_id = 0u32;
        while sent < requests {
            let n = TCP_WINDOW.min((requests - sent) as usize);
            let parent = log.as_ref().map_or(0, |l| l.next_id() + 3);
            let a0 = thread_allocs();
            let t0 = SpanLog::stamp(&log);
            window.clear();
            wire.clear();
            for _ in 0..n {
                let req = next();
                req.encode(&mut wire);
                window.push(req);
            }
            let t1 = SpanLog::stamp(&log);
            let a1 = thread_allocs();
            let w0 = Instant::now();
            let mut answered = 0usize;
            let wrote = self.stream.write_all(&wire).is_ok();
            let t2 = SpanLog::stamp(&log);
            if wrote {
                for req in &window {
                    match read_reply(&mut self.reader, &mut line) {
                        Ok(reply) => {
                            answered += 1;
                            if !check(req, &reply) {
                                failed += 1;
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            rtts.push(w0.elapsed().as_nanos() as u64);
            let t3 = SpanLog::stamp(&log);
            let a3 = thread_allocs();
            if let Some(l) = log.as_deref_mut() {
                let none = VirtDelta::default();
                l.push("client.encode", parent, window_id, t0, t1, a1 - a0, none);
                l.push("client.write", parent, window_id, t1, t2, 0, none);
                l.push("client.wait_read", parent, window_id, t2, t3, a3 - a1, none);
                let t4 = l.now();
                l.push("client.window", 0, window_id, t0, t4, a3 - a0, none);
            }
            window_id += 1;
            sent += n as u64;
            if answered < n {
                // The connection is dead: everything not yet answered,
                // sent or not, is a failure.
                failed += (n - answered) as u64 + (requests - sent);
                break;
            }
        }
        SocketRun {
            host_s: start.elapsed().as_secs_f64(),
            attempted: requests,
            failed,
            window_rtt_ns: rtts,
        }
    }
}

/// One repetition against a fresh server.
pub struct TcpRep {
    /// Host seconds `Server::start` took, preload included.
    pub setup_s: f64,
    /// The measured pass.
    pub run: SocketRun,
}

/// Starts a server (timed), warms it up, runs the measured pass, stops it.
/// `log` records client spans of the measured pass only.
pub fn repetition(
    w: &TcpWorkload,
    seed: u64,
    log: Option<&mut SpanLog>,
) -> std::io::Result<TcpRep> {
    let t = Instant::now();
    let server = Server::start(TcpConfig {
        preload: PRELOAD,
        value_size: VALUE_SIZE,
        ..TcpConfig::default()
    })?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut shadow = Shadow::default();
    let run = {
        let mut conn = Connection::open(server.addr())?;
        let mut warm = RequestGen::new(warmup_seed(seed));
        let warmed = conn.drive(
            w.warmup_requests,
            || warm.next_request(),
            |req, reply| shadow.check(req, reply),
            None,
        );
        let mut gen = RequestGen::new(seed);
        let mut run = conn.drive(
            w.requests,
            || gen.next_request(),
            |req, reply| shadow.check(req, reply),
            log,
        );
        run.attempted += warmed.attempted;
        run.failed += warmed.failed;
        run
        // The connection closes here, which ends the server's handler.
    };
    server.stop();
    Ok(TcpRep { setup_s, run })
}

/// A PING-only pass: the transport and decode ceiling, requests per second
/// in thousands.
pub fn ping_kreq_per_s(requests: u64) -> std::io::Result<f64> {
    let server = Server::start(TcpConfig {
        preload: 1,
        value_size: VALUE_SIZE,
        ..TcpConfig::default()
    })?;
    let run = {
        let mut conn = Connection::open(server.addr())?;
        conn.drive(
            requests,
            || Request::Ping,
            |_, reply| *reply == Response::Pong,
            None,
        )
    };
    server.stop();
    if run.failed > 0 {
        return Err(bad("PING pass saw a wrong or missing reply"));
    }
    Ok(requests as f64 / run.host_s / 1e3)
}

/// An in-process copy of what `Server::start` builds: the same pool size,
/// tree configuration and zero-valued preload, with one client handle.
pub struct Replica {
    /// The pool, for allocation accounting.
    pub pool: Arc<Pool>,
    /// The CN state, for cache and hotspot counters.
    pub cn: Arc<CnState>,
    /// The client every replayed request executes on.
    pub client: ChimeClient,
}

impl Replica {
    /// Builds and preloads the replica.
    pub fn build() -> Replica {
        let pool = Pool::with_defaults(1, MN_CAPACITY);
        let cfg = ChimeConfig {
            value_size: VALUE_SIZE,
            ..ChimeConfig::default()
        };
        let tree = Chime::create(&pool, cfg, 0);
        let cn = tree.new_cn();
        {
            let mut loader = tree.client(&cn);
            let value = vec![0u8; VALUE_SIZE];
            for seq in 0..PRELOAD {
                loader
                    .insert(KeySpace::key(seq), &value)
                    .expect("preload insert");
            }
        }
        let client = tree.client(&cn);
        Replica { pool, cn, client }
    }
}

/// What a replay measured.
pub struct Replay {
    /// The figures of the replay under the names `Report::flat_metrics`
    /// gives a driver result, so both feed the same per-layer mapping.
    pub flat: BTreeMap<String, f64>,
    /// Host seconds the replay loop took.
    pub host_s: f64,
    /// Requests whose in-process reply the shadow map rejected.
    pub failed: u64,
}

/// Replays `requests` requests of `seed`'s stream through the server's own
/// stack — `proto::Decoder` → `conn::execute` → `Response::encode` — on the
/// replica's client, after replaying the warm-up stream the socket run
/// starts with. With a span log each request records a parent span
/// `serve.request` and one child per stage.
pub fn replay(
    replica: &mut Replica,
    w: &TcpWorkload,
    seed: u64,
    mut log: Option<&mut SpanLog>,
) -> Replay {
    let client = &mut replica.client;
    let mut shadow = Shadow::default();
    let mut decoder = Decoder::new();
    let (mut wire, mut out) = (Vec::with_capacity(64), Vec::with_capacity(256));
    let mut warm = RequestGen::new(warmup_seed(seed));
    for _ in 0..w.warmup_requests {
        let req = warm.next_request();
        let reply = serve::conn::execute(client, &req, VALUE_SIZE);
        shadow.check(&req, &reply);
    }
    let stats0 = client.stats().clone();
    let prof0 = client.profile().expect("endpoint profile").clone();
    let (cache0, hot0) = (replica.cn.cache_stats(), replica.cn.hotspot_stats());
    let mut hist = Histogram::new();
    let mut by_type: [LatencyHist; 4] = Default::default();
    let (mut sum_latency, mut failed) = (0u64, 0u64);
    let mut gen = RequestGen::new(seed);
    let start = Instant::now();
    for id in 0..w.requests as u32 {
        let sent = gen.next_request();
        wire.clear();
        sent.encode(&mut wire);
        let parent = log.as_ref().map_or(0, |l| l.next_id() + 3);
        let a0 = thread_allocs();
        let t0 = SpanLog::stamp(&log);
        decoder.feed(&wire);
        let req = decoder
            .try_next()
            .expect("well-formed frame")
            .expect("complete frame");
        let t1 = SpanLog::stamp(&log);
        let a1 = thread_allocs();
        let (clock0, rtts0, wire0) = {
            let s = client.stats();
            (client.clock_ns(), s.rtts, s.wire_bytes)
        };
        let reply = serve::conn::execute(client, &req, VALUE_SIZE);
        let virt = {
            let s = client.stats();
            VirtDelta {
                ns: client.clock_ns() - clock0,
                rtts: s.rtts - rtts0,
                wire_bytes: s.wire_bytes - wire0,
            }
        };
        let t2 = SpanLog::stamp(&log);
        let a2 = thread_allocs();
        out.clear();
        reply.encode(&mut out);
        let t3 = SpanLog::stamp(&log);
        let a3 = thread_allocs();
        if let Some(l) = log.as_deref_mut() {
            let none = VirtDelta::default();
            l.push("serve.proto.decode", parent, id, t0, t1, a1 - a0, none);
            l.push("serve.conn.execute", parent, id, t1, t2, a2 - a1, virt);
            l.push("serve.proto.encode", parent, id, t2, t3, a3 - a2, none);
            let t4 = l.now();
            l.push("serve.request", 0, id, t0, t4, a3 - a0, virt);
        }
        hist.record(virt.ns);
        sum_latency += virt.ns;
        // The driver's op-type order: read, update, insert, scan. The
        // protocol has no in-place update; DEL is in the totals only.
        match req {
            Request::Get(_) => by_type[0].record(virt.ns),
            Request::Set(..) => by_type[2].record(virt.ns),
            Request::Scan(..) => by_type[3].record(virt.ns),
            Request::Del(_) | Request::Ping => {}
        }
        if !shadow.check(&req, &reply) {
            failed += 1;
        }
    }
    let host_s = start.elapsed().as_secs_f64();

    let n = w.requests;
    let per_op = |v: u64| v as f64 / n as f64;
    let stats = client.stats().since(&stats0);
    let prof = client.profile().expect("endpoint profile").since(&prof0);
    let est = NetConfig::default().model(&RunAccounting {
        ops: n,
        clients: 1,
        mns: 1,
        total_msgs: stats.msgs,
        total_wire_bytes: stats.wire_bytes,
        sum_latency_ns: sum_latency,
        sum_busy_ns: 0,
        max_mn_msgs: 0,
        max_mn_wire_bytes: 0,
    });
    let ratio = |now: (u64, u64), then: (u64, u64), total: fn(u64, u64) -> u64| {
        let (a, b) = (now.0 - then.0, now.1 - then.1);
        match total(a, b) {
            0 => 0.0,
            t => a as f64 / t as f64,
        }
    };
    let mib = (1u64 << 20) as f64;
    let mut flat = BTreeMap::from([
        ("mops".to_string(), est.mops),
        ("avg_us".to_string(), est.avg_latency_ns / 1e3),
        (
            "p50_us".to_string(),
            hist.quantile(0.5) as f64 * est.inflation / 1e3,
        ),
        (
            "p99_us".to_string(),
            hist.quantile(0.99) as f64 * est.inflation / 1e3,
        ),
        ("bytes_per_op".to_string(), est.bytes_per_op),
        ("msgs_per_op".to_string(), est.msgs_per_op),
        ("rtts_per_op".to_string(), per_op(stats.rtts)),
        (
            "verbs_per_op".to_string(),
            per_op(stats.reads + stats.writes + stats.atomics + stats.rpcs),
        ),
        (
            "read_amp".to_string(),
            stats.wire_bytes as f64 / stats.app_bytes.max(1) as f64,
        ),
        ("cache_mb".to_string(), client.cache_bytes() as f64 / mib),
        (
            // (hits, misses)
            "cache_hit_ratio".to_string(),
            ratio(replica.cn.cache_stats(), cache0, |h, m| h + m),
        ),
        (
            // (hits, lookups)
            "hotspot_hit_ratio".to_string(),
            ratio(replica.cn.hotspot_stats(), hot0, |_, l| l),
        ),
        (
            "remote_mb".to_string(),
            replica.pool.allocated_bytes() as f64 / mib,
        ),
    ]);
    for (name, h) in bench::driver::OP_NAMES.iter().zip(&by_type) {
        let s = h.summary();
        flat.insert(format!("lat.{name}.p50_us"), s.p50_ns as f64 / 1e3);
        flat.insert(format!("lat.{name}.p99_us"), s.p99_ns as f64 / 1e3);
    }
    for phase in Phase::ALL {
        let acc = prof.phase(phase);
        flat.insert(
            format!("phase_ns_per_op.{}", phase.as_str()),
            per_op(acc.ns),
        );
        flat.insert(
            format!("phase_rtts_per_op.{}", phase.as_str()),
            per_op(acc.rtts),
        );
    }
    for cause in RetryCause::ALL {
        flat.insert(
            format!("retries_per_op.{}", cause.as_str()),
            per_op(prof.retry_count(cause)),
        );
    }
    // One serial client: no queue pair, so its figures are identically 0.
    for key in [
        "doorbell.batch_mean",
        "doorbell.batched_frac",
        "cq.depth_p99",
        "qp.doorbells_per_op",
    ] {
        flat.insert(key.to_string(), 0.0);
    }
    Replay {
        flat,
        host_s,
        failed,
    }
}

/// The timed pass of `serve_tcp`: socket repetitions for the host clock,
/// one replica replay for the virtual clock.
pub fn run_e2e(w: &TcpWorkload, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let mut reps: Vec<TcpRep> = Vec::new();
    let mut measured = 0.0;
    while crate::needs_another_rep(reps.len(), measured, seconds) {
        let rep = repetition(w, seed, None)?;
        measured += rep.run.host_s;
        reps.push(rep);
    }
    let replayed = replay(&mut Replica::build(), w, seed, None);
    let kops: Vec<f64> = reps
        .iter()
        .map(|r| w.requests as f64 / r.run.host_s / 1e3)
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    Ok(Outcome::timed(
        crate::layers::modeled_e2e(&replayed.flat),
        &kops,
        &setups,
        reps.iter().map(|r| r.run.attempted).sum::<u64>() + w.requests,
        reps.iter().map(|r| r.run.failed).sum::<u64>() + replayed.failed,
    ))
}

/// Requests the traced replay records spans for (four spans each).
const TRACED_REPLAY_REQUESTS: u64 = 50_000;
/// Requests of the PING-only pass.
const PING_REQUESTS: u64 = 100_000;

/// The traced pass of `serve_tcp`: an untraced and a span-logged socket
/// repetition, a full replay for the modeled per-layer figures, a shorter
/// span-logged and tracer-attached replay, the PING ceiling, and the probes.
pub fn run_traced(name: &str, w: &TcpWorkload, seed: u64) -> std::io::Result<crate::sim::Traced> {
    // Untraced and span-logged repetitions alternate, so that a slow spell
    // of the host falls on both sides of the overhead ratio.
    let windows = (w.requests as usize).div_ceil(TCP_WINDOW);
    let ns_per_req = |r: &TcpRep| r.run.host_s * 1e9 / w.requests as f64;
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    for _ in 0..crate::sim::TRACE_PAIRS {
        let plain = repetition(w, seed, None)?;
        let mut client_log = SpanLog::with_capacity(windows * 4);
        let traced = repetition(w, seed, Some(&mut client_log))?;
        for r in [&plain, &traced] {
            attempted += r.run.attempted;
            failed += r.run.failed;
        }
        plain_ns.push(ns_per_req(&plain));
        traced_ns.push(ns_per_req(&traced));
        last = Some((plain, traced, client_log));
    }
    let (plain, traced, client_log) = last.expect("at least one pair of repetitions");
    let plain_ns = crate::stats::median(&plain_ns);

    let full = replay(&mut Replica::build(), w, seed, None);
    let mut m = crate::layers::modeled_layers(&full.flat);
    m.insert(
        "obs.trace_overhead_frac".into(),
        crate::stats::median(&traced_ns) / plain_ns - 1.0,
    );
    let socket_wall = (traced.run.host_s * 1e9) as u64;
    m.insert(
        "trace.span_coverage".into(),
        client_log.accounted_ns() as f64 / socket_wall as f64,
    );
    let mut rtts = plain.run.window_rtt_ns.clone();
    m.insert(
        "serve.tcp.rtt_p50_us".into(),
        crate::stats::percentile(&mut rtts, 0.5) as f64 / 1e3,
    );
    m.insert(
        "serve.tcp.rtt_p99_us".into(),
        crate::stats::percentile(&mut rtts, 0.99) as f64 / 1e3,
    );
    m.insert(
        "serve.tcp.ping_kreq_per_s".into(),
        ping_kreq_per_s(PING_REQUESTS)?,
    );
    m.insert(
        "serve.tcp.transport_share".into(),
        1.0 - (full.host_s * 1e9 / w.requests as f64) / plain_ns,
    );

    let short = TcpWorkload {
        requests: TRACED_REPLAY_REQUESTS.min(w.requests),
        ..*w
    };
    let mut replica = Replica::build();
    replica.client.set_tracer(obs::Tracer::new(0, 1 << 16));
    let mut server_log = SpanLog::with_capacity(short.requests as usize * 4);
    let spanned = replay(&mut replica, &short, seed, Some(&mut server_log));
    let tracer = replica.client.take_tracer().expect("tracer attached above");
    let replay_wall = (spanned.host_s * 1e9) as u64;

    // Uniform keys, as the request stream draws them. No YCSB generator and
    // no bench driver sit on this workload's path, and it has one lane.
    let theta = 0.01;
    crate::probes::core(&mut m, &mut replica.client, theta, seed);
    crate::probes::serve_stack(&mut m, &mut replica.client, theta, seed);
    crate::probes::dmem_verbs(&mut m);
    crate::probes::obs_sinks(&mut m);
    crate::probes::lane_switch(&mut m);
    for key in [
        "ycsb.next_op.host_ns",
        "ycsb.next_op.allocs",
        "bench.driver.overhead_host_ns",
        "sched.k4_slowdown",
    ] {
        m.insert(key.into(), 0.0);
    }
    Ok(crate::sim::Traced {
        outcome: Outcome {
            attempted: attempted + w.requests + short.requests,
            failed: failed + full.failed + spanned.failed,
            metrics: m,
            spread: BTreeMap::new(),
        },
        perfetto: obs::to_perfetto(&[&tracer]),
        spans: obs::Json::obj(vec![
            ("client", client_log.to_json(name, socket_wall)),
            ("server_stack", server_log.to_json(name, replay_wall)),
        ]),
        tables: vec![
            ("socket run", client_log.table()),
            ("in-process replay", server_log.table()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(reply: Response) {
        let mut bytes = Vec::new();
        reply.encode(&mut bytes);
        let len = bytes.len() as u64;
        let mut rd = std::io::Cursor::new(bytes);
        let mut line = Vec::new();
        assert_eq!(read_reply(&mut rd, &mut line).unwrap(), reply);
        assert_eq!(rd.position(), len, "frame fully consumed");
    }

    #[test]
    fn reply_parser_inverts_the_encoder() {
        round_trip(Response::Ok);
        round_trip(Response::Pong);
        round_trip(Response::Nil);
        round_trip(Response::Busy);
        round_trip(Response::Int(1));
        round_trip(Response::Value(vec![0, 13, 10, 255, 1, 2, 3, 4]));
        round_trip(Response::Err("bad frame".to_string()));
        round_trip(Response::Pairs(vec![
            (3, vec![1; 8]),
            (u64::MAX, vec![2; 8]),
        ]));
        round_trip(Response::Pairs(Vec::new()));
    }

    #[test]
    fn shadow_tracks_set_del_get_in_order() {
        let mut s = Shadow::default();
        let zeros = vec![0u8; VALUE_SIZE];
        assert!(s.check(&Request::Get(5), &Response::Value(zeros.clone())));
        assert!(s.check(&Request::Set(5, vec![9; 8]), &Response::Ok));
        assert!(!s.check(&Request::Get(5), &Response::Value(zeros)));
        assert!(s.check(&Request::Get(5), &Response::Value(vec![9; 8])));
        assert!(s.check(&Request::Del(5), &Response::Int(1)));
        assert!(s.check(&Request::Del(5), &Response::Int(0)));
        assert!(s.check(&Request::Get(5), &Response::Nil));
        assert!(!s.check(&Request::Get(6), &Response::Busy));
        assert!(!s.check(&Request::Set(6, vec![1; 8]), &Response::Err("oom".into())));
    }

    #[test]
    fn shadow_rejects_disordered_or_stale_scans() {
        let mut s = Shadow::default();
        let z = vec![0u8; VALUE_SIZE];
        let scan = Request::Scan(10, 3);
        assert!(s.check(
            &scan,
            &Response::Pairs(vec![(10, z.clone()), (12, z.clone())])
        ));
        assert!(!s.check(
            &scan,
            &Response::Pairs(vec![(12, z.clone()), (10, z.clone())])
        ));
        assert!(!s.check(&scan, &Response::Pairs(vec![(9, z.clone())])));
        assert!(!s.check(&scan, &Response::Pairs(vec![(10, z.clone()); 4])));
        s.check(&Request::Del(12), &Response::Int(1));
        assert!(!s.check(&scan, &Response::Pairs(vec![(10, z.clone()), (12, z)])));
    }

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        let take = |seed| {
            let mut g = RequestGen::new(seed);
            (0..200).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(42), take(42));
        assert_ne!(take(42), take(43));
        assert_ne!(take(42), take(warmup_seed(42)));
    }
}
