//! The RESP-like wire protocol: request framing and response encoding.
//!
//! Requests arrive either as **inline commands** (`GET 42\r\n`) or as
//! **array frames** in the Redis serialization style
//! (`*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$5\r\nhello\r\n`). Both forms may be
//! pipelined back-to-back on one connection; the [`Decoder`] is fully
//! incremental, so frames split at arbitrary byte boundaries reassemble
//! identically.
//!
//! Error handling is two-tier, and deterministic:
//!
//! * **recoverable** — an unknown inline command or a malformed inline
//!   argument consumes exactly one line and resynchronizes at the next
//!   `\r\n`; the server answers `-ERR ...` and keeps the connection;
//! * **fatal** — structural garbage inside an array frame, or any length
//!   field beyond the fixed limits, poisons the stream (there is no safe
//!   resync point); the server answers `-ERR ...` once and closes.
//!
//! Keys are decimal `u64`, parsed as `u64::from_str` parses them; values are
//! opaque byte strings. The decoder is chunk-transparent — byte-at-a-time
//! feeding decodes exactly as one-shot feeding — and never panics on
//! arbitrary bytes; `tests/props.rs` pins both.
//!
//! A warm request allocates only the value a [`Request::Set`] owns: the
//! decoder splits a line or an array frame into words borrowed from its
//! buffer, and both encoders append decimal digits straight into `out`
//! (only an `-ERR` detail is formatted). `tests/props.rs` checks their bytes
//! against the `format!` encoders they replaced; `tests/allocs.rs` pins the
//! counts. On the server side, [`crate::conn::execute`] is the adapter over
//! [`crate::conn::execute_with`], which answers a GET from a spare buffer.

use std::fmt;

/// Longest accepted bulk string (value payload), bytes.
pub const MAX_BULK: usize = 64 * 1024;
/// Most arguments in one array frame.
pub const MAX_ARGS: usize = 8;
/// Longest accepted inline line (excluding `\r\n`), bytes.
pub const MAX_INLINE: usize = 1024;
/// Largest item count honored by `SCAN`.
pub const MAX_SCAN: usize = 1024;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get(u64),
    /// Insert-or-overwrite.
    Set(u64, Vec<u8>),
    /// Delete.
    Del(u64),
    /// Range scan: up to `count` items with keys `>= start`.
    Scan(u64, usize),
    /// Liveness probe; answered without touching the index.
    Ping,
}

impl Request {
    /// Encodes this request as an inline command line (where the value
    /// payload permits) or as an array frame otherwise.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut digits = [0u8; 20];
        match self {
            Request::Get(k) => {
                out.extend_from_slice(b"GET ");
                out.extend_from_slice(decimal(*k, &mut digits));
            }
            Request::Del(k) => {
                out.extend_from_slice(b"DEL ");
                out.extend_from_slice(decimal(*k, &mut digits));
            }
            Request::Scan(start, count) => {
                out.extend_from_slice(b"SCAN ");
                out.extend_from_slice(decimal(*start, &mut digits));
                out.push(b' ');
                out.extend_from_slice(decimal(*count as u64, &mut digits));
            }
            Request::Ping => out.extend_from_slice(b"PING"),
            Request::Set(k, v) => {
                // Array form: the value is opaque bytes.
                out.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
                put_bulk(out, decimal(*k, &mut digits));
                put_bulk(out, v);
                return;
            }
        }
        out.extend_from_slice(b"\r\n");
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `+OK\r\n`
    Ok,
    /// `$len\r\n<bytes>\r\n`
    Value(Vec<u8>),
    /// `$-1\r\n` — key absent.
    Nil,
    /// `:n\r\n` — e.g. DEL result.
    Int(i64),
    /// `*2n\r\n` of key/value bulk strings — SCAN result.
    Pairs(Vec<(u64, Vec<u8>)>),
    /// `-ERR <msg>\r\n` — recoverable protocol or command error.
    Err(String),
    /// `-BUSY server overloaded\r\n` — shed by backpressure/admission.
    Busy,
    /// `+PONG\r\n`
    Pong,
}

impl Response {
    /// Appends the wire encoding of this response to `out`, returning the
    /// number of bytes written.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let before = out.len();
        let mut digits = [0u8; 20];
        match self {
            Response::Ok => out.extend_from_slice(b"+OK\r\n"),
            Response::Pong => out.extend_from_slice(b"+PONG\r\n"),
            Response::Nil => out.extend_from_slice(b"$-1\r\n"),
            Response::Int(n) => {
                out.push(b':');
                if *n < 0 {
                    out.push(b'-');
                }
                out.extend_from_slice(decimal(n.unsigned_abs(), &mut digits));
                out.extend_from_slice(b"\r\n");
            }
            Response::Value(v) => put_bulk(out, v),
            Response::Pairs(items) => encode_pairs(items.len(), items.iter().map(|(k, v)| (*k, &v[..])), out),
            Response::Err(msg) => {
                out.extend_from_slice(b"-ERR ");
                out.extend_from_slice(msg.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Response::Busy => out.extend_from_slice(b"-BUSY server overloaded\r\n"),
        }
        out.len() - before
    }
}

/// The decimal digits of `n`, written into the tail of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// Appends the [`Response::Pairs`] frame of `n` rows, given as `(key,
/// value)` pairs: `*<2n>` and then each key and value as a bulk string.
pub fn encode_pairs<'a>(n: usize, rows: impl IntoIterator<Item = (u64, &'a [u8])>, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    out.push(b'*');
    out.extend_from_slice(decimal(n as u64 * 2, &mut digits));
    out.extend_from_slice(b"\r\n");
    for (k, v) in rows {
        put_bulk(out, decimal(k, &mut digits));
        put_bulk(out, v);
    }
}

/// Appends `bytes` as a bulk string: `$<len>\r\n<bytes>\r\n`.
fn put_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    let mut digits = [0u8; 20];
    out.push(b'$');
    out.extend_from_slice(decimal(bytes.len() as u64, &mut digits));
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown command or malformed inline argument. The offending line
    /// was consumed; the stream resynchronizes at the next line.
    BadCommand(String),
    /// Structural garbage inside an array frame — no safe resync point.
    BadFrame(String),
    /// A declared length exceeds [`MAX_BULK`] / [`MAX_ARGS`] /
    /// [`MAX_INLINE`].
    FrameTooLarge(String),
}

impl ProtoError {
    /// Whether the connection must close (no resync point exists).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtoError::BadCommand(_))
    }

    /// The human-readable detail carried by the error.
    pub fn detail(&self) -> &str {
        match self {
            ProtoError::BadCommand(s) | ProtoError::BadFrame(s) | ProtoError::FrameTooLarge(s) => s,
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadCommand(s) => write!(f, "bad command: {s}"),
            ProtoError::BadFrame(s) => write!(f, "bad frame: {s}"),
            ProtoError::FrameTooLarge(s) => write!(f, "frame too large: {s}"),
        }
    }
}

/// The incremental frame decoder for one connection.
///
/// Feed raw bytes with [`Decoder::feed`]; pull complete requests with
/// [`Decoder::try_next`]. `Ok(None)` means "need more bytes" — nothing is
/// consumed until a frame (or a recoverable bad line) is complete, so
/// chunk boundaries never change the decoded request sequence.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
    /// Times a recoverable bad line was skipped (resyncs).
    resyncs: u64,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends raw connection bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so pipelined streams don't grow without bound.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (e.g. a partial frame at
    /// connection drop).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Recoverable bad lines skipped so far.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Decodes the next complete request, if one is buffered.
    ///
    /// * `Ok(Some(req))` — one frame consumed;
    /// * `Ok(None)` — incomplete; feed more bytes;
    /// * `Err(e)` with `e.is_fatal()` — stream poisoned, close;
    /// * `Err(e)` otherwise — one line consumed, stream resynced.
    pub fn try_next(&mut self) -> Result<Option<Request>, ProtoError> {
        loop {
            let rest = &self.buf[self.pos..];
            let Some(&first) = rest.first() else {
                return Ok(None);
            };
            if first == b'*' {
                return self.next_array();
            }
            // Inline command: one CRLF-terminated line.
            let Some(eol) = find_crlf(rest) else {
                if rest.len() > MAX_INLINE {
                    return Err(ProtoError::FrameTooLarge(format!(
                        "inline line exceeds {MAX_INLINE} bytes without CRLF"
                    )));
                }
                return Ok(None);
            };
            if eol > MAX_INLINE {
                // Terminated but oversized: fatal (the sender's framing is
                // not trustworthy).
                return Err(ProtoError::FrameTooLarge(format!(
                    "inline line of {eol} bytes exceeds {MAX_INLINE}"
                )));
            }
            let line = self.pos..self.pos + eol;
            self.pos += eol + 2;
            let line = &self.buf[line];
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue; // empty line between pipelined commands
            }
            // Every word is counted; the first `MAX_ARGS` are kept.
            let mut words: [&[u8]; MAX_ARGS] = [&[]; MAX_ARGS];
            let mut count = 0usize;
            for word in line
                .split(|&b| b == b' ' || b == b'\t')
                .filter(|w| !w.is_empty())
            {
                if let Some(slot) = words.get_mut(count) {
                    *slot = word;
                }
                count += 1;
            }
            let parsed = parse_command(&words[..count.min(MAX_ARGS)], count);
            return self.resync_on_error(parsed);
        }
    }

    /// Decodes an array frame starting at `self.pos` (which holds `*`).
    fn next_array(&mut self) -> Result<Option<Request>, ProtoError> {
        let rest = &self.buf[self.pos..];
        let mut cur = 0usize;
        let Some(eol) = find_crlf(&rest[cur..]) else {
            return Ok(None);
        };
        let n = ascii_int(&rest[cur + 1..cur + eol])
            .ok_or_else(|| ProtoError::BadFrame("array header is not an integer".into()))?;
        if n <= 0 || n as usize > MAX_ARGS {
            return Err(ProtoError::FrameTooLarge(format!(
                "array of {n} args (limit {MAX_ARGS})"
            )));
        }
        cur += eol + 2;
        let n = n as usize;
        let mut words: [&[u8]; MAX_ARGS] = [&[]; MAX_ARGS];
        for word in &mut words[..n] {
            let Some(eol) = find_crlf(&rest[cur..]) else {
                return Ok(None);
            };
            if rest[cur] != b'$' {
                return Err(ProtoError::BadFrame("expected bulk-string header `$`".into()));
            }
            let len = ascii_int(&rest[cur + 1..cur + eol])
                .ok_or_else(|| ProtoError::BadFrame("bulk length is not an integer".into()))?;
            if len < 0 || len as usize > MAX_BULK {
                return Err(ProtoError::FrameTooLarge(format!(
                    "bulk string of {len} bytes (limit {MAX_BULK})"
                )));
            }
            cur += eol + 2;
            let len = len as usize;
            if rest.len() < cur + len + 2 {
                return Ok(None);
            }
            if &rest[cur + len..cur + len + 2] != b"\r\n" {
                return Err(ProtoError::BadFrame("bulk string not CRLF-terminated".into()));
            }
            *word = &rest[cur..cur + len];
            cur += len + 2;
        }
        let parsed = parse_command(&words[..n], n);
        self.pos += cur;
        self.resync_on_error(parsed)
    }

    /// Passes a consumed command on; a rejected one counts as a resync.
    fn resync_on_error(
        &mut self,
        parsed: Result<Request, String>,
    ) -> Result<Option<Request>, ProtoError> {
        parsed.map(Some).map_err(|msg| {
            self.resyncs += 1;
            ProtoError::BadCommand(msg)
        })
    }
}

/// Position of the first `\r\n` in `b`, if complete.
fn find_crlf(b: &[u8]) -> Option<usize> {
    b.windows(2).position(|w| w == b"\r\n")
}

/// Parses a signed ASCII decimal integer (no leading `+`, no spaces).
fn ascii_int(b: &[u8]) -> Option<i64> {
    if b.is_empty() || b.len() > 19 + 1 {
        return None;
    }
    let (neg, digits) = match b[0] {
        b'-' => (true, &b[1..]),
        _ => (false, b),
    };
    if digits.is_empty() || !digits.iter().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let mut v: i64 = 0;
    for &c in digits {
        v = v.checked_mul(10)?.checked_add((c - b'0') as i64)?;
    }
    Some(if neg { -v } else { v })
}

/// Parses an unsigned ASCII decimal, accepting exactly what `u64::from_str`
/// accepts: an optional leading `+`, then one or more digits that fit.
fn ascii_u64(b: &[u8]) -> Option<u64> {
    let digits = b.strip_prefix(b"+").unwrap_or(b);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &c| {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(u64::from(d))
    })
}

fn parse_key(b: &[u8]) -> Result<u64, String> {
    ascii_u64(b).ok_or_else(|| format!("bad key {:?}", String::from_utf8_lossy(b)))
}

/// Maps a split command to a [`Request`]: `words` are the first words
/// (inline) or the arguments (array frame), `count` how many there were.
fn parse_command(words: &[&[u8]], count: usize) -> Result<Request, String> {
    let cmd = words.first().copied().unwrap_or(b"");
    // Uppercased on the stack; a word longer than every verb matches none.
    let mut upper = [0u8; 4];
    let verb: &[u8] = match upper.get_mut(..cmd.len()) {
        Some(verb) => {
            verb.copy_from_slice(cmd);
            verb.make_ascii_uppercase();
            verb
        }
        None => b"",
    };
    match (verb, count) {
        (b"PING", 1) => Ok(Request::Ping),
        (b"GET", 2) => Ok(Request::Get(parse_key(words[1])?)),
        (b"DEL", 2) => Ok(Request::Del(parse_key(words[1])?)),
        (b"SET", 3) => Ok(Request::Set(parse_key(words[1])?, words[2].to_vec())),
        (b"SCAN", 3) => {
            let start = parse_key(words[1])?;
            let count = ascii_u64(words[2])
                .and_then(|c| usize::try_from(c).ok())
                .ok_or_else(|| "bad scan count".to_string())?;
            Ok(Request::Scan(start, count.min(MAX_SCAN)))
        }
        _ => Err(format!(
            "unknown command {:?}/{count}",
            String::from_utf8_lossy(cmd)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> (Vec<Request>, Vec<ProtoError>) {
        let mut d = Decoder::new();
        d.feed(bytes);
        let mut reqs = Vec::new();
        let mut errs = Vec::new();
        loop {
            match d.try_next() {
                Ok(Some(r)) => reqs.push(r),
                Ok(None) => break,
                Err(e) => {
                    let fatal = e.is_fatal();
                    errs.push(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        (reqs, errs)
    }

    #[test]
    fn inline_commands_decode() {
        let (reqs, errs) = decode_all(b"GET 42\r\nDEL 7\r\nSCAN 10 50\r\nPING\r\n");
        assert!(errs.is_empty());
        assert_eq!(
            reqs,
            vec![
                Request::Get(42),
                Request::Del(7),
                Request::Scan(10, 50),
                Request::Ping
            ]
        );
    }

    #[test]
    fn array_frames_decode() {
        let (reqs, errs) = decode_all(b"*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$5\r\nhello\r\n");
        assert!(errs.is_empty());
        assert_eq!(reqs, vec![Request::Set(42, b"hello".to_vec())]);
    }

    #[test]
    fn encode_decode_round_trips() {
        let reqs = vec![
            Request::Get(1),
            Request::Set(2, vec![0xAB; 32]),
            Request::Del(3),
            Request::Scan(4, 9),
            Request::Ping,
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let (decoded, errs) = decode_all(&wire);
        assert!(errs.is_empty());
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut d = Decoder::new();
        d.feed(b"GET 4");
        assert_eq!(d.try_next().unwrap(), None);
        d.feed(b"2\r\nGE");
        assert_eq!(d.try_next().unwrap(), Some(Request::Get(42)));
        assert_eq!(d.try_next().unwrap(), None);
        d.feed(b"T 7\r\n");
        assert_eq!(d.try_next().unwrap(), Some(Request::Get(7)));
        assert_eq!(d.pending_bytes(), 0);
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_stream() {
        let mut wire = Vec::new();
        for r in [
            Request::Set(9, b"abcdef".to_vec()),
            Request::Get(9),
            Request::Scan(0, 3),
        ] {
            r.encode(&mut wire);
        }
        let (whole, _) = decode_all(&wire);
        for cut in 1..wire.len() {
            let mut d = Decoder::new();
            d.feed(&wire[..cut]);
            let mut got = Vec::new();
            while let Ok(Some(r)) = d.try_next() {
                got.push(r);
            }
            d.feed(&wire[cut..]);
            while let Ok(Some(r)) = d.try_next() {
                got.push(r);
            }
            assert_eq!(got, whole, "split at {cut}");
        }
    }

    #[test]
    fn bad_inline_line_resyncs() {
        let (reqs, errs) = decode_all(b"FROB 1\r\nGET 5\r\n");
        assert_eq!(reqs, vec![Request::Get(5)]);
        assert_eq!(errs.len(), 1);
        assert!(!errs[0].is_fatal());
    }

    #[test]
    fn oversized_and_structural_errors_are_fatal() {
        let big = format!("*2\r\n$3\r\nGET\r\n${}\r\n", MAX_BULK + 1);
        let (_, errs) = decode_all(big.as_bytes());
        assert!(errs[0].is_fatal());
        let (_, errs) = decode_all(b"*2\r\nnope\r\n");
        assert!(errs[0].is_fatal());
        let long = vec![b'A'; MAX_INLINE + 2];
        let (_, errs) = decode_all(&long);
        assert!(errs[0].is_fatal());
    }

    #[test]
    fn responses_encode_stably() {
        let mut out = Vec::new();
        Response::Ok.encode(&mut out);
        Response::Nil.encode(&mut out);
        Response::Int(1).encode(&mut out);
        Response::Value(b"xy".to_vec()).encode(&mut out);
        Response::Pairs(vec![(7, b"v".to_vec())]).encode(&mut out);
        Response::Busy.encode(&mut out);
        assert_eq!(
            out,
            b"+OK\r\n$-1\r\n:1\r\n$2\r\nxy\r\n*2\r\n$1\r\n7\r\n$1\r\nv\r\n-BUSY server overloaded\r\n"
        );
    }
}
