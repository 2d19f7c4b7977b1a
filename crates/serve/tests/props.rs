//! Property tests for the frame parser and the encoders: arbitrary
//! garbage, truncation, pipelining and chunking must never panic, and must
//! either resync or close deterministically; the encoders write the bytes
//! the `format!`-based ones they replaced wrote; keys and counts parse as
//! `u64::from_str` does.

use proptest::prelude::*;
use serve::proto::{Decoder, ProtoError, Request, Response, MAX_ARGS, MAX_BULK, MAX_SCAN};
use serve::Conn;

/// Drains a decoder, returning (requests, recoverable errors, fatal?).
fn drain(d: &mut Decoder) -> (Vec<Request>, usize, bool) {
    let mut reqs = Vec::new();
    let mut recov = 0usize;
    loop {
        match d.try_next() {
            Ok(Some(r)) => reqs.push(r),
            Ok(None) => return (reqs, recov, false),
            Err(e) if !e.is_fatal() => recov += 1,
            Err(_) => return (reqs, recov, true),
        }
    }
}

/// Builds the wire bytes of a request list.
fn wire_of(reqs: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        r.encode(&mut out);
    }
    out
}

/// Derives a request from three raw draws.
fn req_of(kind: u8, key: u64, len: usize) -> Request {
    match kind % 5 {
        0 => Request::Get(key),
        1 => Request::Set(key, vec![0x5A; len % 256]),
        2 => Request::Del(key),
        3 => Request::Scan(key, len % 64 + 1),
        _ => Request::Ping,
    }
}

/// The `format!` encoder of requests that `Request::encode` replaced, kept
/// as the reference its bytes must equal.
fn reference_request(r: &Request, out: &mut Vec<u8>) {
    match r {
        Request::Get(k) => out.extend_from_slice(format!("GET {k}\r\n").as_bytes()),
        Request::Del(k) => out.extend_from_slice(format!("DEL {k}\r\n").as_bytes()),
        Request::Scan(start, count) => {
            out.extend_from_slice(format!("SCAN {start} {count}\r\n").as_bytes());
        }
        Request::Ping => out.extend_from_slice(b"PING\r\n"),
        Request::Set(k, v) => {
            let key = k.to_string();
            out.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
            out.extend_from_slice(format!("${}\r\n", key.len()).as_bytes());
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(format!("${}\r\n", v.len()).as_bytes());
            out.extend_from_slice(v);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// The `format!` encoder of responses that `Response::encode` replaced.
fn reference_response(r: &Response, out: &mut Vec<u8>) {
    match r {
        Response::Ok => out.extend_from_slice(b"+OK\r\n"),
        Response::Pong => out.extend_from_slice(b"+PONG\r\n"),
        Response::Nil => out.extend_from_slice(b"$-1\r\n"),
        Response::Int(n) => out.extend_from_slice(format!(":{n}\r\n").as_bytes()),
        Response::Value(v) => {
            out.extend_from_slice(format!("${}\r\n", v.len()).as_bytes());
            out.extend_from_slice(v);
            out.extend_from_slice(b"\r\n");
        }
        Response::Pairs(items) => {
            out.extend_from_slice(format!("*{}\r\n", items.len() * 2).as_bytes());
            for (k, v) in items {
                let key = k.to_string();
                out.extend_from_slice(format!("${}\r\n", key.len()).as_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(format!("${}\r\n", v.len()).as_bytes());
                out.extend_from_slice(v);
                out.extend_from_slice(b"\r\n");
            }
        }
        Response::Err(msg) => {
            out.extend_from_slice(b"-ERR ");
            out.extend_from_slice(msg.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Response::Busy => out.extend_from_slice(b"-BUSY server overloaded\r\n"),
    }
}

/// Checks both encoders against their references, appending to a buffer
/// that already holds bytes.
fn encodes_as_reference(reqs: &[Request], resps: &[Response]) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (b"prefix".to_vec(), b"prefix".to_vec());
    for r in reqs {
        r.encode(&mut got);
        reference_request(r, &mut want);
        prop_assert_eq!(&got, &want, "{:?}", r);
    }
    for r in resps {
        let before = got.len();
        let wrote = r.encode(&mut got);
        prop_assert_eq!(wrote, got.len() - before);
        reference_response(r, &mut want);
        prop_assert_eq!(&got, &want, "{:?}", r);
    }
    Ok(())
}

/// A number of any digit count: `a` shifted right by `shift`, or, for a
/// shift of 64 or more, one of the three largest `u64`s.
fn number(a: u64, shift: u32) -> u64 {
    if shift < 64 {
        a >> shift
    } else {
        u64::MAX - a % 3
    }
}

/// Derives a response from raw draws.
fn resp_of(kind: u8, a: u64, shift: u32, len: usize) -> Response {
    match kind % 8 {
        0 => Response::Ok,
        1 => Response::Value(vec![0xC3; len]),
        2 => Response::Nil,
        3 if shift >= 64 => Response::Int(i64::MIN + (a % 2) as i64),
        3 => Response::Int(number(a, shift) as i64),
        4 => Response::Pairs(
            (0..len % 6)
                .map(|i| {
                    (
                        number(a.rotate_left(i as u32 * 11), shift),
                        vec![b'v'; i * 7],
                    )
                })
                .collect(),
        ),
        5 => Response::Err("x".repeat(len % 40)),
        6 => Response::Busy,
        _ => Response::Pong,
    }
}

/// The characters of a drawn key token: mostly digits, sometimes a sign
/// or a letter.
fn token_of(sign: u8, chars: &[u8]) -> Vec<u8> {
    let lead: &[u8] = match sign {
        0 => b"+",
        1 => b"-",
        _ => b"",
    };
    let body = chars.iter().map(|&c| match c {
        0 => b'+',
        1 => b'x',
        2 => 0xFF,
        c => b'0' + c % 10,
    });
    lead.iter().copied().chain(body).collect()
}

/// Decodes one inline line, which must be consumed whole.
fn decode_line(line: &[u8]) -> Result<Request, ProtoError> {
    let mut d = Decoder::new();
    d.feed(line);
    let got = d.try_next().map(|r| r.expect("a whole line"));
    assert_eq!(d.pending_bytes(), 0);
    got
}

#[test]
fn encoders_match_the_reference_at_the_edges() {
    let reqs = [
        Request::Get(0),
        Request::Get(u64::MAX),
        Request::Del(u64::MAX),
        Request::Set(u64::MAX, Vec::new()),
        Request::Set(0, vec![7; 100_000]),
        Request::Scan(u64::MAX, usize::MAX),
        Request::Scan(0, 0),
        Request::Ping,
    ];
    let resps = [
        Response::Int(i64::MIN),
        Response::Int(i64::MAX),
        Response::Int(-1),
        Response::Int(0),
        Response::Value(Vec::new()),
        Response::Pairs(Vec::new()),
        Response::Pairs(vec![(u64::MAX, Vec::new()), (0, b"x".to_vec())]),
        Response::Err(String::new()),
    ];
    encodes_as_reference(&reqs, &resps).unwrap();
}

#[test]
fn an_inline_line_past_max_args_words_names_every_word_in_its_error() {
    let mut c = Conn::new(0);
    c.feed(b"GET 1 2 3 4 5 6 7 8 9 10 11\r\nPING\r\n");
    assert_eq!(c.next_request().unwrap(), Some(Request::Ping));
    assert_eq!(c.out, b"-ERR unknown command \"GET\"/12\r\n");
}

proptest! {
    /// The digit-writing encoders write exactly the bytes of the `format!`
    /// ones, for every request and response.
    #[test]
    fn encoders_write_the_reference_bytes(
        draws in proptest::collection::vec((any::<u8>(), any::<u64>(), 0u32..70, 0usize..300), 1..12),
    ) {
        let reqs: Vec<Request> = draws
            .iter()
            .map(|&(k, a, shift, len)| match k % 5 {
                0 => Request::Get(number(a, shift)),
                1 => Request::Set(number(a, shift), vec![0x5A; len]),
                2 => Request::Del(number(a, shift)),
                3 => Request::Scan(number(a, shift), number(a.rotate_left(17), shift) as usize),
                _ => Request::Ping,
            })
            .collect();
        let resps: Vec<Response> =
            draws.iter().map(|&(k, a, shift, len)| resp_of(k, a, shift, len)).collect();
        encodes_as_reference(&reqs, &resps)?;
    }

    /// A key and a SCAN count parse exactly when `u64::from_str` accepts
    /// them, to the same number; the rest answer the same error details.
    #[test]
    fn keys_and_counts_parse_as_from_str_does(
        sign in 0u8..4,
        chars in proptest::collection::vec(0u8..64, 1..25),
    ) {
        let token = token_of(sign, &chars);
        let text = String::from_utf8_lossy(&token).into_owned();
        let parsed = std::str::from_utf8(&token).ok().and_then(|s| s.parse::<u64>().ok());
        let line = |prefix: &[u8]| [prefix, &token[..], b"\r\n"].concat();
        let get = decode_line(&line(b"GET "));
        let scan = decode_line(&line(b"SCAN 5 "));
        match parsed {
            Some(k) => {
                prop_assert_eq!(get, Ok(Request::Get(k)));
                prop_assert_eq!(scan, Ok(Request::Scan(5, (k as usize).min(MAX_SCAN))));
            }
            None => {
                prop_assert_eq!(get, Err(ProtoError::BadCommand(format!("bad key {text:?}"))));
                prop_assert_eq!(scan, Err(ProtoError::BadCommand("bad scan count".into())));
            }
        }
    }

    /// Arbitrary garbage never panics the decoder, and a fatal error is
    /// sticky per drain (the stream is closed, not re-interpreted).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut d = Decoder::new();
        d.feed(&bytes);
        let _ = drain(&mut d);
    }

    /// Pipelined well-formed requests decode back exactly, regardless of
    /// how the byte stream is chunked.
    #[test]
    fn chunking_is_transparent(
        draws in proptest::collection::vec((any::<u8>(), any::<u64>(), 0usize..300), 1..12),
        cuts in proptest::collection::vec(1usize..64, 0..12),
    ) {
        let reqs: Vec<Request> = draws.iter().map(|&(k, key, len)| req_of(k, key, len)).collect();
        let wire = wire_of(&reqs);
        let mut d = Decoder::new();
        let mut got = Vec::new();
        let mut off = 0usize;
        let mut ci = 0usize;
        while off < wire.len() {
            let step = cuts.get(ci).copied().unwrap_or(wire.len());
            ci += 1;
            let end = (off + step).min(wire.len());
            d.feed(&wire[off..end]);
            off = end;
            let (mut part, recov, fatal) = drain(&mut d);
            prop_assert_eq!(recov, 0);
            prop_assert!(!fatal);
            got.append(&mut part);
        }
        prop_assert_eq!(got, reqs);
        prop_assert_eq!(d.pending_bytes(), 0);
    }

    /// A truncated stream yields exactly the complete prefix of frames and
    /// then waits for more bytes — never an error, never a partial request.
    #[test]
    fn truncation_yields_the_complete_prefix(
        draws in proptest::collection::vec((any::<u8>(), any::<u64>(), 0usize..300), 1..8),
        frac in 0usize..100,
    ) {
        let reqs: Vec<Request> = draws.iter().map(|&(k, key, len)| req_of(k, key, len)).collect();
        let wire = wire_of(&reqs);
        let cut = wire.len() * frac / 100;
        let mut d = Decoder::new();
        d.feed(&wire[..cut]);
        let (got, recov, fatal) = drain(&mut d);
        prop_assert_eq!(recov, 0);
        prop_assert!(!fatal);
        prop_assert!(got.len() <= reqs.len());
        prop_assert_eq!(&reqs[..got.len()], &got[..]);
        // Feeding the rest completes the stream.
        d.feed(&wire[cut..]);
        let (rest, _, fatal) = drain(&mut d);
        prop_assert!(!fatal);
        prop_assert_eq!(&reqs[got.len()..], &rest[..]);
    }

    /// Garbage injected between well-formed inline commands is skipped with
    /// a recoverable resync; the well-formed commands still decode.
    #[test]
    fn inline_garbage_resyncs(
        junk in proptest::collection::vec(0x20u8..0x7F, 1..40),
        key in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        Request::Get(key).encode(&mut wire);
        wire.extend_from_slice(&junk);
        wire.extend_from_slice(b"\r\n");
        Request::Del(key).encode(&mut wire);
        let mut d = Decoder::new();
        d.feed(&wire);
        let mut got = Vec::new();
        let mut fatal = false;
        loop {
            match d.try_next() {
                Ok(Some(r)) => got.push(r),
                Ok(None) => break,
                Err(e) => {
                    if e.is_fatal() {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        prop_assert!(!fatal);
        // The junk line may happen to parse as a command; both surrounding
        // requests must always survive.
        prop_assert!(got.contains(&Request::Get(key)));
        prop_assert!(got.contains(&Request::Del(key)));
    }

    /// Oversized declared lengths are rejected as fatal without allocating
    /// the declared size.
    #[test]
    fn oversized_lengths_close(extra in 1u64..1_000_000) {
        let hdr = format!("*2\r\n$3\r\nSET\r\n${}\r\n", MAX_BULK as u64 + extra);
        let mut d = Decoder::new();
        d.feed(hdr.as_bytes());
        let (_, _, fatal) = drain(&mut d);
        prop_assert!(fatal);
        let hdr = format!("*{}\r\n", MAX_ARGS as u64 + extra);
        let mut d = Decoder::new();
        d.feed(hdr.as_bytes());
        let (_, _, fatal) = drain(&mut d);
        prop_assert!(fatal);
    }

    /// Decoding is a pure function of the byte stream: the same bytes fed
    /// twice produce identical request sequences and error classes.
    #[test]
    fn decode_is_deterministic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut a = Decoder::new();
        a.feed(&bytes);
        let ra = drain(&mut a);
        let mut b = Decoder::new();
        b.feed(&bytes);
        let rb = drain(&mut b);
        prop_assert_eq!(ra, rb);
    }
}

proptest! {
    /// A SCAN reply encoded from a row arena is byte for byte the
    /// `Response::Pairs` of the same rows: empty rows and values, keys of
    /// every digit count and the top `u64`s.
    #[test]
    fn pairs_from_a_row_arena_encode_as_response_pairs(
        rows in proptest::collection::vec((any::<u64>(), 0u32..70, 0usize..40), 0..20),
    ) {
        let pairs: Vec<(u64, Vec<u8>)> =
            rows.iter().map(|&(a, shift, len)| (number(a, shift), vec![a as u8; len])).collect();
        let mut arena = dmem::Rows::new();
        for (k, v) in &pairs {
            arena.push(*k, v);
        }
        let (mut from_arena, mut reference) = (Vec::new(), Vec::new());
        serve::proto::encode_pairs(arena.len(), arena.iter(), &mut from_arena);
        Response::Pairs(pairs).encode(&mut reference);
        prop_assert_eq!(from_arena, reference);
    }
}

/// `Conn::serve` answers a SCAN from its arena with the bytes `execute`'s
/// `Response::Pairs` encodes to, for scans from the reserved key 0, from
/// between keys and past the last one, of no row and of more rows than
/// there are.
#[test]
fn a_served_scan_writes_the_bytes_of_the_executed_one() {
    use dmem::RangeIndex;
    let pool = dmem::Pool::with_defaults(1, 64 << 20);
    let tree = chime::Chime::create(&pool, chime::ChimeConfig::default(), 0);
    let mut client = tree.client(&tree.new_cn());
    for k in (1..=3_000u64).map(|i| i * 3) {
        client.insert(k, &k.to_le_bytes()).unwrap();
    }
    let mut conn = Conn::new(0);
    let mut reference = Vec::new();
    for (start, count) in [(0, 5), (1, 0), (2, 1), (4_000, 37), (8_990, 100), (9_001, 3), (1, 4_000)] {
        let req = Request::Scan(start, count);
        conn.out.clear();
        conn.serve(&mut client, &req, 8);
        reference.clear();
        serve::conn::execute(&mut client, &req, 8).encode(&mut reference);
        assert_eq!(conn.out, reference, "SCAN {start} {count}");
    }
}
