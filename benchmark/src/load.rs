//! Open-loop HTTP load from one process.
//!
//! A stream is a fixed schedule: request `i` is due at `i / rate` seconds
//! after the start, whether or not earlier requests have answered. Each
//! stream owns a few keep-alive connections; a connection thread takes
//! the next due request as soon as it is free. Latency counts from the
//! due time, so a stall also charges the requests queued behind it, and
//! `sent − due` is how late the generator ran.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use shapefrag_serve::client::Conn;

/// Requests slower than this count as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// What a request asks for; the index picks the shape, query or script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Validate,
    Fragment(usize),
    Sparql(usize),
    Update(usize),
    Compact,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Validate => "validate",
            Op::Fragment(_) => "fragment",
            Op::Sparql(_) => "sparql",
            Op::Update(_) => "update",
            Op::Compact => "compact",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Op::Validate => "/validate",
            Op::Fragment(_) => "/fragment",
            Op::Sparql(_) => "/sparql",
            Op::Update(_) => "/update",
            Op::Compact => "/compact",
        }
    }
}

/// One scheduled request with its body.
pub struct Planned {
    pub op: Op,
    pub body: Vec<u8>,
}

/// A fixed-rate schedule served by `conns` connections.
pub struct Stream {
    pub rate_hz: f64,
    pub conns: usize,
    pub items: Vec<Planned>,
}

/// What happened to one request. Times are seconds since the load start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status, or 0 for a transport error or timeout.
    pub status: u16,
    /// FNV-1a of the body (fragment bodies are checked by hash).
    pub body_hash: u64,
    /// The body of JSON responses, kept for the oracle check.
    pub json_body: Option<String>,
    pub cache_hit: bool,
}

impl Sample {
    /// Latency from the due time to the last byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs every stream until each has sent all items due before
/// `duration`, and returns the samples of all streams in due order.
pub fn run(addr: SocketAddr, streams: &[Stream], duration: Duration) -> Vec<Sample> {
    let cursors: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (stream, next) in streams.iter().zip(&cursors) {
            for _ in 0..stream.conns {
                handles.push(scope.spawn(move || connection(addr, stream, next, start, duration)));
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    samples
}

fn connection(
    addr: SocketAddr,
    stream: &Stream,
    next: &AtomicUsize,
    start: Instant,
    duration: Duration,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut conn: Option<Conn> = None;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let due = i as f64 / stream.rate_hz;
        if i >= stream.items.len() || due >= duration.as_secs_f64() {
            return out;
        }
        let wait = start + Duration::from_secs_f64(due);
        let now = Instant::now();
        if wait > now {
            std::thread::sleep(wait - now);
        }
        let item = &stream.items[i];
        let sent = start.elapsed().as_secs_f64();
        let response = match conn.as_mut() {
            Some(c) => Ok(c),
            None => Conn::connect(addr, REQUEST_TIMEOUT).map(|c| conn.insert(c)),
        }
        .and_then(|c| c.request("POST", item.op.path(), &[], &item.body));
        let done = start.elapsed().as_secs_f64();
        let mut sample = Sample {
            op: item.op,
            due,
            sent,
            done,
            status: 0,
            body_hash: 0,
            json_body: None,
            cache_hit: false,
        };
        match response {
            Ok(resp) => {
                sample.status = resp.status;
                sample.body_hash = fnv1a(&resp.body);
                sample.cache_hit = resp.header("x-fragment-cache") == Some("hit");
                if !matches!(item.op, Op::Fragment(_)) {
                    sample.json_body = Some(resp.text());
                }
            }
            // A broken or timed-out connection is replaced for the next
            // request.
            Err(_) => conn = None,
        }
        out.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_and_lag_from_send() {
        let s = Sample {
            op: Op::Validate,
            due: 1.000,
            sent: 1.004,
            done: 1.030,
            status: 200,
            body_hash: 0,
            json_body: None,
            cache_hit: false,
        };
        assert!((s.latency_ms() - 30.0).abs() < 1e-9);
        assert!((s.lag_ms() - 4.0).abs() < 1e-9);
        assert!(s.ok());
        assert!(!Sample {
            status: 503,
            ..s.clone()
        }
        .ok());
        assert!(!Sample { status: 0, ..s }.ok());
    }

    /// A one-connection HTTP stub that holds its first answer for
    /// `stall`, then answers every request at once.
    fn stalling_stub(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub address");
        let handle = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            let mut first = true;
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    // Requests carry empty bodies in this test.
                    buf.drain(..end + 4);
                    if first {
                        std::thread::sleep(stall);
                        first = false;
                    }
                    let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
                    if sock.write_all(reply).is_err() {
                        return;
                    }
                }
                match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_charges_every_request_due_behind_it() {
        let (addr, stub) = stalling_stub(Duration::from_millis(200));
        let stream = Stream {
            rate_hz: 100.0,
            conns: 1,
            items: (0..50)
                .map(|_| Planned {
                    op: Op::Compact,
                    body: Vec::new(),
                })
                .collect(),
        };
        let samples = run(addr, &[stream], Duration::from_millis(100));
        stub.join().expect("stub thread");
        // Exactly the requests due inside the window were sent.
        assert_eq!(samples.len(), 10);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.status, 200);
            assert!((s.due - i as f64 * 0.01).abs() < 1e-9);
            // Every request due during the stall waits for it: latency
            // from its due time covers the rest of the stall, and the
            // generator reports the lateness as lag.
            let stall_left_ms = 200.0 - i as f64 * 10.0;
            assert!(s.latency_ms() >= stall_left_ms - 1.0, "{i}: {s:?}");
            if i > 0 {
                assert!(s.lag_ms() >= stall_left_ms - 1.0, "{i}: {s:?}");
            }
        }
        assert!(samples[0].lag_ms() < 50.0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
