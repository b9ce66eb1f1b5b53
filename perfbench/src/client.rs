//! The benchmark's own HTTP/1.0 client and its two load shapes: an
//! open loop that sends on a fixed schedule and times each request from
//! when it was due, and a closed loop of connections that each send the
//! next request as soon as the previous one completes.

use crate::body::BodyCheck;
use crate::stats::Samples;
use crate::sys;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One document request: the absolute URL and the body size the origin
/// serves for it.
#[derive(Debug, Clone)]
pub struct Target {
    pub url: String,
    pub size: u64,
}

/// What one response looked like.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    pub status: u16,
    /// The response carried `X-Cache: HIT`.
    pub hit: bool,
    /// Body bytes received.
    pub body_len: u64,
    /// The body matched the origin's bytes (only when asked to check).
    pub body_ok: bool,
}

/// Offsets from the request's start, taken only when tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub connect_ns: u64,
    pub ttfb_ns: u64,
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Send `GET target` over a fresh connection and read the reply. With
/// `check`, the body is compared byte for byte with the origin's; the
/// body length is always counted. `spans`, when given, receives the
/// connect and first-byte times.
pub fn fetch(
    addr: SocketAddr,
    target: &str,
    check: bool,
    buf: &mut [u8],
    mut spans: Option<&mut Spans>,
) -> io::Result<Reply> {
    let t0 = spans.is_some().then(Instant::now);
    let mut stream = TcpStream::connect(addr)?;
    if let (Some(s), Some(t0)) = (spans.as_deref_mut(), t0) {
        s.connect_ns = t0.elapsed().as_nanos() as u64;
    }
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())?;

    let mut filled = 0;
    let head_end = loop {
        let n = stream.read(&mut buf[filled..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response head",
            ));
        }
        if filled == 0 {
            if let (Some(s), Some(t0)) = (spans.as_deref_mut(), t0) {
                s.ttfb_ns = t0.elapsed().as_nanos() as u64;
            }
        }
        filled += n;
        if let Some(i) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        if filled == buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too long",
            ));
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not text"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let hit = header_value(head, "x-cache") == Some("HIT");
    let want: u64 = header_value(head, "content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let mut verifier = check.then(|| BodyCheck::new(target));
    let mut got = (filled - head_end) as u64;
    if let Some(v) = verifier.as_mut() {
        v.feed(&buf[head_end..filled]);
    }
    while got < want {
        let n = stream.read(buf)?;
        if n == 0 {
            break;
        }
        if let Some(v) = verifier.as_mut() {
            v.feed(&buf[..n]);
        }
        got += n as u64;
    }
    Ok(Reply {
        status,
        hit,
        body_len: got,
        body_ok: verifier.is_some_and(|v| v.matched()),
    })
}

/// `GET target` and the whole reply body as text (for the proxy's
/// stats endpoint).
pub fn get_text(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = reply.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// One timed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record {
    /// Index into the phase's request sequence.
    pub index: usize,
    /// When it was due, from the phase start (closed loop: when sent).
    pub due_ns: u64,
    /// When the client actually started it.
    pub start_ns: u64,
    /// When its last byte arrived (or it failed).
    pub done_ns: u64,
    /// 200 with a body of the expected length.
    pub ok: bool,
    /// A 200 whose body length differs from the document's size.
    pub bad_length: bool,
    pub hit: bool,
    pub body_len: u64,
    pub spans: Spans,
}

impl Record {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e3
    }

    /// Latency from the due time, or infinity for a failed request: it
    /// misses any latency limit.
    pub fn latency_or_inf(&self) -> f64 {
        if self.ok {
            self.latency_us()
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator started the request, in microseconds.
    pub fn late_us(&self) -> f64 {
        (self.start_ns.saturating_sub(self.due_ns)) as f64 / 1e3
    }
}

/// Everything one load phase produced.
#[derive(Debug, Clone)]
pub struct Phase {
    pub records: Vec<Record>,
    /// When the phase started; record times count from here.
    pub start: Instant,
    /// From the phase start to its last completion (summed over appended
    /// phases).
    pub wall_s: f64,
    /// CPU seconds the client threads used.
    pub client_cpu_s: f64,
}

impl Phase {
    /// A phase with nothing in it yet, for [`Phase::append`].
    pub fn empty(start: Instant) -> Phase {
        Phase {
            records: Vec::new(),
            start,
            wall_s: 0.0,
            client_cpu_s: 0.0,
        }
    }

    /// Add a later phase run by a [`Load`] starting at `first`: its
    /// records get replay indices and times counted from this phase's
    /// start.
    pub fn append(&mut self, later: Phase, first: usize) {
        let offset = later.start.saturating_duration_since(self.start).as_nanos() as u64;
        self.records
            .extend(later.records.into_iter().map(|r| Record {
                index: first + r.index,
                due_ns: offset + r.due_ns,
                start_ns: offset + r.start_ns,
                done_ns: offset + r.done_ns,
                ..r
            }));
        self.wall_s += later.wall_s;
        self.client_cpu_s += later.client_cpu_s;
    }

    pub fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.ok).count()
    }

    /// Latency from the due time of each run of `block` consecutive
    /// requests (a last, shorter run is dropped); a failed request counts
    /// as infinitely late.
    pub fn latency_blocks(&self, block: usize) -> Vec<Samples> {
        self.records
            .chunks_exact(block)
            .map(|c| Samples::new(c.iter().map(Record::latency_or_inf).collect()))
            .collect()
    }
}

/// Where a phase sends its requests and how.
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [Target],
    /// Request `i` of the phase goes to `targets[(first + i) % len]`.
    pub first: usize,
    pub threads: usize,
    /// Compare every body with the origin's bytes.
    pub check_bodies: bool,
    pub trace: bool,
}

impl Load<'_> {
    fn one(&self, i: usize, start: Instant, due_ns: u64, buf: &mut [u8]) -> Record {
        let t = &self.targets[(self.first + i) % self.targets.len()];
        let start_ns = start.elapsed().as_nanos() as u64;
        let mut spans = Spans::default();
        let reply = fetch(
            self.addr,
            &t.url,
            self.check_bodies,
            buf,
            self.trace.then_some(&mut spans),
        );
        let done_ns = start.elapsed().as_nanos() as u64;
        let reply = reply.unwrap_or_default();
        let bad_length = reply.status == 200 && reply.body_len != t.size;
        let body_ok = !self.check_bodies || reply.body_ok;
        Record {
            index: i,
            due_ns,
            start_ns,
            done_ns,
            ok: reply.status == 200 && !bad_length && body_ok,
            bad_length,
            hit: reply.hit,
            body_len: reply.body_len,
            spans,
        }
    }

    /// Run `worker` on `self.threads` threads and gather their records.
    fn run(&self, start: Instant, worker: impl Fn(&mut Vec<Record>, &mut [u8]) + Sync) -> Phase {
        let (mut records, cpu) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    s.spawn(|| {
                        sys::tight_timer_slack();
                        let cpu0 = sys::thread_cpu_s();
                        let mut buf = vec![0u8; 64 * 1024];
                        let mut out = Vec::new();
                        worker(&mut out, &mut buf);
                        (out, sys::thread_cpu_s() - cpu0)
                    })
                })
                .collect();
            let mut all = Vec::new();
            let mut cpu = 0.0;
            for h in handles {
                let (recs, c) = h.join().expect("a client thread panicked");
                all.extend(recs);
                cpu += c;
            }
            (all, cpu)
        });
        records.sort_by_key(|r| r.index);
        let last = records.iter().map(|r| r.done_ns).max().unwrap_or(0);
        Phase {
            records,
            start,
            wall_s: last as f64 / 1e9,
            client_cpu_s: cpu,
        }
    }

    /// Send `count` requests at `rate` per second, request `i` due at
    /// `i / rate` after the start, whatever happened to earlier ones.
    pub fn open_loop(&self, count: usize, rate: f64) -> Phase {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        self.run(start, |out, buf| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            let due_ns = (i as f64 * 1e9 / rate) as u64;
            let now_ns = start.elapsed().as_nanos() as u64;
            if due_ns > now_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
            }
            out.push(self.one(i, start, due_ns, buf));
        })
    }

    /// Send requests `0..count`, each connection sending its next one as
    /// soon as its previous one completes.
    pub fn closed_loop(&self, count: usize) -> Phase {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        self.run(start, |out, buf| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            let due_ns = start.elapsed().as_nanos() as u64;
            out.push(self.one(i, start, due_ns, buf));
        })
    }
}
