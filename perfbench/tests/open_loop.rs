//! The open loop times each request from when it was due, so a server
//! stall shows up in the latency of every request queued behind it and
//! in how late the generator ran — not only in the stalled request.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webcache_perfbench::client::{Load, Phase, Target};
use webcache_perfbench::stats::Samples;

/// Requests between stalls, and how long each stall lasts.
const STALL_EVERY: usize = 100;
const STALL: Duration = Duration::from_millis(40);

/// A server that answers every request at once, except that it holds two
/// consecutive connections for [`STALL`] every [`STALL_EVERY`] requests
/// — enough to block both of the client's connections.
fn slow_server(stop: Arc<AtomicBool>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut held = Vec::new();
        for (n, stream) in listener.incoming().enumerate() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let mut s = stream.unwrap();
            let mut head = Vec::new();
            let mut buf = [0u8; 512];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                let k = s.read(&mut buf).unwrap();
                assert!(k > 0, "client closed mid-request");
                head.extend_from_slice(&buf[..k]);
            }
            let reply = b"HTTP/1.0 200 OK\r\ncontent-length: 5\r\nx-cache: HIT\r\n\r\nhello";
            if n % STALL_EVERY < 2 {
                // Answer the pair together once the stall has passed.
                held.push(s);
                if held.len() == 2 {
                    std::thread::sleep(STALL);
                    for mut h in held.drain(..) {
                        h.write_all(reply).unwrap();
                    }
                }
            } else {
                s.write_all(reply).unwrap();
            }
        }
    });
    (addr, handle)
}

#[test]
fn stalls_show_up_in_p99_and_in_lateness() {
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, server) = slow_server(stop.clone());
    let targets = vec![Target {
        url: "http://origin.test/doc.html".into(),
        size: 5,
    }];
    let load = Load {
        addr,
        targets: &targets,
        first: 0,
        threads: 2,
        check_bodies: false,
        trace: true,
    };
    let count = 6 * STALL_EVERY;
    let phase = load.open_loop(count, 1000.0);
    stop.store(true, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(addr);
    server.join().unwrap();

    assert_eq!(phase.records.len(), count);
    assert!(phase
        .records
        .iter()
        .all(|r| r.ok && r.hit && r.body_len == 5));
    let latency = Samples::new(phase.records.iter().map(|r| r.latency_us()).collect());
    let late = Samples::new(phase.records.iter().map(|r| r.late_us()).collect());
    let service = Samples::new(
        phase
            .records
            .iter()
            .map(|r| (r.done_ns - r.start_ns) as f64 / 1e3)
            .collect(),
    );
    let stall_us = STALL.as_micros() as f64;
    // Each stall blocks both connections, so the ~40 requests due during
    // it are sent late and finish late: far more than 1% of requests.
    assert!(
        latency.percentile(99.0) >= stall_us / 2.0,
        "p99 {}",
        latency.percentile(99.0)
    );
    assert!(
        late.percentile(99.0) >= stall_us / 4.0,
        "late p99 {}",
        late.percentile(99.0)
    );
    assert_eq!(latency.count_beyond(99.0), count / 100);
    // Latency from the due time includes the lateness; the time from
    // sending alone would hide it.
    for r in &phase.records {
        assert!(r.latency_us() >= r.late_us());
    }
    assert!(latency.percentile(95.0) > service.percentile(95.0));
    // Most requests are unaffected.
    assert!(
        latency.median() < stall_us / 4.0,
        "median {}",
        latency.median()
    );
}

#[test]
fn appended_phases_share_one_clock_and_the_replay_order() {
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, server) = slow_server(stop.clone());
    let targets = vec![Target {
        url: "http://origin.test/doc.html".into(),
        size: 5,
    }];
    let load = |first: usize| Load {
        addr,
        targets: &targets,
        first,
        threads: 2,
        check_bodies: false,
        trace: false,
    };
    let mut all = Phase::empty(Instant::now());
    let first = load(7).open_loop(20, 2000.0);
    let first_wall = first.wall_s;
    all.append(first, 7);
    let first_done = all.records.iter().map(|r| r.done_ns).max().unwrap();
    let second = load(27).open_loop(20, 2000.0);
    let second_wall = second.wall_s;
    all.append(second, 27);
    stop.store(true, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(addr);
    server.join().unwrap();

    let indices: Vec<usize> = all.records.iter().map(|r| r.index).collect();
    assert_eq!(indices, (7..47).collect::<Vec<_>>());
    // The second phase started after the first ended, on the same clock.
    assert!(all.records[20..].iter().all(|r| r.due_ns >= first_done));
    assert!(all.records.iter().all(|r| r.due_ns <= r.done_ns));
    assert_eq!(all.wall_s, first_wall + second_wall);
}
