//! The benchmark's own HTTP/1.0 origin server: answers `GET <url>` with
//! the URL's body at the size the trace gives it (a `?pass=N` suffix
//! names a new document of the same size), one connection per request,
//! and counts what it served.

use crate::body;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head the origin accepts.
const MAX_HEAD: usize = 16 * 1024;

/// A running origin. Stop it with [`Origin::stop`].
pub struct Origin {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Origin {
    /// Serve `docs` (URL → body size) from `threads` accepting threads
    /// on an ephemeral loopback port.
    pub fn start(docs: Arc<HashMap<String, u64>>, threads: usize) -> io::Result<Origin> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let listener = listener.try_clone()?;
            let (docs, stop) = (docs.clone(), stop.clone());
            let (served, errors) = (served.clone(), errors.clone());
            handles.push(std::thread::spawn(move || loop {
                let Ok((stream, _)) = listener.accept() else {
                    continue;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match serve(stream, &docs) {
                    Ok(()) => served.fetch_add(1, Ordering::Relaxed),
                    Err(_) => errors.fetch_add(1, Ordering::Relaxed),
                };
            }));
        }
        Ok(Origin {
            addr,
            stop,
            served,
            errors,
            threads: handles,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Documents served in full so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests that failed: unknown URL, malformed head, broken socket.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Stop accepting, and wait for every serving thread to end.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each thread blocks in accept(); one connection wakes one.
        for _ in &self.threads {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        for t in self.threads {
            t.join().expect("an origin thread panicked");
        }
    }
}

/// Read one request head and answer it.
fn serve(mut stream: TcpStream, docs: &HashMap<String, u64>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 2048];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut buf)?;
        if n == 0 || head.len() + n > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad request head",
            ));
        }
        head.extend_from_slice(&buf[..n]);
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or_default();
    let line = std::str::from_utf8(line).unwrap_or("");
    let mut parts = line.split(' ');
    let (method, target) = (parts.next(), parts.next());
    let size = match (method, target) {
        (Some("GET"), Some(url)) => docs.get(url).copied(),
        _ => None,
    };
    let Some(size) = size else {
        stream.write_all(b"HTTP/1.0 404 Not Found\r\ncontent-length: 0\r\n\r\n")?;
        return Err(io::Error::new(io::ErrorKind::NotFound, "unknown URL"));
    };
    let url = target.unwrap_or_default();
    stream.write_all(format!("HTTP/1.0 200 OK\r\ncontent-length: {size}\r\n\r\n").as_bytes())?;
    body::for_each_chunk(url, size, |chunk| stream.write_all(chunk))
}
