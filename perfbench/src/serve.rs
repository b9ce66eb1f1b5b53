//! `proxy_hot`: the shipped `webcache-proxy` binary as a child process in
//! front of the benchmark's origin, loaded over loopback by the
//! benchmark's client.
//!
//! Each run has two untimed passes that check every body in full — a
//! warm-up of misses, then the same documents again as hits — and two
//! timed phases: an open loop at a fixed offered rate, timed from each
//! request's due time (latency, hit ratios), then a closed loop of one
//! connection per client thread (throughput).

use crate::client::{self, Load, Phase, Record, Target};
use crate::input::{self, Inputs};
use crate::layers::{self, Metrics, PROXY_SHARDS};
use crate::origin::Origin;
use crate::report::{Check, Report};
use crate::stats::{median, ProxyCounters, Samples};
use crate::sys::{self, ProcSample};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use webcache_core::policy::{named, RemovalPolicy};
use webcache_trace::{Request, Trace, UrlId};

/// Offered rate of the open-loop phase, a quarter of the closed-loop
/// throughput of the parent commit on a 2-CPU machine. At half, two
/// connections queue behind every slow response and the p99 swings
/// several-fold from run to run.
const OPEN_RATE: f64 = 4000.0;

/// Closed-loop requests per second of the run's closed-loop share: about
/// the parent commit's `ok_s` on a 2-CPU machine, so there the closed loop
/// lasts its share. A fixed count, not a fixed time, gives every run the
/// same requests to serve; the proxy's memory grows with each request it
/// logs, and would otherwise grow faster the faster it serves.
const CLOSED_RATE: f64 = 16000.0;

/// Bytes of the hot document set.
const HOT_BYTES: u64 = 8 << 20;
/// `proxy_hot` capacity. The proxy splits capacity evenly over its
/// shards and places URLs by hash, so a shard's share of the hot set can
/// exceed its share of the capacity; twice the set's bytes absorbs that.
const HOT_CAPACITY: u64 = 2 * HOT_BYTES;
/// Threads serving the benchmark's origin.
const ORIGIN_THREADS: usize = 4;
/// Direct origin fetches behind `origin.direct_p50_us`.
const DIRECT_FETCHES: usize = 200;
/// Times the input, origin and proxy are set up; `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;

/// The request sequence a workload replays, with the trace request
/// behind each entry (sizes fixed to the one the origin serves).
struct Replay {
    targets: Vec<Target>,
    requests: Vec<Request>,
    /// URL → body size, for the origin.
    docs: Arc<HashMap<String, u64>>,
    /// Entries replayed before timing starts: each hot document once.
    warm: usize,
    capacity: u64,
}

impl Replay {
    /// The trace request behind entry `n` of an endless replay.
    fn request(&self, n: usize) -> Request {
        self.requests[n % self.requests.len()]
    }

    /// Entry `n`'s base URL and the body size the origin serves for it.
    fn target(&self, n: usize) -> &Target {
        &self.targets[n % self.targets.len()]
    }
}

/// Largest body the origin serves: a trace document above it is served
/// at this size. The few multi-megabyte documents of the trace would
/// otherwise each hold a client connection for milliseconds, and how
/// many of them a run meets would decide its p99.
const MAX_BODY: u64 = 256 << 10;

/// Each URL's size the first time the trace names it, at most
/// [`MAX_BODY`]. A document that changes size in the trace keeps its
/// first size here: the origin serves one version per URL, which the
/// proxy (without a TTL) never revalidates anyway.
fn first_sizes(t: &Trace) -> HashMap<UrlId, u64> {
    let mut sizes = HashMap::new();
    for r in &t.requests {
        sizes.entry(r.url).or_insert(r.size.min(MAX_BODY));
    }
    sizes
}

fn replay(t: &Trace) -> Replay {
    let sizes = first_sizes(t);
    let url = |id: UrlId| t.interner.url_text(id).unwrap_or("").to_string();
    let mut refs: HashMap<UrlId, u64> = HashMap::new();
    for r in &t.requests {
        *refs.entry(r.url).or_default() += 1;
    }
    let mut ranked: Vec<(UrlId, u64)> = refs.into_iter().collect();
    ranked.sort_by_key(|&(id, n)| (std::cmp::Reverse(n), id.0));
    let mut hot = HashSet::new();
    let mut bytes = 0;
    for (id, _) in ranked {
        let size = sizes[&id];
        if bytes + size > HOT_BYTES {
            break;
        }
        bytes += size;
        hot.insert(id);
    }
    // Warm-up: each hot document once, in first-reference order; then the
    // hot requests in trace order.
    let mut seen = HashSet::new();
    let in_hot: Vec<Request> = t
        .requests
        .iter()
        .filter(|r| hot.contains(&r.url))
        .map(|r| Request {
            size: sizes[&r.url],
            ..*r
        })
        .collect();
    let mut requests: Vec<Request> = in_hot
        .iter()
        .filter(|r| seen.insert(r.url))
        .copied()
        .collect();
    let warm = requests.len();
    requests.extend(in_hot);
    let targets: Vec<Target> = requests
        .iter()
        .map(|r| Target {
            url: url(r.url),
            size: r.size,
        })
        .collect();
    let docs = targets.iter().map(|t| (t.url.clone(), t.size)).collect();
    Replay {
        targets,
        requests,
        docs: Arc::new(docs),
        warm,
        capacity: HOT_CAPACITY,
    }
}

/// Which CPUs the proxy and the benchmark (client and origin) run on.
/// With two or more CPUs they get disjoint halves; with one, no pinning.
struct Cpus {
    client: Vec<usize>,
    proxy: Option<Vec<usize>>,
    all: Vec<usize>,
}

impl Cpus {
    fn split() -> Result<Cpus, String> {
        let all = sys::allowed_cpus().map_err(|e| format!("reading the CPU mask: {e}"))?;
        let nproc = all.len();
        Ok(if nproc >= 2 {
            Cpus {
                client: all[..nproc / 2].to_vec(),
                proxy: Some(all[nproc / 2..].to_vec()),
                all,
            }
        } else {
            Cpus {
                client: all.clone(),
                proxy: None,
                all,
            }
        })
    }

    fn pin_client(&self) -> Result<(), String> {
        sys::pin_current_thread(&self.client).map_err(|e| format!("pinning the client: {e}"))
    }
}

/// A running proxy child.
struct Proxy {
    child: Child,
    addr: SocketAddr,
    lines: mpsc::Receiver<String>,
    /// Taken by [`Proxy::stop`].
    reader: Option<JoinHandle<()>>,
}

impl Proxy {
    fn spawn(
        bin: &Path,
        origin: SocketAddr,
        capacity: u64,
        cpus: Option<Vec<usize>>,
    ) -> Result<Proxy, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--origin")
            .arg(origin.to_string())
            .arg("--capacity")
            .arg(capacity.to_string())
            .arg("--backend")
            .arg("reactor")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(cpus) = cpus {
            // SAFETY: the hook runs in the forked child before exec and
            // only makes the sched_setaffinity system call on a mask it
            // owns; it neither allocates nor takes locks.
            unsafe {
                cmd.pre_exec(move || sys::pin_current_thread(&cpus));
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut proxy = Proxy {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            lines: rx,
            reader: Some(reader),
        };
        loop {
            match proxy.lines.recv_timeout(Duration::from_secs(30)) {
                Ok(line) => {
                    if let Some(a) = line.strip_prefix("webcache-proxy: listening on ") {
                        proxy.addr = a
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad address line {line:?}"))?;
                        return Ok(proxy);
                    }
                }
                Err(_) => {
                    let _ = proxy.stop();
                    return Err("the proxy never printed its listening address".into());
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the exit; returns the status and the rest
    /// of the proxy's stdout.
    fn stop(mut self) -> Result<(ExitStatus, Vec<String>), String> {
        let _ = sys::terminate(self.child.id());
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break s,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the proxy did not exit within 60 s of SIGTERM".into());
                }
            }
        };
        self.reader
            .take()
            .expect("a proxy is stopped once")
            .join()
            .map_err(|_| "the stdout reader panicked")?;
        Ok((status, self.lines.try_iter().collect()))
    }
}

impl Drop for Proxy {
    /// A run that fails half way still leaves no proxy behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The proxy binary as built from this checkout.
pub fn proxy_binary() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("release").join("webcache-proxy")
}

/// Build the proxy binary (a no-op when it is up to date).
pub fn build_proxy() -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "webcache-proxy",
            "--bin",
            "webcache-proxy",
        ])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building webcache-proxy failed: {status}"))
    }
}

fn scrape(addr: SocketAddr) -> Result<ProxyCounters, String> {
    let (status, body) =
        client::get_text(addr, "/__webcache/stats").map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("stats endpoint answered {status}"));
    }
    ProxyCounters::parse(&body)
}

fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    sys::sample(&pid.to_string()).map_err(|e| format!("/proc/{pid}: {e}"))
}

/// Everything that lives for one setup round.
struct Stand {
    inputs: Inputs,
    replay: Replay,
    origin: Origin,
    proxy: Proxy,
}

impl Stand {
    fn up(seed: u64, workdir: &Path, proxy_cpus: Option<Vec<usize>>) -> Result<Stand, String> {
        let inputs = input::build(seed, input::PROXY_SCALE, workdir)?;
        let replay = replay(&inputs.trace);
        let origin = Origin::start(replay.docs.clone(), ORIGIN_THREADS)
            .map_err(|e| format!("origin: {e}"))?;
        let proxy = match Proxy::spawn(&proxy_binary(), origin.addr(), replay.capacity, proxy_cpus)
        {
            Ok(p) => p,
            Err(e) => {
                origin.stop();
                return Err(e);
            }
        };
        Ok(Stand {
            inputs,
            replay,
            origin,
            proxy,
        })
    }

    fn down(self) -> Result<(ExitStatus, Vec<String>), String> {
        let stopped = self.proxy.stop();
        self.origin.stop();
        stopped
    }
}

fn lat<'a>(records: impl IntoIterator<Item = &'a Record>) -> Samples {
    Samples::new(records.into_iter().map(Record::latency_or_inf).collect())
}

/// Share of the run's seconds given to the open loop: its p99 is the
/// metric that needs the most samples to settle.
const OPEN_SHARE: f64 = 0.75;

/// The timed seconds are cut into this many rounds of open loop then
/// closed loop. A shared machine's speed drifts over seconds; interleaved,
/// both phases see the same mix of fast and slow seconds, spread over the
/// whole run.
const ROUNDS: usize = 10;

/// The open loop's requests are cut into blocks of this many consecutive
/// ones, each with its own p99 (ten samples beyond it): a quarter of a
/// second at the offered rate.
const P99_BLOCK: usize = 1000;

/// `p99_us` is this percentile of the blocks' p99s. A shared virtual
/// machine stalls for 1–4 ms one to three times a second, which delays
/// about as many requests in a block as lie beyond its p99, so a block's
/// p99 jumps between the proxy's tail and the stall's length, and how many
/// blocks jump varies from run to run. The blocks' 10th percentile is the
/// proxy's tail between stalls, which every block still pays; the
/// median block and the whole-phase p99 are printed beside it.
const BLOCK_PERCENTILE: f64 = 10.0;

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let cpus = Cpus::split()?;
    let threads = cpus.all.len().clamp(1, 2);
    cpus.pin_client()?;
    if let Some(proxy) = &cpus.proxy {
        report.env.pinning =
            format!("proxy:{proxy:?} client+origin:{:?}", cpus.client).replace(' ', "");
    }

    let mut setup_times = Vec::new();
    let mut stand = None;
    for round in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let s = Stand::up(seed, workdir, cpus.proxy.clone())?;
        setup_times.push(t.elapsed().as_secs_f64());
        if round + 1 < SETUP_ROUNDS {
            s.down()?;
        } else {
            stand = Some(s);
        }
    }
    let stand = stand.expect("the last setup round keeps its stand");
    let result = measure(
        seed, seconds, trace, workdir, &stand, threads, &cpus, report,
    );
    let stopped = stand.down();
    result?;
    report.e2e("setup_s", median(&setup_times));
    let (status, lines) = stopped?;
    report.check(Check::ensure("proxy.clean_exit", status.success(), || {
        format!("the proxy exited with {status}: {lines:?}")
    }));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn measure(
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: &Path,
    stand: &Stand,
    threads: usize,
    cpus: &Cpus,
    report: &mut Report,
) -> Result<(), String> {
    let rp = &stand.replay;
    let addr = stand.proxy.addr;
    let pid = stand.proxy.pid();
    let load = |first: usize, check_bodies: bool| Load {
        addr,
        targets: &rp.targets,
        first,
        threads,
        check_bodies,
        trace,
    };
    report.note(format!(
        "proxy_hot: {} replay requests, {} warm-up, capacity {} bytes, {} documents, {threads} client connections",
        rp.targets.len() - rp.warm,
        rp.warm,
        rp.capacity,
        rp.docs.len(),
    ));

    // Untimed: every hot document fetched twice, first as a miss from the
    // origin, then as a hit from the cache, each body compared in full
    // with the origin's bytes.
    let warm = load(0, true).closed_loop(rp.warm);
    let again = load(0, true).closed_loop(rp.warm);
    let bad = |p: &Phase| p.records.iter().filter(|r| !r.ok).count();
    let (bad_misses, bad_hits) = (bad(&warm), bad(&again));
    let not_hits = again.records.iter().filter(|r| !r.hit).count();
    report.check(Check::ensure(
        "proxy.body_bytes",
        bad_misses == 0 && bad_hits == 0 && not_hits == 0,
        || {
            format!(
                "of {} documents: {bad_misses} warm-up bodies and {bad_hits} hit bodies \
                 wrong or failed, {not_hits} second fetches not a HIT",
                rp.warm
            )
        },
    ));

    let s0 = scrape(addr)?;
    let p0 = proc_sample(pid)?;
    let o0 = stand.origin.served();
    let open_s = seconds as f64 * OPEN_SHARE;
    let per_round = (OPEN_RATE * open_s / ROUNDS as f64) as usize;
    let closed_round = (CLOSED_RATE * (seconds as f64 - open_s) / ROUNDS as f64) as usize;
    let start = Instant::now();
    let (mut open, mut closed) = (Phase::empty(start), Phase::empty(start));
    let mut next = rp.warm;
    let mut closed_cpu_s = 0.0;
    for _ in 0..ROUNDS {
        open.append(load(next, false).open_loop(per_round, OPEN_RATE), next);
        next += per_round;
        let before = proc_sample(pid)?;
        let round = load(next, false).closed_loop(closed_round);
        closed_cpu_s += proc_sample(pid)?.cpu_s - before.cpu_s;
        let sent = round.records.len();
        closed.append(round, next);
        next += sent;
    }
    let s2 = scrape(addr)?;
    let p2 = proc_sample(pid)?;
    // The origin counts a fetch after its last write returns, which can
    // trail the proxy's reply to the client by a moment.
    let settle = Instant::now();
    while stand.origin.served() < s2.misses && settle.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let o2 = stand.origin.served();
    let d = s2.delta(&s0)?;

    let timed: Vec<&Record> = open.records.iter().chain(&closed.records).collect();
    let attempted = timed.len();
    let failed = timed.iter().filter(|r| !r.ok).count();
    let open_lat = lat(&open.records);
    let (mut hits, mut hit_body, mut ok_body) = (0usize, 0u64, 0u64);
    for r in open.records.iter().filter(|r| r.ok) {
        ok_body += r.body_len;
        if r.hit {
            hits += 1;
            hit_body += r.body_len;
        }
    }
    let hit_ratio = hits as f64 / open.records.len().max(1) as f64;

    report.attempted = attempted;
    report.failed = failed;
    let p99_blocks: Vec<f64> = open
        .latency_blocks(P99_BLOCK)
        .iter()
        .map(|s| s.percentile(99.0))
        .collect();
    let ok_s = closed.ok() as f64 / closed.wall_s;
    report.e2e("ok_s", ok_s);
    // The proxy is a single cache, one lane, under the `size` policy.
    report.e2e("sim_req_s", ok_s);
    report.e2e("p50_us", open_lat.median());
    let blocks = Samples::new(p99_blocks);
    report.e2e("p99_us", blocks.percentile(BLOCK_PERCENTILE));
    report.e2e("hit_ratio", hit_ratio);
    report.e2e("byte_hit_ratio", hit_body as f64 / ok_body.max(1) as f64);
    report.e2e(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    report.e2e("rss_mb", p2.hwm_kb as f64 / 1024.0);
    report.note(format!(
        "open loop: {} requests at {OPEN_RATE} req/s in {ROUNDS} rounds over {:.2} s; latency samples {}, \
         whole-phase p99 {:.1} us with {} beyond; p99_us is the {BLOCK_PERCENTILE}th percentile of the p99s \
         of {} blocks of {P99_BLOCK} (median block {:.1}, highest {:.1})",
        open.records.len(),
        open.wall_s,
        open_lat.len(),
        open_lat.percentile(99.0),
        open_lat.count_beyond(99.0),
        blocks.len(),
        blocks.median(),
        blocks.max(),
    ));
    report.note(format!(
        "closed loop: {} requests ({} ok) in {ROUNDS} rounds over {:.2} s; ok_s = ok requests / seconds",
        closed.records.len(),
        closed.ok(),
        closed.wall_s
    ));

    // Correctness of the timed phases.
    let bad_len = timed.iter().filter(|r| r.bad_length).count();
    report.check(Check::ensure("proxy.body_length", bad_len == 0, || {
        format!("{bad_len} timed responses had the wrong body length")
    }));
    let client_hits = timed.iter().filter(|r| r.hit).count() as u64;
    report.check(Check::ensure(
        "proxy.hits_match",
        client_hits == d.hits,
        || format!("client saw {client_hits} HITs, proxy counted {}", d.hits),
    ));
    report.check(Check::ensure(
        "origin.fetches_match",
        o2 == s2.misses && stand.origin.errors() == 0,
        || {
            format!(
                "origin served {o2} ({} errors), proxy counted {} misses",
                stand.origin.errors(),
                s2.misses
            )
        },
    ));
    report.check(Check::ensure(
        "proxy_hot.hit_ratio",
        hit_ratio >= 0.99,
        || format!("hit ratio {hit_ratio} < 0.99"),
    ));

    if trace {
        let ctx = LayerCtx {
            seed,
            workdir,
            stand,
            open: &open,
            closed: &closed,
            deltas: &d,
            procs: [&p0, &p2],
            closed_cpu_s,
            origin_fetches: o2 - o0,
            client_cpus: cpus.client.len(),
        };
        layer_metrics(&ctx, &mut report.layers)?;
    }
    Ok(())
}

struct LayerCtx<'a> {
    seed: u64,
    workdir: &'a Path,
    stand: &'a Stand,
    open: &'a Phase,
    closed: &'a Phase,
    deltas: &'a ProxyCounters,
    /// Before and after the timed phases.
    procs: [&'a ProcSample; 2],
    /// Proxy CPU seconds during the closed-loop rounds.
    closed_cpu_s: f64,
    origin_fetches: u64,
    client_cpus: usize,
}

fn layer_metrics(c: &LayerCtx, m: &mut Metrics) -> Result<(), String> {
    let rp = &c.stand.replay;
    let times = &c.stand.inputs.times;
    times.metrics(m);

    // Every timed request in the order sent, and its replay entry.
    let mut timed: Vec<&Record> = c.open.records.iter().chain(&c.closed.records).collect();
    timed.sort_by_key(|r| r.index);
    let timed_idx: Vec<usize> = timed.iter().map(|r| r.index).collect();
    let warm_reqs = &rp.requests[..rp.warm];
    let timed_reqs: Vec<Request> = timed_idx.iter().map(|&n| rp.request(n)).collect();

    let size = || Box::new(named::size()) as Box<dyn RemovalPolicy>;
    layers::sharded_replay(warm_reqs, &timed_reqs, rp.capacity, PROXY_SHARDS, size, m);
    layers::sharded_policy_replay(warm_reqs, &timed_reqs, rp.capacity, PROXY_SHARDS, size, m);
    let pairs: Vec<(&str, u64)> = timed_idx
        .iter()
        .map(|&n| (rp.target(n).url.as_str(), rp.target(n).size))
        .collect();
    layers::http_replay(&pairs, m);
    let urls: Vec<&str> = pairs.iter().map(|(u, _)| *u).collect();
    layers::ring_replay(&urls, m);

    // The proxy, from its stats endpoint and /proc.
    let d = c.deltas;
    let [p0, p2] = c.procs;
    let kreq = d.requests.max(1) as f64 / 1e3;
    m.push(("proxy.requests", d.requests as f64));
    m.push(("proxy.hits", d.hits as f64));
    m.push(("proxy.misses", d.misses as f64));
    m.push(("proxy.rejected", d.rejected as f64));
    m.push(("proxy.retries", d.retries as f64));
    m.push(("proxy.timeouts", d.timeouts as f64));
    m.push(("proxy.bytes_from_origin", d.bytes_from_origin as f64));
    let closed_cpu = c.closed_cpu_s;
    m.push(("proxy.cpu_busy_ratio", closed_cpu / c.closed.wall_s));
    m.push((
        "proxy.cpu_ms_per_kreq",
        closed_cpu * 1e3 / (c.closed.records.len().max(1) as f64 / 1e3),
    ));
    m.push((
        "proxy.ctx_switches_per_req",
        (p2.ctx_switches - p0.ctx_switches) as f64 / (kreq * 1e3),
    ));
    m.push(("proxy.threads", p2.threads as f64));
    m.push((
        "proxy.rss_growth_kb_per_kreq",
        (p2.rss_kb as f64 - p0.rss_kb as f64) / kreq,
    ));

    // The client's own spans.
    let us = |ns: u64| ns as f64 / 1e3;
    let connect = Samples::new(timed.iter().map(|r| us(r.spans.connect_ns)).collect());
    let ttfb = Samples::new(timed.iter().map(|r| us(r.spans.ttfb_ns)).collect());
    let hit = lat(c.open.records.iter().filter(|r| r.hit));
    let miss = lat(c.open.records.iter().filter(|r| !r.hit));
    let late = Samples::new(c.open.records.iter().map(Record::late_us).collect());
    m.push(("client.connect_p50_us", connect.median()));
    m.push(("client.ttfb_p50_us", ttfb.median()));
    m.push(("client.ttfb_p99_us", ttfb.percentile(99.0)));
    m.push(("client.hit_p50_us", hit.median()));
    m.push(("client.hit_p99_us", hit.percentile(99.0)));
    m.push(("client.miss_p50_us", miss.median()));
    m.push(("client.miss_p99_us", miss.percentile(99.0)));
    m.push(("client.late_p99_us", late.percentile(99.0)));
    let client_cpu = c.open.client_cpu_s + c.closed.client_cpu_s;
    let client_wall = (c.open.wall_s + c.closed.wall_s) * c.client_cpus as f64;
    m.push(("client.cpu_busy_ratio", client_cpu / client_wall));

    // The origin, directly.
    m.push(("origin.fetches", c.origin_fetches as f64));
    let origin = c.stand.origin.addr();
    let mut buf = vec![0u8; 64 * 1024];
    let step = (rp.targets.len() / DIRECT_FETCHES).max(1);
    let direct: Vec<f64> = rp
        .targets
        .iter()
        .step_by(step)
        .take(DIRECT_FETCHES)
        .map(|t| {
            let start = Instant::now();
            let ok =
                client::fetch(origin, &t.url, false, &mut buf, None).is_ok_and(|r| r.status == 200);
            if ok {
                start.elapsed().as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    m.push(("origin.direct_p50_us", median(&direct)));

    write_spans(c)
}

/// Write the timed requests' spans, one per line: request id (its replay
/// entry), phase, span, parent span, start and end in nanoseconds from the
/// start of the timed rounds, URL.
fn write_spans(c: &LayerCtx) -> Result<(), String> {
    let path = c
        .workdir
        .join(format!("spans-proxy_hot-seed{}.tsv", c.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(w, "id\tphase\tspan\tparent\tstart_ns\tend_ns\turl")?;
        let phases = [("open", c.open), ("closed", c.closed)];
        for (phase, p) in phases {
            for r in &p.records {
                let id = r.index;
                let url = &c.stand.replay.target(id).url;
                let (s, sp) = (r.start_ns, r.spans);
                writeln!(
                    w,
                    "{id}\t{phase}\trequest\t-\t{}\t{}\t{url}",
                    r.due_ns, r.done_ns
                )?;
                writeln!(w, "{id}\t{phase}\tqueue\trequest\t{}\t{s}\t{url}", r.due_ns)?;
                writeln!(
                    w,
                    "{id}\t{phase}\tconnect\trequest\t{s}\t{}\t{url}",
                    s + sp.connect_ns
                )?;
                writeln!(
                    w,
                    "{id}\t{phase}\tttfb\trequest\t{s}\t{}\t{url}",
                    s + sp.ttfb_ns
                )?;
                writeln!(
                    w,
                    "{id}\t{phase}\tbody\trequest\t{}\t{}\t{url}",
                    s + sp.ttfb_ns,
                    r.done_ns
                )?;
            }
        }
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}
