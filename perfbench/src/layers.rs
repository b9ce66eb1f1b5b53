//! Per-layer measurements taken from outside the program: timing
//! wrappers around the core traits, and replays of a workload's request
//! stream through each crate's public functions.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use webcache_core::cache::{Cache, Counts, DocMeta, ShardedCache};
use webcache_core::cluster::{HashRing, Membership, DEFAULT_VNODES};
use webcache_core::policy::RemovalPolicy;
use webcache_core::sim::CacheSystem;
use webcache_proxy::cluster::DEFAULT_RING_SEED;
use webcache_proxy::http::{encode_hit_head_into, RequestParser};
use webcache_trace::{Request, Timestamp, UrlId};

/// The proxy binary's default `--shards`, which the cache replays copy.
pub const PROXY_SHARDS: usize = 8;

/// Per-layer metrics in the order they were taken.
pub type Metrics = Vec<(&'static str, f64)>;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Calls into a removal policy and the time they took, summed over
/// every wrapped policy that shares it.
#[derive(Debug, Default)]
pub struct PolicyTally {
    calls: [AtomicU64; 4],
    ns: [AtomicU64; 4],
}

const INSERT: usize = 0;
const ACCESS: usize = 1;
const REMOVE: usize = 2;
const VICTIM: usize = 3;
const OPS: [&str; 4] = ["insert", "access", "remove", "victim"];

impl PolicyTally {
    fn add(&self, op: usize, t: Instant) {
        // Statistics only: nothing else is published through them.
        self.ns[op].fetch_add(ns_since(t), Ordering::Relaxed);
        self.calls[op].fetch_add(1, Ordering::Relaxed);
    }

    fn calls(&self, op: usize) -> u64 {
        self.calls[op].load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside the policy.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    pub fn reset(&self) {
        for a in self.calls.iter().chain(&self.ns) {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// `core.policy.*` metrics: calls and mean nanoseconds per call for
    /// each operation, and victims chosen per insert.
    pub fn metrics(&self, out: &mut Metrics) {
        const CALLS: [&str; 4] = [
            "core.policy.insert_calls",
            "core.policy.access_calls",
            "core.policy.remove_calls",
            "core.policy.victim_calls",
        ];
        const NS: [&str; 4] = [
            "core.policy.insert_ns",
            "core.policy.access_ns",
            "core.policy.remove_ns",
            "core.policy.victim_ns",
        ];
        for op in 0..OPS.len() {
            let calls = self.calls(op);
            out.push((CALLS[op], calls as f64));
            let ns = self.ns[op].load(Ordering::Relaxed) as f64;
            out.push((NS[op], if calls == 0 { 0.0 } else { ns / calls as f64 }));
        }
        let inserts = self.calls(INSERT);
        out.push((
            "core.policy.victims_per_insert",
            if inserts == 0 {
                0.0
            } else {
                self.calls(VICTIM) as f64 / inserts as f64
            },
        ));
    }
}

/// A removal policy that times every call into the policy it wraps and
/// otherwise behaves exactly like it.
pub struct TimedPolicy {
    inner: Box<dyn RemovalPolicy>,
    tally: Arc<PolicyTally>,
}

impl TimedPolicy {
    pub fn boxed(inner: Box<dyn RemovalPolicy>, tally: Arc<PolicyTally>) -> Box<dyn RemovalPolicy> {
        Box::new(TimedPolicy { inner, tally })
    }
}

impl RemovalPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_insert(&mut self, meta: &DocMeta) {
        let t = Instant::now();
        self.inner.on_insert(meta);
        self.tally.add(INSERT, t);
    }
    fn on_access(&mut self, meta: &DocMeta) {
        let t = Instant::now();
        self.inner.on_access(meta);
        self.tally.add(ACCESS, t);
    }
    fn on_remove(&mut self, url: UrlId) {
        let t = Instant::now();
        self.inner.on_remove(url);
        self.tally.add(REMOVE, t);
    }
    fn victim(&mut self, now: Timestamp, incoming_size: u64) -> Option<UrlId> {
        let t = Instant::now();
        let v = self.inner.victim(now, incoming_size);
        self.tally.add(VICTIM, t);
        v
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn removal_position(&self, url: UrlId) -> Option<usize> {
        self.inner.removal_position(url)
    }
    fn enable_position_tracking(&mut self) {
        self.inner.enable_position_tracking();
    }
    fn periodic_target(&self, now: Timestamp, used: u64, capacity: u64) -> Option<u64> {
        self.inner.periodic_target(now, used, capacity)
    }
    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }
    fn import_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.import_state(bytes)
    }
}

/// Wall time of each lane of a `MultiSim` sweep: from the policy's first
/// call to its drop, which is when the engine finishes the lane. Adds
/// one forwarding call per policy operation and no clock reads.
pub struct LaneClock {
    inner: Box<dyn RemovalPolicy>,
    started: Option<Instant>,
    lanes: Arc<Mutex<Vec<f64>>>,
}

impl LaneClock {
    /// Wrap `inner`; its lane's seconds are pushed onto `lanes`.
    pub fn boxed(
        inner: Box<dyn RemovalPolicy>,
        lanes: Arc<Mutex<Vec<f64>>>,
    ) -> Box<dyn RemovalPolicy> {
        Box::new(LaneClock {
            inner,
            started: None,
            lanes,
        })
    }

    #[inline]
    fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }
}

impl Drop for LaneClock {
    fn drop(&mut self) {
        if let (Some(t), Ok(mut lanes)) = (self.started, self.lanes.lock()) {
            lanes.push(t.elapsed().as_secs_f64());
        }
    }
}

impl RemovalPolicy for LaneClock {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_insert(&mut self, meta: &DocMeta) {
        self.start();
        self.inner.on_insert(meta);
    }
    fn on_access(&mut self, meta: &DocMeta) {
        self.start();
        self.inner.on_access(meta);
    }
    fn on_remove(&mut self, url: UrlId) {
        self.inner.on_remove(url);
    }
    fn victim(&mut self, now: Timestamp, incoming_size: u64) -> Option<UrlId> {
        self.inner.victim(now, incoming_size)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn removal_position(&self, url: UrlId) -> Option<usize> {
        self.inner.removal_position(url)
    }
    fn enable_position_tracking(&mut self) {
        self.inner.enable_position_tracking();
    }
    fn periodic_target(&self, now: Timestamp, used: u64, capacity: u64) -> Option<u64> {
        self.inner.periodic_target(now, used, capacity)
    }
    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }
    fn import_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.import_state(bytes)
    }
}

/// A cache that times each request it handles.
pub struct TimedCache {
    pub cache: Cache,
    pub handle_ns: u64,
    pub requests: u64,
}

impl CacheSystem for TimedCache {
    fn handle(&mut self, r: &Request) {
        let t = Instant::now();
        let _ = self.cache.request(r);
        self.handle_ns += ns_since(t);
        self.requests += 1;
    }
    fn streams(&self) -> Vec<(String, Counts)> {
        self.cache.streams()
    }
    fn gauges(&self) -> Vec<(String, u64)> {
        self.cache.gauges()
    }
}

/// `proxy.http.*`: the request parser and the hit-head encoder over
/// the workload's request lines and document sizes.
pub fn http_replay(targets: &[(&str, u64)], out: &mut Metrics) {
    let lines: Vec<Vec<u8>> = targets
        .iter()
        .map(|(url, _)| format!("GET {url} HTTP/1.0\r\n\r\n").into_bytes())
        .collect();
    let mut parser = RequestParser::new();
    let t = Instant::now();
    for line in &lines {
        let done = parser.feed_complete(black_box(line));
        assert!(
            matches!(done, Ok(true)),
            "the parser rejected a request line"
        );
        parser.reset();
    }
    out.push(("proxy.http.parse_ns", per(ns_since(t), lines.len())));
    let mut head = Vec::with_capacity(128);
    let t = Instant::now();
    for &(_, size) in targets {
        encode_hit_head_into(&mut head, black_box(size), None);
        black_box(&head);
    }
    out.push(("proxy.http.hit_head_ns", per(ns_since(t), targets.len())));
}

/// `core.cluster.owner_ns`: the ring lookup a cluster node makes per
/// request, over a three-node ring with the proxy's defaults.
pub fn ring_replay(urls: &[&str], out: &mut Metrics) {
    let ring = HashRing::build(
        DEFAULT_RING_SEED,
        &Membership::new(1, vec![0, 1, 2]),
        DEFAULT_VNODES,
    );
    let t = Instant::now();
    for url in urls {
        black_box(ring.owner(black_box(url)));
    }
    out.push(("core.cluster.owner_ns", per(ns_since(t), urls.len())));
}

fn per(total_ns: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// `core.cache.sharded_request_ns`: `warm` fills a sharded cache
/// untimed, then each request of `timed` is timed.
pub fn sharded_replay(
    warm: &[Request],
    timed: &[Request],
    capacity: u64,
    shards: usize,
    policy: fn() -> Box<dyn RemovalPolicy>,
    out: &mut Metrics,
) {
    let cache: ShardedCache = ShardedCache::new(capacity, shards, policy);
    for r in warm {
        cache.request(r);
    }
    let t = Instant::now();
    for r in timed {
        black_box(cache.request(black_box(r)));
    }
    out.push((
        "core.cache.sharded_request_ns",
        per(ns_since(t), timed.len()),
    ));
}

/// `core.policy.*` and `core.cache.request_self_ns` from the same replay
/// with every shard's policy timed; only `timed` is counted.
pub fn sharded_policy_replay(
    warm: &[Request],
    timed: &[Request],
    capacity: u64,
    shards: usize,
    policy: fn() -> Box<dyn RemovalPolicy>,
    out: &mut Metrics,
) {
    let tally = Arc::new(PolicyTally::default());
    let cache: ShardedCache = ShardedCache::new(capacity, shards, || {
        TimedPolicy::boxed(policy(), tally.clone())
    });
    for r in warm {
        cache.request(r);
    }
    tally.reset();
    let t = Instant::now();
    for r in timed {
        black_box(cache.request(r));
    }
    let request_ns = ns_since(t);
    tally.metrics(out);
    out.push((
        "core.cache.request_self_ns",
        per(request_ns.saturating_sub(tally.total_ns()), timed.len()),
    ));
}
