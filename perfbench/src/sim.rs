//! `sim_sweep`: the paper's Experiment 2 — all 36 sorted-key removal
//! policies over the `U` trace at 10% of the cache size an infinite
//! cache needs — repeated for the run's duration.

use crate::input::{self, Inputs};
use crate::layers::{self, LaneClock, PolicyTally, TimedCache, TimedPolicy};
use crate::report::{Check, Report};
use crate::stats::{median, Samples};
use crate::sys;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webcache_core::cache::Cache;
use webcache_core::policy::{named, KeySpec, RemovalPolicy, SortedPolicy};
use webcache_core::sim::{
    max_needed, simulate, simulate_infinite, simulate_policy, MultiSim, SimResult,
};
use webcache_trace::Trace;

/// Times the input is built; `setup_s` is the median.
const SETUP_ROUNDS: usize = 5;
/// Lanes checked against a serial `simulate_policy` run.
const CHECKED_LANES: usize = 3;

fn all36() -> Vec<KeySpec> {
    KeySpec::all36(0)
}

/// How a sweep's lanes are wrapped.
enum Wrap<'a> {
    /// Time each lane as a whole.
    LaneClock(&'a Arc<Mutex<Vec<f64>>>),
    /// Time every policy call.
    Policy(&'a Arc<PolicyTally>),
}

/// The 36 sorted-key lanes.
fn lanes(wrap: Wrap) -> Vec<(String, Box<dyn RemovalPolicy>)> {
    all36()
        .into_iter()
        .map(|spec| {
            let policy: Box<dyn RemovalPolicy> = Box::new(SortedPolicy::new(spec));
            let policy = match &wrap {
                Wrap::LaneClock(lanes) => LaneClock::boxed(policy, (*lanes).clone()),
                Wrap::Policy(tally) => TimedPolicy::boxed(policy, (*tally).clone()),
            };
            (spec.name(), policy)
        })
        .collect()
}

/// Build the seed's input `SETUP_ROUNDS` times; keep the last.
fn setup(seed: u64, workdir: &Path) -> Result<(Inputs, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        last = Some(input::build(seed, input::SIM_SCALE, workdir)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup round"), times))
}

/// Repeated Experiment-2 sweeps over one trace.
struct Sweeps {
    /// Wall time of each sweep, microseconds.
    sweep_us: Samples,
    /// Wall time of each lane pass of every sweep, microseconds.
    lane_us: Samples,
    /// The last sweep's lanes.
    results: Vec<(String, SimResult)>,
}

impl Sweeps {
    /// Lane-requests per second of the median sweep.
    fn lane_req_s(&self, t: &Trace) -> f64 {
        (t.len() * self.results.len()) as f64 / (self.sweep_us.median() / 1e6)
    }
}

/// Sweep all 36 keys over `t` at `capacity` until `budget` has passed
/// (at least three times).
fn sweep(t: &Trace, capacity: u64, budget: Duration) -> Sweeps {
    let start = Instant::now();
    let mut sweeps = Vec::new();
    let mut results = Vec::new();
    let lane_times = Arc::new(Mutex::new(Vec::new()));
    while sweeps.len() < 3 || start.elapsed() < budget {
        let lanes = lanes(Wrap::LaneClock(&lane_times));
        let t0 = Instant::now();
        results = MultiSim::new(t, capacity).run(lanes);
        sweeps.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let lane_us = lane_times
        .lock()
        .expect("a lane clock panicked")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    Sweeps {
        sweep_us: Samples::new(sweeps),
        lane_us: Samples::new(lane_us),
        results,
    }
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let (inputs, setup_times) = setup(seed, workdir)?;
    let t = &inputs.trace;
    let capacity = max_needed(t) / 10;
    report.note(format!(
        "sim_sweep: {} requests, {} URLs, capacity {capacity} bytes (10% of max_needed)",
        t.len(),
        t.interner.url_count()
    ));

    let sweeps = sweep(t, capacity, Duration::from_secs(seconds));
    let (sweep, lane, results) = (&sweeps.sweep_us, &sweeps.lane_us, &sweeps.results);
    let attempted = sweep.len() * all36().len();
    let failed = attempted - sweep.len() * results.len();
    let sweep_s = sweep.median() / 1e6;
    let hr: Vec<f64> = results
        .iter()
        .map(|(_, r)| r.streams[0].total.hit_rate())
        .collect();
    let whr: Vec<f64> = results
        .iter()
        .map(|(_, r)| r.streams[0].total.weighted_hit_rate())
        .collect();
    let lanes_n = results.len().max(1) as f64;

    report.attempted = attempted;
    report.failed = failed;
    report.e2e("setup_s", median(&setup_times));
    report.e2e("sim_req_s", sweeps.lane_req_s(t));
    report.e2e("ok_s", t.len() as f64 / sweep_s);
    report.e2e("p50_us", lane.median());
    report.e2e("p99_us", lane.percentile(99.0));
    report.e2e("hit_ratio", hr.iter().sum::<f64>() / lanes_n);
    report.e2e("byte_hit_ratio", whr.iter().sum::<f64>() / lanes_n);
    report.e2e("ok_ratio", (attempted - failed) as f64 / attempted as f64);
    report.e2e(
        "rss_mb",
        sys::sample("self").map_err(|e| e.to_string())?.hwm_kb as f64 / 1024.0,
    );
    report.note(format!(
        "sim_sweep: {} sweeps, median {:.1} ms, slowest {:.1} ms; {} lane passes, {} beyond p99",
        sweep.len(),
        sweep.median() / 1e3,
        sweep.max() / 1e3,
        lane.len(),
        lane.count_beyond(99.0)
    ));

    // Correctness, untimed.
    report.check(Check::new(
        "sim.clf_round_trip",
        input::check_round_trip(&inputs),
    ));
    let infinite = simulate_infinite(t).streams[0].total.hit_rate();
    let over: Vec<String> = results
        .iter()
        .filter(|(_, r)| r.streams[0].total.hit_rate() > infinite)
        .map(|(label, _)| label.clone())
        .collect();
    report.check(Check::ensure(
        "sim.hr_at_most_infinite",
        over.is_empty(),
        || format!("lanes above the infinite cache's HR {infinite}: {over:?}"),
    ));
    let specs = all36();
    let mut mismatched = Vec::new();
    for k in 0..CHECKED_LANES {
        let i = ((seed as usize).wrapping_mul(7) + k * 13) % specs.len();
        let serial = simulate_policy(t, capacity, Box::new(SortedPolicy::new(specs[i])));
        let lane = &results[i].1;
        let same = serial.streams.len() == lane.streams.len()
            && serial
                .streams
                .iter()
                .zip(&lane.streams)
                .all(|(a, b)| a.total == b.total && a.daily == b.daily);
        if !same {
            mismatched.push(results[i].0.clone());
        }
    }
    report.check(Check::ensure(
        "sim.lanes_match_serial",
        mismatched.is_empty(),
        || format!("MultiSim lanes differ from simulate_policy: {mismatched:?}"),
    ));

    if trace {
        layer_metrics(&inputs, t, capacity, sweep_s, report);
    }
    Ok(())
}

fn layer_metrics(inputs: &Inputs, t: &Trace, capacity: u64, sweep_s: f64, report: &mut Report) {
    let m = &mut report.layers;
    let times = &inputs.times;
    times.metrics(m);
    m.push(("core.sim.run_s", sweep_s));
    m.push(("core.sim.lane_requests", (t.len() * all36().len()) as f64));

    // One sweep with every lane's policy timed.
    let tally = Arc::new(PolicyTally::default());
    let _ = MultiSim::new(t, capacity).run(lanes(Wrap::Policy(&tally)));
    tally.metrics(m);

    // The cache's own share of a request: handle time minus policy time,
    // over three lanes spread across the taxonomy.
    let (mut self_ns, mut requests) = (0u64, 0u64);
    for spec in all36().into_iter().step_by(12) {
        let tally = Arc::new(PolicyTally::default());
        let policy = TimedPolicy::boxed(Box::new(SortedPolicy::new(spec)), tally.clone());
        let mut sys = TimedCache {
            cache: Cache::new(capacity, policy),
            handle_ns: 0,
            requests: 0,
        };
        let _ = simulate(t, &mut sys, "timed");
        self_ns += sys.handle_ns.saturating_sub(tally.total_ns());
        requests += sys.requests;
    }
    m.push((
        "core.cache.request_self_ns",
        self_ns as f64 / requests.max(1) as f64,
    ));

    layers::sharded_replay(
        &[],
        &t.requests,
        capacity,
        layers::PROXY_SHARDS,
        || Box::new(named::size()),
        m,
    );

    let urls: Vec<(&str, u64)> = t
        .requests
        .iter()
        .map(|r| (t.interner.url_text(r.url).unwrap_or(""), r.size))
        .collect();
    layers::http_replay(&urls, m);
    let only_urls: Vec<&str> = urls.iter().map(|(u, _)| *u).collect();
    layers::ring_replay(&only_urls, m);
}
