//! Metric names and units, correctness checks, and the result line.

use crate::layers::Metrics;
use crate::sys::Environment;
use std::fmt::Write as _;
use std::path::Path;

/// Every workload the benchmark runs.
pub const WORKLOADS: &[&str] = &["sim_sweep", "proxy_hot"];

/// End-to-end metrics: name and unit, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_req_s", "lane-req/s"),
    ("ok_s", "req/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("hit_ratio", "ratio"),
    ("byte_hit_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, reported by every traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("trace.clf_parse_s", "s"),
    ("trace.clf_parse_mb_s", "MB/s"),
    ("trace.wct_save_s", "s"),
    ("trace.wct_load_s", "s"),
    ("core.sim.run_s", "s"),
    ("core.sim.lane_requests", "count"),
    ("core.policy.insert_calls", "count"),
    ("core.policy.access_calls", "count"),
    ("core.policy.remove_calls", "count"),
    ("core.policy.victim_calls", "count"),
    ("core.policy.insert_ns", "ns"),
    ("core.policy.access_ns", "ns"),
    ("core.policy.remove_ns", "ns"),
    ("core.policy.victim_ns", "ns"),
    ("core.policy.victims_per_insert", "ratio"),
    ("core.cache.request_self_ns", "ns"),
    ("core.cache.sharded_request_ns", "ns"),
    ("core.cluster.owner_ns", "ns"),
    ("proxy.http.parse_ns", "ns"),
    ("proxy.http.hit_head_ns", "ns"),
    ("proxy.requests", "count"),
    ("proxy.hits", "count"),
    ("proxy.misses", "count"),
    ("proxy.rejected", "count"),
    ("proxy.retries", "count"),
    ("proxy.timeouts", "count"),
    ("proxy.bytes_from_origin", "bytes"),
    ("proxy.cpu_busy_ratio", "ratio"),
    ("proxy.cpu_ms_per_kreq", "ms/kreq"),
    ("proxy.ctx_switches_per_req", "count/req"),
    ("proxy.threads", "count"),
    ("proxy.rss_growth_kb_per_kreq", "KiB/kreq"),
    ("client.connect_p50_us", "us"),
    ("client.ttfb_p50_us", "us"),
    ("client.ttfb_p99_us", "us"),
    ("client.hit_p50_us", "us"),
    ("client.hit_p99_us", "us"),
    ("client.miss_p50_us", "us"),
    ("client.miss_p99_us", "us"),
    ("client.late_p99_us", "us"),
    ("client.cpu_busy_ratio", "ratio"),
    ("origin.fetches", "count"),
    ("origin.direct_p50_us", "us"),
];

/// One named correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub outcome: Result<(), String>,
}

impl Check {
    pub fn new(name: &'static str, outcome: Result<(), String>) -> Check {
        Check { name, outcome }
    }

    /// Passes when `ok`; otherwise fails with `why()`.
    pub fn ensure(name: &'static str, ok: bool, why: impl FnOnce() -> String) -> Check {
        Check::new(name, if ok { Ok(()) } else { Err(why()) })
    }
}

/// Everything one run measured and checked.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub env: Environment,
    pub attempted: usize,
    pub failed: usize,
    e2e: Vec<(&'static str, f64)>,
    pub layers: Metrics,
    checks: Vec<Check>,
    notes: Vec<String>,
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| *u)
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, env: Environment) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            env,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.push((name, value));
    }

    pub fn check(&mut self, check: Check) {
        self.checks.push(check);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.outcome.is_ok())
    }

    fn value(list: &[(&'static str, f64)], name: &str) -> Option<f64> {
        list.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The human-readable lines that precede the result line.
    pub fn lines(&self) -> Vec<String> {
        let env = &self.env;
        let mut out = vec![format!(
            "env: workload={} seed={} trace={} nproc={} pinning={} kernel={} commit={} network={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            env.nproc,
            env.pinning,
            env.kernel,
            env.commit,
            env.network
        )];
        out.extend(self.notes.iter().cloned());
        for (name, v) in &self.e2e {
            out.push(format!("e2e {name} = {v} {}", unit_of(END_TO_END, name)));
        }
        for (name, v) in &self.layers {
            out.push(format!("layer {name} = {v} {}", unit_of(PER_LAYER, name)));
        }
        for c in &self.checks {
            match &c.outcome {
                Ok(()) => out.push(format!("check {}: ok", c.name)),
                Err(e) => out.push(format!("check {}: FAILED: {e}", c.name)),
            }
        }
        out
    }

    /// The result line: the end-to-end metrics when untraced, the
    /// per-layer metrics when traced. A metric a run could not take
    /// reads 0; a non-finite one fails the run.
    pub fn json(&mut self) -> String {
        let (table, list) = if self.trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut metrics = String::new();
        let mut bad = Vec::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let mut v = Self::value(list, name).unwrap_or(0.0);
            if !v.is_finite() {
                bad.push(*name);
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        if !bad.is_empty() {
            self.check(Check::new(
                "metrics.finite",
                Err(format!("not finite: {bad:?}")),
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// Keep this run's end-to-end values under `workdir`; a traced run
    /// then prints its difference from the untraced run of the same
    /// workload and seed — the cost of tracing.
    pub fn save_and_compare(&self, workdir: &Path) -> Vec<String> {
        let path = |trace: bool| {
            workdir.join(format!(
                "e2e-{}-seed{}-trace{}.txt",
                self.workload,
                self.seed,
                u8::from(trace)
            ))
        };
        let text: String = self.e2e.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
        let _ = std::fs::write(path(self.trace), text);
        if !self.trace {
            return Vec::new();
        }
        let Ok(untraced) = std::fs::read_to_string(path(false)) else {
            return vec![
                "tracing overhead: no untraced run of this workload and seed to compare".into(),
            ];
        };
        untraced
            .lines()
            .filter_map(|l| {
                let (name, v) = l.split_once(' ')?;
                let base: f64 = v.parse().ok()?;
                let traced = Self::value(&self.e2e, name)?;
                let pct = if base == 0.0 {
                    0.0
                } else {
                    (traced - base) / base * 100.0
                };
                Some(format!(
                    "tracing overhead {name}: untraced {base} traced {traced} ({pct:+.1}%)"
                ))
            })
            .collect()
    }
}
