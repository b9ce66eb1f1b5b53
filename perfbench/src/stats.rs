//! Exact order statistics and parsing of the proxy's stats endpoint.

/// Exact nearest-rank percentiles over one set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values` once; every query afterwards is an index.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` (0 < p <= 100): the
    /// smallest rank whose share of samples at or below it is >= p.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        let r = (p / 100.0 * n as f64).ceil() as usize;
        r.clamp(1, n)
    }

    /// The nearest-rank percentile `p`, or 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p) - 1]
    }

    /// How many samples lie strictly after the percentile-`p` rank: the
    /// sample count a reported tail percentile rests on.
    pub fn count_beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// The median (percentile 50).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The largest sample, or 0 for an empty set.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Median of a small set of values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// One scrape of `GET /__webcache/stats`: the counters the benchmark
/// reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProxyCounters {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub rejected: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub bytes_from_origin: u64,
}

/// The raw text after `"key":` in a JSON object, up to the next `,` or
/// `}` at the same level. The stats document is flat apart from the
/// `persist` and `cluster` objects, whose keys do not clash with the
/// top-level ones, so a key search is enough.
fn raw_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn number(json: &str, key: &str) -> Result<u64, String> {
    let raw = raw_value(json, key).ok_or_else(|| format!("stats: no {key:?}"))?;
    raw.parse()
        .map_err(|_| format!("stats: {key:?} is not a count: {raw:?}"))
}

impl ProxyCounters {
    /// Parse the stats endpoint's JSON body.
    pub fn parse(json: &str) -> Result<ProxyCounters, String> {
        Ok(ProxyCounters {
            requests: number(json, "requests")?,
            hits: number(json, "hits")?,
            misses: number(json, "misses")?,
            rejected: number(json, "rejected")?,
            retries: number(json, "retries")?,
            timeouts: number(json, "timeouts")?,
            bytes_from_origin: number(json, "bytes_from_origin")?,
        })
    }

    /// Counter growth from `before` to `self`. Counters are monotone, so
    /// a decrease means the two scrapes came from different processes.
    pub fn delta(&self, before: &ProxyCounters) -> Result<ProxyCounters, String> {
        let d = |name: &str, a: u64, b: u64| {
            a.checked_sub(b)
                .ok_or_else(|| format!("stats: {name} went backwards ({b} -> {a})"))
        };
        Ok(ProxyCounters {
            requests: d("requests", self.requests, before.requests)?,
            hits: d("hits", self.hits, before.hits)?,
            misses: d("misses", self.misses, before.misses)?,
            rejected: d("rejected", self.rejected, before.rejected)?,
            retries: d("retries", self.retries, before.retries)?,
            timeouts: d("timeouts", self.timeouts, before.timeouts)?,
            bytes_from_origin: d(
                "bytes_from_origin",
                self.bytes_from_origin,
                before.bytes_from_origin,
            )?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.len(), 1000);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.count_beyond(99.0), 10);
        assert_eq!(s.percentile(100.0), 1000.0);
        assert_eq!(s.count_beyond(100.0), 0);
        assert_eq!(s.max(), 1000.0);
    }

    #[test]
    fn small_sets_round_the_rank_up() {
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.median(), 2.0);
        // ceil(0.99 * 3) = 3: with three samples p99 is the maximum and
        // nothing lies beyond it.
        assert_eq!(s.percentile(99.0), 3.0);
        assert_eq!(s.count_beyond(99.0), 0);
        assert_eq!(Samples::new(vec![7.0]).percentile(1.0), 7.0);
        let empty = Samples::new(Vec::new());
        assert_eq!(empty.percentile(50.0), 0.0);
        assert_eq!(empty.count_beyond(99.0), 0);
    }

    #[test]
    fn count_beyond_p99_tracks_sample_size() {
        for n in [100usize, 101, 250, 10_000, 12_345] {
            let s = Samples::new((0..n).map(|i| i as f64).collect());
            let rank = (0.99 * n as f64).ceil() as usize;
            assert_eq!(s.count_beyond(99.0), n - rank, "n = {n}");
            assert_eq!(s.percentile(99.0), (rank - 1) as f64, "n = {n}");
        }
    }

    const PLAIN: &str = "{\"requests\":120,\"hits\":100,\"revalidated\":0,\"misses\":20,\
        \"hit_rate\":0.833333,\"bytes_from_cache\":5000,\"bytes_from_origin\":777,\
        \"cached_bytes\":4096,\"retries\":1,\"timeouts\":2,\"origin_failures\":0,\
        \"breaker_trips\":0,\"breaker_fast_fails\":0,\"stale_serves\":0,\"rejected\":3,\
        \"persist\":null,\"cluster\":null}";

    #[test]
    fn parses_stats() {
        let c = ProxyCounters::parse(PLAIN).unwrap();
        assert_eq!(c.requests, 120);
        assert_eq!(c.hits, 100);
        assert_eq!(c.misses, 20);
        assert_eq!(c.rejected, 3);
        assert_eq!(c.retries, 1);
        assert_eq!(c.timeouts, 2);
        assert_eq!(c.bytes_from_origin, 777);
    }

    #[test]
    fn takes_deltas() {
        let before = ProxyCounters::parse(PLAIN).unwrap();
        let after_json = PLAIN
            .replace("\"requests\":120", "\"requests\":1120")
            .replace("\"hits\":100", "\"hits\":700")
            .replace("\"misses\":20", "\"misses\":420")
            .replace("\"bytes_from_origin\":777", "\"bytes_from_origin\":1777");
        let after = ProxyCounters::parse(&after_json).unwrap();
        let d = after.delta(&before).unwrap();
        assert_eq!((d.requests, d.hits, d.misses), (1000, 600, 400));
        assert_eq!((d.rejected, d.retries, d.timeouts), (0, 0, 0));
        assert_eq!(d.bytes_from_origin, 1000);
    }

    #[test]
    fn rejects_malformed_or_backwards_stats() {
        assert!(ProxyCounters::parse("{}").is_err());
        assert!(ProxyCounters::parse(&PLAIN.replace("\"hits\":100", "\"hits\":x")).is_err());
        let a = ProxyCounters::parse(PLAIN).unwrap();
        let mut b = a.clone();
        b.hits -= 1;
        assert!(b.delta(&a).is_err());
    }
}
