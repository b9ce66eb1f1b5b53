//! The workload's input: synthetic `U` request logs generated from the
//! seed, ingested the way a real log would be (CLF text, then the
//! byte-level parser, then the packed `.wct` format and back).
//!
//! The trace merges [`POPULATIONS`] independent `U` user populations,
//! each generated at `1 / POPULATIONS` of the trace's scale from its own derived
//! seed, with disjoint host names. One population's byte-weighted hit
//! ratio swings by a fifth from seed to seed, because a handful of huge
//! documents carry much of its bytes; merging independent populations
//! averages that out, the way a proxy serving several departments would.
//! Over ten seeds the mean WHR of the 36 lanes spread 0.15 (interquartile
//! range over median) with four populations and 0.05 with eight.

use std::path::Path;
use std::time::Instant;
use webcache_trace::{binfmt, Trace};
use webcache_workload::{generate, profiles};

/// Independent user populations merged into one trace.
pub const POPULATIONS: u64 = 8;
/// Size of the merged trace relative to the paper's `U` trace, for the
/// simulator: 87k requests.
pub const SIM_SCALE: f64 = 0.5;
/// The same for `proxy_hot`, whose hot set is drawn from it: 22k
/// requests.
pub const PROXY_SCALE: f64 = 0.125;
/// Unix time of trace time zero in the CLF text.
const EPOCH: i64 = 811_296_000;

/// How long each ingest stage took.
#[derive(Debug, Clone, Default)]
pub struct IngestTimes {
    pub generate_s: f64,
    pub clf_parse_s: f64,
    pub clf_bytes: usize,
    pub wct_save_s: f64,
    pub wct_load_s: f64,
}

impl IngestTimes {
    /// The `workload.*` and `trace.*` layer metrics.
    pub fn metrics(&self, m: &mut crate::layers::Metrics) {
        m.push(("workload.generate_s", self.generate_s));
        m.push(("trace.clf_parse_s", self.clf_parse_s));
        m.push((
            "trace.clf_parse_mb_s",
            self.clf_bytes as f64 / 1e6 / self.clf_parse_s,
        ));
        m.push(("trace.wct_save_s", self.wct_save_s));
        m.push(("trace.wct_load_s", self.wct_load_s));
    }
}

/// The ingested trace plus what is needed to check the ingest.
pub struct Inputs {
    /// The trace as loaded back from `.wct`.
    pub trace: Trace,
    /// The generated populations, before any serialisation.
    pub generated: Vec<Trace>,
    pub times: IngestTimes,
}

/// Host prefix that keeps population `i`'s URLs disjoint from the rest.
fn host_prefix(i: usize) -> String {
    format!("p{i}.")
}

/// Generate, serialise, parse, pack and reload the seed's trace at
/// `scale`. The packed file is written under `workdir` and removed again.
pub fn build(seed: u64, scale: f64, workdir: &Path) -> Result<Inputs, String> {
    let mut times = IngestTimes::default();

    let t = Instant::now();
    let profile = profiles::u().scaled(scale / POPULATIONS as f64);
    let generated: Vec<Trace> = (0..POPULATIONS)
        .map(|i| generate(&profile, seed.wrapping_mul(POPULATIONS).wrapping_add(i)))
        .collect();
    let mut text = String::new();
    for (i, g) in generated.iter().enumerate() {
        text.push_str(
            &g.to_clf(EPOCH)
                .replace("\"GET http://", &format!("\"GET http://{}", host_prefix(i))),
        );
    }
    times.generate_s = t.elapsed().as_secs_f64();
    times.clf_bytes = text.len();

    let t = Instant::now();
    let (parsed, bad) = Trace::from_clf_bytes("U", text.as_bytes(), EPOCH);
    times.clf_parse_s = t.elapsed().as_secs_f64();
    if bad != 0 {
        return Err(format!("{bad} generated CLF lines failed to parse"));
    }
    drop(text);

    let path = workdir.join(format!("trace-{seed}-{}.wct", std::process::id()));
    let t = Instant::now();
    binfmt::save(&parsed, &path).map_err(|e| format!("saving {}: {e}", path.display()))?;
    times.wct_save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = binfmt::load(&path);
    times.wct_load_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let trace = loaded.map_err(|e| format!("loading {}: {e:?}", path.display()))?;
    if trace.requests != parsed.requests
        || trace.interner.url_count() != parsed.interner.url_count()
    {
        return Err("the .wct round trip changed the trace".into());
    }
    Ok(Inputs {
        trace,
        generated,
        times,
    })
}

/// Check that the ingested trace holds exactly the generated requests:
/// each population's requests, in order, with the same time, URL text
/// and size.
pub fn check_round_trip(inputs: &Inputs) -> Result<(), String> {
    let t = &inputs.trace;
    let total: usize = inputs.generated.iter().map(Trace::len).sum();
    if t.len() != total {
        return Err(format!("{} requests parsed, {total} generated", t.len()));
    }
    let mut cursors = vec![0usize; inputs.generated.len()];
    for r in &t.requests {
        let url = t.interner.url_text(r.url).unwrap_or("");
        let (pop, rest) = (0..inputs.generated.len())
            .find_map(|i| {
                url.strip_prefix("http://")
                    .and_then(|u| u.strip_prefix(&host_prefix(i)))
                    .map(|rest| (i, rest))
            })
            .ok_or_else(|| format!("parsed URL {url:?} belongs to no population"))?;
        let g = &inputs.generated[pop];
        let want = g
            .requests
            .get(cursors[pop])
            .ok_or_else(|| format!("population {pop} has extra requests"))?;
        let want_url = g.interner.url_text(want.url).unwrap_or("");
        if want.time != r.time
            || want.size != r.size
            || want_url.strip_prefix("http://") != Some(rest)
        {
            return Err(format!(
                "population {pop} request {} differs after the round trip",
                cursors[pop]
            ));
        }
        cursors[pop] += 1;
    }
    Ok(())
}
