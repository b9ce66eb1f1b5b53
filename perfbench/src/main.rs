//! `webcache-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints what it measured and checked, and ends with
//! one JSON result line. Exits 1 when a correctness check fails and 2 on
//! bad arguments or a run that could not complete.

use std::path::PathBuf;
use webcache_perfbench::report::{Report, WORKLOADS};
use webcache_perfbench::serve;
use webcache_perfbench::sim;
use webcache_perfbench::sys::Environment;

const USAGE: &str =
    "usage: webcache-perfbench --workload sim_sweep|proxy_hot --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for the run: under the build directory, which the
/// repository ignores.
fn workdir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench-work")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("webcache-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workdir = workdir();
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("webcache-perfbench: {}: {e}", workdir.display());
        std::process::exit(2);
    }
    let mut report = Report::new(&args.workload, args.seed, args.trace, Environment::probe());
    let outcome = match args.workload.as_str() {
        "sim_sweep" => sim::run(args.seed, args.seconds, args.trace, &workdir, &mut report),
        _ => serve::build_proxy()
            .and_then(|()| serve::run(args.seed, args.seconds, args.trace, &workdir, &mut report)),
    };
    if let Err(e) = outcome {
        eprintln!("webcache-perfbench: {} failed: {e}", args.workload);
        std::process::exit(2);
    }
    let json = report.json();
    for line in report
        .lines()
        .into_iter()
        .chain(report.save_and_compare(&workdir))
    {
        println!("{line}");
    }
    println!("{json}");
    if !report.correct() {
        std::process::exit(1);
    }
}
