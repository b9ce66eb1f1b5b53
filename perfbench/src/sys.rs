//! The little operating-system surface the benchmark needs: CPU
//! affinity, signals, and `/proc` readings of a process.

use std::io;
use std::path::Path;
use std::process::Command;

mod ffi {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
}

/// `SIGTERM` on Linux.
const SIGTERM: i32 = 15;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed, which
    // the call fills; pid 0 names the calling thread.
    let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..64 * mask.len())
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Restrict the calling thread (and every thread or child it creates
/// afterwards) to `cpus`.
pub fn pin_current_thread(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; 16];
    for &c in cpus {
        if c >= 64 * mask.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu index too large",
            ));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; pid 0 names the calling thread. The call only reads it.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// `PR_SET_TIMERSLACK` on Linux.
const PR_SET_TIMERSLACK: i32 = 29;

/// Let the calling thread's sleeps end within a microsecond of their
/// deadline instead of the default 50 µs slack, so an open-loop sender
/// is not late by the kernel's timer coalescing.
pub fn tight_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK) takes plain integers and touches
    // no memory of ours; failure only leaves the default slack.
    let _ = unsafe { ffi::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0) };
}

/// Ask process `pid` to shut down gracefully.
pub fn terminate(pid: u32) -> io::Result<()> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    if unsafe { ffi::kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    // SAFETY: sysconf takes an integer and touches no memory of ours.
    let t = unsafe { ffi::sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// A reading of one process from `/proc`.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    /// User plus system CPU time of all threads, seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches of all threads.
    pub ctx_switches: u64,
    /// Resident set now, KiB.
    pub rss_kb: u64,
    /// Peak resident set, KiB.
    pub hwm_kb: u64,
    /// Threads now.
    pub threads: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CPU seconds (user + system) from a `stat` line.
fn stat_cpu_s(stat: &str) -> f64 {
    // The command name may hold spaces; fields restart after its `)`.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state is field 3 of stat(5), utime 14, stime 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / clock_ticks()
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .map(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Read process `pid` (`"self"` for this one) from `/proc`.
pub fn sample(pid: &str) -> io::Result<ProcSample> {
    let base = Path::new("/proc").join(pid);
    let status = std::fs::read_to_string(base.join("status"))?;
    let stat = std::fs::read_to_string(base.join("stat"))?;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(base.join("task"))?.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("status")) {
            ctx_switches += status_field(&s, "voluntary_ctxt_switches:")
                + status_field(&s, "nonvoluntary_ctxt_switches:");
        }
    }
    Ok(ProcSample {
        cpu_s: stat_cpu_s(&stat),
        ctx_switches,
        rss_kb: status_field(&status, "VmRSS:"),
        hwm_kb: status_field(&status, "VmHWM:"),
        threads: status_field(&status, "Threads:"),
    })
}

/// Where the run happened, recorded with every result.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub kernel: String,
    pub commit: String,
    pub pinning: String,
    pub network: &'static str,
}

impl Environment {
    pub fn probe() -> Environment {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        // Only this checkout's own history counts, not an enclosing one.
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                Command::new("git")
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .output()
            })
            .and_then(Result::ok)
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none (not a git checkout)".into());
        Environment {
            nproc,
            kernel,
            commit,
            pinning: "none".into(),
            network: "loopback",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_command_with_spaces() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 300 200 0 0 20 0 1 0 100";
        assert_eq!(stat_cpu_s(line), 500.0 / clock_ticks());
    }

    #[test]
    fn this_thread_may_run_somewhere() {
        let cpus = allowed_cpus().unwrap();
        assert!(!cpus.is_empty());
        pin_current_thread(&cpus).unwrap();
    }

    #[test]
    fn reads_this_process() {
        let s = sample("self").unwrap();
        assert!(s.rss_kb > 0 && s.hwm_kb >= s.rss_kb);
        assert!(s.threads >= 1);
    }
}
