//! Runs one child process and measures it: wall time from spawn to exit,
//! set-up time from spawn to its first line on stdout, CPU time and the
//! peak resident set.
//!
//! CPU time comes from the `rusage` that `wait4` returns for exactly this
//! child (microsecond resolution; `/proc/<pid>/stat` counts 10 ms ticks).
//! The peak resident set is the child's own `VmHWM`, polled from
//! `/proc/<pid>/status` while it runs: `rusage.ru_maxrss` would also
//! include the parent's pages, which a `vfork`-style spawn hands to the
//! child until it execs. The same poll records the largest `Threads`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often `/proc/<pid>/status` is sampled while the child runs.
const POLL: Duration = Duration::from_millis(5);

/// What one child run cost, and what it printed.
#[derive(Debug, Clone)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `None` when the child printed nothing on stdout.
    pub setup_s: Option<f64>,
    pub peak_rss_mib: f64,
    pub threads_max: u64,
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

impl Measured {
    pub fn succeeded(&self) -> bool {
        self.code == Some(0) && self.setup_s.is_some()
    }

    /// The last lines of stderr, for a failure message.
    pub fn stderr_tail(&self) -> String {
        let lines: Vec<&str> = self.stderr.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

/// The `rusage` layout of 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Blocks until child `pid` exits and reaps it, returning its raw wait
/// status and resource usage.
fn reap(pid: i32) -> std::io::Result<(i32, Rusage)> {
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both pointers refer to live, writable locals of the
        // types `wait4` writes (`int` and 64-bit Linux `struct rusage`).
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Value of a `Key:   123 kB` line of `/proc/<pid>/status`, without unit.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Spawns `cmd` and measures it until it exits. The child's stdin is
/// closed; stdout and stderr are captured.
pub fn measure(cmd: &mut Command) -> std::io::Result<Measured> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let spawned = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let exited = AtomicBool::new(false);
    let status_path = format!("/proc/{pid}/status");
    std::thread::scope(|scope| {
        let out_reader = scope.spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut text = String::new();
            let mut first_line = None;
            loop {
                match reader.read_line(&mut text) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        first_line.get_or_insert_with(Instant::now);
                    }
                }
            }
            (text, first_line)
        });
        let err_reader = scope.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let poller = scope.spawn(|| {
            let (mut hwm_kib, mut threads) = (0, 0);
            while !exited.load(Ordering::SeqCst) {
                if let Ok(status) = std::fs::read_to_string(&status_path) {
                    hwm_kib = hwm_kib.max(status_field(&status, "VmHWM").unwrap_or(0));
                    threads = threads.max(status_field(&status, "Threads").unwrap_or(0));
                }
                std::thread::sleep(POLL);
            }
            (hwm_kib, threads)
        });
        let reaped = reap(pid);
        let ended = Instant::now();
        exited.store(true, Ordering::SeqCst);
        let (status, usage) = reaped?;
        let (stdout, first_line) = out_reader.join().expect("stdout reader");
        let stderr = err_reader.join().expect("stderr reader");
        let (hwm_kib, threads_max) = poller.join().expect("status poller");
        let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Ok(Measured {
            wall_s: (ended - spawned).as_secs_f64(),
            cpu_s: seconds(usage.utime) + seconds(usage.stime),
            setup_s: first_line.map(|t| (t - spawned).as_secs_f64()),
            peak_rss_mib: hwm_kib as f64 / 1024.0,
            threads_max,
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            stdout,
            stderr,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tfig7_dse_pareto\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  301234 kB\nVmHWM:\t  103424 kB\nVmRSS:\t   98304 kB\n\
        Threads:\t5\nSigQ:\t0/63459\n";

    #[test]
    fn parses_status_fields() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(103_424));
        assert_eq!(status_field(STATUS, "Threads"), Some(5));
        assert_eq!(status_field(STATUS, "VmRSS"), Some(98_304));
    }

    #[test]
    fn status_fields_match_whole_keys_only() {
        // `VmHWM` must not match a longer key, nor a missing one.
        assert_eq!(status_field("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(status_field(STATUS, "VmSwap"), None);
        // A zombie's status has no memory lines at all.
        assert_eq!(status_field("Name:\tx\nState:\tZ (zombie)\nThreads:\t1\n", "VmHWM"), None);
    }

    #[test]
    fn measures_a_child() {
        let m = measure(Command::new("sh").args([
            "-c",
            "echo ready; i=0; \
            while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done; exit 3",
        ]))
        .expect("sh runs");
        assert_eq!(m.code, Some(3));
        assert!(!m.succeeded());
        assert_eq!(m.stdout, "ready\ndone\n");
        let setup = m.setup_s.expect("printed a line");
        assert!(setup > 0.0 && setup <= m.wall_s);
        assert!(m.cpu_s > 0.0, "the busy loop burns CPU");
        assert!(m.peak_rss_mib > 0.0 && m.threads_max >= 1);
    }
}
