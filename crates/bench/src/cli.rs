//! The command-line surface shared by the figure and table binaries:
//! typed flag parsing with a single error path (a usage line on stderr,
//! exit code 2), the `--store PATH` / `--resume` pair of the sweep
//! binaries, and the live progress poller.

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use cfu_dse::{ResultStore, StoreContext, StudyStore};

/// A binary's argument stream. Every parse error — an unknown flag, a
/// missing or malformed value, an invalid flag combination — prints
/// `<error>; supported: <flags>` to stderr and exits with code 2.
#[derive(Debug)]
pub struct Cli {
    supported: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// Reads the process arguments. `supported` lists the accepted
    /// flags for the usage line (e.g. `"--threads N --csv PATH"`).
    pub fn new(supported: &'static str) -> Self {
        Cli::from_args(supported, std::env::args().skip(1))
    }

    /// Parses an explicit argument list (program name excluded).
    fn from_args(supported: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Cli { supported, args: args.into_iter().collect::<Vec<_>>().into_iter() }
    }

    /// The next flag, or `None` once the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The integer value following `flag`.
    pub fn int<T: FromStr>(&mut self, flag: &str) -> T {
        self.take(flag, "an integer").unwrap_or_else(|e| self.fail(&e))
    }

    /// The path following `flag`.
    pub fn path(&mut self, flag: &str) -> String {
        self.take(flag, "a path").unwrap_or_else(|e| self.fail(&e))
    }

    fn take<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        let needs = || format!("{flag} needs {what}");
        self.args.next().ok_or_else(needs)?.parse().map_err(|_| needs())
    }

    /// Rejects `flag` as unknown.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag {flag}"))
    }

    /// Prints `message` with the usage line and exits with code 2.
    fn fail(&self, message: &str) -> ! {
        eprintln!("{message}; supported: {}", self.supported);
        std::process::exit(2)
    }
}

/// The `--store PATH` / `--resume` pair: persist every freshly
/// simulated point to an append-only result store, and with `--resume`
/// hydrate prior results from it first.
#[derive(Debug, Default)]
pub struct StoreFlags {
    /// `--store PATH`.
    pub path: Option<String>,
    /// `--resume`.
    pub resume: bool,
}

impl StoreFlags {
    /// Opens the store `--store` names, if any. `--resume` without
    /// `--store` fails through `cli`; a file that cannot be opened as a
    /// store exits with code 2.
    pub fn open(&self, cli: &Cli) -> Option<Arc<ResultStore>> {
        if self.resume && self.path.is_none() {
            cli.fail("--resume requires --store PATH");
        }
        let path = self.path.as_deref()?;
        let file = ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open result store {path}: {e}");
            std::process::exit(2);
        });
        Some(Arc::new(file))
    }

    /// [`open`](StoreFlags::open), bound to one study under `ctx`.
    pub fn study<P>(&self, cli: &Cli, ctx: StoreContext) -> Option<Arc<StudyStore<P>>> {
        self.open(cli).map(|file| Arc::new(StudyStore::new(file, ctx).with_resume(self.resume)))
    }

    /// Prints the `store:` summary line to stderr (nothing without
    /// `--store`); `tombstoned` adds the failure-tombstone count.
    pub fn print_summary(&self, hydrated: u64, appended: u64, tombstoned: Option<u64>) {
        if let Some(path) = &self.path {
            let tail = tombstoned.map(|n| format!(", {n} tombstone(s)")).unwrap_or_default();
            eprintln!(
                "store: {path}: {hydrated} prior result(s) loaded, {appended} new result(s) appended{tail}"
            );
        }
    }
}

/// How often the live progress readouts refresh.
pub const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// Runs `work` on the calling thread while a poller thread calls `tick`
/// every `interval`. The poller stops the moment `work` returns (or
/// unwinds) instead of sleeping out its current interval, so a sweep
/// shorter than one interval ticks never and waits for nothing.
pub fn poll_while<R>(
    interval: Duration,
    mut tick: impl FnMut() + Send,
    work: impl FnOnce() -> R,
) -> R {
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while finished.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                tick();
            }
        });
        // Dropping the sender when `work` ends wakes the poller at once.
        let _done = done;
        work()
    })
}

/// Runs a ladder sweep with a live `progress: k/N ladder steps` readout
/// on stderr when `enabled` (stdout is untouched). `work` receives the
/// counter to hand to the ladder runner (`None` when disabled).
pub fn ladder_progress<R>(
    enabled: bool,
    total: u64,
    work: impl FnOnce(Option<Arc<AtomicU64>>) -> R,
) -> R {
    if !enabled {
        return work(None);
    }
    let counter = Arc::new(AtomicU64::new(0));
    let watched = Arc::clone(&counter);
    let mut last = 0;
    let tick = move || {
        let done = watched.load(Ordering::Relaxed);
        if done != last {
            eprintln!("progress: {done}/{total} ladder steps");
            last = done;
        }
    };
    poll_while(PROGRESS_INTERVAL, tick, || work(Some(counter)))
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args("--threads N --csv PATH", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn values_parse_typed_and_report_the_flag_on_error() {
        let mut ok = cli(&["--threads", "4", "--csv", "out.csv"]);
        assert_eq!(ok.next_flag().as_deref(), Some("--threads"));
        assert_eq!(ok.int::<usize>("--threads"), 4);
        assert_eq!(ok.next_flag().as_deref(), Some("--csv"));
        assert_eq!(ok.path("--csv"), "out.csv");
        assert_eq!(ok.next_flag(), None);
        let bad = cli(&["x"]).take::<usize>("--threads", "an integer");
        assert_eq!(bad, Err("--threads needs an integer".to_owned()));
        let negative = cli(&["-1"]).take::<usize>("--threads", "an integer");
        assert_eq!(negative, Err("--threads needs an integer".to_owned()));
        let missing = cli(&[]).take::<String>("--csv", "a path");
        assert_eq!(missing, Err("--csv needs a path".to_owned()));
    }

    #[test]
    fn poller_returns_long_before_one_interval_once_work_is_done() {
        let ticks = AtomicU64::new(0);
        let start = Instant::now();
        let out = poll_while(
            Duration::from_secs(30),
            || {
                ticks.fetch_add(1, Ordering::Relaxed);
            },
            || 7,
        );
        assert_eq!(out, 7);
        assert!(start.elapsed() < Duration::from_secs(5), "waited {:?}", start.elapsed());
        assert_eq!(ticks.load(Ordering::Relaxed), 0, "no tick before the first interval");
    }

    #[test]
    fn poller_ticks_while_work_runs() {
        let ticks = AtomicU64::new(0);
        poll_while(
            Duration::from_millis(1),
            || {
                ticks.fetch_add(1, Ordering::Relaxed);
            },
            || {
                let start = Instant::now();
                while ticks.load(Ordering::Relaxed) < 3 {
                    assert!(start.elapsed() < Duration::from_secs(30), "poller never ticked");
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        );
        assert!(ticks.load(Ordering::Relaxed) >= 3);
    }
}
