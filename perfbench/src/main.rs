//! The repository benchmark: end-to-end cost of four workloads driven
//! through the figure binaries' command lines (and one ISS child), plus a
//! traced run of per-layer times and exact counts. See `README.md`.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder-mnv2|dse-fig7|dse-fig7-warm|iss-mac|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod child;
mod iss;
mod metrics;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Env, Tally, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <ladder-mnv2|dse-fig7|dse-fig7-warm|iss-mac|all> \
                     --seed N --seconds S --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs an integer"));
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(Some(w));
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Builds the repository's binaries and returns the directory holding them.
fn build(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--workspace", "--bins"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the repository's binaries failed ({status})"));
    }
    let bins = target.join("release");
    for bin in ["fig4_mnv2_ladder", "fig7_dse_pareto"] {
        if !bins.join(bin).is_file() {
            return Err(format!("{} was not built", bins.join(bin).display()));
        }
    }
    Ok(bins)
}

/// Per-invocation values of the end-to-end metrics, in `END_TO_END` order.
fn columns(tally: &Tally) -> [Vec<f64>; 4] {
    let runs = &tally.ok;
    [
        runs.iter().map(|m| m.wall_s).collect(),
        runs.iter().map(|m| m.cpu_s).collect(),
        runs.iter().filter_map(|m| m.setup_s).collect(),
        runs.iter().map(|m| m.peak_rss_mib).collect(),
    ]
}

/// End-to-end metrics of one timed run. Wall and CPU time come from one
/// representative invocation: the one at the 90th percentile of CPU time
/// (nearest rank, so the slowest when a run has fewer than ten). On a
/// shared host the speed swings between a fast and a slow state every
/// few seconds, and wall time also takes stalls while the hypervisor
/// runs other guests; ranking by CPU time skips the stalls, and the
/// 90th percentile keeps the slow state without resting on one outlier
/// (see README.md). Set-up time and memory are medians.
fn end_to_end(tally: &Tally) -> [f64; 4] {
    let mut by_cpu: Vec<&child::Measured> = tally.ok.iter().collect();
    by_cpu.sort_by(|a, b| a.cpu_s.total_cmp(&b.cpu_s));
    let rank = (by_cpu.len() * 9).div_ceil(10).max(1);
    let (wall, cpu) = by_cpu.get(rank - 1).map_or((0.0, 0.0), |m| (m.wall_s, m.cpu_s));
    let [_, _, setup, rss] = columns(tally);
    [wall, cpu, median(setup.into_iter()), median(rss.into_iter())]
}

fn print_timed(workload: Workload, seconds: u64, tally: &Tally) {
    println!(
        "workload {}: {} invocation(s) in {seconds} s, {} failed",
        workload.name(),
        tally.attempted,
        tally.failed
    );
    let aggregates = ["p90-by-CPU", "p90-by-CPU", "median", "median"];
    let rows = metrics::END_TO_END.iter().zip(end_to_end(tally)).zip(columns(tally));
    for ((((name, unit), value), column), aggregate) in rows.zip(aggregates) {
        let lo = column.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let mid = median(column.iter().copied());
        println!(
            "  {name:<13} {value:>12.6} {unit:<4} {aggregate} of {}, min {lo:.6}, median {mid:.6}",
            column.len()
        );
    }
    let verdict = if tally.failed == 0 { "passed" } else { "FAILED" };
    for check in &tally.checks {
        println!("  check: {check}: {verdict} ({}/{})", tally.ok.len(), tally.attempted);
    }
    for error in &tally.errors {
        println!("  error: {error}");
    }
}

fn run_timed(args: &Args, bins: &Path, work_root: &Path) -> String {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut results = Vec::new();
    for workload in &workloads {
        let env = Env {
            bins: bins.to_owned(),
            work: work_dir(work_root, workload.name()),
            seed: args.seed,
        };
        let tally = workloads::run(*workload, &env, args.seconds);
        let _ = std::fs::remove_dir_all(&env.work);
        print_timed(*workload, args.seconds, &tally);
        attempted += tally.attempted;
        failed += tally.failed;
        for ((name, unit), value) in metrics::END_TO_END.iter().zip(end_to_end(&tally)) {
            let name = match args.workload {
                Some(_) => (*name).to_owned(),
                None => format!("{}.{name}", workload.name()),
            };
            results.push((name, value, *unit));
        }
    }
    metrics::result_line(failed == 0, attempted, failed, &results)
}

fn run_traced(args: &Args, bins: &Path, work_root: &Path) -> String {
    let name = args.workload.map_or("all", Workload::name);
    let env = Env { bins: bins.to_owned(), work: work_dir(work_root, "traced"), seed: args.seed };
    let spans = work_root.join(format!("spans-{name}.tsv"));
    let traced = traced::run(&env, &spans);
    let _ = std::fs::remove_dir_all(&env.work);
    println!(
        "traced run: {} operation(s), {} failed; spans in {}",
        traced.attempted,
        traced.failed,
        spans.display()
    );
    let mut results = Vec::new();
    for (metric, unit) in metrics::per_layer() {
        let value = traced.metrics.get(&metric).copied();
        match value {
            Some(v) => println!("  {metric:<42} {v:>16.6} {unit}"),
            None => println!("  {metric:<42} {:>16} (not measured)", "-"),
        }
        results.push((metric, value.unwrap_or(0.0), unit));
    }
    for error in &traced.errors {
        println!("  error: {error}");
    }
    // A metric the traced run did not produce fails the run.
    let missing = results.iter().any(|(m, _, _)| !traced.metrics.contains_key(m));
    let failed = traced.failed.max(u64::from(missing));
    metrics::result_line(failed == 0, traced.attempted, failed, &results)
}

/// A fresh work directory for one run of `name`.
fn work_dir(work_root: &Path, name: &str) -> PathBuf {
    let dir = work_root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory inside the build directory");
    dir
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--iss-child") {
        let seed = argv.get(1).and_then(|s| s.parse().ok());
        return match seed.map(iss::child_main) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    if !root.join("Cargo.toml").is_file() || !root.join("perfbench/Cargo.toml").is_file() {
        eprintln!("run the benchmark from the repository root\n{USAGE}");
        return ExitCode::from(2);
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bins = match build(&root, &target) {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let work_root = target.join("perfbench-work");
    let line = if args.trace {
        run_traced(&args, &bins, &work_root)
    } else {
        run_timed(&args, &bins, &work_root)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload iss-mac --seed 7 --seconds 20 --trace 1"),
            Ok(Args { workload: Some(Workload::IssMac), seed: 7, seconds: 20, trace: true })
        );
        assert_eq!(args("--workload all --seed 1 --seconds 1").map(|a| a.workload), Ok(None));
        assert!(args("--workload hit --seed 1 --seconds 1").is_err());
        assert!(args("--workload iss-mac --seed x --seconds 1").is_err());
        assert!(args("--workload iss-mac --seed 1").is_err());
        assert!(args("--workload iss-mac --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }
}
