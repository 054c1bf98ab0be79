//! The timed workloads. Each invocation of a figure binary, or of the
//! ISS child, is one operation; it fails on a non-zero exit, on no line
//! on stdout, or on a wrong output.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::child::{measure, Measured};
use crate::iss;

/// Input resolution of the `ladder-mnv2` workload.
pub const LADDER_HW: usize = 16;

/// FNV-1a digests of the CSVs at `cfu_dse::SIM_VERSION == PINNED_SIM_VERSION`.
pub const PINNED_SIM_VERSION: u32 = 2;
const LADDER_CSV_FNV: u64 = 0x320b_af03_ec47_8518;
const FIG7_CSV_FNV: u64 = 0x87d2_313a_54fa_d374;
/// `(instructions, cycles)` of the `mnv2` and `kws` MAC loops, pinned
/// at the same simulator version.
const ISS_PINNED: [(&str, u64, u64); 2] =
    [("mnv2", 25_850_004, 106_300_044), ("kws", 25_850_004, 173_350_266)];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LadderMnv2,
    DseFig7,
    DseFig7Warm,
    IssMac,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LadderMnv2, Workload::DseFig7, Workload::DseFig7Warm, Workload::IssMac];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderMnv2 => "ladder-mnv2",
            Workload::DseFig7 => "dse-fig7",
            Workload::DseFig7Warm => "dse-fig7-warm",
            Workload::IssMac => "iss-mac",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where the benchmark finds the binaries and keeps its files.
#[derive(Debug, Clone)]
pub struct Env {
    /// Directory holding the figure binaries.
    pub bins: PathBuf,
    /// Work directory of this run, inside the build directory.
    pub work: PathBuf,
    pub seed: u64,
}

impl Env {
    pub fn path(&self, file: &str) -> PathBuf {
        self.work.join(file)
    }

    pub fn fig4(&self, csv: &Path) -> Command {
        let mut cmd = Command::new(self.bins.join("fig4_mnv2_ladder"));
        cmd.arg("--input-hw").arg(LADDER_HW.to_string()).arg("--csv").arg(csv);
        cmd
    }

    pub fn fig7(&self, store: &Path, csv: &Path, resume: bool) -> Command {
        let mut cmd = Command::new(self.bins.join("fig7_dse_pareto"));
        cmd.arg("--store").arg(store).arg("--csv").arg(csv);
        if resume {
            cmd.arg("--resume");
        }
        cmd
    }

    pub fn iss_child(&self) -> Command {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let mut cmd = Command::new(exe);
        cmd.arg("--iss-child").arg(self.seed.to_string());
        cmd
    }
}

/// Runs `cmd` and turns a failed run into an error message.
pub fn invoke(cmd: &mut Command) -> Result<Measured, String> {
    let m = measure(cmd).map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !m.succeeded() {
        return Err(format!(
            "{:?} exited with {:?}: {}",
            cmd.get_program(),
            m.code,
            m.stderr_tail()
        ));
    }
    Ok(m)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Checks one kind of CSV: against its pinned digest at the pinned
/// simulator version, otherwise against the first CSV of the run.
#[derive(Debug)]
pub struct CsvCheck {
    pinned: u64,
    first: Option<Vec<u8>>,
}

impl CsvCheck {
    pub fn ladder() -> Self {
        CsvCheck { pinned: LADDER_CSV_FNV, first: None }
    }

    pub fn fig7() -> Self {
        CsvCheck { pinned: FIG7_CSV_FNV, first: None }
    }

    pub fn verdict(&self) -> &'static str {
        if cfu_dse::SIM_VERSION == PINNED_SIM_VERSION {
            "CSV digest pinned for SIM_VERSION 2"
        } else {
            "CSV identical across the run (digests pinned only for SIM_VERSION 2)"
        }
    }

    /// Reads `path` and checks it; returns the bytes.
    pub fn check(&mut self, path: &Path) -> Result<Vec<u8>, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if cfu_dse::SIM_VERSION == PINNED_SIM_VERSION {
            let digest = fnv1a(&bytes);
            if digest != self.pinned {
                return Err(format!(
                    "{} has digest {digest:#018x}, pinned {:#018x}",
                    path.display(),
                    self.pinned
                ));
            }
        } else if self.first.get_or_insert_with(|| bytes.clone()) != &bytes {
            return Err(format!("{} differs from the run's first CSV", path.display()));
        }
        Ok(bytes)
    }
}

/// Checks the ISS child's report against the seed's operands and the
/// pinned (or, at another simulator version, the run's first) counts.
#[derive(Debug, Default)]
pub struct IssCheck {
    first: Option<Vec<iss::Outcome>>,
}

impl IssCheck {
    pub fn verdict(&self) -> &'static str {
        if cfu_dse::SIM_VERSION == PINNED_SIM_VERSION {
            "accumulators exact; instructions and cycles pinned for SIM_VERSION 2"
        } else {
            "accumulators exact; instructions and cycles identical across the run"
        }
    }

    pub fn check(&mut self, stdout: &str, seed: u64) -> Result<Vec<iss::Outcome>, String> {
        let mut lines = stdout.lines();
        if lines.next() != Some("ready") {
            return Err("ISS child did not report ready".to_owned());
        }
        let expected = iss::expected_accumulator(seed);
        let mut outcomes = Vec::new();
        for (mac, pinned) in iss::LOOPS.iter().zip(ISS_PINNED) {
            let line = lines.next().ok_or("ISS child report is short")?;
            let (name, o) = iss::Outcome::from_line(line)
                .ok_or_else(|| format!("unreadable ISS report line {line:?}"))?;
            if name != mac.name || o.accumulator != expected {
                return Err(format!(
                    "{name}: accumulator {} but the operands give {expected}",
                    o.accumulator
                ));
            }
            if cfu_dse::SIM_VERSION == PINNED_SIM_VERSION
                && (o.instructions, o.cycles) != (pinned.1, pinned.2)
            {
                return Err(format!(
                    "{name}: {} instructions / {} cycles, pinned {} / {}",
                    o.instructions, o.cycles, pinned.1, pinned.2
                ));
            }
            outcomes.push(o);
        }
        let counts: Vec<_> = outcomes.iter().map(|o| (o.instructions, o.cycles)).collect();
        let first = self.first.get_or_insert_with(|| outcomes.clone());
        if first.iter().map(|o| (o.instructions, o.cycles)).collect::<Vec<_>>() != counts {
            return Err("ISS cycle counts differ between invocations".to_owned());
        }
        Ok(outcomes)
    }
}

/// The invocations of one timed run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Measurements of the invocations that succeeded.
    pub ok: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Why invocations failed (the first few).
    pub errors: Vec<String>,
    /// What was checked on every output.
    pub checks: Vec<&'static str>,
}

impl Tally {
    fn record(&mut self, outcome: Result<Measured, String>) {
        self.attempted += 1;
        match outcome {
            Ok(m) => self.ok.push(m),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }
}

/// Invokes `once` at least once, and again while at least half of
/// another invocation as long as the last one fits in `seconds`.
fn repeat(seconds: u64, tally: &mut Tally, mut once: impl FnMut() -> Result<Measured, String>) {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    loop {
        let began = Instant::now();
        let outcome = once();
        tally.record(outcome);
        if start.elapsed() + began.elapsed() / 2 > budget {
            break;
        }
    }
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// Runs one timed workload for `seconds`.
pub fn run(workload: Workload, env: &Env, seconds: u64) -> Tally {
    let mut tally = Tally::default();
    match workload {
        Workload::LadderMnv2 => {
            let csv = env.path("ladder.csv");
            let mut check = CsvCheck::ladder();
            tally.checks.push(check.verdict());
            repeat(seconds, &mut tally, || {
                remove(&csv);
                let m = invoke(&mut env.fig4(&csv))?;
                check.check(&csv)?;
                Ok(m)
            });
        }
        Workload::DseFig7 => {
            let (store, csv) = (env.path("cold.store"), env.path("cold.csv"));
            let mut check = CsvCheck::fig7();
            tally.checks.push(check.verdict());
            repeat(seconds, &mut tally, || {
                remove(&store);
                remove(&csv);
                let m = invoke(&mut env.fig7(&store, &csv, false))?;
                check.check(&csv)?;
                Ok(m)
            });
        }
        Workload::DseFig7Warm => {
            let (store, cold_csv, csv) =
                (env.path("warm.store"), env.path("fixture.csv"), env.path("warm.csv"));
            let mut check = CsvCheck::fig7();
            tally.checks.push(check.verdict());
            tally.checks.push("CSV identical to the cold fixture's");
            tally.checks.push("store file length unchanged by the warm run");
            // The fixture: one untimed cold run populates the store.
            remove(&store);
            let fixture = invoke(&mut env.fig7(&store, &cold_csv, false))
                .and_then(|_| check.check(&cold_csv))
                .and_then(|bytes| Ok((bytes, file_len(&store)?)));
            let (cold, len) = match fixture {
                Ok(fixture) => fixture,
                Err(e) => {
                    tally.record(Err(format!("fixture: {e}")));
                    return tally;
                }
            };
            repeat(seconds, &mut tally, || {
                remove(&csv);
                let m = invoke(&mut env.fig7(&store, &csv, true))?;
                if check.check(&csv)? != cold {
                    return Err("warm CSV differs from the cold fixture's".to_owned());
                }
                let after = file_len(&store)?;
                if after != len {
                    return Err(format!("warm run changed the store from {len} to {after} bytes"));
                }
                Ok(m)
            });
        }
        Workload::IssMac => {
            let mut check = IssCheck::default();
            tally.checks.push(check.verdict());
            repeat(seconds, &mut tally, || {
                let m = invoke(&mut env.iss_child())?;
                check.check(&m.stdout, env.seed)?;
                Ok(m)
            });
        }
    }
    tally
}

pub fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn iss_check_rejects_a_wrong_accumulator() {
        let mut check = IssCheck::default();
        let line = |name: &str, acc: u32| {
            let o = iss::Outcome {
                instructions: ISS_PINNED[0].1,
                cycles: ISS_PINNED[0].2,
                accumulator: acc,
                icache_misses: 0,
                dcache_misses: 0,
                mispredicts: 0,
            };
            o.to_line(name)
        };
        let good = iss::expected_accumulator(5);
        let report =
            format!("ready\n{}\n{}\n", line("mnv2", good.wrapping_add(1)), line("kws", good));
        assert!(check.check(&report, 5).unwrap_err().contains("accumulator"));
        assert!(check.check("ready\n", 5).is_err());
    }
}
