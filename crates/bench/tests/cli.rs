//! Bad command lines exit with code 2 and a usage line on every figure
//! and table binary: a malformed or missing flag value, an unknown flag,
//! and `--resume` without `--store` are all rejected up front, before
//! any simulation, and never as a panic.

use std::process::Command;

/// One binary and the argument lists it must reject.
struct Bin {
    path: &'static str,
    /// The flag list its usage line names.
    supported: &'static str,
    /// An integer flag, if the binary takes one.
    int_flag: Option<&'static str>,
    /// A flag that takes a value, if the binary has one.
    value_flag: Option<&'static str>,
    /// Whether the binary takes `--store PATH` / `--resume`.
    store: bool,
}

const BINS: [Bin; 6] = [
    Bin {
        path: env!("CARGO_BIN_EXE_fig4_mnv2_ladder"),
        supported: "--input-hw N --full-width --csv PATH --svg PATH --threads N --store PATH --resume",
        int_flag: Some("--threads"),
        value_flag: Some("--input-hw"),
        store: true,
    },
    Bin {
        path: env!("CARGO_BIN_EXE_fig6_kws_ladder"),
        supported: "--csv PATH --svg PATH --threads N --store PATH --resume",
        int_flag: Some("--threads"),
        value_flag: Some("--csv"),
        store: true,
    },
    Bin {
        path: env!("CARGO_BIN_EXE_fig7_dse_pareto"),
        supported: "--trials N --input-hw N --threads N --random --retime --no-retime --max-retries N --fail-fast --cycle-budget N --csv PATH --svg PATH --store PATH --resume",
        int_flag: Some("--trials"),
        value_flag: Some("--threads"),
        store: true,
    },
    Bin {
        path: env!("CARGO_BIN_EXE_profile_mnv2"),
        supported: "--input-hw N",
        int_flag: Some("--input-hw"),
        value_flag: Some("--input-hw"),
        store: false,
    },
    Bin {
        path: env!("CARGO_BIN_EXE_table_energy_ladder"),
        supported: "--threads N --csv PATH --retime --no-retime --store PATH --resume",
        int_flag: Some("--threads"),
        value_flag: Some("--csv"),
        store: true,
    },
    Bin {
        path: env!("CARGO_BIN_EXE_table_mlperf_models"),
        supported: "--fast",
        int_flag: None,
        value_flag: None,
        store: false,
    },
];

fn assert_rejected(bin: &Bin, args: &[&str]) {
    let out = Command::new(bin.path).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = format!("{} {}", bin.path, args.join(" "));
    assert_eq!(out.status.code(), Some(2), "{what}: exit status; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what}: panicked:\n{stderr}");
    let usage = format!("; supported: {}\n", bin.supported);
    assert!(stderr.ends_with(&usage), "{what}: no usage line on stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{what}: work started before the bad flag was rejected");
}

#[test]
fn non_integer_values_exit_2_with_usage() {
    for bin in &BINS {
        if let Some(flag) = bin.int_flag {
            assert_rejected(bin, &[flag, "x"]);
            assert_rejected(bin, &[flag, "-1"]);
        }
    }
}

#[test]
fn missing_values_exit_2_with_usage() {
    for bin in &BINS {
        if let Some(flag) = bin.value_flag {
            assert_rejected(bin, &[flag]);
        }
    }
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for bin in &BINS {
        assert_rejected(bin, &["--bogus"]);
    }
}

#[test]
fn resume_without_store_exits_2_with_usage() {
    for bin in BINS.iter().filter(|b| b.store) {
        assert_rejected(bin, &["--resume"]);
    }
}
