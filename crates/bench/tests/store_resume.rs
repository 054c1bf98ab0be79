//! Cold/warm equivalence of the persistent result store across every
//! figure pipeline: a cold run populates the store without moving a
//! byte of output, and a warm `--resume`-style run reproduces the same
//! CSV with **zero** guest simulations. This is the contract behind the
//! `--store`/`--resume` flags on the figure binaries.

use std::path::PathBuf;
use std::sync::Arc;

use cfu_bench::{fig4, fig6, fig7};
use cfu_dse::{ResultStore, StudyStore};
use cfu_sim::CpuConfig;

fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("cfu-bench-store-{tag}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn fig7_warm_resume_is_byte_identical_with_zero_guest_runs() {
    let cfg = fig7::Fig7Config {
        input_hw: 8,
        trials: 24,
        evolutionary: true,
        seed: 11,
        threads: 2,
        retime: true,
        ..fig7::Fig7Config::default()
    };
    let baseline = fig7::to_csv(&fig7::run_all(&cfg, &fig7::Fig7Progress::new(), None, None));
    let path = temp_store("fig7");
    let cold_store = Arc::new(ResultStore::open(&path).unwrap());
    let cold = fig7::Fig7Store::new(Arc::clone(&cold_store), cfg.input_hw, false, None);
    let progress = fig7::Fig7Progress::new();
    let cold_csv = fig7::to_csv(&fig7::run_all(&cfg, &progress, Some(&cold), None));
    assert_eq!(cold_csv, baseline, "attaching a store must not move the fronts");
    assert!(cold.appended() > 0, "cold run must persist fresh evaluations");
    drop(cold);
    drop(cold_store);

    let warm_store = Arc::new(ResultStore::open(&path).unwrap());
    let warm = fig7::Fig7Store::new(Arc::clone(&warm_store), cfg.input_hw, true, None);
    let progress = fig7::Fig7Progress::new();
    let warm_csv = fig7::to_csv(&fig7::run_all(&cfg, &progress, Some(&warm), None));
    assert_eq!(warm_csv, baseline, "warm resume must reproduce the fronts byte-for-byte");
    assert_eq!(warm.appended(), 0, "warm resume must append nothing");
    assert!(warm.hydrated() > 0, "warm resume must hydrate prior results");
    // The retime counters are the zero-simulation proof: with every
    // point memoized up front, no curve captures a trace or replays one.
    for i in 0..3 {
        let counters = progress.store(i).expect("retime mode tracks per-curve counters");
        assert_eq!(counters.captures(), 0, "warm curve {i} ran the guest");
        assert_eq!(counters.replays(), 0, "warm curve {i} replayed a trace");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fig4_warm_resume_is_byte_identical_and_appends_nothing() {
    let cpu = CpuConfig::arty_default();
    let baseline = fig4::to_csv(&fig4::run_ladder(cpu, 16, false, 1, None, None));
    let path = temp_store("fig4");
    let ctx = fig4::store_context(cpu, 16, false);
    {
        let store = Arc::new(ResultStore::open(&path).unwrap());
        let handle = Arc::new(StudyStore::new(store, ctx.clone()));
        let cold =
            fig4::to_csv(&fig4::run_ladder(cpu, 16, false, 2, None, Some(Arc::clone(&handle))));
        assert_eq!(cold, baseline, "attaching a store must not move the rows");
        assert!(handle.appended() > 0, "cold run must persist fresh steps");
    }
    let store = Arc::new(ResultStore::open(&path).unwrap());
    let handle = Arc::new(StudyStore::new(store, ctx).with_resume(true));
    let warm = fig4::to_csv(&fig4::run_ladder(cpu, 16, false, 2, None, Some(Arc::clone(&handle))));
    assert_eq!(warm, baseline, "warm resume must reproduce the rows byte-for-byte");
    assert_eq!(handle.appended(), 0, "warm resume must append nothing");
    assert!(handle.hydrated() > 0, "warm resume must hydrate prior steps");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fig4_store_contexts_isolate_cpu_and_resolution_variants() {
    // A warm store for one (cpu, input, width) must never leak into a
    // run at different settings: the workload tag embeds all three.
    let arty = CpuConfig::arty_default();
    let a = fig4::store_context(arty, 16, false);
    assert_ne!(a.workload(), fig4::store_context(arty, 32, false).workload());
    assert_ne!(a.workload(), fig4::store_context(arty, 16, true).workload());
    let no_dcache = arty.with_decode_cache(false);
    assert_eq!(
        a.workload(),
        fig4::store_context(no_dcache, 16, false).workload(),
        "the host-only decode cache must not fragment the store"
    );
}

#[test]
fn fig6_and_energy_share_one_store_and_resume_with_zero_simulations() {
    // The content-addressed keys embed the workload tag, so the KWS
    // ladder and its energy extension can share one `--store` file:
    // each hydrates only its own records.
    let baseline = fig6::to_csv(&fig6::run_ladder(1, None, None));
    let path = temp_store("fig6-shared");
    let (energy_table, energy_csv) = {
        let store = Arc::new(ResultStore::open(&path).unwrap());
        let ladder = Arc::new(StudyStore::new(Arc::clone(&store), fig6::store_context()));
        let cold = fig6::to_csv(&fig6::run_ladder(2, None, Some(Arc::clone(&ladder))));
        assert_eq!(cold, baseline, "attaching a store must not move the rows");
        let energy = Arc::new(StudyStore::new(Arc::clone(&store), fig6::energy_store_context()));
        let (rows, report) = fig6::run_energy_ladder(2, true, Some(Arc::clone(&energy)));
        assert_eq!(report.attempts, fig6::ladder_len(), "cold run must simulate every step once");
        assert!(ladder.appended() > 0, "cold ladder run must persist fresh steps");
        assert!(energy.appended() > 0, "cold energy run must persist fresh steps");
        (fig6::render_energy(&rows), fig6::energy_to_csv(&rows))
    };
    let store = Arc::new(ResultStore::open(&path).unwrap());
    let ladder =
        Arc::new(StudyStore::new(Arc::clone(&store), fig6::store_context()).with_resume(true));
    let warm = fig6::to_csv(&fig6::run_ladder(2, None, Some(Arc::clone(&ladder))));
    assert_eq!(warm, baseline, "warm resume must reproduce the rows byte-for-byte");
    assert_eq!(ladder.appended(), 0, "warm resume must append nothing");
    assert_eq!(
        ladder.hydrated(),
        fig6::ladder_len(),
        "the ladder must hydrate exactly its own records, not the energy rows"
    );
    let energy = Arc::new(StudyStore::new(store, fig6::energy_store_context()).with_resume(true));
    // The run's attempt count is the zero-simulation proof: a fully
    // hydrated memo cache means no evaluator (execute *or* retime
    // capture) ever touches the guest.
    let (rows, report) = fig6::run_energy_ladder(2, true, Some(Arc::clone(&energy)));
    assert_eq!(report.attempts, 0, "warm resume must simulate zero steps");
    assert_eq!(fig6::render_energy(&rows), energy_table, "warm energy table diverged");
    assert_eq!(fig6::energy_to_csv(&rows), energy_csv, "warm energy CSV diverged");
    assert_eq!(energy.appended(), 0, "warm energy resume must append nothing");
    std::fs::remove_file(&path).unwrap();
}
