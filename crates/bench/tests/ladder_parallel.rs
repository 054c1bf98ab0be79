//! Each figure runner against pinned CSV bytes. The pins were recorded
//! from the serial drivers the engine runners replaced, at the small
//! settings below, so they hold the published numbers fixed; every
//! runner must reproduce them at 1 worker (evaluated inline) and at 4
//! workers. This is the contract that lets the figure binaries take
//! `--threads N` without perturbing published numbers.

use cfu_bench::{fig4, fig6, fig7};
use cfu_sim::CpuConfig;

/// Figure 4 at 16x16 input, width 0.35.
const FIG4_CSV: &str = "\
step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps
Baseline,17820322,1.0000,20768144,1.0000,0,0
SW,7208182,2.4722,10156004,2.0449,0,0
CFU postproc,6886092,2.5879,9834204,2.1118,460,0
CFU hold filt,2910399,6.1230,5858511,3.5450,490,0
CFU hold inp,2910791,6.1222,5858887,3.5447,700,0
CFU MAC4,1276799,13.9570,4224895,4.9157,804,4
MAC4Run1,1001873,17.7870,3944287,5.2654,1014,4
Incl postproc,990161,17.9974,3931399,5.2826,714,4
Macc4Run4,956515,18.6305,3895827,5.3309,804,4
Overlap input,951552,18.7276,3890776,5.3378,874,4
";

/// The Figure 6 ladder.
const FIG6_CSV: &str = "\
step,cycles,seconds,speedup,luts,dsps,fits
Baseline,3817351815,318.1127,1.0000,4350,0,true
QuadSPI,1186237527,98.8531,3.2180,4410,0,true
SRAM Ops and Model,304949235,25.4124,12.5180,4410,0,true
Larger Icache,209663071,17.4719,18.2071,4790,0,true
Fast Mult,115596835,9.6331,33.0230,4720,4,true
MAC Conv,38907534,3.2423,98.1134,4914,8,true
Post Proc,36178752,3.0149,105.5136,5254,8,true
SW specialize,17781674,1.4818,214.6790,5254,8,true
";

/// The energy ladder.
const ENERGY_CSV: &str = "\
step,cycles,total_uj,dynamic_uj,avg_mw,edp_ujs
Baseline,3817351815,98185.163521,73276.942928,0.308649,31233942.681040
QuadSPI,1186237527,28501.618409,20654.657168,0.288323,2817474.111426
SRAM Ops and Model,304949235,2921.010638,903.771448,0.114944,74229.996612
Larger Icache,209663071,2396.146173,889.717008,0.137143,41865.280435
Fast Mult,115596835,1708.142600,889.717008,0.177321,16454.656522
MAC Conv,38907534,585.471147,298.683714,0.180573,1898.269880
Post Proc,36178752,565.374141,280.249396,0.187527,1704.544235
SW specialize,17781674,284.859361,144.721988,0.192238,422.106357
";

/// Figure 7 at 8x8 input, 24 evolution trials per curve, seed 11.
const FIG7_CSV: &str = "\
curve,logic_cells,cycles
CPU alone,3240,173610189
CPU alone,3460,134826688
CPU alone,3600,79838597
CPU alone,3660,24371849
CPU alone,3860,19228549
CPU alone,4080,15941809
CPU + CFU1,4114,14465989
CPU + CFU1,4334,12640038
CPU + CFU1,4474,6648141
CPU + CFU1,4534,2492669
CPU + CFU1,4734,2145757
CPU + CFU1,4954,1954980
CPU + CFU2,3774,22237237
CPU + CFU2,4134,6121651
CPU + CFU2,4194,4903525
CPU + CFU2,4274,4144886
CPU + CFU2,4394,3643328
CPU + CFU2,4614,3171863
";

#[test]
fn fig4_csv_is_pinned_at_any_thread_count() {
    // Small input keeps each of the 10 inferences cheap; the row math
    // under test is resolution-independent.
    for threads in [1, 4] {
        let rows = fig4::run_ladder(CpuConfig::arty_default(), 16, false, threads, None, None);
        assert_eq!(fig4::to_csv(&rows), FIG4_CSV, "fig4 CSV diverged at {threads} threads");
    }
}

#[test]
fn fig6_csv_is_pinned_at_any_thread_count() {
    for threads in [1, 4] {
        let rows = fig6::run_ladder(threads, None, None);
        assert_eq!(fig6::to_csv(&rows), FIG6_CSV, "fig6 CSV diverged at {threads} threads");
    }
}

fn fig7_cfg(threads: usize, retime: bool) -> fig7::Fig7Config {
    fig7::Fig7Config {
        input_hw: 8,
        trials: 24,
        evolutionary: true,
        seed: 11,
        threads,
        retime,
        ..fig7::Fig7Config::default()
    }
}

fn fig7_run(cfg: &fig7::Fig7Config) -> Vec<fig7::Fig7Curve> {
    fig7::run_all(cfg, &fig7::Fig7Progress::new(), None, None)
}

#[test]
fn fig7_csv_is_pinned_and_report_thread_invariant() {
    // The three curves run concurrently on N-worker studies; the CSV and
    // the rendered report (including the starred overall optima) must
    // not move for any N.
    let single = fig7_run(&fig7_cfg(1, false));
    assert_eq!(fig7::to_csv(&single), FIG7_CSV, "fig7 CSV diverged at 1 thread");
    let multi = fig7_run(&fig7_cfg(4, false));
    assert_eq!(fig7::to_csv(&multi), FIG7_CSV, "fig7 CSV diverged at 4 threads");
    assert_eq!(fig7::render(&multi), fig7::render(&single), "fig7 report diverged at 4 threads");
}

#[test]
fn fig7_retime_pipeline_matches_execute_mode_csv_and_report() {
    let execute = fig7_run(&fig7_cfg(1, false));
    let (execute_csv, execute_render) = (fig7::to_csv(&execute), fig7::render(&execute));
    for threads in [1, 4] {
        let curves = fig7_run(&fig7_cfg(threads, true));
        assert_eq!(
            fig7::to_csv(&curves),
            execute_csv,
            "fig7 retime CSV diverged at {threads} threads"
        );
        assert_eq!(
            fig7::render(&curves),
            execute_render,
            "fig7 retime report diverged at {threads} threads"
        );
    }
}

#[test]
fn energy_ladder_csv_is_pinned_with_one_eval_per_step() {
    // Each ladder step is simulated exactly once per run (the legacy
    // binary re-simulated the final step for its summary line).
    let steps = fig6::ladder_len();
    let (single, report) = fig6::run_energy_ladder(1, false, None);
    assert_eq!(report.attempts, steps, "energy ladder must simulate each step exactly once");
    assert_eq!(fig6::energy_to_csv(&single), ENERGY_CSV, "energy CSV diverged at 1 thread");
    let (multi, report) = fig6::run_energy_ladder(4, false, None);
    assert_eq!(report.attempts, steps, "each step exactly once at 4 threads");
    assert_eq!(fig6::energy_to_csv(&multi), ENERGY_CSV, "energy CSV diverged at 4 threads");
    assert_eq!(
        fig6::render_energy(&multi),
        fig6::render_energy(&single),
        "energy table diverged at 4 threads"
    );
}

#[test]
fn energy_ladder_retime_pipeline_matches_execute_mode_loss_free() {
    // QuadSPI / Larger Icache / Fast Mult are scored by replaying their
    // retime group's captured KWS trace. The replayed energy estimate
    // rides the memo cache through `EvalResult::{energy_uj, aux}`
    // exactly like the executed one: both the rendered table
    // (total/dynamic/EDP columns rebuilt from the cached bits) and the
    // CSV must be byte-identical, the replayed cycles must match the
    // executed Figure-6 ladder, and each step still counts as exactly
    // one evaluation.
    let (execute, _) = fig6::run_energy_ladder(1, false, None);
    let fig6_cycles: Vec<&str> =
        FIG6_CSV.lines().skip(1).map(|l| l.split(',').nth(1).unwrap()).collect();
    for threads in [1, 4] {
        let (rows, report) = fig6::run_energy_ladder(threads, true, None);
        assert_eq!(
            report.attempts,
            fig6::ladder_len(),
            "retimed energy ladder must count one evaluation per step at {threads} threads"
        );
        let cycles: Vec<String> = rows.iter().map(|r| r.cycles.to_string()).collect();
        assert_eq!(cycles, fig6_cycles, "replayed cycles diverged at {threads} threads");
        assert_eq!(
            fig6::render_energy(&rows),
            fig6::render_energy(&execute),
            "retimed energy table diverged at {threads} threads"
        );
        assert_eq!(
            fig6::energy_to_csv(&rows),
            ENERGY_CSV,
            "retimed energy CSV diverged at {threads} threads"
        );
    }
}
