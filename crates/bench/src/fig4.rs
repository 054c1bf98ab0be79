//! Figure 4: MobileNetV2 1x1 CONV_2D speedup and resource usage per
//! ladder step, on the Arty A7-35T.
//!
//! [`run_ladder`] is the one driver: the ten kernel variants form a
//! degenerate one-axis design space that `GridSearch` + `ParallelStudy`
//! walk in ladder order, on one inline worker or a pool. Rows are
//! byte-identical at any thread count (pinned in
//! `tests/ladder_parallel.rs`).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfu_core::cfu1::Cfu1;
use cfu_core::{Cfu, NullCfu, Resources};
use cfu_dse::{
    key_fingerprint, CfuChoice, DesignPoint, EvalResult, Evaluator, StoreContext, StudyStore,
};
use cfu_sim::CpuConfig;
use cfu_soc::Board;
use cfu_tflm::deploy::{DeployConfig, Deployment, KernelRegistry};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::model::OpKind;
use cfu_tflm::models;

/// One row of the Figure 4 series.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Ladder step label (Figure 4 x-axis).
    pub label: &'static str,
    /// Cycles spent in 1x1 CONV_2D operators for one inference.
    pub conv1x1_cycles: u64,
    /// Whole-model cycles for one inference.
    pub total_cycles: u64,
    /// Speedup of the 1x1 operator vs the baseline row.
    pub operator_speedup: f64,
    /// Whole-model speedup vs the baseline row.
    pub overall_speedup: f64,
    /// CFU resources at this step (the Figure 4 resource curve).
    pub cfu_resources: Resources,
}

/// Number of steps in the Figure-4 ladder (progress-readout totals).
pub fn ladder_len() -> u64 {
    Conv1x1Variant::LADDER.len() as u64
}

/// Scores one ladder step by a full MobileNetV2 inference on the
/// simulated Arty SoC. `latency` carries whole-model cycles, `aux` the
/// 1x1-CONV_2D operator cycles, `resources` the CFU cost of the step.
#[derive(Debug, Clone, Copy)]
struct Fig4Evaluator {
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
}

impl Evaluator<Conv1x1Variant> for Fig4Evaluator {
    fn evaluate(&mut self, variant: &Conv1x1Variant) -> EvalResult {
        let model = if self.full_width {
            models::mobilenet_v2_full(self.input_hw, 2, 1)
        } else {
            models::mobilenet_v2(self.input_hw, 2, 1)
        };
        let input = models::synthetic_input(&model, 42);
        let bus = Board::arty_a7_35t().build_bus(None);
        let mut cfg = DeployConfig::new(self.cpu, "main_ram", "main_ram", "main_ram");
        cfg.registry = KernelRegistry { conv1x1: Some(*variant), ..Default::default() };
        let cfu: Box<dyn Cfu> = match variant.required_stage() {
            Some(stage) => Box::new(Cfu1::new(stage)),
            None => Box::new(NullCfu),
        };
        let cfu_resources = cfu.resources();
        let mut dep = Deployment::new(model, bus, cfu, &cfg).expect("fig4 deployment");
        let (_, profile) = dep.run(&input).expect("fig4 inference");
        EvalResult {
            latency: profile.total_cycles(),
            resources: cfu_resources,
            fits: true,
            energy_uj: 0.0,
            aux: profile.cycles_for(OpKind::Conv2d1x1),
        }
    }
}

/// The persistent-store context for a Figure-4 sweep. The ladder's
/// searched axis is only the kernel variant, so everything else that
/// moves the numbers — input resolution, model width, and the fixed CPU
/// configuration — goes into the workload tag. The CPU is folded in by
/// its [`StoreKey`](cfu_dse::StoreKey) fingerprint, which excludes
/// host-only knobs such as [`CpuConfig::decode_cache`].
pub fn store_context(cpu: CpuConfig, input_hw: usize, full_width: bool) -> StoreContext {
    let fp = key_fingerprint(&DesignPoint { cpu, cfu: CfuChoice::None });
    let width = if full_width { "100" } else { "035" };
    StoreContext::new(format!("fig4-mnv2-hw{input_hw}-w{width}-cpu{fp:016x}"))
}

/// Runs the whole ladder at the given input resolution on `cpu`.
/// `full_width` selects the width-1.0 MobileNetV2 (the paper-scale
/// workload); width 0.35 keeps smoke tests fast.
///
/// The steps evaluate on `threads` workers (`1` runs them inline, in
/// ladder order). `progress`, when given, is bumped once per step — the
/// live readout `fig4_mnv2_ladder --threads` prints to stderr. `store`
/// (see [`store_context`] for what keys its records) persists freshly
/// simulated steps, and a resume-mode handle hydrates prior ones so a
/// warm ladder performs no simulation. Rows are byte-identical for any
/// `threads` and any store state.
///
/// # Panics
///
/// Panics if a step fails to deploy or run (a harness-level bug).
pub fn run_ladder(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<StudyStore<Conv1x1Variant>>>,
) -> Vec<Fig4Row> {
    let factory = move || Fig4Evaluator { cpu, input_hw, full_width };
    let study =
        crate::run_ladder_study(&Conv1x1Variant::LADDER, threads, progress, store, &factory);
    let mut rows = Vec::new();
    let mut baseline_conv = 0u64;
    let mut baseline_total = 0u64;
    for variant in Conv1x1Variant::LADDER {
        let r = study.cache().get(&variant).expect("engine evaluated every ladder step");
        if variant == Conv1x1Variant::Generic {
            baseline_conv = r.aux;
            baseline_total = r.latency;
        }
        rows.push(Fig4Row {
            label: variant.label(),
            conv1x1_cycles: r.aux,
            total_cycles: r.latency,
            operator_speedup: baseline_conv as f64 / r.aux.max(1) as f64,
            overall_speedup: baseline_total as f64 / r.latency.max(1) as f64,
            cfu_resources: r.resources,
        });
    }
    rows
}

/// Renders the ladder as CSV (one row per step) for plotting.
pub fn to_csv(rows: &[Fig4Row]) -> String {
    let mut out = String::from(
        "step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{},{:.4},{},{}\n",
            r.label,
            r.conv1x1_cycles,
            r.operator_speedup,
            r.total_cycles,
            r.overall_speedup,
            r.cfu_resources.luts,
            r.cfu_resources.dsps,
        ));
    }
    out
}

/// Pretty-prints the ladder like the paper's figure caption.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>15} {:>10} {:>9} {:>8} {:>6}\n",
        "step", "1x1 conv cycles", "speedup", "overall", "LUTs", "DSPs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>15} {:>9.2}x {:>8.2}x {:>8} {:>6}\n",
            r.label,
            r.conv1x1_cycles,
            r.operator_speedup,
            r.overall_speedup,
            r.cfu_resources.luts,
            r.cfu_resources.dsps,
        ));
    }
    out
}
