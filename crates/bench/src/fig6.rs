//! Figure 6: Keyword-Spotting speedup and resource usage on Fomu, and
//! its energy extension.
//!
//! Each table has one driver over the DSE engine: [`run_ladder`] for
//! the performance ladder and [`run_energy_ladder`] for the energy
//! table. Both walk the eight [`Fig6Step`]s as a degenerate one-axis
//! design space through `GridSearch` + `ParallelStudy`, on one inline
//! worker or a pool, with byte-identical rows at any thread count. The
//! energy ladder threads the [`EnergyEstimate`] through
//! `EvalResult::{energy_uj, aux}` and can score a step's timing
//! siblings by trace replay (`retime`). Below the drivers,
//! [`execute_step`] and [`replay_step`] simulate a single step.
//!
//! [`EnergyEstimate`]: cfu_sim::energy::EnergyEstimate

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfu_core::cfu2::Cfu2;
use cfu_core::{Cfu, NullCfu};
use cfu_dse::{EvalResult, Evaluator, StoreContext, StoreKey, StudyReport, StudyStore, TraceStore};
use cfu_mem::SpiWidth;
use cfu_sim::energy::{estimate_core, EnergyParams};
use cfu_sim::{CpuConfig, Multiplier, TimedCore, Trace, TraceReplayer};
use cfu_soc::{Board, Soc, SocBuilder, SocFeatures};
use cfu_tflm::deploy::{ConvKernel, DeployConfig, Deployment, DwKernel, KernelRegistry};
use cfu_tflm::models;

/// One Figure 6 ladder step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig6Step {
    /// Everything in 1-bit-SPI flash, minimal CPU, generic kernels.
    Baseline,
    /// Flash controller upgraded to Quad SPI.
    QuadSpi,
    /// Hot kernel code and model weights moved to the 128 kB SRAM.
    SramOpsAndModel,
    /// A 2 kB I-cache added (paid for by removed debug CSRs).
    LargerIcache,
    /// Single-cycle DSP multiplier (4 of the 8 DSP tiles).
    FastMult,
    /// CFU2's 4-way MAC in conv, single lane in depthwise.
    MacConv,
    /// Accumulator post-processing inside the CFU.
    PostProc,
    /// Compiler specialization of the conv/depthwise kernels.
    SwSpecialize,
}

impl Fig6Step {
    /// All steps in ladder order.
    pub const LADDER: [Fig6Step; 8] = [
        Fig6Step::Baseline,
        Fig6Step::QuadSpi,
        Fig6Step::SramOpsAndModel,
        Fig6Step::LargerIcache,
        Fig6Step::FastMult,
        Fig6Step::MacConv,
        Fig6Step::PostProc,
        Fig6Step::SwSpecialize,
    ];

    /// The Figure 6 label.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Step::Baseline => "Baseline",
            Fig6Step::QuadSpi => "QuadSPI",
            Fig6Step::SramOpsAndModel => "SRAM Ops and Model",
            Fig6Step::LargerIcache => "Larger Icache",
            Fig6Step::FastMult => "Fast Mult",
            Fig6Step::MacConv => "MAC Conv",
            Fig6Step::PostProc => "Post Proc",
            Fig6Step::SwSpecialize => "SW specialize",
        }
    }

    /// SoC feature set at this step.
    pub fn features(self) -> SocFeatures {
        let mut f = SocFeatures::fomu_trimmed();
        if self >= Fig6Step::QuadSpi {
            f.spi_width = SpiWidth::Quad;
        }
        f
    }

    /// CPU configuration at this step.
    pub fn cpu(self) -> CpuConfig {
        let mut cpu = CpuConfig::fomu_baseline();
        if self >= Fig6Step::LargerIcache {
            cpu = CpuConfig::fomu_with_icache(2048);
        }
        if self >= Fig6Step::FastMult {
            cpu = cpu.with_multiplier(Multiplier::SingleCycleDsp);
        }
        cpu
    }

    /// Kernel registry at this step.
    pub fn registry(self) -> KernelRegistry {
        let mut r = KernelRegistry::default();
        if self >= Fig6Step::MacConv {
            let postproc = self >= Fig6Step::PostProc;
            let specialized = self >= Fig6Step::SwSpecialize;
            r.conv = ConvKernel::Cfu2 { postproc, specialized };
            r.dwconv = DwKernel::Cfu2 { postproc, specialized };
        }
        r
    }

    /// The CFU instance at this step.
    pub fn cfu(self) -> Box<dyn Cfu> {
        if self >= Fig6Step::PostProc {
            Box::new(Cfu2::new())
        } else if self >= Fig6Step::MacConv {
            Box::new(Cfu2::mac_only())
        } else {
            Box::new(NullCfu)
        }
    }

    /// Retime-eligibility group: steps in one group run the *same*
    /// committed operation stream (same deployment layout, kernel
    /// registry and CFU) and differ only in timing knobs (SPI width,
    /// I-cache, multiplier) — so one captured trace serves the group.
    ///
    /// * `Baseline`/`QuadSpi` differ only in flash timing;
    /// * `SramOpsAndModel` moves the layout (new stream), then
    ///   `LargerIcache`/`FastMult` only change CPU timing on top of it;
    /// * each kernel/CFU change (`MacConv`, `PostProc`, `SwSpecialize`)
    ///   issues a different stream and gets its own group.
    pub fn retime_group(self) -> u8 {
        match self {
            Fig6Step::Baseline | Fig6Step::QuadSpi => 0,
            Fig6Step::SramOpsAndModel | Fig6Step::LargerIcache | Fig6Step::FastMult => 1,
            Fig6Step::MacConv => 2,
            Fig6Step::PostProc => 3,
            Fig6Step::SwSpecialize => 4,
        }
    }
}

/// Stable on-disk key for the persistent result store: one tag byte in
/// the published ladder order. Appending future steps extends the tags;
/// existing records stay valid.
impl StoreKey for Fig6Step {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Fig6Step::Baseline => 0,
            Fig6Step::QuadSpi => 1,
            Fig6Step::SramOpsAndModel => 2,
            Fig6Step::LargerIcache => 3,
            Fig6Step::FastMult => 4,
            Fig6Step::MacConv => 5,
            Fig6Step::PostProc => 6,
            Fig6Step::SwSpecialize => 7,
        });
    }

    fn decode_key(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(Fig6Step::Baseline),
            [1] => Some(Fig6Step::QuadSpi),
            [2] => Some(Fig6Step::SramOpsAndModel),
            [3] => Some(Fig6Step::LargerIcache),
            [4] => Some(Fig6Step::FastMult),
            [5] => Some(Fig6Step::MacConv),
            [6] => Some(Fig6Step::PostProc),
            [7] => Some(Fig6Step::SwSpecialize),
            _ => None,
        }
    }
}

/// The persistent-store context for the Figure-6 performance ladder.
/// Everything that moves the numbers is a function of the step itself,
/// so a plain workload tag suffices.
pub fn store_context() -> StoreContext {
    StoreContext::new("fig6-kws")
}

/// The persistent-store context for the energy-extension ladder —
/// distinct from [`store_context`] because energy rows carry extra
/// payload (`energy_uj`/`aux`) the performance sweep leaves zero.
pub fn energy_store_context() -> StoreContext {
    StoreContext::new("fig6-kws-energy")
}

impl PartialOrd for Fig6Step {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fig6Step {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

/// One row of the Figure 6 series.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Step label.
    pub label: &'static str,
    /// Whole-inference cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the Fomu clock.
    pub seconds: f64,
    /// Cumulative speedup vs the baseline.
    pub speedup: f64,
    /// SoC LUT usage at this step.
    pub luts: u32,
    /// DSP tiles used.
    pub dsps: u32,
    /// Whether the design fits Fomu.
    pub fits: bool,
}

/// `step`'s SoC with `cpu` in place of the step's own CPU: the fit
/// report reflects `cpu` and the step's CFU, the bus the step's
/// features (SPI width included).
fn soc(step: Fig6Step, cpu: CpuConfig) -> Soc {
    SocBuilder::new(Board::fomu())
        .cpu(cpu)
        .features(step.features())
        .cfu(step.cfu().as_ref())
        .build()
}

/// Executes the KWS workload with `step`'s deployment, kernels and SoC
/// features under `cpu`: pass `step.cpu()` for the rung itself, or
/// another CPU for a *timing sibling* (same committed instruction
/// stream, different timing knobs). With `capture`, the committed
/// operation trace is recorded too, for retime-only replay of the
/// step's siblings (see [`Fig6Step::retime_group`]). Returns the
/// whole-inference cycle count and the trace.
///
/// # Panics
///
/// Panics if deployment or inference fails (a harness-level bug).
pub fn execute_step(step: Fig6Step, cpu: CpuConfig, capture: bool) -> (u64, Option<Trace>) {
    let (cycles, (), trace) = execute(step, cpu, capture, |_| ());
    (cycles, trace)
}

/// [`execute_step`] that also hands the finished core to `measure`.
fn execute<R>(
    step: Fig6Step,
    cpu: CpuConfig,
    capture: bool,
    measure: impl FnOnce(&TimedCore) -> R,
) -> (u64, R, Option<Trace>) {
    let model = models::ds_cnn_kws(1);
    let input = models::synthetic_input(&model, 7);
    // Baseline placement: weights + code execute-in-place from flash,
    // activations in SRAM (the binary image does not fit in 128 kB).
    let mut cfg = DeployConfig::new(cpu, "spiflash", "sram", "spiflash");
    cfg.registry = step.registry();
    if step >= Fig6Step::SramOpsAndModel {
        cfg.hot_code_region = Some("sram".to_owned());
        cfg.hot_weights_region = Some("sram".to_owned());
    }
    let bus = soc(step, cpu).build_bus();
    let mut dep = Deployment::new(model, bus, step.cfu(), &cfg).expect("fig6 deployment");
    let (profile, trace) = if capture {
        let (_, profile, trace) = dep.run_captured(&input).expect("fig6 inference");
        (profile, Some(trace))
    } else {
        (dep.run(&input).expect("fig6 inference").1, None)
    };
    (profile.total_cycles(), measure(dep.core()), trace)
}

/// Retimes a trace captured by [`execute_step`] at `step` (or any
/// member of its retime group) under `cpu` and `step`'s SoC bus.
/// Returns the whole-inference cycle count — bit-identical to
/// executing — or `None` if the replay fails.
pub fn replay_step(step: Fig6Step, cpu: CpuConfig, trace: &Trace) -> Option<u64> {
    replay(step, cpu, trace, |_| ()).map(|(cycles, ())| cycles)
}

/// [`replay_step`] that also hands the replayed core to `measure`.
fn replay<R>(
    step: Fig6Step,
    cpu: CpuConfig,
    trace: &Trace,
    measure: impl FnOnce(&TimedCore) -> R,
) -> Option<(u64, R)> {
    let mut replayer = TraceReplayer::new(cpu, soc(step, cpu).build_bus());
    let cycles = replayer.replay(trace).ok()?.total_cycles();
    Some((cycles, measure(replayer.core())))
}

/// Number of steps in the Figure-6 ladder (progress-readout totals).
pub fn ladder_len() -> u64 {
    Fig6Step::LADDER.len() as u64
}

/// Scores one KWS ladder step: a full DS-CNN inference on the simulated
/// Fomu SoC for `latency`, plus the step's SoC fit report for
/// `resources`/`fits`.
#[derive(Debug, Clone, Copy)]
struct Fig6Evaluator;

impl Evaluator<Fig6Step> for Fig6Evaluator {
    fn evaluate(&mut self, step: &Fig6Step) -> EvalResult {
        let (cycles, _) = execute_step(*step, step.cpu(), false);
        let fit = soc(*step, step.cpu()).fit_report();
        EvalResult {
            latency: cycles,
            resources: fit.used(),
            fits: fit.fits(),
            energy_uj: 0.0,
            aux: 0,
        }
    }
}

/// Runs the whole Figure 6 ladder on `threads` workers (`1` evaluates
/// the steps inline, in ladder order). `progress`, when given, is bumped
/// once per step — the live readout `fig6_kws_ladder --threads` prints
/// to stderr. `store` (context: [`store_context`]) persists freshly
/// simulated steps, and a resume-mode handle hydrates prior ones so a
/// warm ladder performs no simulation. Rows are byte-identical either
/// way and at any thread count.
///
/// # Panics
///
/// Panics if a step fails to deploy or run (a harness-level bug).
pub fn run_ladder(
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<StudyStore<Fig6Step>>>,
) -> Vec<Fig6Row> {
    let study =
        crate::run_ladder_study(&Fig6Step::LADDER, threads, progress, store, &|| Fig6Evaluator);
    let clock_hz = Board::fomu().clock_hz as f64;
    let baseline =
        study.cache().get(&Fig6Step::Baseline).expect("engine evaluated the baseline step").latency;
    Fig6Step::LADDER
        .iter()
        .map(|step| {
            let r = study.cache().get(step).expect("engine evaluated every ladder step");
            Fig6Row {
                label: step.label(),
                cycles: r.latency,
                seconds: r.latency as f64 / clock_hz,
                speedup: baseline as f64 / r.latency.max(1) as f64,
                luts: r.resources.luts,
                dsps: r.resources.dsps,
                fits: r.fits,
            }
        })
        .collect()
}

/// Capture-or-replay scaffolding for retimed evaluation: the first
/// point of each retime group runs `capture` (its live result is the
/// point's score and the trace is published), timing siblings run
/// `replay` on the shared trace, and a failed or ineligible capture
/// sends every point in the group through `fallback` (plain execution).
fn capture_or_replay<R>(
    store: &TraceStore<u8>,
    group: u8,
    capture: impl FnOnce() -> (R, Trace),
    replay: impl FnOnce(&Trace) -> Option<R>,
    fallback: impl FnOnce() -> R,
) -> R {
    let slot = store.slot(group);
    let mut own = None;
    let shared = slot
        .get_or_init(|| {
            store.begin_capture();
            let (result, trace) = capture();
            own = Some(result);
            store.finish_capture();
            Some(Arc::new(trace)).filter(|t| t.retime_safe())
        })
        .clone();
    if let Some(result) = own {
        return result;
    }
    if let Some(trace) = shared {
        if let Some(result) = replay(&trace) {
            store.note_replay();
            return result;
        }
    }
    fallback()
}

/// One row of the energy-extension table (paper §V future work): the
/// Figure-6 step re-measured under the iCE40 energy model.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Step label.
    pub label: &'static str,
    /// Whole-inference cycles.
    pub cycles: u64,
    /// Total (dynamic + static) energy in microjoules.
    pub total_uj: f64,
    /// Dynamic (activity-proportional) energy in microjoules.
    pub dynamic_uj: f64,
    /// Average power in milliwatts at the Fomu clock.
    pub avg_mw: f64,
    /// Energy-delay product in microjoule-seconds.
    pub edp_ujs: f64,
}

/// Scores one energy-ladder step: a full DS-CNN inference plus the
/// iCE40 energy estimate. The [`EnergyEstimate`] rides through the
/// engine inside the [`EvalResult`]: `energy_uj` carries the total and
/// `aux` the bit pattern of the dynamic component, so the table rows
/// can be rebuilt loss-free from the memo cache.
///
/// With a trace store, the first step of each [`Fig6Step::retime_group`]
/// executes the guest (capturing its operation trace) and the group's
/// timing siblings replay that trace instead; the replayed estimate is
/// bit-identical to the executed one.
#[derive(Debug, Clone)]
struct EnergyLadderEvaluator {
    traces: Option<Arc<TraceStore<u8>>>,
}

impl Evaluator<Fig6Step> for EnergyLadderEvaluator {
    fn evaluate(&mut self, step: &Fig6Step) -> EvalResult {
        let (step, cpu) = (*step, step.cpu());
        let fit = soc(step, cpu).fit_report();
        let params = EnergyParams::ice40();
        let energy = |core: &TimedCore| estimate_core(core, fit.used(), &params);
        let execute_plain = || {
            let (cycles, e, _) = execute(step, cpu, false, energy);
            (cycles, e)
        };
        let (cycles, e) = match &self.traces {
            None => execute_plain(),
            Some(traces) => capture_or_replay(
                traces,
                step.retime_group(),
                || {
                    let (cycles, e, trace) = execute(step, cpu, true, energy);
                    ((cycles, e), trace.expect("capture requested"))
                },
                |trace| replay(step, cpu, trace, energy),
                execute_plain,
            ),
        };
        EvalResult {
            latency: cycles,
            resources: fit.used(),
            fits: fit.fits(),
            energy_uj: e.total_uj(),
            aux: e.dynamic_bits(),
        }
    }
}

/// Runs the energy ladder on `threads` workers (`1` evaluates inline).
/// With `retime`, only the first step of each retime group executes the
/// guest and its timing siblings are scored by trace replay. `store`
/// (context: [`energy_store_context`]) persists freshly simulated steps,
/// and a resume-mode handle hydrates prior ones so a warm table
/// re-renders with zero simulations and zero trace captures. Rows are
/// byte-identical in every combination and at any thread count.
///
/// Returns the rows and the study's [`StudyReport`], whose `attempts`
/// counts the steps this run simulated (executed or replayed; store
/// hits excluded) — each step at most once.
///
/// # Panics
///
/// Panics if a step fails to deploy or run (a harness-level bug).
pub fn run_energy_ladder(
    threads: usize,
    retime: bool,
    store: Option<Arc<StudyStore<Fig6Step>>>,
) -> (Vec<EnergyRow>, StudyReport<Fig6Step>) {
    let traces = retime.then(|| Arc::new(TraceStore::new()));
    let factory = move || EnergyLadderEvaluator { traces: traces.clone() };
    let study = crate::run_ladder_study(&Fig6Step::LADDER, threads, None, store, &factory);
    let clock_hz = Board::fomu().clock_hz as f64;
    let rows = Fig6Step::LADDER
        .iter()
        .map(|step| {
            let r = study.cache().get(step).expect("engine evaluated every ladder step");
            let (cycles, total_uj) = (r.latency, r.energy_uj);
            let seconds = cycles as f64 / clock_hz;
            let avg_mw = if cycles == 0 { 0.0 } else { total_uj / 1e3 / seconds };
            EnergyRow {
                label: step.label(),
                cycles,
                total_uj,
                dynamic_uj: f64::from_bits(r.aux),
                avg_mw,
                edp_ujs: total_uj * seconds,
            }
        })
        .collect();
    (rows, study.report())
}

/// Renders the energy table exactly as `table_energy_ladder` prints it,
/// including the baseline→final reduction summary (computed from the
/// captured rows — no step is re-simulated).
pub fn render_energy(rows: &[EnergyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>10} {:>10} {:>9} {:>12}\n",
        "step", "cycles", "µJ total", "µJ dyn", "avg mW", "EDP µJ·s"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>14} {:>10.1} {:>10.1} {:>9.3} {:>12.3}\n",
            r.label, r.cycles, r.total_uj, r.dynamic_uj, r.avg_mw, r.edp_ujs,
        ));
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        out.push_str(&format!(
            "\nenergy reduction, baseline → final: {:.1}x\n",
            first.total_uj / last.total_uj
        ));
    }
    out
}

/// Renders the energy ladder as CSV for plotting.
pub fn energy_to_csv(rows: &[EnergyRow]) -> String {
    let mut out = String::from("step,cycles,total_uj,dynamic_uj,avg_mw,edp_ujs\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6}\n",
            r.label, r.cycles, r.total_uj, r.dynamic_uj, r.avg_mw, r.edp_ujs
        ));
    }
    out
}

/// Renders the ladder as CSV for plotting.
pub fn to_csv(rows: &[Fig6Row]) -> String {
    let mut out = String::from("step,cycles,seconds,speedup,luts,dsps,fits\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{},{},{}\n",
            r.label, r.cycles, r.seconds, r.speedup, r.luts, r.dsps, r.fits
        ));
    }
    out
}

/// Pretty-prints the ladder.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>9} {:>9} {:>7} {:>5} {:>5}\n",
        "step", "cycles", "seconds", "speedup", "LUTs", "DSPs", "fits"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>14} {:>8.2}s {:>8.2}x {:>7} {:>5} {:>5}\n",
            r.label, r.cycles, r.seconds, r.speedup, r.luts, r.dsps, r.fits
        ));
    }
    out
}
