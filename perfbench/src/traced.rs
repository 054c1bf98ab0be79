//! The traced run: per-layer host time and exact counts.
//!
//! It first invokes the figure binaries once each, untimed: the ladder
//! (whose CSV rows the in-process ladder must reproduce), a cold
//! Figure-7 run into a fresh store, and a warm `--resume` run over it.
//! Then it calls each layer's public functions in-process, with a span
//! around every call: a MobileNetV2 deployment and inference per
//! ladder step on `TimedCore`; a re-evaluation of every point the cold
//! run stored, one evaluator per curve, asserting each result equals the
//! stored one; the store's read and write paths; and the two ISS MAC
//! loops, twice. Count metrics must be identical in both passes; any
//! drift is a failed operation. Times are the mean of the two passes.
//! Allocations are counted around the library call alone, never around
//! the tracer's own bookkeeping.

use std::collections::BTreeMap;
use std::path::Path;

use cfu_core::cfu1::Cfu1;
use cfu_core::{Cfu, NullCfu};
use cfu_dse::{
    key_fingerprint, CfuChoice, DesignPoint, Evaluator, EvaluatorFactory,
    InferenceEvaluatorFactory, ResultStore, StoreContext,
};
use cfu_sim::CpuConfig;
use cfu_soc::Board;
use cfu_tflm::deploy::{DeployConfig, Deployment, KernelRegistry};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::model::OpKind;
use cfu_tflm::models;

use crate::iss;
use crate::trace::{allocations, Tracer};
use crate::workloads::{file_len, invoke, CsvCheck, Env, LADDER_HW};

/// Input resolution `fig7_dse_pareto` uses by default.
const FIG7_HW: usize = 16;
/// The Figure-7 curves, in the order of their store contexts.
const CURVES: [CfuChoice; 3] = [CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2];

/// Metric name of a ladder step's `TimedCore` run time.
pub fn step_metric(variant: Conv1x1Variant) -> String {
    format!("sim.timed_core.step_s.{variant:?}")
}

/// Outcome of the traced run.
#[derive(Debug, Default)]
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Traced {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

/// What one in-process pass measured.
#[derive(Debug, Default)]
struct Pass {
    counts: BTreeMap<&'static str, u64>,
    step_s: BTreeMap<String, f64>,
    errors: Vec<String>,
}

impl Pass {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// `(conv1x1_cycles, total_cycles)` per row of a Figure-4 CSV.
fn ladder_rows(csv: &[u8]) -> Vec<(u64, u64)> {
    String::from_utf8_lossy(csv)
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            Some((cols.get(1)?.parse().ok()?, cols.get(3)?.parse().ok()?))
        })
        .collect()
}

fn ladder_pass(t: &mut Tracer, rows: &[(u64, u64)], p: &mut Pass) {
    for (i, variant) in Conv1x1Variant::LADDER.into_iter().enumerate() {
        let model = t.span("tflm.model_build", |_| models::mobilenet_v2(LADDER_HW, 2, 1));
        let input = models::synthetic_input(&model, 42);
        let (deployed, allocs) = t.span("tflm.deploy", |_| {
            let before = allocations();
            let bus = Board::arty_a7_35t().build_bus(None);
            let mut cfg =
                DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
            cfg.registry = KernelRegistry { conv1x1: Some(variant), ..Default::default() };
            let cfu: Box<dyn Cfu> = match variant.required_stage() {
                Some(stage) => Box::new(Cfu1::new(stage)),
                None => Box::new(NullCfu),
            };
            let deployed = Deployment::new(model, bus, cfu, &cfg);
            (deployed, allocations() - before)
        });
        p.add("tflm.deploy.allocs", allocs);
        let mut dep = match deployed {
            Ok(dep) => dep,
            Err(e) => {
                p.errors.push(format!("{variant:?}: deployment failed: {e}"));
                continue;
            }
        };
        let id = t.enter("sim.timed_core.run");
        let before = allocations();
        let ran = dep.run(&input);
        let allocs = allocations() - before;
        t.exit_as(id, "sim.timed_core.run");
        p.add("sim.timed_core.run_allocs", allocs);
        p.step_s.insert(step_metric(variant), t.seconds(id));
        let profile = match ran {
            Ok((_, profile)) => profile,
            Err(e) => {
                p.errors.push(format!("{variant:?}: inference failed: {e}"));
                continue;
            }
        };
        let total = profile.total_cycles();
        let conv1x1 = profile.cycles_for(OpKind::Conv2d1x1);
        let conv = profile.cycles_for(OpKind::Conv2d);
        let dwconv = profile.cycles_for(OpKind::DepthwiseConv2d);
        if rows.get(i) != Some(&(conv1x1, total)) {
            p.errors.push(format!(
                "{variant:?}: in-process cycles ({conv1x1}, {total}) differ from the CSV row {:?}",
                rows.get(i)
            ));
        }
        let core = dep.core();
        let stats = core.stats();
        let icache = core.icache_stats().unwrap_or_default();
        let dcache = core.dcache_stats().unwrap_or_default();
        p.add("sim.timed_core.guest_cycles", total);
        p.add("sim.timed_core.guest_instructions", stats.instructions);
        p.add("sim.timed_core.guest_cycles.conv1x1", conv1x1);
        p.add("sim.timed_core.guest_cycles.conv", conv);
        p.add("sim.timed_core.guest_cycles.dwconv", dwconv);
        p.add("sim.timed_core.guest_cycles.rest", total - conv1x1 - conv - dwconv);
        p.add("mem.icache.accesses", icache.accesses());
        p.add("mem.icache.misses", icache.misses);
        p.add("mem.dcache.accesses", dcache.accesses());
        p.add("mem.dcache.misses", dcache.misses);
        p.add("sim.bpred.mispredicts", stats.mispredicts);
    }
}

fn dse_pass(t: &mut Tracer, cold_store: &Path, rewrite: &Path, p: &mut Pass) {
    let store = match t.span("dse.store.open", |_| ResultStore::open(cold_store)) {
        Ok(store) => store,
        Err(e) => {
            p.errors.push(format!("cannot open {}: {e}", cold_store.display()));
            return;
        }
    };
    p.add("dse.store.records", store.len() as u64);
    p.add("dse.store.file_bytes", file_len(cold_store).unwrap_or(0));
    let _ = std::fs::remove_file(rewrite);
    let sink = match ResultStore::open(rewrite) {
        Ok(sink) => sink,
        Err(e) => {
            p.errors.push(format!("cannot create {}: {e}", rewrite.display()));
            return;
        }
    };
    for (i, choice) in CURVES.into_iter().enumerate() {
        let ctx = StoreContext::new(format!("fig7-mnv2-hw{FIG7_HW}-cfu{i}"));
        let mut points = t.span("dse.store.entries", |_| store.entries::<DesignPoint>(&ctx));
        // The index is a hash map: fix the order so every pass does the
        // same work in the same sequence.
        points.sort_by_key(|(point, _)| key_fingerprint(point));
        if points.is_empty() {
            p.errors.push(format!("the cold store holds no points for curve {i}"));
            continue;
        }
        let (factory, mut eval) = t.span("dse.eval.factory", |t| {
            let model = t.span("tflm.model_build", |_| models::mobilenet_v2(FIG7_HW, 2, 1));
            let input = models::synthetic_input(&model, 5);
            let factory = InferenceEvaluatorFactory::new(Board::arty_a7_35t(), model, input)
                .with_retime(true);
            let eval = factory.make_evaluator();
            (factory, eval)
        });
        let traces = factory.trace_store().expect("retime is on");
        for (point, stored) in &points {
            let (captures, replays) = (traces.captures(), traces.replays());
            let id = t.enter("dse.eval");
            let before = allocations();
            let got = eval.try_evaluate(point);
            let allocs = allocations() - before;
            let kind = if traces.captures() > captures {
                "sim.retime.capture"
            } else if traces.replays() > replays {
                "sim.retime.replay"
            } else {
                "dse.eval.execute"
            };
            t.exit_as(id, kind);
            if kind == "sim.retime.replay" {
                p.add("replay_allocs", allocs);
                p.add("replayed_guest_cycles", stored.latency);
            }
            match got {
                Ok(result) if result == *stored => p.add("dse.eval.points", 1),
                other => p.errors.push(format!("{point:?}: got {other:?}, stored {stored:?}")),
            }
        }
        p.add("sim.retime.captures", traces.captures());
        p.add("sim.retime.replays", traces.replays());
        let words = traces.slot(choice).get().and_then(Option::as_ref).map_or(0, |tr| tr.words());
        p.add("sim.retime.trace_words", words as u64);
        for (point, stored) in &points {
            let (captures, replays) = (traces.captures(), traces.replays());
            let got = t.span("dse.eval.memo", |_| eval.try_evaluate(point));
            let untouched = (traces.captures(), traces.replays()) == (captures, replays);
            if untouched && got.as_ref() == Ok(stored) {
                p.add("dse.eval.memo_hits", 1);
            }
        }
        for (point, stored) in &points {
            let (flushed, allocs) = t.span("dse.store.put_flush", |_| {
                let before = allocations();
                sink.put(&ctx, point, *stored);
                let flushed = sink.flush();
                (flushed, allocations() - before)
            });
            p.add("put_allocs", allocs);
            p.add("puts", 1);
            if let Err(e) = flushed {
                p.errors.push(format!("flush to {} failed: {e}", rewrite.display()));
            }
        }
    }
    drop(sink);
    let (cold, rewritten) = (file_len(cold_store), file_len(rewrite));
    if cold != rewritten {
        p.errors
            .push(format!("re-stored points take {rewritten:?} bytes, the cold store {cold:?}"));
    }
}

fn iss_pass(t: &mut Tracer, seed: u64, p: &mut Pass) {
    let expected = iss::expected_accumulator(seed);
    for mac in &iss::LOOPS {
        let mut cpu = t.span("sim.cpu.setup", |_| iss::prepare(mac, seed));
        let (ran, allocs) = t.span("sim.cpu.run", |_| {
            let before = allocations();
            let ran = iss::run(&mut cpu);
            (ran, allocations() - before)
        });
        p.add("sim.cpu.run_allocs", allocs);
        match ran {
            Ok(o) => {
                if o.accumulator != expected {
                    p.errors
                        .push(format!("{}: accumulator {} != {expected}", mac.name, o.accumulator));
                }
                p.add("sim.cpu.guest_instructions", o.instructions);
                p.add("sim.cpu.guest_cycles", o.cycles);
                p.add("sim.cpu.icache_misses", o.icache_misses);
                p.add("sim.cpu.dcache_misses", o.dcache_misses);
                p.add("sim.cpu.mispredicts", o.mispredicts);
            }
            Err(e) => p.errors.push(format!("{}: {e}", mac.name)),
        }
    }
}

/// Count metrics reported as they are.
const COUNTS: [&str; 26] = [
    "tflm.deploy.allocs",
    "sim.timed_core.run_allocs",
    "sim.timed_core.guest_cycles",
    "sim.timed_core.guest_instructions",
    "sim.timed_core.guest_cycles.conv1x1",
    "sim.timed_core.guest_cycles.conv",
    "sim.timed_core.guest_cycles.dwconv",
    "sim.timed_core.guest_cycles.rest",
    "mem.icache.accesses",
    "mem.icache.misses",
    "mem.dcache.accesses",
    "mem.dcache.misses",
    "sim.bpred.mispredicts",
    "sim.retime.captures",
    "sim.retime.replays",
    "sim.retime.trace_words",
    "dse.eval.points",
    "dse.eval.memo_hits",
    "dse.store.records",
    "dse.store.file_bytes",
    "sim.cpu.run_allocs",
    "sim.cpu.guest_instructions",
    "sim.cpu.guest_cycles",
    "sim.cpu.icache_misses",
    "sim.cpu.dcache_misses",
    "sim.cpu.mispredicts",
];

/// Per-layer self time of one pass, plus its ratios.
fn pass_seconds(t: &Tracer, run: u32, p: &Pass) -> BTreeMap<String, f64> {
    let own = t.self_seconds(run);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mut out: BTreeMap<String, f64> = p.step_s.clone();
    for (metric, span) in [
        ("tflm.model_build.s", "tflm.model_build"),
        ("tflm.deploy.s", "tflm.deploy"),
        ("sim.timed_core.run_s", "sim.timed_core.run"),
        ("sim.retime.capture_s", "sim.retime.capture"),
        ("sim.retime.replay_s", "sim.retime.replay"),
        ("dse.eval.factory_s", "dse.eval.factory"),
        ("dse.store.open_s", "dse.store.open"),
        ("dse.store.put_flush_s", "dse.store.put_flush"),
        ("sim.cpu.run_s", "sim.cpu.run"),
    ] {
        out.insert(metric.to_owned(), s(span));
    }
    let eval_s = s("sim.retime.capture")
        + s("sim.retime.replay")
        + s("dse.eval.execute")
        + s("dse.eval.memo");
    out.insert("dse.eval.s".to_owned(), eval_s);
    // The store reads a warm resume performs: open plus one hydrate per curve.
    out.insert("warm_store_reads_s".to_owned(), s("dse.store.open") + s("dse.store.entries"));
    out.insert(
        "sim.timed_core.host_ns_per_guest_cycle".to_owned(),
        per(s("sim.timed_core.run") * 1e9, p.count("sim.timed_core.guest_cycles")),
    );
    out.insert(
        "sim.retime.replay_ns_per_guest_cycle".to_owned(),
        per(s("sim.retime.replay") * 1e9, p.count("replayed_guest_cycles")),
    );
    out.insert(
        "sim.cpu.host_ns_per_guest_instruction".to_owned(),
        per(s("sim.cpu.run") * 1e9, p.count("sim.cpu.guest_instructions")),
    );
    out
}

/// Runs the traced run; spans are written to `spans_out`.
pub fn run(env: &Env, spans_out: &Path) -> Traced {
    let mut traced = Traced::default();
    let mut t = Tracer::new();

    // Untimed invocations of the binaries.
    traced.attempted += 3;
    let ladder_csv = env.path("ladder.csv");
    let rows = t
        .span("proc.fig4_mnv2_ladder", |_| invoke(&mut env.fig4(&ladder_csv)))
        .and_then(|_| CsvCheck::ladder().check(&ladder_csv))
        .map(|csv| ladder_rows(&csv))
        .unwrap_or_else(|e| {
            traced.fail(format!("ladder: {e}"));
            Vec::new()
        });
    let (store, cold_csv, warm_csv) =
        (env.path("traced.store"), env.path("cold.csv"), env.path("warm.csv"));
    let _ = std::fs::remove_file(&store);
    let mut fig7 = CsvCheck::fig7();
    let cold = t
        .span("proc.fig7_dse_pareto.cold", |_| invoke(&mut env.fig7(&store, &cold_csv, false)))
        .and_then(|m| Ok((m, fig7.check(&cold_csv)?, file_len(&store)?)));
    let threads_max = match &cold {
        Ok((m, _, _)) => m.threads_max,
        Err(e) => {
            traced.fail(format!("cold fig7: {e}"));
            0
        }
    };
    let warm = t
        .span("proc.fig7_dse_pareto.warm", |_| invoke(&mut env.fig7(&store, &warm_csv, true)))
        .and_then(|m| {
            let csv = fig7.check(&warm_csv)?;
            let (_, cold_csv, cold_len) = cold.as_ref().map_err(Clone::clone)?;
            if &csv != cold_csv || file_len(&store)? != *cold_len {
                return Err("warm run changed the CSV or the store".to_owned());
            }
            Ok(m.wall_s)
        });
    let warm_wall = warm.unwrap_or_else(|e| {
        traced.fail(format!("warm fig7: {e}"));
        0.0
    });

    // Two in-process passes over every layer; a count of the second pass
    // that differs from the first is an error of the second pass.
    let mut passes: Vec<Pass> = Vec::new();
    for run in 1..=2 {
        traced.attempted += 1;
        t.set_run(run);
        let mut pass = Pass::default();
        ladder_pass(&mut t, &rows, &mut pass);
        dse_pass(&mut t, &store, &env.path("rewrite.store"), &mut pass);
        iss_pass(&mut t, env.seed, &mut pass);
        if let Some(first) = passes.first() {
            let drift: Vec<String> = first
                .counts
                .iter()
                .filter(|(k, v)| pass.counts.get(*k) != Some(v))
                .map(|(k, v)| format!("{k} drifted from {v} to {:?}", pass.counts.get(*k)))
                .collect();
            pass.errors.extend(drift);
        }
        if !pass.errors.is_empty() {
            traced.fail(format!("pass {run}: {}", pass.errors.join("; ")));
        }
        passes.push(pass);
    }

    let first = &passes[0];
    let seconds: Vec<BTreeMap<String, f64>> =
        passes.iter().zip(1..).map(|(p, run)| pass_seconds(&t, run, p)).collect();
    for (name, value) in &seconds[0] {
        let mean = (value + seconds[1].get(name).copied().unwrap_or(*value)) / 2.0;
        traced.metrics.insert(name.clone(), mean);
    }
    for key in COUNTS {
        traced.metrics.insert(key.to_owned(), first.count(key) as f64);
    }
    let per = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    traced.metrics.insert(
        "sim.retime.allocs_per_replay".to_owned(),
        per(first.count("replay_allocs"), first.count("sim.retime.replays")),
    );
    traced.metrics.insert(
        "dse.store.allocs_per_put".to_owned(),
        per(first.count("put_allocs"), first.count("puts")),
    );
    let reads = traced.metrics.remove("warm_store_reads_s").unwrap_or(0.0);
    traced.metrics.insert("dse.engine.residual_s".to_owned(), warm_wall - reads);
    traced.metrics.insert("proc.threads_max".to_owned(), threads_max as f64);

    if let Err(e) = t.write_tsv(spans_out) {
        traced.errors.push(format!("cannot write spans to {}: {e}", spans_out.display()));
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_ladder_rows_from_csv() {
        let csv = b"step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps\n\
            Baseline,17820322,1.0000,20768144,1.0000,0,0\nSW,7208182,2.4722,10156004,2.0449,0,0\n";
        assert_eq!(ladder_rows(csv), vec![(17_820_322, 20_768_144), (7_208_182, 10_156_004)]);
    }

    #[test]
    fn step_metric_names_are_valid() {
        for v in Conv1x1Variant::LADDER {
            assert!(crate::metrics::valid_name(&step_metric(v)), "{v:?}");
        }
    }
}
