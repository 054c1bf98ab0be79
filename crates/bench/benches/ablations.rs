//! Ablation benches for the design choices DESIGN.md calls out:
//! cache-geometry sweeps, branch-predictor sweeps, ISS throughput
//! (instructions simulated per wall-second), and parallel-DSE scaling
//! across worker-thread counts.

use criterion::{criterion_group, criterion_main, Criterion};

use cfu_dse::{
    DesignSpace, InferenceEvaluatorFactory, ParallelStudy, RandomSearch, RegularizedEvolution,
    ResourceEvaluator, RidgeSurrogate, SurrogateStudy,
};
use cfu_isa::Assembler;
use cfu_mem::{Bus, Cache, CacheConfig, Sram};
use cfu_sim::{BranchPredictor, Cpu, CpuConfig, TimedCore};
use cfu_soc::Board;
use cfu_tflm::models;

fn sram_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(256 << 10));
    bus
}

fn bench_iss_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_iss_throughput");
    group.sample_size(20);
    let program = Assembler::new(0)
        .assemble(
            "li t0, 20000
             li t3, 0x1000
            loop:
             addi t0, t0, -1
             mul t1, t0, t0
             sw t1, 0(t3)
             lw t2, 0(t3)
             bnez t0, loop
             li a7, 93
             ecall",
        )
        .unwrap();
    group.bench_function("iss_100k_instructions", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
            cpu.load_program(&program).unwrap();
            cpu.run(200_000).unwrap();
            std::hint::black_box(cpu.cycles())
        });
    });
    group.finish();
}

fn bench_cache_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_cache_sweep");
    group.sample_size(20);
    for size in [1024u32, 4096, 16384] {
        group.bench_function(format!("strided_access_{size}B"), |b| {
            b.iter(|| {
                let mut cache =
                    Cache::new(CacheConfig { size_bytes: size, ways: 2, line_bytes: 32 });
                for pass in 0..8u32 {
                    for addr in (0..16384u32).step_by(64) {
                        cache.access(addr.wrapping_add(pass));
                    }
                }
                std::hint::black_box(cache.stats().hit_rate())
            });
        });
    }
    group.finish();
}

fn bench_bpred_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_bpred_sweep");
    group.sample_size(20);
    let kinds = [
        ("none", BranchPredictor::None),
        ("static", BranchPredictor::Static),
        ("dynamic", BranchPredictor::Dynamic { entries: 64 }),
        ("dynamic_target", BranchPredictor::DynamicTarget { entries: 64 }),
    ];
    for (name, kind) in kinds {
        group.bench_function(format!("loop_branches_{name}"), |b| {
            b.iter(|| {
                let cfg = CpuConfig { branch_predictor: kind, ..CpuConfig::arty_default() };
                let mut core = TimedCore::new(cfg, sram_bus());
                core.set_code_region(0, 1024).unwrap();
                for i in 0..20_000u32 {
                    core.branch(3, true, i % 100 != 99).unwrap();
                }
                std::hint::black_box(core.cycles())
            });
        });
    }
    group.finish();
}

fn bench_rvc_density(c: &mut Criterion) {
    // Extension ablation: RV32C roughly quarters-off XIP fetch traffic.
    let mut group = c.benchmark_group("abl_rvc_density");
    group.sample_size(20);
    for (name, compressed) in [("rv32im", false), ("rv32imc", true)] {
        group.bench_function(format!("xip_fetch_{name}"), |b| {
            b.iter(|| {
                let mut bus = Bus::new();
                bus.map("flash", 0, cfu_mem::SpiFlash::new(1 << 20, cfu_mem::SpiWidth::Quad));
                bus.map("sram", 0x1000_0000, Sram::new(4096));
                let cfg = CpuConfig::fomu_baseline().with_compressed(compressed);
                let mut core = TimedCore::new(cfg, bus);
                core.set_code_region(0, 4096).unwrap();
                core.alu(20_000).unwrap();
                std::hint::black_box(core.cycles())
            });
        });
    }
    group.finish();
}

fn bench_dse_scaling(c: &mut Criterion) {
    // Tentpole ablation: the batched DSE engine at 1/2/4/8 workers.
    // Fronts are bit-identical across rows; only wall-clock moves. A
    // fresh study per iteration keeps the memo cache cold so every
    // trial pays for real simulated inference.
    let mut group = c.benchmark_group("abl_dse_parallel");
    group.sample_size(10);
    let model = std::sync::Arc::new(models::mobilenet_v2(8, 2, 1));
    let input = models::synthetic_input(&model, 5);
    let factory =
        InferenceEvaluatorFactory::new(Board::arty_a7_35t(), std::sync::Arc::clone(&model), input);
    let space = cfu_bench::fig7::space_for(cfu_dse::CfuChoice::Cfu2);
    const TRIALS: u64 = 48;
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("evolution_48_trials_{threads}t"), |b| {
            b.iter(|| {
                let mut study = ParallelStudy::new(
                    space.clone(),
                    RegularizedEvolution::new(11, 24, 6),
                    threads,
                );
                study.run(&factory, TRIALS);
                std::hint::black_box(study.archive().front().len())
            });
        });
    }
    group.finish();
}

fn bench_surrogate(c: &mut Criterion) {
    // Tentpole ablation: surrogate screening vs unguided search at an
    // equal evaluation budget (the setup pinned in cfu-dse's
    // `surrogate_quality` test). The guided row pays for ridge refits
    // and 4× candidate scoring on top of the same 192 evaluations; the
    // quality side (smaller fronts reached with fewer evaluations) is
    // recorded in EXPERIMENTS.md.
    let mut group = c.benchmark_group("abl_surrogate");
    group.sample_size(10);
    const TRIALS: u64 = 192;
    group.bench_function("unguided_192_trials", |b| {
        b.iter(|| {
            let mut study =
                ParallelStudy::new(DesignSpace::paper_scale(), RandomSearch::new(11), 2);
            study.run(&|| ResourceEvaluator::new(1_000_000), TRIALS);
            std::hint::black_box(study.archive().front().len())
        });
    });
    group.bench_function("guided_4x_192_trials", |b| {
        b.iter(|| {
            let mut study = SurrogateStudy::new(
                DesignSpace::paper_scale(),
                RandomSearch::new(11),
                RidgeSurrogate::default_lambda(),
                4,
                2,
            );
            study.run(&|| ResourceEvaluator::new(1_000_000), TRIALS);
            std::hint::black_box(study.archive().front().len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_iss_throughput,
    bench_cache_sweep,
    bench_bpred_sweep,
    bench_rvc_density,
    bench_dse_scaling,
    bench_surrogate
);
criterion_main!(benches);
