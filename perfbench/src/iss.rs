//! The two `abl_sim_speed` MAC loops on the instruction-set simulator
//! (`cfu_sim::Cpu`): the MobileNetV2 1x1-conv inner loop on the Arty
//! configuration with code and data in SRAM, and the KWS loop on the
//! Fomu configuration executing in place from quad-SPI flash.
//!
//! Each loop runs a fixed number of 64-MAC bursts over 64 input and 64
//! weight bytes made from the seed, then stops at `ebreak`. The guest's
//! accumulator must equal the dot product computed here, times the
//! burst count; guest cycles do not depend on the data.

use cfu_isa::{Assembler, Reg};
use cfu_mem::{Bus, SpiFlash, SpiWidth, Sram};
use cfu_sim::{Cpu, CpuConfig, StopReason};

/// 64-MAC bursts per loop: about 26 M guest instructions.
pub const BURSTS: u32 = 50_000;

/// One of the two loops.
#[derive(Debug, Clone, Copy)]
pub struct MacLoop {
    pub name: &'static str,
    config: fn() -> CpuConfig,
    data_base: u32,
    bus: fn() -> Bus,
}

pub const LOOPS: [MacLoop; 2] = [
    MacLoop { name: "mnv2", config: CpuConfig::arty_default, data_base: 0x4000, bus: arty_bus },
    MacLoop { name: "kws", config: fomu_config, data_base: 0x1000_0000, bus: fomu_bus },
];

fn arty_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(256 << 10));
    bus
}

fn fomu_config() -> CpuConfig {
    CpuConfig::fomu_with_icache(2048)
}

fn fomu_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("flash", 0, SpiFlash::new(1 << 20, SpiWidth::Quad));
    bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
    bus
}

fn source(data_base: u32) -> String {
    format!(
        "
        li s3, {BURSTS}
        li s2, 0
    outer:
        li s0, {data_base}
        li s1, {weights}
        li t0, 64
    mac:
        lbu t1, 0(s0)
        lbu t2, 0(s1)
        mul t3, t1, t2
        add s2, s2, t3
        addi s0, s0, 1
        addi s1, s1, 1
        addi t0, t0, -1
        bnez t0, mac
        addi s3, s3, -1
        bnez s3, outer
        ebreak
        ",
        weights = data_base + 0x1000,
    )
}

/// The 64 input bytes and 64 weight bytes for `seed` (xorshift64*).
pub fn operands(seed: u64) -> ([u8; 64], [u8; 64]) {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
    };
    (std::array::from_fn(|_| next()), std::array::from_fn(|_| next()))
}

/// The accumulator the guest must end with.
pub fn expected_accumulator(seed: u64) -> u32 {
    let (inputs, weights) = operands(seed);
    let dot: u32 = inputs.iter().zip(&weights).map(|(&a, &b)| u32::from(a) * u32::from(b)).sum();
    dot.wrapping_mul(BURSTS)
}

/// Assembles the loop, maps its bus with the seed's operands in place
/// and loads the program: everything before the first guest instruction.
pub fn prepare(mac: &MacLoop, seed: u64) -> Cpu {
    let program = Assembler::new(0).assemble(&source(mac.data_base)).expect("MAC loop assembles");
    let mut bus = (mac.bus)();
    let (inputs, weights) = operands(seed);
    bus.load_image(mac.data_base, &inputs).expect("inputs fit the data region");
    bus.load_image(mac.data_base + 0x1000, &weights).expect("weights fit the data region");
    let mut cpu = Cpu::new((mac.config)(), bus);
    cpu.load_program(&program).expect("program fits the code region");
    cpu
}

/// Guest-visible outcome of one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub instructions: u64,
    pub cycles: u64,
    pub accumulator: u32,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    pub mispredicts: u64,
}

impl Outcome {
    /// One line of the child's report.
    pub fn to_line(self, name: &str) -> String {
        format!(
            "{name} {} {} {} {} {} {}",
            self.instructions,
            self.cycles,
            self.accumulator,
            self.icache_misses,
            self.dcache_misses,
            self.mispredicts
        )
    }

    /// Parses a [`to_line`](Outcome::to_line) line back.
    pub fn from_line(line: &str) -> Option<(&str, Outcome)> {
        let mut words = line.split_whitespace();
        let name = words.next()?;
        let mut num = || words.next()?.parse::<u64>().ok();
        let outcome = Outcome {
            instructions: num()?,
            cycles: num()?,
            accumulator: u32::try_from(num()?).ok()?,
            icache_misses: num()?,
            dcache_misses: num()?,
            mispredicts: num()?,
        };
        Some((name, outcome))
    }
}

/// Runs a prepared loop to its `ebreak`.
pub fn run(cpu: &mut Cpu) -> Result<Outcome, String> {
    let budget = u64::from(BURSTS) * 600;
    match cpu.run(budget) {
        Ok(StopReason::Breakpoint) => {}
        Ok(other) => return Err(format!("MAC loop stopped with {other:?}")),
        Err(e) => return Err(format!("MAC loop faulted: {e}")),
    }
    let stats = cpu.stats();
    Ok(Outcome {
        instructions: stats.instructions,
        cycles: stats.cycles,
        accumulator: cpu.reg(Reg::S2),
        icache_misses: cpu.icache_stats().map_or(0, |s| s.misses),
        dcache_misses: cpu.dcache_stats().map_or(0, |s| s.misses),
        mispredicts: stats.mispredicts,
    })
}

/// The `iss-mac` child: sets up both loops, says `ready`, runs them and
/// prints one outcome line per loop.
pub fn child_main(seed: u64) -> Result<(), String> {
    let mut cpus: Vec<(&str, Cpu)> = LOOPS.iter().map(|m| (m.name, prepare(m, seed))).collect();
    println!("ready");
    for (name, cpu) in &mut cpus {
        println!("{}", run(cpu)?.to_line(name));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_follow_the_seed() {
        assert_eq!(operands(7), operands(7));
        assert_ne!(operands(7), operands(8));
    }

    #[test]
    fn outcome_lines_round_trip() {
        let o = Outcome {
            instructions: 1,
            cycles: 2,
            accumulator: u32::MAX,
            icache_misses: 4,
            dcache_misses: 5,
            mispredicts: 6,
        };
        assert_eq!(Outcome::from_line(&o.to_line("kws")), Some(("kws", o)));
        assert_eq!(Outcome::from_line("kws 1 2"), None);
    }
}
