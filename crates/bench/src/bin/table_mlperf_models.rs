//! Regenerates the MLPerf-Tiny model inventory (E7): the stock models
//! CFU Playground ships for benchmarking, with baseline cycle counts.
//!
//! Usage: `table_mlperf_models [--fast]` (`--fast` shrinks MobileNetV2).

use cfu_bench::cli::Cli;

fn main() {
    let mut cli = Cli::new("--fast");
    let mut fast = false;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--fast" => fast = true,
            _ => cli.unknown(&flag),
        }
    }
    println!("E7 — MLPerf Tiny stock models, baseline (generic kernels, Arty)\n");
    let rows = cfu_bench::tables::mlperf_tiny_inventory(fast);
    print!("{}", cfu_bench::tables::render_inventory(&rows));
}
