//! Regenerates the §III-A profile (E1): where the unaccelerated
//! MobileNetV2 baseline spends its ~900M cycles.
//!
//! Usage: `profile_mnv2 [--input-hw N]` (default 96).

use cfu_bench::cli::Cli;

fn main() {
    let mut cli = Cli::new("--input-hw N");
    let mut input_hw = 96;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--input-hw" => input_hw = cli.int(&flag),
            _ => cli.unknown(&flag),
        }
    }
    println!("E1 — unaccelerated MobileNetV2 profile on Arty A7-35T ({input_hw}x{input_hw})\n");
    let profile = cfu_bench::tables::profile_mnv2_baseline(input_hw);
    print!("{}", cfu_bench::tables::render_mnv2_profile(&profile));
}
