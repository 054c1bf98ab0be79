//! Regenerates Figure 4: the MobileNetV2 1x1 CONV_2D ladder on Arty.
//!
//! Usage: `fig4_mnv2_ladder [--input-hw N] [--threads N]` (default
//! input 96, the paper's resolution; use 32 or 48 for a quick look).
//! The ladder runs through the DSE engine: one inline worker by
//! default, N workers with `--threads N` (byte-identical rows, plus a
//! live step counter on stderr).
//!
//! `--store PATH` persists every freshly simulated ladder step to an
//! append-only result store at PATH; `--resume` additionally hydrates
//! prior results from it, so a warm re-run performs zero simulations
//! while printing byte-identical rows.

use cfu_bench::cli::{ladder_progress, Cli, StoreFlags};
use cfu_bench::fig4;
use cfu_sim::CpuConfig;

fn main() {
    let mut cli = Cli::new(
        "--input-hw N --full-width --csv PATH --svg PATH --threads N --store PATH --resume",
    );
    let mut input_hw = 96;
    let mut full_width = false;
    let mut csv_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut store_flags = StoreFlags::default();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--input-hw" => input_hw = cli.int(&flag),
            "--full-width" => full_width = true,
            "--csv" => csv_path = Some(cli.path(&flag)),
            "--svg" => svg_path = Some(cli.path(&flag)),
            "--threads" => threads = Some(cli.int(&flag)),
            "--store" => store_flags.path = Some(cli.path(&flag)),
            "--resume" => store_flags.resume = true,
            _ => cli.unknown(&flag),
        }
    }
    let cpu = CpuConfig::arty_default();
    let store = store_flags.study(&cli, fig4::store_context(cpu, input_hw, full_width));
    let width = if full_width { "1.0" } else { "0.35" };
    println!("Figure 4 — MobileNetV2 (width {width}) 1x1 CONV_2D ladder (Arty A7-35T, {input_hw}x{input_hw} input)");
    println!("paper reference speedups: SW 2.0x, CFU postproc 2.3x, CFU MAC4 9.8x,");
    println!("MAC4Run1 26x, Incl postproc 31.1x, Overlap input 55x; overall MNV2 3x\n");
    let rows = ladder_progress(threads.is_some(), fig4::ladder_len(), |progress| {
        fig4::run_ladder(cpu, input_hw, full_width, threads.unwrap_or(1), progress, store.clone())
    });
    if let Some(handle) = &store {
        store_flags.print_summary(handle.hydrated(), handle.appended(), None);
    }
    print!("{}", fig4::render(&rows));
    if let Some(path) = csv_path {
        std::fs::write(&path, fig4::to_csv(&rows)).expect("write csv");
        println!("\nwrote {path}");
    }
    if let Some(path) = svg_path {
        let bars: Vec<(String, f64)> =
            rows.iter().map(|r| (r.label.to_owned(), r.operator_speedup)).collect();
        let svg = cfu_bench::svg::bar_chart(
            "Figure 4: MobileNetV2 1x1 CONV_2D speedup",
            "speedup (log)",
            &bars,
        );
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
}
