//! Regenerates Figure 6: the Keyword-Spotting ladder on Fomu.
//!
//! Usage: `fig6_kws_ladder [--csv PATH] [--svg PATH] [--threads N]
//! [--store PATH] [--resume]`. The ladder runs through the DSE engine:
//! one inline worker by default, N workers with `--threads N`
//! (byte-identical rows, plus a live step counter on stderr). `--store
//! PATH` persists every freshly simulated step to an append-only
//! result store; `--resume` additionally hydrates prior results from
//! it, so a warm re-run performs zero simulations while printing
//! byte-identical rows.

use cfu_bench::cli::{ladder_progress, Cli, StoreFlags};
use cfu_bench::fig6;

fn main() {
    let mut cli = Cli::new("--csv PATH --svg PATH --threads N --store PATH --resume");
    let mut csv_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut store_flags = StoreFlags::default();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--csv" => csv_path = Some(cli.path(&flag)),
            "--svg" => svg_path = Some(cli.path(&flag)),
            "--threads" => threads = Some(cli.int(&flag)),
            "--store" => store_flags.path = Some(cli.path(&flag)),
            "--resume" => store_flags.resume = true,
            _ => cli.unknown(&flag),
        }
    }
    let store = store_flags.study(&cli, fig6::store_context());
    println!("Figure 6 — MLPerf Tiny KWS (DS-CNN) ladder on Fomu (iCE40UP5k, 12 MHz)");
    println!("paper reference: QuadSPI 3.04x, SRAM Ops+Model 7.84x, Larger Icache 8.3x,");
    println!("Fast Mult 15.35x, MAC Conv 32.10x, Post Proc 37.64x, final 75x");
    println!("(baseline 2.5 min -> <2 s; only ~3x of the 75x from the CFU itself)\n");
    let rows = ladder_progress(threads.is_some(), fig6::ladder_len(), |progress| {
        fig6::run_ladder(threads.unwrap_or(1), progress, store.clone())
    });
    if let Some(handle) = &store {
        store_flags.print_summary(handle.hydrated(), handle.appended(), None);
    }
    print!("{}", fig6::render(&rows));
    if let Some(path) = &csv_path {
        std::fs::write(path, fig6::to_csv(&rows)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = &svg_path {
        let bars: Vec<(String, f64)> =
            rows.iter().map(|r| (r.label.to_owned(), r.speedup)).collect();
        let svg = cfu_bench::svg::bar_chart(
            "Figure 6: KWS speedup on Fomu",
            "cumulative speedup (log)",
            &bars,
        );
        std::fs::write(path, svg).expect("write svg");
        println!("wrote {path}");
    }
    // Attribution: CFU-only contribution (E5) — the `MAC Conv` and
    // `Post Proc` steps; everything else is CPU/memory/software.
    if let (Some(fast_mult), Some(post_proc), Some(last)) = (
        rows.iter().find(|r| r.label == "Fast Mult"),
        rows.iter().find(|r| r.label == "Post Proc"),
        rows.last(),
    ) {
        println!(
            "\nCFU-attributable speedup: {:.2}x of the total {:.2}x (paper: ~3x of 75x)",
            fast_mult.cycles as f64 / post_proc.cycles as f64,
            last.speedup
        );
    }
}
