//! Extension table (paper §V future work): energy and energy-delay
//! product for every Figure 6 ladder step on Fomu.
//!
//! Usage: `table_energy_ladder [--threads N] [--csv PATH]
//! [--retime|--no-retime] [--store PATH] [--resume]`. The ladder runs
//! through the DSE engine: one inline worker by default, N workers with
//! `--threads N` (byte-identical table). Each step is simulated exactly
//! once either way. With retime on (the default), only the first step
//! of each retime group executes the guest; its timing siblings
//! (QuadSPI, Larger Icache, Fast Mult) are scored by replaying the
//! group's captured trace — byte-identical table, less time.
//! `--no-retime` executes every step.
//!
//! The paper stops at performance; this regenerates the KWS ladder with
//! the iCE40-class energy model to show the co-design's *energy* story:
//! memory-system and CFU optimizations cut energy about as hard as they
//! cut time, because idle cycles leak.
//!
//! `--store PATH` persists every freshly simulated step to an
//! append-only result store; `--resume` additionally hydrates prior
//! results from it, so a warm re-run performs zero simulations (and
//! zero trace captures) while printing a byte-identical table.

use cfu_bench::cli::{Cli, StoreFlags};
use cfu_bench::fig6;

fn main() {
    let mut cli = Cli::new("--threads N --csv PATH --retime --no-retime --store PATH --resume");
    let mut threads = 1;
    let mut csv_path: Option<String> = None;
    let mut store_flags = StoreFlags::default();
    let mut retime = true;
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--threads" => threads = cli.int(&flag),
            "--csv" => csv_path = Some(cli.path(&flag)),
            "--retime" => retime = true,
            "--no-retime" => retime = false,
            "--store" => store_flags.path = Some(cli.path(&flag)),
            "--resume" => store_flags.resume = true,
            _ => cli.unknown(&flag),
        }
    }
    let store = store_flags.study(&cli, fig6::energy_store_context());
    println!("Energy across the Figure 6 KWS ladder (Fomu, iCE40 energy model)\n");
    let (rows, _) = fig6::run_energy_ladder(threads, retime, store.clone());
    if let Some(handle) = &store {
        store_flags.print_summary(handle.hydrated(), handle.appended(), None);
    }
    print!("{}", fig6::render_energy(&rows));
    if let Some(path) = &csv_path {
        std::fs::write(path, fig6::energy_to_csv(&rows)).expect("write csv");
        println!("wrote {path}");
    }
}
