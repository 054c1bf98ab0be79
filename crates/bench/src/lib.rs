//! Experiment harnesses regenerating every table and figure of the CFU
//! Playground paper (see DESIGN.md's experiment index).
//!
//! Each module owns one artifact:
//!
//! * [`fig4`] — the MobileNetV2 1x1-CONV_2D ladder (speedup + resources),
//! * [`fig6`] — the Keyword-Spotting Fomu ladder (speedup + logic cells)
//!   and its energy extension,
//! * [`fig7`] — the CPU-vs-CFU design-space Pareto fronts,
//! * [`tables`] — the §III-A operator-time profile and the MLPerf-Tiny
//!   model inventory.
//!
//! Every experiment has one public runner over the DSE engine
//! (`GridSearch`/evolution + `ParallelStudy`); `threads = 1` evaluates
//! inline, with no worker thread. Binaries under `src/bin/` print the
//! same rows/series the paper reports and share one flag parser
//! ([`cli`]); Criterion benches under `benches/` track simulator
//! throughput on the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfu_dse::{EvaluatorFactory, GridSearch, ParallelStudy, SearchSpace, StoreKey, StudyStore};

pub mod cli;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod micro;
pub mod svg;
pub mod tables;

/// Formats a speedup for tables ("55.30x").
pub fn fmt_speedup(baseline: u64, value: u64) -> String {
    if value == 0 {
        return "inf".to_owned();
    }
    format!("{:.2}x", baseline as f64 / value as f64)
}

/// A figure ladder as a degenerate one-axis design space: the only knob
/// is the ladder step, so the sweep rides the generic DSE engine (worker
/// pool, memo cache, result store) instead of a bespoke loop.
#[derive(Debug, Clone, Copy)]
struct LadderSpace<P: 'static>(&'static [P]);

impl<P: Copy + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug> SearchSpace
    for LadderSpace<P>
{
    type Point = P;

    fn size(&self) -> u64 {
        self.0.len() as u64
    }

    fn point(&self, index: u64) -> P {
        self.0[usize::try_from(index).expect("ladder index fits usize")]
    }
}

/// Evaluates every step of `ladder` in order through the DSE engine:
/// `GridSearch` at full budget on `threads` workers, bumping `progress`
/// once per step and recording fresh results into `store` (a
/// resume-mode store hydrates prior results, so a warm ladder simulates
/// nothing). Callers rebuild their rows from the study's memo cache.
fn run_ladder_study<P, F>(
    ladder: &'static [P],
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<StudyStore<P>>>,
    factory: &F,
) -> ParallelStudy<GridSearch, LadderSpace<P>>
where
    P: Copy + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug + StoreKey,
    F: EvaluatorFactory<P>,
{
    let space = LadderSpace(ladder);
    let mut study = ParallelStudy::new(space, GridSearch::new(&space, space.size()), threads);
    if let Some(counter) = progress {
        study.attach_progress(counter);
    }
    if let Some(handle) = store {
        study.attach_store(handle);
    }
    study.run(factory, space.size());
    study
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(100, 50), "2.00x");
        assert_eq!(fmt_speedup(55, 1), "55.00x");
        assert_eq!(fmt_speedup(10, 0), "inf");
    }
}
