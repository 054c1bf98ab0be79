//! The transaction-level execution path (`TimedCore`).
//!
//! Running a whole TFLite-Micro inference through the instruction-set
//! simulator would require porting the entire runtime to RISC-V. Instead,
//! kernels written in Rust drive this *transaction-level model*: every
//! abstract operation they perform (instruction fetch, load, store,
//! multiply, branch, CFU op) is charged through **the same cache, memory
//! and latency models** the ISS uses. Cycle totals therefore respond to
//! the same knobs — SPI width, cache geometry, multiplier choice, CFU
//! design — which is what the paper's deploy→profile→optimize loop
//! measures. ISS-vs-TLM agreement is validated on microkernels in the
//! integration tests.
//!
//! Instruction fetches are charged in closed form. A synthetic PC
//! ([`FetchWalk`]) walks the kernel's code region; a run of `n` fetches
//! (an [`TimedCore::alu`] batch, a [`TimedCore::call`]) advances it by
//! whole strictly-sequential stretches, and each stretch is charged by
//! one routine, `TimedCore::fetch_stretch`: per I-cache line with a
//! cache, as one bus burst without. Trace replay (`crate::retime`)
//! charges its recorded fetch runs through the same routine, so live
//! and replayed fetch charging are one code path, and the argument that
//! makes the per-line charge exact lives on that routine.

use std::collections::VecDeque;
use std::fmt;

use cfu_core::{Cfu, CfuError, CfuOp, NullCfu};
use cfu_mem::{Bus, Cache, MemError};

use crate::bpred::PredictorState;
use crate::config::CpuConfig;
use crate::cpu::UNCACHED_BASE;
use crate::retime::TraceRecorder;

/// Depth of the store write buffer (matches the ISS).
const WRITE_BUFFER_DEPTH: usize = 4;

/// Statistics accumulated by a [`TimedCore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlmStats {
    /// Abstract instructions charged (each pays a fetch).
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Multiplies.
    pub muls: u64,
    /// Divides.
    pub divs: u64,
    /// Branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// CFU operations.
    pub cfu_ops: u64,
}

/// Transaction-level CPU model sharing the ISS's timing machinery.
///
/// Kernels call the typed operations; the core charges cycles through the
/// configured caches, bus devices, and functional-unit latencies. A
/// synthetic program counter walks the kernel's declared *code region* so
/// instruction-fetch traffic (XIP flash! I-cache capacity!) is modelled
/// faithfully — this is what makes the Fomu ladder's `QuadSPI`,
/// `SRAM Ops` and `Larger Icache` steps measurable.
///
/// # Example
///
/// ```
/// use cfu_mem::{Bus, Sram};
/// use cfu_sim::{CpuConfig, TimedCore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bus = Bus::new();
/// bus.map("sram", 0, Sram::new(4096));
/// let mut core = TimedCore::new(CpuConfig::arty_default(), bus);
/// core.set_code_region(0x100, 256)?;
/// core.store_u32(0, 7)?;
/// assert_eq!(core.load_u32(0)?, 7);
/// assert!(core.cycles() > 0);
/// # Ok(())
/// # }
/// ```
pub struct TimedCore {
    pub(crate) config: CpuConfig,
    pub(crate) bus: Bus,
    pub(crate) icache: Option<Cache>,
    pub(crate) dcache: Option<Cache>,
    pub(crate) bpred: PredictorState,
    cfu: Box<dyn Cfu>,
    pub(crate) stats: TlmStats,
    pub(crate) walk: FetchWalk,
    /// Base of the I-cache line the latest fetch touched, or
    /// [`NO_LINE`]. Only fetches touch the I-cache, and every path that
    /// does (live or replay) updates this, so a fetch inside this line
    /// is a hit under [`Cache::note_hit`]'s contract.
    pub(crate) last_fetch_line: u32,
    write_buffer: VecDeque<u64>,
    /// Trace recorder for capture mode ([`crate::Trace`]); `None` (the
    /// default) costs one branch per operation.
    recorder: Option<TraceRecorder>,
}

/// Size of the active inner-loop window: kernels spend their time in
/// small loops, not sweeping their whole footprint linearly.
const CODE_WINDOW: u32 = 256;
/// Fetches before the active window advances (≈ 8 passes over the
/// window: inner loops re-execute, then control moves on).
const WINDOW_DWELL: u32 = 8 * (CODE_WINDOW / 4);
/// `code_len` of the ideal regime: no real code region declared (or one
/// of at most 4 bytes), so every fetch is a PC-independent 1-cycle
/// charge that never reaches the cache or bus.
const IDEAL_CODE_LEN: u32 = 4;
/// [`TimedCore::last_fetch_line`] before any fetch touched the I-cache
/// (never a line base: lines are at least 4 bytes, so bases have their
/// low bits clear).
const NO_LINE: u32 = u32::MAX;

/// The synthetic program-counter walk shared by the live [`TimedCore`]
/// fetch path and the trace machinery (`retime.rs` regenerates the exact
/// same fetch-address stream when compacting a captured trace into
/// line runs). Factoring it into one type is what guarantees capture,
/// replay and live execution agree on every fetch address.
///
/// The default walk is the ideal regime ([`is_ideal`](Self::is_ideal)):
/// a core used before any `set_code_region` charges 1-cycle fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FetchWalk {
    pub(crate) code_base: u32,
    pub(crate) code_len: u32,
    pub(crate) code_pc: u32,
    /// Start of the active inner-loop window within the code region.
    pub(crate) window_base: u32,
    /// Fetches issued since the window last moved.
    pub(crate) window_fetches: u32,
}

impl Default for FetchWalk {
    fn default() -> Self {
        FetchWalk {
            code_base: 0,
            code_len: IDEAL_CODE_LEN,
            code_pc: 0,
            window_base: 0,
            window_fetches: 0,
        }
    }
}

impl FetchWalk {
    /// Re-targets the walk at a fresh code region (mirrors
    /// [`TimedCore::set_code_region`], including the 4-byte floor).
    pub(crate) fn set_region(&mut self, base: u32, len: u32) {
        self.code_base = base;
        self.code_len = len.max(IDEAL_CODE_LEN);
        self.code_pc = base;
        self.window_base = base;
        self.window_fetches = 0;
    }

    /// Whether fetches use the ideal 1-cycle charge (no real region
    /// declared). Ideal fetches do not depend on the PC, and the next
    /// [`set_region`](Self::set_region) overwrites every field, so the
    /// walk need not (and does not) advance in this regime.
    #[inline]
    pub(crate) fn is_ideal(&self) -> bool {
        self.code_len == IDEAL_CODE_LEN
    }

    /// Advances one fetch of `step` bytes, returning the fetched PC.
    #[inline]
    pub(crate) fn next(&mut self, step: u32) -> u32 {
        let pc = self.code_pc;
        self.code_pc += step;
        let window_len = CODE_WINDOW.min(self.code_len);
        if self.code_pc >= (self.window_base + window_len).min(self.code_base + self.code_len) {
            self.code_pc = self.window_base;
        }
        self.window_fetches += 1;
        if self.window_fetches >= WINDOW_DWELL {
            self.window_fetches = 0;
            self.window_base += window_len;
            if self.window_base >= self.code_base + self.code_len {
                self.window_base = self.code_base;
            }
            self.code_pc = self.window_base;
        }
        pc
    }

    /// Advances the walk by `n` fetches in closed form, reporting each
    /// maximal strictly-sequential stretch as `(start_pc, count)` via
    /// `emit`. The emitted PC stream is byte-identical to calling
    /// [`next`](Self::next) `n` times: `next` only redirects the PC
    /// *after* returning the fetch that trips a window wrap or a dwell
    /// slide, so every fetch up to and including that one extends the
    /// current sequential stretch.
    pub(crate) fn advance_batch(&mut self, step: u32, n: u64, mut emit: impl FnMut(u32, u64)) {
        let mut left = n;
        while left > 0 {
            let window_len = CODE_WINDOW.min(self.code_len);
            let window_end = (self.window_base + window_len).min(self.code_base + self.code_len);
            // Fetches until (and including) the one that reaches the
            // window end, and until the dwell counter trips; both are
            // ≥ 1 because `code_pc < window_end` and
            // `window_fetches < WINDOW_DWELL` hold between calls. The
            // floor keeps a walk that breaks the first invariant (a
            // zero-length window) from spinning: it then wraps after
            // each fetch, as `next` does. Most runs end before the
            // window does, which the multiply shows without a divide.
            let gap = window_end.saturating_sub(self.code_pc);
            let to_wrap = if (left - 1) * u64::from(step) < u64::from(gap) {
                left
            } else {
                u64::from(gap.div_ceil(step)).max(1)
            };
            let to_dwell = u64::from(WINDOW_DWELL - self.window_fetches);
            let k = left.min(to_wrap).min(to_dwell);
            emit(self.code_pc, k);
            self.code_pc += k as u32 * step;
            self.window_fetches += k as u32;
            // Re-apply `next`'s post-fetch updates once, in its order:
            // wrap to the window base first, then the dwell slide.
            if self.code_pc >= window_end {
                self.code_pc = self.window_base;
            }
            if self.window_fetches >= WINDOW_DWELL {
                self.window_fetches = 0;
                self.window_base += window_len;
                if self.window_base >= self.code_base + self.code_len {
                    self.window_base = self.code_base;
                }
                self.code_pc = self.window_base;
            }
            left -= k;
        }
    }
}

impl fmt::Debug for TimedCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedCore")
            .field("cycles", &self.stats.cycles)
            .field("cfu", &self.cfu.name())
            .finish_non_exhaustive()
    }
}

impl TimedCore {
    /// Creates a core with no CFU.
    pub fn new(config: CpuConfig, bus: Bus) -> Self {
        TimedCore::with_cfu(config, bus, NullCfu)
    }

    /// Creates a core with a CFU attached to the custom-0 port.
    pub fn with_cfu(config: CpuConfig, bus: Bus, cfu: impl Cfu + 'static) -> Self {
        TimedCore {
            config,
            bus,
            icache: config.icache.map(Cache::new),
            dcache: config.dcache.map(Cache::new),
            bpred: PredictorState::new(config.branch_predictor),
            cfu: Box::new(cfu),
            stats: TlmStats::default(),
            walk: FetchWalk::default(),
            last_fetch_line: NO_LINE,
            write_buffer: VecDeque::new(),
            recorder: None,
        }
    }

    /// The CPU configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Total cycles so far.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlmStats {
        self.stats
    }

    /// Shared bus access.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access (loading tensors, reading results — use the
    /// timing-free [`Bus::load_image`]/[`Bus::peek`] for that).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Consumes the core, returning its bus — the mapped devices can be
    /// handed to another core or replayer instead of being rebuilt
    /// (the next measurement's [`reset_stats`](Self::reset_stats)
    /// clears statistics and device timing, making a reused bus
    /// timing-equivalent to a fresh one).
    pub fn into_bus(self) -> Bus {
        self.bus
    }

    /// The attached CFU (hardware model).
    pub fn cfu_mut(&mut self) -> &mut dyn Cfu {
        self.cfu.as_mut()
    }

    /// Swaps the CFU (e.g. hardware model ↔ software emulation).
    pub fn set_cfu(&mut self, cfu: impl Cfu + 'static) {
        self.cfu = Box::new(cfu);
    }

    /// I-cache statistics, if configured.
    pub fn icache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// D-cache statistics, if configured.
    pub fn dcache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// Declares the code region the currently-running kernel occupies:
    /// every charged instruction fetches from a synthetic PC walking
    /// `[base, base + len)`. Moving this region between flash and SRAM is
    /// the `SRAM Ops` ladder step.
    ///
    /// # Errors
    ///
    /// Fails if the region is not mapped on the bus.
    pub fn set_code_region(&mut self, base: u32, len: u32) -> Result<(), MemError> {
        self.bus.region_of(base).ok_or(MemError::Unmapped { addr: base })?;
        if let Some(r) = &mut self.recorder {
            r.region(base, len);
        }
        self.walk.set_region(base, len);
        Ok(())
    }

    /// Begins recording every subsequent charged operation into a
    /// [`crate::Trace`]. Recording is passive: charges, statistics and
    /// functional effects are identical to an unrecorded run. Recording
    /// may begin anywhere, including partway through a code region's
    /// walk: the trace then regenerates the fetch stream from there.
    pub fn start_recording(&mut self) {
        self.recorder = Some(TraceRecorder::new(self.config.compressed, self.walk));
    }

    /// Records a layer boundary (profile granularity for replay).
    /// No-op when not recording.
    pub fn mark_layer(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.mark();
        }
    }

    /// Stops recording and returns the finalized trace, or `None` if
    /// [`start_recording`](Self::start_recording) was never called.
    pub fn finish_recording(&mut self) -> Option<crate::Trace> {
        self.recorder.take().map(TraceRecorder::finish)
    }

    pub(crate) fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Fetch stride of the synthetic walk: RVC code is ~70% 16-bit
    /// parcels, 3 bytes per instruction on average, which is what the
    /// fetch stream actually pulls.
    #[inline]
    pub(crate) fn fetch_step(&self) -> u32 {
        if self.config.compressed {
            3
        } else {
            4
        }
    }

    /// Charges one instruction fetch at the synthetic PC.
    ///
    /// The PC loops inside a [`CODE_WINDOW`]-byte inner-loop window and
    /// the window slides through the kernel's footprint every
    /// [`WINDOW_DWELL`] fetches — matching real kernels, which re-execute
    /// small loops rather than sweeping their whole `.text` linearly.
    /// With no code region declared every fetch is an ideal 1-cycle
    /// charge. Otherwise the fetch is a one-fetch stretch of
    /// [`fetch_stretch`](Self::fetch_stretch); its same-line rule (a
    /// fetch inside the I-cache line the previous fetch touched is a
    /// hit without a tag lookup) is checked here first, as it is the
    /// common case of a single fetch.
    pub(crate) fn fetch(&mut self) -> Result<(), MemError> {
        self.stats.instructions += 1;
        if self.walk.is_ideal() {
            self.charge(1);
            return Ok(());
        }
        let step = self.fetch_step();
        let pc = self.walk.next(step);
        if let Some(cache) = &mut self.icache {
            if pc & !(cache.config().line_bytes - 1) == self.last_fetch_line {
                cache.note_hit();
                return Ok(());
            }
        }
        self.fetch_stretch(pc, step, 1).map(drop)
    }

    /// Charges `n` instruction fetches along the synthetic walk in closed
    /// form: [`FetchWalk::advance_batch`] splits them into maximal
    /// strictly-sequential stretches, each charged by
    /// [`fetch_stretch`](Self::fetch_stretch). The charges equal `n`
    /// calls of [`fetch`](Self::fetch). On a bus fault the walk has
    /// still advanced by all `n` fetches and the statistics hold the
    /// charges up to the faulting stretch.
    fn fetch_run(&mut self, n: u64) -> Result<(), MemError> {
        self.stats.instructions += n;
        if self.walk.is_ideal() {
            self.charge(n);
            return Ok(());
        }
        let step = self.fetch_step();
        let mut walk = self.walk;
        let mut result = Ok(());
        walk.advance_batch(step, n, |pc, k| {
            if result.is_ok() {
                result = self.fetch_stretch(pc, step, k).map(drop);
            }
        });
        self.walk = walk;
        result
    }

    /// Charges the `n` strictly ascending fetches `pc, pc + step, …`
    /// (`n ≥ 1`) — the one fetch-charging routine of the crate: live
    /// single fetches, live runs and trace replay all charge through it.
    /// Returns whether any fetch missed the I-cache (the fill may have
    /// evicted another line).
    ///
    /// With an I-cache, cacheable fetches (`pc < UNCACHED_BASE`) are
    /// charged per line: the first fetch touching a line does the real
    /// [`Cache::access`] (plus a line fill through [`Bus::read_cost`] on
    /// a miss), and the rest of the stretch inside that line are counted
    /// with [`Cache::note_hits`]. A line equal to
    /// [`last_fetch_line`](Self::last_fetch_line) gets no access at all.
    /// This is exact under `note_hit`'s contract: only fetches
    /// touch the I-cache, so the previous operation on it was a touch of
    /// the same line, which left that line resident and most recently
    /// used; strictly ascending fetches keep it so until the stretch
    /// leaves the line, skipping the LRU re-touch cannot change any
    /// future hit, miss or eviction, and a TLM fetch hit charges no
    /// cycles. Without an I-cache (or above `UNCACHED_BASE`) the stretch
    /// is priced by one [`Bus::read_cost_run`] burst, identical to `n`
    /// individual reads.
    ///
    /// Charging all of a run's fetches before its other cycles (as
    /// [`alu`](Self::alu) and replay do) is exact because no device's
    /// read cost depends on the cycle counter.
    #[inline]
    pub(crate) fn fetch_stretch(&mut self, pc: u32, step: u32, n: u64) -> Result<bool, MemError> {
        let mut missed = false;
        // The part of the stretch at or above `UNCACHED_BASE`, if any.
        let mut uncached = (pc, n);
        if let Some(cache) = self.icache.as_mut().filter(|_| pc < UNCACHED_BASE) {
            let last = u64::from(pc) + (n - 1) * u64::from(step);
            let cached = if last < u64::from(UNCACHED_BASE) {
                n
            } else {
                u64::from((UNCACHED_BASE - pc).div_ceil(step))
            };
            let line = cache.config().line_bytes;
            let last_pc = u64::from(pc) + (cached - 1) * u64::from(step);
            let last_line = last_pc as u32 & !(line - 1);
            // A stride never exceeds a line, so the stretch touches every
            // line from its first to its last. The first fetch in each
            // does the real access (a line address stands for any fetch
            // in it), unless it is the line the previous fetch touched.
            let mut next_line = pc & !(line - 1);
            if next_line == self.last_fetch_line {
                next_line += line;
            }
            let mut accesses = 0;
            while next_line <= last_line {
                accesses += 1;
                self.last_fetch_line = next_line;
                if !cache.access(next_line) {
                    missed = true;
                    // The fill's bytes are never read (contents live in
                    // the backing device): cost-only read.
                    self.stats.cycles += self.bus.read_cost(next_line, line)?;
                }
                next_line += line;
            }
            cache.note_hits(cached - accesses);
            uncached = ((last_pc + u64::from(step)) as u32, n - cached);
        }
        if uncached.1 > 0 {
            // Uncached fetch over the wishbone: the full device latency
            // is exposed (no stream buffer).
            self.stats.cycles += self.bus.read_cost_run(uncached.0, step, uncached.1 as u32)?;
        }
        Ok(missed)
    }

    /// Charges `n` plain single-cycle ALU instructions: `n` instruction
    /// fetches, charged in closed form per sequential stretch of the
    /// synthetic PC (per I-cache line, or one bus burst without a
    /// cache), plus one cycle each.
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn alu(&mut self, n: u32) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.alu(n);
        }
        self.fetch_run(u64::from(n))?;
        self.charge(u64::from(n));
        Ok(())
    }

    /// Charges one multiply instruction.
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn mul(&mut self) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.mul();
        }
        self.fetch()?;
        self.mul_cost();
        Ok(())
    }

    /// Post-fetch multiply charge, shared with trace replay.
    pub(crate) fn mul_cost(&mut self) {
        self.stats.muls += 1;
        self.charge(self.config.mul_cycles());
    }

    /// Post-fetch divide charge, shared with trace replay.
    pub(crate) fn div_cost(&mut self) {
        self.stats.divs += 1;
        self.charge(self.config.div_cycles());
    }

    /// Charges one divide instruction.
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn div(&mut self) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.div();
        }
        self.fetch()?;
        self.div_cost();
        Ok(())
    }

    /// Charges a shift by `shamt`.
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn shift(&mut self, shamt: u32) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.shift(shamt);
        }
        self.fetch()?;
        self.charge(self.config.shift_cycles(shamt));
        Ok(())
    }

    /// Charges a conditional branch at stable site `site` with outcome
    /// `taken`, consulting the configured predictor. `backward` is the
    /// branch's static direction (a loop back-edge points backward, a
    /// skip-over-the-body check points forward): the BTFN Static
    /// predictor predicts from it, so it must reflect the real control
    /// structure, not the outcome.
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn branch(&mut self, site: u32, backward: bool, taken: bool) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.branch(site, backward, taken);
        }
        self.fetch()?;
        self.branch_cost(site.wrapping_mul(4), if backward { -4 } else { 4 }, taken);
        Ok(())
    }

    /// Post-fetch branch charge through the predictor, shared with trace
    /// replay and the [`crate::TimingModel`] impl. `pc` and `offset` are
    /// the predictor's view of the branch (the TLM derives them from the
    /// stable site id and its static direction).
    pub(crate) fn branch_cost(&mut self, pc: u32, offset: i32, taken: bool) {
        self.stats.branches += 1;
        let prediction = self.bpred.predict(pc, offset);
        let correct = self.bpred.update(pc, prediction, taken);
        self.stats.mispredicts += u64::from(!correct);
        // Arithmetic form of: mispredict → refill, correct taken branch
        // without a known target → 1-cycle redirect. The outcome is
        // data-dependent, so a branchy form mispredicts on the host.
        self.charge(
            1 + u64::from(!correct) * self.config.refill_penalty()
                + u64::from(correct & taken & !prediction.target_known),
        );
    }

    /// Charges a function call/return pair plus `saved_regs` stack
    /// save/restore stores+loads (prologue/epilogue overhead).
    ///
    /// # Errors
    ///
    /// Bus faults from instruction fetch.
    pub fn call(&mut self, saved_regs: u32) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.call(saved_regs);
        }
        // One fetch run: the jal and the jalr-ret, then two fetches per
        // saved register. The redirects cost 2 and 1 + refill; stack
        // traffic is SRAM/stack-cached, approximated as 2 cycles per reg.
        let saved = u64::from(saved_regs);
        self.fetch_run(2 + 2 * saved)?;
        self.charge(3 + self.config.refill_penalty() + 2 * saved);
        Ok(())
    }

    fn timed_read(&mut self, addr: u32, len: u32) -> Result<u32, MemError> {
        if let Some(r) = &mut self.recorder {
            r.load(addr, len);
        }
        self.fetch()?;
        self.stats.loads += 1;
        if addr >= UNCACHED_BASE || self.dcache.is_none() {
            let mut buf = [0u8; 4];
            let cycles = self.bus.read(addr, &mut buf[..len as usize])?;
            self.charge(cycles);
            return Ok(u32::from_le_bytes(buf));
        }
        let cache = self.dcache.as_mut().expect("checked above");
        if cache.access(addr) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let cycles = self.bus.read_cost(addr & !(line - 1), line)?;
            self.charge(1 + cycles);
        }
        let mut b = [0u8; 4];
        self.bus.peek(addr, &mut b[..len as usize])?;
        Ok(u32::from_le_bytes(b))
    }

    /// Post-fetch timing of [`timed_read`](Self::timed_read) with the
    /// data path removed (trace replay): same cache traffic, fill reads,
    /// charges and device-timing evolution — the trailing peek collapses
    /// to its net effect, [`Bus::reset_device_timing`].
    pub(crate) fn load_cost(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        self.stats.loads += 1;
        if addr >= UNCACHED_BASE || self.dcache.is_none() {
            let cycles = self.bus.read_cost(addr, len)?;
            self.charge(cycles);
            return Ok(());
        }
        let cache = self.dcache.as_mut().expect("checked above");
        if cache.access(addr) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let cycles = self.bus.read_cost(addr & !(line - 1), line)?;
            self.charge(1 + cycles);
        }
        self.bus.reset_device_timing(addr)
    }

    fn timed_write(&mut self, addr: u32, value: u32, len: u32) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.store(addr, len);
        }
        self.fetch()?;
        self.stats.stores += 1;
        let bytes = value.to_le_bytes();
        let device_cycles = self.bus.write(addr, &bytes[..len as usize])?;
        self.drain_store(addr, device_cycles);
        Ok(())
    }

    /// Post-fetch timing of [`timed_write`](Self::timed_write) with the
    /// stored value replaced by zeros (trace replay: the replay bus's
    /// contents are never read, and no device's write timing depends on
    /// the data).
    pub(crate) fn store_cost(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        self.stats.stores += 1;
        let device_cycles = self.bus.write(addr, &[0u8; 4][..len as usize])?;
        self.drain_store(addr, device_cycles);
        Ok(())
    }

    /// The write-through buffer model shared by live stores and replay:
    /// uncached stores expose the device latency; cached ones drain
    /// through the 4-deep buffer against the live cycle counter.
    pub(crate) fn drain_store(&mut self, addr: u32, device_cycles: u64) {
        if addr >= UNCACHED_BASE {
            self.charge(device_cycles);
            return;
        }
        let now = self.stats.cycles;
        while let Some(&front) = self.write_buffer.front() {
            if front <= now {
                self.write_buffer.pop_front();
            } else {
                break;
            }
        }
        if self.write_buffer.len() >= WRITE_BUFFER_DEPTH {
            let front = self.write_buffer.pop_front().expect("nonempty");
            self.charge(front - now);
        }
        let start = self.write_buffer.back().copied().unwrap_or(self.stats.cycles);
        self.write_buffer.push_back(start.max(self.stats.cycles) + device_cycles);
        self.charge(1);
    }

    /// Timed signed 8-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_i8(&mut self, addr: u32) -> Result<i8, MemError> {
        Ok(self.timed_read(addr, 1)? as u8 as i8)
    }

    /// Timed unsigned 8-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_u8(&mut self, addr: u32) -> Result<u8, MemError> {
        Ok(self.timed_read(addr, 1)? as u8)
    }

    /// Timed 32-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        self.timed_read(addr, 4)
    }

    /// Timed 32-bit signed load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_i32(&mut self, addr: u32) -> Result<i32, MemError> {
        Ok(self.timed_read(addr, 4)? as i32)
    }

    /// Timed 8-bit store.
    ///
    /// # Errors
    ///
    /// Bus faults (including ROM writes).
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        self.timed_write(addr, u32::from(value), 1)
    }

    /// Timed 32-bit store.
    ///
    /// # Errors
    ///
    /// Bus faults (including ROM writes).
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        self.timed_write(addr, value, 4)
    }

    /// Issues one CFU custom instruction, charging its response latency.
    ///
    /// # Errors
    ///
    /// [`CfuError`] from the CFU itself (bus faults cannot occur — the
    /// fetch is charged against the code region, which was validated).
    pub fn cfu(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<u32, CfuError> {
        // Fetch can only fail if the code region was unmapped after
        // set_code_region, which Bus does not allow.
        self.fetch().expect("code region validated at set_code_region");
        self.stats.cfu_ops += 1;
        match self.cfu.execute(op, rs1, rs2) {
            Ok(resp) => {
                if let Some(r) = &mut self.recorder {
                    r.cfu(resp.latency);
                }
                self.charge(u64::from(resp.latency));
                Ok(resp.value)
            }
            Err(e) => {
                // The failed op still fetched and counted; a zero-latency
                // record replays that exactly (charge(0) is a no-op).
                if let Some(r) = &mut self.recorder {
                    r.cfu(0);
                }
                Err(e)
            }
        }
    }

    /// Issues a CFU op *in the shadow of an in-flight CFU computation*
    /// (a pipelined CFU with double-buffered storage): the functional
    /// effect happens, but no cycles are charged because the CPU issues
    /// it while the CFU's previous multi-cycle response is still being
    /// produced. Used by the `Overlap input` ladder step.
    ///
    /// # Errors
    ///
    /// [`CfuError`] from the CFU.
    pub fn cfu_hidden(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<u32, CfuError> {
        if let Some(r) = &mut self.recorder {
            r.cfu_hidden();
        }
        self.stats.cfu_ops += 1;
        Ok(self.cfu.execute(op, rs1, rs2)?.value)
    }

    /// Functional (uncharged) 32-bit read, for data movement whose timing
    /// is hidden under concurrent CFU computation.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn peek_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        if let Some(r) = &mut self.recorder {
            r.peek(addr);
        }
        let mut b = [0u8; 4];
        self.bus.peek(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Resets cycle counters, cache stats, predictor state and bus stats
    /// (not memory contents) — fresh measurement, warm data.
    pub fn reset_stats(&mut self) {
        self.stats = TlmStats::default();
        self.bus.reset_stats();
        if let Some(c) = &mut self.icache {
            c.reset_stats();
        }
        if let Some(c) = &mut self.dcache {
            c.reset_stats();
        }
        self.bpred = PredictorState::new(self.config.branch_predictor);
        self.write_buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_core::templates::SimdAddCfu;
    use cfu_mem::{SpiFlash, SpiWidth, Sram};

    fn bus_with_flash(width: SpiWidth) -> Bus {
        let mut bus = Bus::new();
        bus.map("flash", 0, SpiFlash::new(1 << 20, width));
        bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
        bus
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut core = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        core.set_code_region(0x1000_0000, 1024).unwrap();
        core.store_u32(0x1000_4000, 0xCAFE_F00D).unwrap();
        assert_eq!(core.load_u32(0x1000_4000).unwrap(), 0xCAFE_F00D);
        core.store_u8(0x1000_4004, 0xAB).unwrap();
        assert_eq!(core.load_u8(0x1000_4004).unwrap(), 0xAB);
        assert_eq!(core.load_i8(0x1000_4004).unwrap(), -85);
        assert_eq!(core.stats().loads, 3);
        assert_eq!(core.stats().stores, 2);
    }

    #[test]
    fn code_in_flash_is_slower_than_sram() {
        // Same work, code region in XIP flash vs SRAM — the `SRAM Ops`
        // ladder step.
        let mut flash_core =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        flash_core.set_code_region(0, 2048).unwrap();
        flash_core.alu(5000).unwrap();

        let mut sram_core =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        sram_core.set_code_region(0x1000_0000, 2048).unwrap();
        sram_core.alu(5000).unwrap();

        assert!(
            flash_core.cycles() > 5 * sram_core.cycles(),
            "flash {} vs sram {}",
            flash_core.cycles(),
            sram_core.cycles()
        );
    }

    #[test]
    fn quad_spi_speeds_up_xip() {
        let mut single =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        single.set_code_region(0, 4096).unwrap();
        single.alu(3000).unwrap();
        let mut quad = TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Quad));
        quad.set_code_region(0, 4096).unwrap();
        quad.alu(3000).unwrap();
        let ratio = single.cycles() as f64 / quad.cycles() as f64;
        assert!(ratio > 2.0, "QuadSPI speedup only {ratio:.2}x");
    }

    #[test]
    fn icache_captures_small_kernels() {
        // 1 KiB kernel, 2 KiB icache: after the first pass everything hits.
        let mut core =
            TimedCore::new(CpuConfig::fomu_with_icache(2048), bus_with_flash(SpiWidth::Single));
        core.set_code_region(0, 1024).unwrap();
        core.alu(256).unwrap(); // first pass: cold misses
        let cold = core.cycles();
        core.alu(256).unwrap(); // second pass: all hits
        let warm = core.cycles() - cold;
        assert!(warm * 5 < cold, "cold {cold} warm {warm}");
    }

    #[test]
    fn branch_costs_depend_on_predictor() {
        let mut none = TimedCore::new(
            CpuConfig {
                branch_predictor: crate::config::BranchPredictor::None,
                ..CpuConfig::arty_default()
            },
            bus_with_flash(SpiWidth::Quad),
        );
        none.set_code_region(0x1000_0000, 256).unwrap();
        let mut dynamic = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        dynamic.set_code_region(0x1000_0000, 256).unwrap();
        for core in [&mut none, &mut dynamic] {
            for i in 0..1000 {
                core.branch(7, true, i % 100 != 99).unwrap();
            }
        }
        assert!(none.cycles() > dynamic.cycles() + 1000);
        assert!(dynamic.stats().mispredicts < 50);
    }

    #[test]
    fn cfu_latency_charged() {
        let mut core = TimedCore::with_cfu(
            CpuConfig::arty_default(),
            bus_with_flash(SpiWidth::Quad),
            SimdAddCfu::new(),
        );
        core.set_code_region(0x1000_0000, 256).unwrap();
        let before = core.cycles();
        let v = core.cfu(CfuOp::new(0, 0), 0x01010101, 0x02020202).unwrap();
        assert_eq!(v, 0x03030303);
        assert!(core.cycles() > before);
        assert_eq!(core.stats().cfu_ops, 1);
    }

    #[test]
    fn mul_cost_follows_config() {
        let mut fast = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        fast.set_code_region(0x1000_0000, 64).unwrap();
        let mut slow = TimedCore::new(
            CpuConfig::arty_default().with_multiplier(crate::config::Multiplier::Iterative),
            bus_with_flash(SpiWidth::Quad),
        );
        slow.set_code_region(0x1000_0000, 64).unwrap();
        for core in [&mut fast, &mut slow] {
            for _ in 0..100 {
                core.mul().unwrap();
            }
        }
        assert!(slow.cycles() > fast.cycles() + 100 * 30);
    }

    /// Per-fetch reference for the closed-form fetch charging: one
    /// `FetchWalk::next`, `Cache::access` and `Bus::read_cost` per fetch,
    /// as the core charged before fetches were batched.
    fn oracle_fetch(core: &mut TimedCore) {
        core.stats.instructions += 1;
        if core.walk.is_ideal() {
            core.stats.cycles += 1;
            return;
        }
        let step = core.fetch_step();
        let pc = core.walk.next(step);
        let cycles = match &mut core.icache {
            Some(cache) if pc < UNCACHED_BASE => {
                let line = cache.config().line_bytes;
                if cache.access(pc) {
                    0
                } else {
                    core.bus.read_cost(pc & !(line - 1), line).unwrap()
                }
            }
            _ => core.bus.read_cost(pc, step).unwrap(),
        };
        core.stats.cycles += cycles;
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Alu(u32),
        Mul,
        Shift(u32),
        Branch(u32, bool),
        Call(u32),
        Load(u32),
        Store(u32),
        Cfu,
    }

    /// A deterministic mix of ALU runs (1 to ~1500 fetches, so runs
    /// cross window wraps and `WINDOW_DWELL` slides) and single-fetch ops
    /// touching `data`.
    fn op_mix(data: u32) -> Vec<Op> {
        let mut x: u32 = 12345;
        let mut ops = Vec::new();
        for _ in 0..400 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            let r = x >> 8;
            ops.push(match r % 9 {
                0 | 1 => Op::Alu(1 + r % 7),
                2 => Op::Alu(1 + r % 1500),
                3 => Op::Mul,
                4 => Op::Shift(r % 31),
                5 => Op::Branch(r % 5, !r.is_multiple_of(3)),
                6 => Op::Call(r % 4),
                7 => Op::Load(data + (r % 4096) * 4),
                _ => Op::Store(data + (r % 4096) * 4),
            });
            if r.is_multiple_of(11) {
                ops.push(Op::Cfu);
            }
        }
        ops
    }

    fn run_batched(core: &mut TimedCore, ops: &[Op]) {
        for &op in ops {
            match op {
                Op::Alu(n) => core.alu(n).unwrap(),
                Op::Mul => core.mul().unwrap(),
                Op::Shift(s) => core.shift(s).unwrap(),
                Op::Branch(site, taken) => core.branch(site, true, taken).unwrap(),
                Op::Call(regs) => core.call(regs).unwrap(),
                Op::Load(a) => drop(core.load_u32(a).unwrap()),
                Op::Store(a) => core.store_u32(a, a).unwrap(),
                Op::Cfu => drop(core.cfu(CfuOp::new(0, 0), 1, 2).unwrap()),
            }
        }
    }

    fn run_oracle(core: &mut TimedCore, ops: &[Op]) {
        for &op in ops {
            match op {
                Op::Alu(n) => {
                    for _ in 0..n {
                        oracle_fetch(core);
                        core.charge(1);
                    }
                }
                Op::Mul => {
                    oracle_fetch(core);
                    core.mul_cost();
                }
                Op::Shift(s) => {
                    oracle_fetch(core);
                    core.charge(core.config.shift_cycles(s));
                }
                Op::Branch(site, taken) => {
                    oracle_fetch(core);
                    core.branch_cost(site.wrapping_mul(4), -4, taken);
                }
                Op::Call(regs) => {
                    oracle_fetch(core);
                    core.charge(2);
                    oracle_fetch(core);
                    core.charge(1 + core.config.refill_penalty());
                    for _ in 0..2 * regs {
                        oracle_fetch(core);
                        core.charge(1);
                    }
                }
                Op::Load(a) => {
                    oracle_fetch(core);
                    core.load_cost(a, 4).unwrap();
                }
                Op::Store(a) => {
                    oracle_fetch(core);
                    core.store_cost(a, 4).unwrap();
                }
                Op::Cfu => {
                    oracle_fetch(core);
                    core.stats.cfu_ops += 1;
                    let latency = core.cfu.execute(CfuOp::new(0, 0), 1, 2).unwrap().latency;
                    core.charge(u64::from(latency));
                }
            }
        }
    }

    /// Runs `ops` on a batched core and on the per-fetch oracle (code
    /// region `code`, when given) and compares every statistic the
    /// figures read, plus the walk state.
    fn assert_matches_oracle(config: CpuConfig, bus: fn() -> Bus, code: Option<(u32, u32)>) {
        let data = 0x1000_8000;
        let ops = op_mix(data);
        let [batched, oracle] = [true, false].map(|batch| {
            let mut core = TimedCore::with_cfu(config, bus(), SimdAddCfu::new());
            if let Some((base, len)) = code {
                core.set_code_region(base, len).unwrap();
            }
            // Two passes: the second one starts mid-window on a warm
            // I-cache.
            for _ in 0..2 {
                if batch {
                    run_batched(&mut core, &ops);
                } else {
                    run_oracle(&mut core, &ops);
                }
            }
            core
        });
        let what = format!("{config:?} code {code:x?}");
        assert_eq!(batched.stats(), oracle.stats(), "TlmStats: {what}");
        assert_eq!(batched.icache_stats(), oracle.icache_stats(), "I-cache: {what}");
        assert_eq!(batched.dcache_stats(), oracle.dcache_stats(), "D-cache: {what}");
        assert_eq!(batched.walk, oracle.walk, "walk: {what}");
        for (id, info) in batched.bus().regions() {
            assert_eq!(
                batched.bus().stats(id),
                oracle.bus().stats(id),
                "bus stats of {}: {what}",
                info.name
            );
        }
        assert!(batched.stats().instructions > 50_000);
    }

    fn ddr3_bus() -> Bus {
        let mut bus = Bus::new();
        bus.map("ddr3", 0x4000_0000, cfu_mem::Ddr3::new(1 << 20));
        bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
        bus
    }

    fn flash_bus() -> Bus {
        bus_with_flash(SpiWidth::Single)
    }

    fn icache(size_bytes: u32, ways: u32, line_bytes: u32) -> CpuConfig {
        CpuConfig {
            icache: Some(cfu_mem::CacheConfig { size_bytes, ways, line_bytes }),
            ..CpuConfig::arty_default()
        }
    }

    #[test]
    fn batched_fetches_match_the_per_fetch_oracle_on_ddr3() {
        for config in [icache(4096, 1, 32), icache(1024, 2, 32), icache(512, 4, 16)] {
            // Code larger than the cache: misses continue in steady state.
            assert_matches_oracle(config, ddr3_bus, Some((0x4000_0000, 6000)));
            assert_matches_oracle(config, ddr3_bus, Some((0x4000_0040, 700)));
        }
    }

    #[test]
    fn batched_fetches_match_the_per_fetch_oracle_on_rvc_line_straddles() {
        // 3-byte strides cross 16- and 32-byte lines mid-instruction.
        for config in [icache(1024, 2, 16), icache(2048, 1, 32)] {
            let config = config.with_compressed(true);
            assert_matches_oracle(config, ddr3_bus, Some((0x4000_0000, 5000)));
            assert_matches_oracle(config, flash_bus, Some((0x10, 999)));
        }
    }

    #[test]
    fn batched_fetches_match_the_per_fetch_oracle_on_xip_flash() {
        // No I-cache: every stretch is one uncached burst.
        for config in [CpuConfig::fomu_baseline(), CpuConfig::fomu_baseline().with_compressed(true)]
        {
            assert_matches_oracle(config, flash_bus, Some((0, 4096)));
            assert_matches_oracle(config, flash_bus, Some((0x1000_0000, 300)));
        }
    }

    #[test]
    fn batched_fetches_match_the_per_fetch_oracle_across_the_uncached_boundary() {
        // A window straddling UNCACHED_BASE: the cached head of a stretch
        // goes through the I-cache, the rest straight to the bus.
        fn bus() -> Bus {
            let mut bus = bus_with_flash(SpiWidth::Quad);
            bus.map("io", UNCACHED_BASE - 0x1000, Sram::new(0x2000));
            bus
        }
        assert_matches_oracle(icache(4096, 1, 32), bus, Some((UNCACHED_BASE - 0x60, 0x200)));
    }

    #[test]
    fn batched_fetches_match_the_per_fetch_oracle_in_the_ideal_regime() {
        for config in [CpuConfig::arty_default(), CpuConfig::arty_default().with_compressed(true)] {
            assert_matches_oracle(config, ddr3_bus, Some((0x1000_0000, 4)));
            assert_matches_oracle(config, ddr3_bus, None);
        }
    }

    #[test]
    fn advance_batch_on_a_zero_length_window_matches_next() {
        // Unreachable through `set_region` (4-byte floor), but a walk
        // with no window must still terminate, fetch by fetch as `next`.
        let zero = FetchWalk {
            code_base: 0x100,
            code_pc: 0x100,
            window_base: 0x100,
            code_len: 0,
            window_fetches: 0,
        };
        let (mut batched, mut single) = (zero, zero);
        let mut pcs = Vec::new();
        batched.advance_batch(4, 1000, |pc, k| pcs.extend((0..k as u32).map(|j| pc + 4 * j)));
        let expected: Vec<u32> = (0..1000).map(|_| single.next(4)).collect();
        assert_eq!(pcs, expected);
        assert_eq!(batched, single);
    }

    #[test]
    fn fresh_core_without_a_region_fetches_ideally() {
        // Nothing is mapped at address 0: a fetch there would fault.
        let mut bus = Bus::new();
        bus.map("sram", 0x1000_0000, Sram::new(4096));
        let mut core = TimedCore::with_cfu(CpuConfig::arty_default(), bus, SimdAddCfu::new());
        core.alu(3).unwrap();
        assert_eq!(core.cycles(), 6, "1-cycle fetch + 1-cycle ALU each");
        let before = core.cycles();
        assert_eq!(core.cfu(CfuOp::new(0, 0), 0x0101_0101, 0x0202_0202).unwrap(), 0x0303_0303);
        assert!(core.cycles() > before);
        assert_eq!(core.stats().instructions, 4);
        assert_eq!(core.icache_stats().unwrap().accesses(), 0);
        assert_eq!(core.bus().regions().map(|(id, _)| core.bus().stats(id).reads).sum::<u64>(), 0);
    }

    #[test]
    fn reset_stats_keeps_memory() {
        let mut core = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        core.set_code_region(0x1000_0000, 64).unwrap();
        core.store_u32(0x1000_2000, 99).unwrap();
        core.reset_stats();
        assert_eq!(core.cycles(), 0);
        assert_eq!(core.load_u32(0x1000_2000).unwrap(), 99);
    }
}
