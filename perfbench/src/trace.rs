//! In-memory spans and a per-thread counting allocator for the traced run.
//!
//! A span records a name, a start and end on one monotonic clock, the
//! span that was open when it began (its parent) and a run id. Spans
//! stay in memory until [`Tracer::write_tsv`] writes them out at the end
//! of the run. A span's self time is its duration minus the part of that
//! interval its child spans cover; overlapping children are counted once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Collects spans for one process; nesting follows the call stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), run: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Tags every span started from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.open.push(id);
        id
    }

    /// Closes span `id`, renaming it to `name` (a span named by the
    /// outcome of the call it wraps). Spans close innermost first.
    pub fn exit_as(&mut self, id: usize, name: &'static str) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit_as(id, name);
        out
    }

    /// Duration of a closed span, in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Self time per span name over the spans of `run`, in seconds.
    pub fn self_seconds(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_times(&self.spans)) {
            if span.run == run {
                *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
            }
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id run parent name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\trun\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                span.run, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (including reallocations) made so far by the calling
/// thread, as counted by [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting each allocation on the calling thread.
pub struct CountingAlloc;

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn
    // down; an allocation then simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) holds a [10,30) with grandchild [15,25), and b [50,60).
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(15, 25, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 10, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,50) overlap on [30,40); [45,70) runs past
        // the parent's end and is clipped to [45,60).
        let spans = vec![
            span(0, 60, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60 - 50);
    }

    #[test]
    fn self_time_of_contained_child_is_not_double_counted() {
        let spans = vec![span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_sums_self_time_by_name() {
        let mut t = Tracer::new();
        t.set_run(3);
        let inner = t.span("outer", |t| {
            let id = t.enter("pending");
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.exit_as(id, "inner");
            id
        });
        assert_eq!(t.spans[inner].parent, Some(0));
        assert_eq!(t.spans[inner].name, "inner");
        let by_name = t.self_seconds(3);
        assert!(by_name["inner"] >= 0.002);
        assert!(by_name["outer"] < by_name["inner"]);
        assert!(t.self_seconds(0).is_empty());
    }

    #[test]
    fn counting_allocator_counts_this_thread_only() {
        let before = allocations();
        let boxed = std::hint::black_box(Box::new(7u64));
        let mut v: Vec<u8> = Vec::with_capacity(1);
        v.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(allocations() - before, 2 + 1, "box, vec, one realloc");
        // Another thread's allocations are not charged here: spawning costs
        // the same whether the thread allocates once or a hundred times.
        let spawn = |n: usize| {
            let mark = allocations();
            std::thread::spawn(move || drop(std::hint::black_box(vec![vec![0u8; 64]; n])))
                .join()
                .expect("allocating thread");
            allocations() - mark
        };
        spawn(1);
        let spawn_cost = spawn(1);
        assert_eq!(spawn(100), spawn_cost, "child allocations are not counted");
        drop((boxed, v));
    }
}
