//! Span recording for the traced run.
//!
//! Each call the traced run makes into a layer is wrapped in a span:
//! name, start, end, parent span, and a request id shared by every span
//! of one (pass, benchmark, cell). Spans stay in memory until the run
//! ends, then [`Tracer::write_jsonl`] writes them out. A layer's self
//! time is its spans' time minus the part their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.engine`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// This span's id (unique within the tracer).
    pub id: u32,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u32>,
    /// The request (pass, benchmark, cell) the span worked for.
    pub request: u64,
    /// Recording thread.
    pub thread: u32,
}

/// The request id of one (pass, benchmark, cell); cell `None` is the
/// benchmark's context build and journal write.
pub fn request_id(pass: usize, bench: usize, cell: Option<usize>) -> u64 {
    let cell = cell.map_or(0, |c| c as u64 + 1);
    ((pass as u64) << 40) | ((bench as u64) << 16) | cell
}

static THREAD_SEQ: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Tracer {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            name,
            id,
            parent,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, request);
        f()
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\
                 \"request\":{},\"thread\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.thread
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    request: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.truncate(pos);
            }
        });
        let span = Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            request: self.request,
            thread: THREAD.with(|t| *t),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Span time not covered by child spans, in nanoseconds.
    pub self_ns: u64,
    /// Spans of this name.
    pub calls: u64,
}

/// Self time per span name: each span's duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.self_ns += dur.saturating_sub(covered);
        e.calls += 1;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time per layer, summed over the names of each layer.
pub fn layer_self_ns(per_name: &BTreeMap<&'static str, SelfTime>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in per_name {
        *out.entry(name.split('.').next().unwrap_or(name))
            .or_insert(0) += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // task [0,100] > cell [10,90] > { core.select [20,30], sim.engine [40,80] }
        // and sim.engine has a nested child [50,60].
        let spans = vec![
            span("harness.task", 0, None, 0, 100),
            span("harness.cell", 1, Some(0), 10, 90),
            span("core.select", 2, Some(1), 20, 30),
            span("sim.engine", 3, Some(1), 40, 80),
            span("sim.inner", 4, Some(3), 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["harness.task"].self_ns, 20);
        assert_eq!(t["harness.cell"].self_ns, 30);
        assert_eq!(t["core.select"].self_ns, 10);
        assert_eq!(t["sim.engine"].self_ns, 30);
        assert_eq!(t["sim.inner"].self_ns, 10);
        // Self times partition the root span exactly.
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
        let layers = layer_self_ns(&t);
        assert_eq!(layers["sim"], 40);
        assert_eq!(layers["harness"], 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("a.p", 0, None, 0, 100),
            span("a.c", 1, Some(0), 10, 50),
            span("a.c", 2, Some(0), 30, 70),
            span("a.c", 3, Some(0), 90, 150),
        ];
        let t = self_times(&spans);
        // Children cover [10,70] and [90,100] of the parent.
        assert_eq!(t["a.p"].self_ns, 30);
        assert_eq!(t["a.c"].calls, 3);
    }

    #[test]
    fn guards_record_parents_per_thread() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("harness.task", request_id(0, 3, None));
            tracer.time("sim.engine", request_id(0, 3, Some(1)), || {
                tracer.time("sim.inner", 7, || ());
            });
        }
        std::thread::scope(|s| {
            s.spawn(|| tracer.time("core.select", 9, || ()));
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let task = by_name("harness.task");
        let engine = by_name("sim.engine");
        assert_eq!(engine.parent, Some(task.id));
        assert_eq!(by_name("sim.inner").parent, Some(engine.id));
        assert_eq!(task.parent, None);
        assert_eq!(
            by_name("core.select").parent,
            None,
            "no parent across threads"
        );
        assert_eq!(engine.request, request_id(0, 3, Some(1)));
        assert!(task.start_ns <= engine.start_ns && engine.end_ns <= task.end_ns);
    }

    #[test]
    fn request_ids_are_distinct() {
        let a = request_id(0, 1, None);
        let b = request_id(0, 1, Some(0));
        let c = request_id(1, 1, None);
        let d = request_id(0, 2, None);
        assert!(a != b && a != c && a != d && b != c && c != d);
    }
}
