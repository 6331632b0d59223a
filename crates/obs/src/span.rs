//! Hierarchical wall-time spans that serialize to Chrome trace events.
//!
//! A [`SpanGuard`] measures the wall time between its creation and its
//! drop and, when collection is enabled, records a Chrome
//! trace-event-format "complete" (`ph: "X"`) event into a process-global
//! buffer. Events carry a per-thread `tid` and microsecond timestamps
//! from a shared process epoch, so nested spans on one thread render as
//! a flame graph when the JSON is opened in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Collection is **off by default** (a disabled span is one relaxed
//! atomic load and two `Instant` reads); the `MG_TRACE` knob — parsed
//! by `mg_bench::config` like every other `MG_*` knob — turns it on,
//! and `run_cli` drains the buffer at sweep exit to the binary record
//! `results/TRACE_<bin>.mgb`. Its JSON view for Perfetto comes from the
//! one export path, `export_json results/TRACE_<bin>.mgb`, which writes
//! `results/TRACE_<bin>.json`. The hierarchy convention is category
//! `sweep` → `bench` → `cell` → `stage`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One Chrome trace event. Field names match the trace-event JSON
/// schema (<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>),
/// so the serialized form loads directly in Perfetto.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `mib_sha/cell3`).
    pub name: String,
    /// Category: one of `sweep`, `bench`, `cell`, `stage`, or a
    /// caller-chosen label; Perfetto can filter on it.
    pub cat: String,
    /// Phase: `"X"` for complete spans, `"M"` for metadata.
    pub ph: String,
    /// Start timestamp in microseconds since the process epoch.
    pub ts: u64,
    /// Duration in microseconds (zero for metadata events).
    pub dur: u64,
    /// Process id; always 1 (single-process harness).
    pub pid: u64,
    /// Stable per-thread id assigned on first span use.
    pub tid: u64,
    /// Extra arguments (`depth` for spans, `name` for thread metadata).
    pub args: BTreeMap<String, String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// The shared process epoch all span timestamps (and the logger's
/// elapsed-time prefix) are measured from. First call wins.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process epoch.
pub fn elapsed_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Turns span collection on or off (wired to the `MG_TRACE` knob by
/// the config layer). Disabled spans cost one atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// This thread's stable trace tid, assigning one (and emitting a
/// Perfetto `thread_name` metadata event) on first use.
fn thread_tid() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
            if let Some(name) = std::thread::current().name() {
                let mut args = BTreeMap::new();
                args.insert("name".to_string(), name.to_string());
                push_event(TraceEvent {
                    name: "thread_name".to_string(),
                    cat: "__metadata".to_string(),
                    ph: "M".to_string(),
                    ts: 0,
                    dur: 0,
                    pid: 1,
                    tid: id,
                    args,
                });
            }
        }
        id
    })
}

fn push_event(ev: TraceEvent) {
    EVENTS.lock().unwrap().push(ev);
}

/// An in-flight span; records its event on drop. Construct with
/// [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    cat: &'static str,
    start_us: u64,
    depth: u64,
    live: bool,
}

/// Opens a span. When collection is disabled this is nearly free; when
/// enabled, the span's wall time is recorded as a Chrome `"X"` event
/// at drop. `cat` is the hierarchy level (`sweep`, `bench`, `cell`,
/// `stage`, ...).
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name: String::new(),
            cat,
            start_us: 0,
            depth: 0,
            live: false,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get() + 1;
        d.set(v);
        v
    });
    SpanGuard {
        name: name.into(),
        cat,
        start_us: elapsed_us(),
        depth,
        live: true,
    }
}

impl SpanGuard {
    /// The nesting depth of this span on its thread (1 = outermost);
    /// zero for a disabled span.
    pub fn depth(&self) -> u64 {
        if self.live {
            self.depth
        } else {
            0
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = elapsed_us();
        let mut args = BTreeMap::new();
        args.insert("depth".to_string(), self.depth.to_string());
        push_event(TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: self.cat.to_string(),
            ph: "X".to_string(),
            ts: self.start_us,
            dur: end.saturating_sub(self.start_us),
            pid: 1,
            tid: thread_tid(),
            args,
        });
    }
}

/// Takes every collected event, leaving the buffer empty.
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock().unwrap())
}

/// Number of buffered events (tests and footer reporting).
pub fn pending() -> usize {
    EVENTS.lock().unwrap().len()
}

/// The Chrome trace JSON document wrapper.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// The event list (`traceEvents` is the key Perfetto expects).
    pub traceEvents: Vec<TraceEvent>,
    /// Display unit hint for the viewer.
    pub displayTimeUnit: String,
}

/// Wraps events in the Chrome trace JSON document format.
pub fn chrome_trace(events: Vec<TraceEvent>) -> ChromeTrace {
    ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        let g = span("stage", "noop");
        assert_eq!(g.depth(), 0);
        drop(g);
        // No event was queued by this guard; other tests may have
        // queued events concurrently, so only check our own effect via
        // a unique name.
        assert!(!drain().iter().any(|e| e.name == "noop"));
    }
}
