//! Benchmark-owned spans: name, start, end, parent, and one request id per
//! slot / audit / trial.
//!
//! Spans are recorded from the benchmark's own files, around each call it
//! makes into a layer (and, through [`crate::traced::TracedFactory`], around
//! each call `core` makes into a block backend). They live in a per-thread
//! buffer until the run ends. A thread that never called [`enable`] records
//! nothing, which is how the untraced run pays nothing but one
//! thread-local check per would-be span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.operation`; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Recording thread (0 = the driver thread).
    pub thread: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same thread's buffer, if any.
    pub parent: Option<u32>,
    /// The slot, audit or trial this span belongs to.
    pub request: u64,
}

struct ThreadTracer {
    epoch: Instant,
    thread: u32,
    request: u64,
    spans: Vec<Span>,
    /// Indices of the spans currently open on this thread, outermost first.
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<ThreadTracer>> = const { RefCell::new(None) };
}

/// Turns span recording on for the calling thread. `epoch` is shared by
/// every thread of a run so their timestamps are comparable.
pub fn enable(epoch: Instant, thread: u32) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(ThreadTracer {
            epoch,
            thread,
            request: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        });
    });
}

/// Sets the request id stamped on the spans that follow on this thread.
pub fn set_request(id: u64) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.request = id;
        }
    });
}

/// Runs `work` inside a span called `name` (or bare, when this thread is
/// not tracing).
pub fn span<R>(name: &'static str, work: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        let tracer = slot.as_mut()?;
        let index = tracer.spans.len() as u32;
        let parent = tracer.open.last().copied();
        tracer.open.push(index);
        tracer.spans.push(Span {
            name,
            thread: tracer.thread,
            start_ns: tracer.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request: tracer.request,
        });
        Some(index)
    });
    let out = work();
    if let Some(index) = opened {
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.spans[index as usize].end_ns = tracer.epoch.elapsed().as_nanos() as u64;
                tracer.open.pop();
            }
        });
    }
    out
}

/// Stops tracing on the calling thread and hands back what it recorded.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Self time per span name, in nanoseconds: a span's duration minus the
/// part its direct children cover. `threads` holds one buffer per thread
/// (parents index into their own buffer).
pub fn self_time_by_name(threads: &[Vec<Span>]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
        }
    }
    by_name
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders every span as compact JSON: a name table plus one row per span
/// (`[name, thread, start_ns, end_ns, parent, request]`, parent `-1` for a
/// root; parents index rows of the same thread, in recording order).
pub fn to_json(workload: &str, threads: &[Vec<Span>]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::new();
    let mut rows = String::new();
    for spans in threads {
        for span in spans {
            let name = match names.iter().position(|n| *n == span.name) {
                Some(i) => i,
                None => {
                    names.push(span.name);
                    names.len() - 1
                }
            };
            if !rows.is_empty() {
                rows.push(',');
            }
            rows.push_str(&format!(
                "[{},{},{},{},{},{}]",
                name,
                span.thread,
                span.start_ns,
                span.end_ns,
                span.parent.map_or(-1, i64::from),
                span.request
            ));
        }
    }
    out.push_str(&format!("{{\"workload\":\"{workload}\",\"names\":["));
    out.push_str(
        &names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str(
        "],\"columns\":[\"name\",\"thread\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":[",
    );
    out.push_str(&rows);
    out.push_str("]}\n");
    out
}
