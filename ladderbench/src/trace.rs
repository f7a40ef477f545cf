//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer of the
//! toolchain in [`span`]. While recording is off (the untraced run that
//! produces the end-to-end metrics) a span is one relaxed atomic load
//! and the call itself. While it is on, each span records its name,
//! start, end, parent span and request id into one process-wide buffer,
//! which [`take`] hands back when the run ends. Nothing is written
//! while the run measures.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per run; later spans are counted but not stored, so a
/// long traced run cannot grow memory without bound.
const MAX_SPANS: usize = 1 << 18;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 outside any request).
    pub request: u64,
    /// Recording thread, numbered in order of first span.
    pub thread: u32,
}

struct Buffer {
    spans: Vec<Span>,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static BUFFER: Mutex<Buffer> = Mutex::new(Buffer {
    spans: Vec::new(),
    dropped: 0,
});

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn buffer() -> std::sync::MutexGuard<'static, Buffer> {
    BUFFER
        .lock()
        .expect("span buffer lock poisoned by a panicking recorder")
}

/// Turns recording on or off for every thread. Turning it on reserves
/// the whole buffer, so recording never stalls on a reallocation.
pub fn set_enabled(on: bool) {
    if on {
        let mut b = buffer();
        let len = b.spans.len();
        b.spans.reserve(MAX_SPANS.saturating_sub(len));
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags this thread's subsequent spans with `id`.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let slot = {
        let mut b = buffer();
        if b.spans.len() >= MAX_SPANS {
            b.dropped += 1;
            None
        } else {
            b.spans.push(Span {
                name,
                start_ns: now_ns(),
                end_ns: 0,
                parent,
                request: REQUEST.with(Cell::get),
                thread: THREAD.with(|t| *t),
            });
            Some(b.spans.len() as u32 - 1)
        }
    };
    let Some(slot) = slot else { return f() };
    STACK.with(|s| s.borrow_mut().push(slot));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    buffer().spans[slot as usize].end_ns = now_ns();
    out
}

/// Removes and returns every recorded span plus the count of spans
/// dropped over [`MAX_SPANS`].
pub fn take() -> (Vec<Span>, u64) {
    let mut b = buffer();
    let dropped = std::mem::take(&mut b.dropped);
    (std::mem::take(&mut b.spans), dropped)
}

/// Per-name totals: `(calls, total ns, self ns)`, where a span's self
/// time is its duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur(s);
        e.2 += dur(s).saturating_sub(child_ns[i]);
    }
    out
}

/// Renders spans and per-layer self times as one JSON document.
pub fn to_json(spans: &[Span], dropped: u64) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n  \"self_time\": {");
    for (i, (name, (calls, total, own))) in self_times(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\"calls\": {calls}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}",
            if i == 0 { "" } else { "," },
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let _ = write!(out, "\n  }},\n  \"dropped_spans\": {dropped},\n  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"thread\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            s.thread
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            mk("outer", 0, 100, None),
            mk("inner", 10, 40, Some(0)),
            mk("inner", 50, 70, Some(0)),
            mk("leaf", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], (1, 100, 50));
        assert_eq!(t["inner"], (2, 50, 42));
        assert_eq!(t["leaf"], (1, 8, 8));
    }
}
