//! In-memory span recorder for the traced run.
//!
//! A span is named `<layer>.<call>`; its layer is the part before the dot.
//! Every span belongs to one root span — a timed operation (`op`) or one
//! set-up repetition (`setup`) — identified by the root's index. Spans
//! marked *excluded* are work the untraced run does not time: traced-only
//! measurements of APIs the operation calls internally, and answer
//! checking. Spans are kept in a preallocated buffer and written out when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Name of the root span around one timed operation.
pub const OP: &str = "op";
/// Name of the root span around one set-up repetition.
pub const SETUP: &str = "setup";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub root: usize,
    /// Allocations made while the span was open.
    pub allocs: u64,
    /// Change of the live heap across the span.
    pub bytes: i64,
    pub excluded: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        match self.name {
            OP | SETUP => "bench",
            name => name.split('.').next().unwrap_or(name),
        }
    }
}

struct Recorder {
    active: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Roots start recording only while the buffer holds fewer spans.
    root_limit: usize,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        active: false,
        base: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        root_limit: 0,
    });
}

/// Room kept for the children of a root, so a root that starts recording
/// never runs out of buffer midway.
const ROOT_HEADROOM: usize = 256;
/// Buffer kept back for the spans recorded after [`open_reserve`].
const RESERVE: usize = 1 << 14;

/// Turns recording on with a buffer of `capacity` spans, plus a reserve.
/// Roots that would not fit run unrecorded.
pub fn start(capacity: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.active = true;
        r.base = Instant::now();
        r.spans = Vec::with_capacity(capacity + RESERVE);
        r.stack.clear();
        r.root_limit = capacity;
    });
}

/// Lets roots use the reserve; returns the number of spans so far.
pub fn open_reserve() -> usize {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.root_limit = r.spans.capacity();
        r.spans.len()
    })
}

/// Pauses or resumes recording of new roots (spans inside a recorded root
/// are always recorded).
pub fn set_active(active: bool) {
    REC.with(|r| r.borrow_mut().active = active);
}

/// Stops recording and hands back every span recorded.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.active = false;
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

fn begin(name: &'static str, excluded: bool, root: bool) -> bool {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let recording = if root {
            r.active && r.stack.is_empty() && r.spans.len() + ROOT_HEADROOM <= r.root_limit
        } else {
            !r.stack.is_empty() && r.spans.len() < r.spans.capacity()
        };
        if !recording {
            return false;
        }
        let index = r.spans.len();
        let parent = r.stack.last().copied();
        let root_index = parent.map_or(index, |p| r.spans[p].root);
        let excluded = excluded || parent.is_some_and(|p| r.spans[p].excluded);
        let start_ns = r.base.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root: root_index,
            allocs: alloc::allocs(),
            bytes: alloc::live() as i64,
            excluded,
        });
        r.stack.push(index);
        true
    })
}

fn end() {
    let (allocs, live) = (alloc::allocs(), alloc::live() as i64);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.base.elapsed().as_nanos() as u64;
        if let Some(index) = r.stack.pop() {
            let span = &mut r.spans[index];
            span.end_ns = end_ns;
            span.allocs = allocs - span.allocs;
            span.bytes = live - span.bytes;
        }
    });
}

/// An open span; closing it on drop keeps the span stack balanced when a
/// traced call panics.
pub struct Guard(bool);

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 {
            end();
        }
    }
}

/// Opens a root span ([`OP`] or [`SETUP`]) when recording is active.
pub fn root(name: &'static str) -> Guard {
    Guard(begin(name, false, true))
}

/// Whether a root is open and being recorded: traced-only measurements
/// run only then.
pub fn recording() -> bool {
    REC.with(|r| !r.borrow().stack.is_empty())
}

/// Runs `f` inside a span of its layer, when a root is being recorded.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = Guard(begin(name, false, false));
    f()
}

/// Like [`span`], for work the untraced operation does not do or time.
pub fn excluded<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = Guard(begin(name, true, false));
    f()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: i64,
}

impl Agg {
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() / 1e6
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    pub fn allocs_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.allocs as f64 / self.calls as f64
        }
    }

    fn add(&mut self, span: &Span) {
        self.calls += 1;
        self.ns += span.ns();
        self.allocs += span.allocs;
        self.bytes += span.bytes;
    }
}

/// Totals per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for span in spans {
        out.entry(span.name).or_default().add(span);
    }
    out
}

/// What the timed operations (`op` roots) spent, split by layer.
#[derive(Debug, Default)]
pub struct OpBreakdown {
    pub ops: u64,
    /// Operation time without its excluded spans: what the untraced run
    /// would have timed, plus the recorder's own cost.
    pub op_ns: u64,
    /// Self time per layer inside the operations, excluded spans left
    /// out; the `bench` layer is time no layer span covers.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl OpBreakdown {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out = OpBreakdown::default();
        for (i, span) in spans.iter().enumerate() {
            if spans[span.root].name != OP {
                continue;
            }
            if span.parent.is_none() {
                out.ops += 1;
                out.op_ns += span.ns();
            }
            let top_excluded = span.excluded && span.parent.is_some_and(|p| !spans[p].excluded);
            if top_excluded {
                out.op_ns -= span.ns();
            }
            if !span.excluded {
                *out.self_ns.entry(span.layer()).or_default() +=
                    span.ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    pub fn unattributed_ms_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get("bench").copied().unwrap_or(0) as f64 / 1e6 / self.ops as f64
    }

    /// One line per layer: mean self time per operation and share.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let per_op = self.ops.max(1) as f64;
        for (layer, ns) in &self.self_ns {
            let share = *ns as f64 / self.op_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "layer {layer:<10} self {:>12.4} ms/op  share {:>6.2}%",
                *ns as f64 / 1e6 / per_op,
                share * 100.0
            );
        }
        out
    }
}

/// Renders spans as JSON Lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"allocs\":{},\"bytes\":{},\"excluded\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.root, span.allocs, span.bytes, span.excluded
        );
    }
    out
}
