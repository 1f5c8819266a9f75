//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! layer of the simulator; nothing inside the program is instrumented. Each
//! span carries a name (`layer.operation`), start and end on one monotonic
//! clock, the span that caused it, and a run id shared by the spans of one
//! request (one simulation run or one served job). Spans stay in memory
//! until [`Tracer::chrome_json`] renders them as Chrome trace-event JSON,
//! which Perfetto and `chrome://tracing` open directly.

use serde_json::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off or a span
/// has no parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    run: u64,
    lane: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

/// A small per-thread number, the trace's `tid` lane.
fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, run: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, run, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured by the caller, such as the gap between
    /// two checkpoint callbacks during which the engine was stepping.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
            lane: lane(),
        });
        SpanId(spans.len() - 1)
    }

    /// Self time per span name in seconds, with the span count: each span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds), with `meta` stored under `otherData`.
    pub fn chrome_json(&self, meta: Value) -> String {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let events = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("span".to_string(), Value::U64(i as u64)),
                    ("run".to_string(), Value::U64(s.run)),
                ];
                if s.parent != SpanId::NONE {
                    args.push(("parent".to_string(), Value::U64(s.parent.0 as u64)));
                }
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    (
                        "cat".to_string(),
                        Value::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::F64(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(s.lane)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            ("otherData".to_string(), meta),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}
