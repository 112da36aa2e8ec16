//! In-memory spans around the calls the bench makes into each layer.
//!
//! The product is not instrumented: a span is opened here, around a call to
//! a public function, and records host time plus the counting allocator's
//! traffic in between. Spans stay in memory and are written out at the end.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside, in the layer's own unit (IOs, points, cells).
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a disabled recorder only runs the closures, so the
/// same driver code gives the untraced baseline for `spans.overhead_pct`.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    enabled: bool,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        // Sized up front so recording never allocates inside a parent span.
        let cap = if enabled { 1 << 16 } else { 0 };
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            stack: Vec::with_capacity(16),
            next_id: 0,
            enabled,
        }
    }

    /// Time `f` as a child of whatever span is open. `f` returns its result
    /// and the amount of work it did.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let mem = alloc::snapshot();
        let start = self.origin.elapsed();
        let (out, count) = f(self);
        let end = self.origin.elapsed();
        let after = alloc::snapshot();
        self.stack.pop();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            count,
            allocs: after.count - mem.count,
            alloc_bytes: after.bytes - mem.bytes,
        });
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// What recording one span costs, ns: the mean over 50 000 empty ones.
    pub fn empty_span_ns() -> f64 {
        const SPANS: u32 = 50_000;
        let mut rec = Recorder::new(true);
        let start = Instant::now();
        for _ in 0..SPANS {
            rec.span("empty", |_| ((), 0));
        }
        std::hint::black_box(rec.spans().len());
        start.elapsed().as_secs_f64() * 1e9 / f64::from(SPANS)
    }

    /// Spans as JSON lines, for `perf/out/<workload>.spans.jsonl`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"count\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns, s.count, s.allocs, s.alloc_bytes
            );
        }
        out
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub dur_ns: u64,
    /// Duration minus the part direct children cover.
    pub self_ns: u64,
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Total {
    pub fn ns_per_count(&self) -> f64 {
        ratio(self.dur_ns as f64, self.count as f64)
    }
}

/// `a / b`, or 0 when there was no work to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sum the spans named `name`, subtracting each one's direct children for the
/// self time.
pub fn total(spans: &[Span], name: &str) -> Total {
    let mut t = Total::default();
    for s in spans.iter().filter(|s| s.name == name) {
        let children: u64 = spans.iter().filter(|c| c.parent == Some(s.id)).map(Span::dur_ns).sum();
        t.calls += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(children);
        t.count += s.count;
        t.allocs += s.allocs;
        t.alloc_bytes += s.alloc_bytes;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, id, parent, start_ns: start, end_ns: end, count: 1, allocs: 0, alloc_bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("grandchild", 2, Some(1), 20, 30),
            span("child", 1, Some(0), 10, 50),
            span("child", 3, Some(0), 60, 80),
            span("root", 0, None, 0, 100),
        ];
        let root = total(&spans, "root");
        assert_eq!((root.dur_ns, root.self_ns), (100, 40), "100 - (40 + 20)");
        let child = total(&spans, "child");
        assert_eq!((child.calls, child.dur_ns, child.self_ns), (2, 60, 50));
        assert_eq!(total(&spans, "absent"), Total::default());
    }

    #[test]
    fn recorder_nests_and_counts_allocations() {
        let mut rec = Recorder::new(true);
        let kept = rec.span("outer", |rec| {
            let v = rec.span("inner", |_| (std::hint::black_box(vec![1u8; 4096]), 7));
            (v, 1)
        });
        assert_eq!(kept.len(), 4096);
        let [inner, outer] = rec.spans() else { panic!("two spans: {:?}", rec.spans()) };
        assert_eq!((inner.name, inner.parent, inner.count), ("inner", Some(outer.id), 7));
        assert_eq!(outer.parent, None);
        assert!(inner.allocs >= 1 && inner.alloc_bytes >= 4096);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(rec.to_jsonl().lines().count(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| (5, 1)), 5);
        assert!(off.spans().is_empty());

        let cost = Recorder::empty_span_ns();
        assert!(cost > 0.0 && cost < 100_000.0, "{cost} ns per empty span");
    }
}
