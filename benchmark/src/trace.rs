//! The benchmark's in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; the program itself carries no instrumentation. One
//! driver thread records, so parent/child nesting is a plain stack. Spans
//! stay in memory and are written once, at exit, as Chrome trace-event
//! JSON (`chrome://tracing`, Perfetto) — the wall-clock track a later PR
//! can join with simulated-time tracks.

use crate::ALLOC;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Communication round the span belongs to (0: set-up or tear-down).
    pub round: usize,
    /// Allocator calls made between begin and end, on any thread.
    pub alloc_events: u64,
    /// Work done inside the span, in the unit its call site documents
    /// (uploads signed, bytes hashed, events popped, ...).
    pub count: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans; see the module docs.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records.
    pub fn on() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            // Reserved up front so a growing span list rarely allocates
            // inside someone else's bracket.
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(16),
        }
    }

    /// Tracing off: every call returns at once and nothing is kept. The
    /// end-to-end metrics are measured with this.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, round: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            round,
            alloc_events: 0,
            count: 0,
        });
        self.open.push(id);
        // Read the instruments last so the recorder's own work stays
        // outside the bracket.
        self.spans[id].alloc_events = ALLOC.events() as u64;
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id` (the innermost open one), attaching its work count.
    pub fn end(&mut self, id: usize, count: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let events = ALLOC.events() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.alloc_events = events - span.alloc_events;
        span.count = count;
    }

    /// Runs `f` inside a span; `f` returns its result and its work count.
    pub fn span<T>(&mut self, name: &'static str, round: usize, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.begin(name, round);
        let (value, count) = f();
        self.end(id, count);
        value
    }

    /// Records a count taken at a layer boundary as a zero-length span.
    pub fn mark(&mut self, name: &'static str, round: usize, count: u64) {
        let id = self.begin(name, round);
        self.end(id, count);
    }

    /// Per-round totals of `field` over the spans called `name`, for the
    /// rounds that have at least one such span.
    fn per_round(&self, name: &str, field: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut rounds: BTreeMap<usize, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *rounds.entry(span.round).or_insert(0.0) += field(span);
        }
        rounds.into_values().collect()
    }

    /// Milliseconds spent in `name` spans, one total per round.
    pub fn ms_per_round(&self, name: &str) -> Vec<f64> {
        self.per_round(name, Span::ms)
    }

    /// Work counts of `name` spans, one total per round.
    pub fn count_per_round(&self, name: &str) -> Vec<f64> {
        self.per_round(name, |s| s.count as f64)
    }

    /// Allocator calls inside `name` spans, one total per round.
    pub fn allocs_per_round(&self, name: &str) -> Vec<f64> {
        self.per_round(name, |s| s.alloc_events as f64)
    }

    /// Writes every span as a Chrome trace-event "complete" event, with
    /// each span's self time among its arguments.
    pub fn chrome_trace_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"round\":{},\"self_us\":{:.3},\
                 \"alloc_events\":{},\"count\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.round,
                self_ns[id] as f64 / 1e3,
                span.alloc_events,
                span.count,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (one
/// recording thread), so their clipped durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            covered[parent] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 1,
            alloc_events: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, 100, None),     // root: children cover 30 + 40
            span(10, 40, Some(0)),  // child a: grandchild covers 10
            span(15, 25, Some(1)),  // grandchild
            span(50, 90, Some(0)),  // child b
            span(95, 120, Some(0)), // child that outlives the parent: clipped to 5
        ];
        assert_eq!(self_times_ns(&spans), vec![25, 20, 10, 40, 25]);
    }

    #[test]
    fn recorder_nests_counts_and_exports() {
        let mut rec = Recorder::on();
        let outer = rec.begin("outer", 3);
        let boxed = rec.span("inner", 3, || (Box::new(7u64), 5));
        rec.end(outer, 1);
        assert_eq!(*boxed, 7);
        assert_eq!(rec.spans[1].parent, Some(outer));
        assert_eq!(rec.spans[1].count, 5);
        assert!(rec.spans[1].alloc_events >= 1, "the Box was counted");
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert_eq!(rec.count_per_round("inner"), vec![5.0]);
        assert_eq!(rec.ms_per_round("absent"), Vec::<f64>::new());
        let json = rec.chrome_trace_json();
        let parsed = crate::report::parse_json(&json).expect("valid JSON");
        assert!(matches!(
            parsed.field("traceEvents"),
            Ok(serde::Value::Arr(events)) if events.len() == 2
        ));

        let mut off = Recorder::off();
        let id = off.begin("ignored", 1);
        off.end(id, 9);
        assert!(off.spans.is_empty());
    }
}
