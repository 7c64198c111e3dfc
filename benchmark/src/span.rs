//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans nest by call structure on one thread: a span's parent is the
//! span that was open when it started. They are kept in a vector sized
//! up front (recording must not allocate inside the span it measures)
//! and written out as JSON lines when the run ends.

use std::io::{self, Write};
use std::time::Instant;

use crate::alloc_count;
use crate::json::Json;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.system.warm`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the sweep point the call served, if any.
    pub point: Option<usize>,
    /// Allocations made by this thread inside the span.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Runs `f` inside a span called `name`, nested in whichever span
    /// is open. `f` gets the tracer back to open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        debug_assert!(
            self.spans.len() < self.spans.capacity(),
            "span buffer would grow inside a measured region"
        );
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            point,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(id);
        let (allocs, bytes) = alloc_count::snapshot();
        let start = self.origin.elapsed();
        let result = f(self);
        let end = self.origin.elapsed();
        let (allocs_after, bytes_after) = alloc_count::snapshot();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        span.allocs = allocs_after - allocs;
        span.bytes = bytes_after - bytes;
        result
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children run one after another on the same thread,
/// so the covered time is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub ns: u64,
    /// Summed allocations.
    pub allocs: u64,
}

/// Sums the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> Total {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(Total::default(), |t, s| Total {
            count: t.count + 1,
            ns: t.ns + s.duration_ns(),
            allocs: t.allocs + s.allocs,
        })
}

/// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
/// `self_ns`, `parent`, `point`, `allocs`, `bytes`.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> io::Result<()> {
    let own = self_times_ns(spans);
    let opt = |v: Option<usize>| v.map_or(Json::Null, |i| Json::Int(i as u64));
    for (id, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let line = Json::obj([
            ("id", Json::Int(id as u64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns)),
            ("end_ns", Json::Int(s.end_ns)),
            ("self_ns", Json::Int(self_ns)),
            ("parent", opt(s.parent)),
            ("point", opt(s.point)),
            ("allocs", Json::Int(s.allocs)),
            ("bytes", Json::Int(s.bytes)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
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
            point: None,
            allocs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
            span(200, 230, None),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 10, 40, 30]);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_counts_allocations() {
        let mut t = Tracer::with_capacity(8);
        t.span("outer", Some(3), |t| {
            t.span("inner", Some(3), |_| {
                drop(std::hint::black_box(Vec::<u8>::with_capacity(64)));
            });
            t.span("inner", Some(3), |_| {});
        });
        t.span("alone", None, |_| {});
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), None]
        );
        assert_eq!((s[1].allocs, s[1].bytes), (1, 64));
        assert_eq!(s[2].allocs, 0);
        assert_eq!(s[0].allocs, 1, "a parent sees its children's allocations");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let inner = total(s, "inner");
        assert_eq!((inner.count, inner.allocs), (2, 1));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [span(0, 9, None), span(2, 5, Some(0))];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            r#"{"id": 1, "name": "t", "start_ns": 2, "end_ns": 5, "self_ns": 3, "parent": 0, "point": null, "allocs": 0, "bytes": 0}"#
        );
        assert!(lines[0].contains(r#""self_ns": 6"#));
    }
}
