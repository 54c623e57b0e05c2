//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span holds a name, the id shared by every span of
//! one point or request, its parent, start and end, and the counters
//! observed at that boundary. Spans stay in memory until the run ends
//! and are then written out as one record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name (e.g. `"alloc"`).
    pub name: &'static str,
    /// Shared by every span of one design point or request.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (`0` while open).
    pub end_ns: u64,
    /// Counters observed at this boundary.
    pub counters: Vec<(&'static str, u64)>,
}

/// Collects spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Counters summed over the spans.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: 0,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `handle`.
    pub fn end(&mut self, handle: usize) {
        let end_ns = self.now_ns();
        self.spans[handle].end_ns = end_ns;
    }

    /// Attaches a counter to span `handle`.
    pub fn count(&mut self, handle: usize, key: &'static str, value: u64) {
        self.spans[handle].counters.push((key, value));
    }

    /// Records an already-timed span (client threads time requests
    /// themselves and hand the intervals over afterwards).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time of span `handle` in nanoseconds.
    pub fn wall_ns(&self, handle: usize) -> u64 {
        let s = &self.spans[handle];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Self time of every span: its wall time minus the part of its
    /// interval that its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let wall = s.end_ns.saturating_sub(s.start_ns);
                wall.saturating_sub(covered(s.start_ns, s.end_ns, kids))
            })
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
            for &(k, v) in &s.counters {
                *t.counters.entry(k).or_default() += v;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_record(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counters\":{{",
                s.name, s.id, parent, s.start_ns, s.end_ns, own
            );
            for (i, (k, v)) in s.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("point", None, 0, 100),
                span("scbd", Some(0), 10, 30),
                span("alloc", Some(0), 25, 60), // overlaps scbd by 5
                span("macp", Some(0), 90, 120), // sticks out of the parent
            ],
        };
        assert_eq!(t.self_ns(), vec![100 - 50 - 10, 20, 35, 30]);
    }

    #[test]
    fn totals_sum_calls_self_time_and_counters() {
        let mut t = Tracer::default();
        let p = t.begin("point", 1, None);
        let a = t.begin("alloc", 1, Some(p));
        t.count(a, "nodes", 7);
        t.end(a);
        let b = t.begin("alloc", 2, Some(p));
        t.count(b, "nodes", 5);
        t.end(b);
        t.end(p);
        let totals = t.totals();
        let alloc = &totals["alloc"];
        assert_eq!((alloc.calls, alloc.counters["nodes"]), (2, 12));
        assert_eq!(alloc.self_ns, t.wall_ns(a) + t.wall_ns(b));
        assert_eq!(totals["point"].self_ns, t.wall_ns(p) - alloc.self_ns);
    }
}
